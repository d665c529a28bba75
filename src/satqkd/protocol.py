"""Decoy-state BB84 pipeline: simulation, analytic rates, sifting, bounds, key length.

Two routes produce the same sufficient statistics (a TallyTable): a
pulse-level Monte Carlo over Poissonian weak coherent pulses, and the
closed-form gain/error equations for the same channel. Downstream, the
2-decoy bounds and the GLLP-style key formula (with Hoeffding finite-size
corrections) are shared by both routes.

Counting convention: sifted counts (same-basis detections) feed the key
formula, and the single-photon count estimate is scaled by the observed
sifted fraction so asymptotic and finite results are directly comparable.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .channel import PassProfile, transmittance_from_db
from .errors import DomainError
from .receiver import DetectorModel, N_DETECTORS, measure_batch
from .source import Basis, IntensityLabel, SourceConfig

E0 = 0.5  # error rate of background/dark clicks (random bits)


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# ---------------------------------------------------------------------------
# tallies


BASES = (Basis.RECTILINEAR, Basis.DIAGONAL)
COUNTS = ("sent", "detected", "sifted", "errors")
SENT, DETECTED, SIFTED, ERRORS = range(len(COUNTS))


@dataclass
class TallyTable:
    """Sufficient statistics of a block per intensity class and sender basis.

    counts[k, b, j] is count COUNTS[j] of the pulses of class labels[k]
    (source order) sent in basis BASES[b]. The analytic route gives
    expected, fractional counts, so the array is float64.
    """

    labels: Tuple[IntensityLabel, ...]
    counts: np.ndarray  # (class, basis, count)
    total_pulses: float = 0.0
    elapsed_s: float = 0.0

    @classmethod
    def zeros(cls, source: SourceConfig) -> "TallyTable":
        labels = tuple(c.label for c in source.intensity_classes)
        return cls(labels, np.zeros((len(labels), len(BASES), len(COUNTS))))

    def by_class(self) -> np.ndarray:
        """(class, count) array: the counts summed over the sender basis."""
        return self.counts.sum(axis=1)

    def validate(self):
        if not (np.diff(self.counts, axis=-1) <= 0).all():
            raise DomainError("inconsistent tally: every cell needs errors <= sifted <= detected <= sent")
        sent = self.counts[..., SENT].sum()
        if abs(sent - self.total_pulses) > 1e-6 * max(1.0, self.total_pulses):
            raise DomainError("per-cell sent counts do not sum to total pulses")

    def to_dict(self) -> dict:
        """Deterministic, JSON-ready form (sorted keys)."""
        cells = {
            f"{label.value}/{basis.value}": dict(zip(COUNTS, self.counts[k, b].tolist()))
            for k, label in enumerate(self.labels)
            for b, basis in enumerate(BASES)
        }
        return {"total_pulses": self.total_pulses, "elapsed_s": self.elapsed_s,
                "cells": dict(sorted(cells.items()))}


# ---------------------------------------------------------------------------
# analytic route


@dataclass(frozen=True)
class AnalyticRates:
    """Closed-form per-class gain and error rate for a Poissonian WCP source.

    For a 1-D array of segment losses, eta and every gain and error rate are
    arrays with one entry per segment.
    """

    gains: Dict[IntensityLabel, ArrayLike]  # Q_k
    error_rates: Dict[IntensityLabel, ArrayLike]  # E_k
    y0: float
    eta: ArrayLike
    mus: Dict[IntensityLabel, float]


def _total_eta(source: SourceConfig, total_loss_db: float, det: DetectorModel) -> float:
    return transmittance_from_db(total_loss_db + source.insertion_loss_db) * det.efficiency


def _click_prob(det: DetectorModel, background_click_prob: float) -> float:
    """Per-detector probability of a dark or background firing in one gate."""
    p_d = det.dark_prob + background_click_prob
    if p_d >= 1.0:
        raise DomainError("dark_prob + background_click_prob must be < 1")
    return p_d


def analytic_rates(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    background_click_prob: float = 0.0,
) -> AnalyticRates:
    """Gain Q_k and error rate E_k per intensity class.

    Q_k = 1 - (1 - Y0) exp(-eta mu_k); E_k Q_k = e0 Y0 + e_det (1 - exp(-eta mu_k))
    with Y0 the probability any of the four gated detectors fires on darks
    or background. total_loss_db is a scalar, or a 1-D array with one loss
    per segment of a pass.
    """
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    losses = np.asarray(total_loss_db, dtype=float)
    if losses.ndim > 1:
        raise DomainError("total_loss_db must be a scalar or a 1-D array")
    classes = source.intensity_classes
    y0 = 1.0 - (1.0 - _click_prob(det, background_click_prob)) ** N_DETECTORS

    def gain_and_error(eta: float, mu: float) -> Tuple[float, float]:
        decay = math.exp(-eta * mu)
        q = 1.0 - (1.0 - y0) * decay
        return q, (E0 * y0 + e_det * (1.0 - decay)) / q if q > 0 else E0

    # in Python floats: numpy's exp and ** may round differently from math's in the last bit
    etas = [_total_eta(source, loss, det) for loss in losses.reshape(-1).tolist()]
    rates = np.array([[gain_and_error(eta, c.mu) for eta in etas] for c in classes])
    rates = rates.reshape(len(classes), len(etas), 2).transpose(0, 2, 1)  # (class, Q/E, segment)
    eta, rates = (np.array(etas), rates) if losses.ndim else (etas[0], rates[..., 0].tolist())
    return AnalyticRates(gains={c.label: r[0] for c, r in zip(classes, rates)},
                         error_rates={c.label: r[1] for c, r in zip(classes, rates)},
                         y0=y0, eta=eta, mus={c.label: c.mu for c in classes})


def sift_fraction(source: SourceConfig, det: DetectorModel) -> float:
    """Probability sender and receiver pick the same basis."""
    pz_s, pz_r = source.basis_probability_z, det.basis_probability_z
    return pz_s * pz_r + (1.0 - pz_s) * (1.0 - pz_r)


def _expected_tally(source: SourceConfig, det: DetectorModel, rates: AnalyticRates,
                    n_pulses: ArrayLike) -> TallyTable:
    """Expected counts of the segments that rates and n_pulses describe, pooled."""
    n = np.atleast_1d(np.asarray(n_pulses, dtype=float))
    labels = tuple(c.label for c in source.intensity_classes)
    gains, errs = (np.array([by_label[l] for l in labels]).reshape(len(labels), n.size).T[..., None]
                   for by_label in (rates.gains, rates.error_rates))  # (segment, class, 1)
    emit = np.array([c.emit_probability for c in source.intensity_classes])
    p_basis = np.array([source.basis_probability_z, 1.0 - source.basis_probability_z])
    # each count is the one before it times a factor: sent Q_k, then the sift fraction, then E_k
    factors = np.empty((n.size, len(labels), len(BASES), len(COUNTS)))
    factors[..., SENT] = n[:, None, None] * emit[:, None] * p_basis
    factors[..., DETECTED] = gains
    factors[..., SIFTED] = sift_fraction(source, det)
    factors[..., ERRORS] = errs
    # the axis-0 sum of a 2-D or larger array adds the segments one by one, in order
    counts = np.cumprod(factors, axis=-1).sum(axis=0)
    total_pulses = elapsed_s = 0.0
    for k in n.tolist():  # in segment order too
        total_pulses, elapsed_s = total_pulses + k, elapsed_s + k / source.repetition_rate_hz
    return TallyTable(labels, counts, total_pulses, elapsed_s)


def analytic_tallies(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    n_pulses: ArrayLike,
    background_click_prob: float = 0.0,
) -> TallyTable:
    """Expected-value tallies (fractional counts) for the analytic route.

    total_loss_db and n_pulses are scalars, or matching 1-D arrays with one
    entry per segment of a pass, pooled into one tally.
    """
    if np.shape(total_loss_db) != np.shape(n_pulses):
        raise DomainError("total_loss_db and n_pulses must be scalars or 1-D arrays of equal length")
    rates = analytic_rates(source, total_loss_db, det, e_det, background_click_prob)
    return _expected_tally(source, det, rates, n_pulses)


# ---------------------------------------------------------------------------
# Monte Carlo route


def _zero_truncated_poisson(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Poisson(lam) counts conditioned on at least one, drawn exactly.

    Given that a rate-lam process on [0, 1] has an arrival, its first one
    sits at T = -log1p(-u (1 - e^-lam)) / lam, and the arrivals after it
    are Poisson(lam (1 - T)). No rejection loop, so lam -> 0 costs nothing.
    """
    rest = lam + np.log1p(rng.random(lam.shape) * np.expm1(-lam))  # lam * (1 - T)
    return 1 + rng.poisson(np.maximum(rest, 0.0))


def _dark_firings(rng: np.random.Generator, p_d: float, n: int, n_conditioned: int) -> np.ndarray:
    """(4, n) dark/background firings, rows Z0, Z1, X0, X1.

    Every detector fires independently with probability p_d. The last
    n_conditioned columns are conditioned on at least one firing: the first
    firing detector J has P(J = j) proportional to (1 - p_d)^j p_d, and the
    detectors after it fire independently.
    """
    # row by row: the same numbers as one (4, n) draw, without a (4, n) float temporary
    darks = np.stack([rng.random(n) < p_d for _ in range(N_DETECTORS)])
    if n_conditioned:
        # P(J <= j) up to the common factor P(any firing)
        cdf = -np.expm1(np.arange(1, N_DETECTORS + 1) * math.log1p(-p_d))
        first = np.searchsorted(cdf, rng.random(n_conditioned) * cdf[-1], side="right")
        first = np.minimum(first, N_DETECTORS - 1)
        rows = np.arange(N_DETECTORS)[:, None]
        tail = darks[:, n - n_conditioned:]
        darks[:, n - n_conditioned:] = (rows == first) | ((rows > first) & tail)
    return darks


def _simulate_shard(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    n_pulses: ArrayLike,
    seed_seq: np.random.SeedSequence,
    background_click_prob: float,
    chunk: int = 2_000_000,
) -> TallyTable:
    """Monte Carlo of one shard that measures only the pulses that can click.

    total_loss_db and n_pulses are scalars or matching 1-D arrays, one entry
    per segment of a pass; the tally pools all segments. A pulse with no
    arriving photon and no dark or background firing is never detected; it
    only adds to its cell's sent count. Per (segment, class, sender basis)
    this draws, from the same distribution as a pulse-by-pulse simulation:
    the cell sizes and the pulses with at least one arriving photon with
    their photon counts. Among the rest, the pulses with at least one firing
    are drawn per cell over all segments at once, since darks do not depend
    on loss. measure_batch runs on the drawn pulses only, in slices of at
    most ``chunk``.
    """
    rng = np.random.default_rng(seed_seq)
    p_d = _click_prob(det, background_click_prob)
    losses, counts = np.atleast_1d(total_loss_db), np.atleast_1d(n_pulses)
    classes = source.intensity_classes
    n_cells = 2 * len(classes)  # cell 2k: class k rectilinear, 2k + 1: class k diagonal
    cell_p = np.outer([c.emit_probability for c in classes],
                      [source.basis_probability_z, 1.0 - source.basis_probability_z]).ravel()
    # per segment in Python floats, so one segment rounds exactly as a scalar loss always has
    eta_channel = [transmittance_from_db(l + source.insertion_loss_db) for l in losses.tolist()]
    lam = np.array(eta_channel)[:, None] * np.repeat([c.mu for c in classes], 2)  # (segment, cell)

    sent = rng.multinomial(counts, cell_p / cell_p.sum())
    active = rng.binomial(sent, -np.expm1(-lam))
    y0 = -math.expm1(N_DETECTORS * math.log1p(-p_d))
    dark_only = rng.binomial((sent - active).sum(axis=0), y0)

    # simulated pulses in groups: the photon-active ones per (segment, cell), then the
    # dark-only ones per cell; group g belongs to cell g % n_cells
    group_len = np.concatenate([active.ravel(), dark_only])
    group_end = np.cumsum(group_len)
    n_active, n_sim = int(active.sum()), int(group_end[-1])
    by_level = np.zeros(4 * n_cells, dtype=np.int64)
    for start in range(0, n_sim, chunk):
        stop = min(start + chunk, n_sim)
        in_slice = np.clip(group_end, start, stop) - np.clip(group_end - group_len, start, stop)
        cell = np.repeat(np.arange(group_len.size) % n_cells, in_slice)
        m_dark = max(0, stop - max(start, n_active))
        photons = np.zeros(stop - start, dtype=np.int64)
        photons[: photons.size - m_dark] = _zero_truncated_poisson(rng, np.repeat(lam.ravel(), in_slice[: lam.size]))
        bits = rng.integers(0, 2, size=photons.size)
        darks = _dark_firings(rng, p_d, photons.size, m_dark)
        out = measure_batch(photons, cell % 2 == 0, bits, e_det, det, rng, darks=darks)
        # 0 missed, 1 detected only, 2 sifted, 3 sifted error
        level = out["detected"].astype(np.int64) + out["sifted"] + out["error"]
        by_level += np.bincount(4 * cell + level, minlength=4 * n_cells)

    # a pulse at level j counts as detected, sifted and an error up to j, so each count sums
    # the levels from its own up; the sent counts replace the sum of all levels
    cells = np.cumsum(by_level.reshape(len(classes), 2, 4)[..., ::-1], axis=-1)[..., ::-1].astype(float)
    cells[..., SENT] = sent.sum(axis=0).reshape(len(classes), 2)
    total = int(counts.sum())
    return TallyTable(tuple(c.label for c in classes), cells, total, total / source.repetition_rate_hz)


def simulate_block(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    n_pulses: ArrayLike,
    seed: int,
    shards: int = 1,
    workers: int = 1,
    background_click_prob: float = 0.0,
) -> TallyTable:
    """Pulse-level Monte Carlo of one transmission block.

    total_loss_db and n_pulses are scalars, or matching 1-D arrays that give
    the loss and pulse count of each segment of a pass, pooled into one
    tally. Results are a deterministic function of (seed, shards): each shard
    takes its share of every segment, draws from an independently derived
    rng stream, and the shard counts are added in shard order, so the worker
    count never changes the outcome.
    """
    losses = np.atleast_1d(np.asarray(total_loss_db, dtype=float))
    counts = np.atleast_1d(np.asarray(n_pulses, dtype=np.int64))
    if losses.ndim != 1 or losses.shape != counts.shape:
        raise DomainError("total_loss_db and n_pulses must be scalars or 1-D arrays of equal length")
    if not np.all(np.isfinite(losses) & (losses >= 0)):
        raise DomainError(f"losses must be finite and >= 0 dB, got {total_loss_db}")
    n_total = int(counts.sum())
    if (counts < 0).any() or n_total < 1:
        raise DomainError("n_pulses must be >= 1 (>= 0 per segment)")
    if shards < 1:
        raise DomainError("shards must be >= 1")
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    # shard i takes one more pulse of a segment when i < the segment's remainder
    sizes = counts // shards + (np.arange(shards)[:, None] < counts % shards)
    seqs = np.random.SeedSequence(seed).spawn(shards)

    def run(i: int) -> TallyTable:
        return _simulate_shard(
            source, losses, det, e_det, sizes[i], seqs[i], background_click_prob
        )

    if workers <= 1 or shards == 1:
        parts = [run(i) for i in range(shards)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(shards)))
    counts = np.sum([p.counts for p in parts], axis=0)
    return TallyTable(parts[0].labels, counts, float(n_total), n_total / source.repetition_rate_hz)


# ---------------------------------------------------------------------------
# decoy bounds


# The Y1 bound cancels terms of size ~e^mu down to about (mu_hi - mu_lo) Y1, so for close
# intensities its rounding error can outgrow Y1. A bound whose rounding error exceeds this
# share of it (a third of a double's digits) is refused.
Y1_ROUNDING_TOLERANCE = sys.float_info.epsilon ** (1.0 / 3.0)
Y1_LOST_IN_ROUNDING = "signal and decoy mu too close: the Y1 bound is lost in rounding error"


@dataclass(frozen=True)
class DecoyBounds:
    y1_lower: float
    e1_upper: Optional[float]
    y0_estimate: float
    degenerate: bool = False
    reason: Optional[str] = None  # why a degenerate bound is degenerate, if Y1 is not simply 0


def decoy_bounds(
    mu_a: float,
    mu_b: float,
    q_a: float,
    q_b: float,
    q_vacuum: float,
    eq_a: float,
    eq_b: float,
) -> DecoyBounds:
    """Standard 2-decoy (signal + decoy + vacuum) bounds on Y1 and e1.

    Takes the two non-vacuum intensities in either order (the labeling
    convention of which class is brighter does not matter), their gains Q,
    the vacuum gain, and the error-gain products E*Q.
    """
    if mu_a <= 0 or mu_b <= 0 or mu_a == mu_b:
        raise DomainError("need two distinct positive non-vacuum intensities")
    if mu_a > mu_b:
        mu_hi, mu_lo, q_hi, q_lo, eq_lo = mu_a, mu_b, q_a, q_b, eq_b
    else:
        mu_hi, mu_lo, q_hi, q_lo, eq_lo = mu_b, mu_a, q_b, q_a, eq_a
    y0 = q_vacuum
    try:
        exp_lo, exp_hi = math.exp(mu_lo), math.exp(mu_hi)
        prefactor = mu_hi / (mu_hi * mu_lo - mu_lo**2)
        y1 = prefactor * (
            q_lo * exp_lo
            - q_hi * exp_hi * (mu_lo**2 / mu_hi**2)
            - ((mu_hi**2 - mu_lo**2) / mu_hi**2) * y0
        )
    except OverflowError:
        y1 = math.nan
    except ZeroDivisionError:  # mu_hi * mu_lo rounds to mu_lo**2
        return DecoyBounds(0.0, None, y0, degenerate=True, reason=Y1_LOST_IN_ROUNDING)
    if not math.isfinite(y1):
        raise DomainError(f"no finite decoy bound for intensities {mu_lo} and {mu_hi}: it overflows a float")
    y1 = min(max(y1, 0.0), 1.0)
    if y1 * mu_lo <= 0.0:  # y1 = 0, or so small that y1 * mu_lo underflows
        return DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=y0, degenerate=True)
    # The gains are probabilities known to about an ulp of 1 and each bracket term takes up
    # to 8 roundings, so the bracket is known to 8 ulps of e^mu_lo + e^mu_hi + 2 (the y0
    # term weighs up to 2); the prefactor carries that into y1.
    rounding = prefactor * 8 * sys.float_info.epsilon * (exp_lo + exp_hi + 2.0)
    if not rounding <= Y1_ROUNDING_TOLERANCE * y1:
        return DecoyBounds(0.0, None, y0, degenerate=True, reason=Y1_LOST_IN_ROUNDING)
    e1 = (eq_lo * exp_lo - E0 * y0) / (y1 * mu_lo)
    e1 = min(max(e1, 0.0), 1.0)
    return DecoyBounds(y1_lower=y1, e1_upper=e1, y0_estimate=y0)


def decoy_bounds_from_rates(rates: AnalyticRates) -> DecoyBounds:
    labels = [l for l in rates.mus if l is not IntensityLabel.VACUUM]
    if len(labels) != 2:
        raise DomainError("need exactly two non-vacuum intensity classes")
    a, b = labels
    return decoy_bounds(
        mu_a=rates.mus[a],
        mu_b=rates.mus[b],
        q_a=rates.gains[a],
        q_b=rates.gains[b],
        q_vacuum=rates.gains.get(IntensityLabel.VACUUM, rates.y0),
        eq_a=rates.error_rates[a] * rates.gains[a],
        eq_b=rates.error_rates[b] * rates.gains[b],
    )


def decoy_bounds_from_tally(source: SourceConfig, tally: TallyTable) -> DecoyBounds:
    """Bounds from observed counts; gains from raw detections, errors from sifted."""
    by_class = dict(zip(tally.labels, tally.by_class().tolist()))
    vals = {}
    for cls in source.intensity_classes:
        sent, detected, sifted, errors = by_class.get(cls.label, (0.0,) * len(COUNTS))
        if sent <= 0:
            raise DomainError(f"no pulses sent in class {cls.label.value}")
        vals[cls.label] = (cls.mu, detected / sent, errors / sifted if sifted > 0 else E0)
    non_vac = [v for l, v in vals.items() if l is not IntensityLabel.VACUUM]
    if len(non_vac) != 2:
        raise DomainError("need exactly two non-vacuum intensity classes")
    (mu_a, q_a, e_a), (mu_b, q_b, e_b) = non_vac
    q_vac = vals[IntensityLabel.VACUUM][1] if IntensityLabel.VACUUM in vals else 0.0
    return decoy_bounds(mu_a, mu_b, q_a, q_b, q_vac, e_a * q_a, e_b * q_b)


# ---------------------------------------------------------------------------
# key length


@dataclass(frozen=True)
class SecurityParams:
    eps_secrecy: float = 1e-9
    eps_correctness: float = 1e-15
    f_ec: float = 1.16

    def __post_init__(self):
        if not 0.0 < self.eps_secrecy < 1.0 or not 0.0 < self.eps_correctness < 1.0:
            raise DomainError("epsilons must be in (0,1)")
        if self.f_ec < 1.0:
            raise DomainError("f_ec must be >= 1")


@dataclass(frozen=True)
class SiftedStats:
    """Signal-class statistics feeding the key formula."""

    n_signal: float  # sifted signal detections
    errors_signal: float
    detected_signal: float  # all signal detections (before sifting)
    sent_signal: float  # signal pulses sent
    mu_signal: float
    elapsed_s: float

    @property
    def qber(self) -> float:
        return self.errors_signal / self.n_signal if self.n_signal > 0 else E0


@dataclass(frozen=True)
class KeyResult:
    sifted_bits: float
    qber_signal: float
    bounds: DecoyBounds
    secret_key_length: float
    secret_key_rate: float
    regime: str
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "sifted_bits": self.sifted_bits,
            "qber_signal": self.qber_signal,
            "y1_lower": self.bounds.y1_lower,
            "e1_upper": self.bounds.e1_upper,
            "y0_estimate": self.bounds.y0_estimate,
            "secret_key_length_bits": self.secret_key_length,
            "secret_key_rate_bps": self.secret_key_rate,
            "regime": self.regime,
            "reason": self.reason,
        }


def stats_from_tally(source: SourceConfig, tally: TallyTable) -> SiftedStats:
    sent, detected, sifted, errors = tally.by_class()[tally.labels.index(IntensityLabel.SIGNAL)].tolist()
    return SiftedStats(
        n_signal=sifted,
        errors_signal=errors,
        detected_signal=detected,
        sent_signal=sent,
        mu_signal=source.intensity(IntensityLabel.SIGNAL).mu,
        elapsed_s=tally.elapsed_s,
    )


def _zero_key(stats: SiftedStats, bounds: DecoyBounds, regime: str, reason: str) -> KeyResult:
    return KeyResult(
        sifted_bits=stats.n_signal,
        qber_signal=stats.qber,
        bounds=bounds,
        secret_key_length=0.0,
        secret_key_rate=0.0,
        regime=regime,
        reason=reason,
    )


def key_length(
    stats: SiftedStats,
    bounds: DecoyBounds,
    sec: SecurityParams,
    regime: str = "asymptotic",
) -> KeyResult:
    """Secret key length from sifted signal statistics and decoy bounds.

    Asymptotic: GLLP-style, crediting only the bounded single-photon
    fraction and debiting the error-correction cost. Finite: Hoeffding
    deviations (eps budget split equally across the two deviations) shrink
    the single-photon count and inflate its error bound, then fixed
    secrecy/correctness penalties are subtracted.
    """
    if regime not in ("asymptotic", "finite"):
        raise DomainError(f"unknown regime {regime!r}")
    if stats.n_signal < 1:
        return _zero_key(stats, bounds, regime, "no sifted signal detections")
    e_sig = stats.qber
    if e_sig > 0.5:
        return _zero_key(stats, bounds, regime, "signal QBER above 0.5")
    if bounds.degenerate or bounds.e1_upper is None:
        return _zero_key(stats, bounds, regime, bounds.reason or "degenerate decoy bound (Y1 lower bound is 0)")
    if bounds.e1_upper >= 0.5:
        return _zero_key(stats, bounds, regime, "single-photon error bound >= 0.5")

    q_sig = stats.detected_signal / stats.sent_signal if stats.sent_signal > 0 else 0.0
    if q_sig <= 0:
        return _zero_key(stats, bounds, regime, "zero signal gain")
    mu = stats.mu_signal
    p1_yield = mu * math.exp(-mu) * bounds.y1_lower
    # expected sifted single-photon count, scaled by the observed sifted fraction
    s1 = stats.n_signal * p1_yield / q_sig
    ec_cost = sec.f_ec * stats.n_signal * binary_entropy(e_sig)

    if regime == "asymptotic":
        length = s1 * (1.0 - binary_entropy(bounds.e1_upper)) - ec_cost
    else:
        eps_h = sec.eps_secrecy / 2.0  # equal split across the two deviations
        dev = math.sqrt(stats.n_signal * math.log(1.0 / eps_h) / 2.0)
        s1_minus = s1 - dev
        if s1_minus <= 0:
            return _zero_key(stats, bounds, regime, "single-photon count consumed by finite-size deviation")
        phi1 = bounds.e1_upper + math.sqrt(math.log(1.0 / eps_h) / (2.0 * s1_minus))
        if phi1 >= 0.5:
            return _zero_key(stats, bounds, regime, "single-photon phase error bound >= 0.5")
        length = (
            s1_minus * (1.0 - binary_entropy(phi1))
            - ec_cost
            - 6.0 * math.log2(21.0 / sec.eps_secrecy)
            - math.log2(2.0 / sec.eps_correctness)
        )
    length = max(length, 0.0)
    rate = length / stats.elapsed_s if stats.elapsed_s > 0 else 0.0
    return KeyResult(
        sifted_bits=stats.n_signal,
        qber_signal=e_sig,
        bounds=bounds,
        secret_key_length=length,
        secret_key_rate=rate,
        regime=regime,
        reason=None if length > 0 else "negative key length clamped to 0",
    )


# ---------------------------------------------------------------------------
# convenience pipelines


def key_from_fixed_loss(
    source: SourceConfig,
    total_loss_db: float,
    det: DetectorModel,
    e_det: float,
    sec: SecurityParams,
    duration_s: float,
    regime: str = "asymptotic",
    background_click_prob: float = 0.0,
) -> KeyResult:
    """Analytic end-to-end key result at a fixed channel loss."""
    rates = analytic_rates(source, total_loss_db, det, e_det, background_click_prob)
    tally = _expected_tally(source, det, rates, duration_s * source.repetition_rate_hz)
    return key_length(stats_from_tally(source, tally), decoy_bounds_from_rates(rates), sec, regime)


def _pass_segments(profile: PassProfile, step_s: float, excess_loss_db: float, rate_hz: float):
    """(loss dB, pulses sent) of each step of the pass above the minimum elevation."""
    t0, t1 = (profile.times_s[0], profile.times_s[-1]) if len(profile.times_s) else (0.0, 0.0)
    losses, pulses = [], []
    t = t0
    while t < t1:
        dt = min(step_s, t1 - t)
        el = profile.elevation_at(t + dt / 2.0)
        if el is not None and el >= profile.min_elevation_deg:
            losses.append(profile.loss_model(el) + excess_loss_db)
            pulses.append(rate_hz * dt)
        t += dt
    return losses, pulses


def integrate_pass(
    profile: PassProfile,
    source: SourceConfig,
    det: DetectorModel,
    e_det: float,
    sec: SecurityParams,
    step_s: float = 1.0,
    regime: str = "finite",
    mode: str = "analytic",
    seed: Optional[int] = None,
    excess_loss_db: float = 0.0,
    background_click_prob: float = 0.0,
) -> Tuple[KeyResult, TallyTable]:
    """Accumulate tallies over a pass, then compute bounds and key once on the pool.

    Either mode takes every segment of the pass in one call: analytic_tallies
    or simulate_block.
    """
    if mode not in ("analytic", "mc"):
        raise DomainError(f"unknown pass-integration mode {mode!r}")
    if mode == "mc" and seed is None:
        raise DomainError("Monte Carlo pass integration requires a seed")
    losses, pulses = _pass_segments(profile, step_s, excess_loss_db, source.repetition_rate_hz)
    if mode == "analytic":
        pooled = analytic_tallies(source, losses, det, e_det, pulses, background_click_prob)
    else:
        counts = [int(round(n)) for n in pulses]
        pooled = TallyTable.zeros(source)
        if sum(counts):
            pooled = simulate_block(source, losses, det, e_det, counts, seed=seed,
                                    background_click_prob=background_click_prob)
    stats = stats_from_tally(source, pooled)
    if pooled.total_pulses <= 0:
        empty = DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=0.0, degenerate=True)
        reason = ("no whole pulse sent above the minimum elevation" if losses
                  else "pass never rises above the minimum elevation")
        return _zero_key(stats, empty, regime, reason), pooled
    return key_length(stats, decoy_bounds_from_tally(source, pooled), sec, regime), pooled
