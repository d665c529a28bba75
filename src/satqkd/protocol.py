"""Decoy-state BB84 pipeline: simulation, analytic rates, sifting, bounds, key length.

Two routes produce the same sufficient statistics (a TallyTable): a Monte
Carlo over Poissonian weak coherent pulses, which draws each cell's counts
from the receiver's exact per-pulse outcome law, and the closed-form
gain/error equations for the same channel. Downstream, the
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
from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .channel import transmittance_from_db
from .errors import DomainError
from .receiver import DetectorModel, N_DETECTORS, outcome_probabilities
from .source import Basis, IntensityLabel, SourceConfig

E0 = 0.5  # error rate of background/dark clicks (random bits)


# The key kernel takes one point or a batch of points: a batch is a float64 array with one
# entry per point, one point a numpy float64 scalar. Scalar arithmetic is as cheap as Python's
# but, like an array's, gives inf or NaN where Python's would raise; and np.float64 is a
# Python float, so a one-point result prints and compares as one.


def _points(*values) -> list:
    """The values as float64 of one broadcast shape: arrays for a batch, numpy scalars for one point."""
    if any(isinstance(v, np.ndarray) and v.ndim for v in values):
        return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return [v if type(v) is np.float64 else np.float64(v) for v in values]  # None gives NaN


def _where(cond, a, b):
    """np.where, without its cost for one point."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _each(fn, x):
    """fn of every element of x, in Python floats.

    numpy's exp, log2 and ** may round differently from math's in the last
    bit, so the kernel takes them element by element from math: every point
    of a batch then gets exactly the numbers it gets on its own.
    """
    if not isinstance(x, np.ndarray):
        return np.float64(fn(float(x)))
    return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _any(mask) -> bool:
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def binary_entropy(x: ArrayLike):
    outside = (x <= 0.0) | (x >= 1.0)  # NaN is inside: it gives NaN
    x_in = _where(outside, 0.5, x)
    h = -x_in * _each(math.log2, x_in) - (1.0 - x_in) * _each(math.log2, 1.0 - x_in)
    return _where(outside, 0.0, h)


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

    def observed_rates(self) -> Tuple[list, list]:
        """Observed per-class gains (detections per pulse sent) and error rates (errors per sifted detection)."""
        gains, error_rates = [], []
        for label, (sent, detected, sifted, errors) in zip(self.labels, self.by_class().tolist()):
            if sent <= 0:
                raise DomainError(f"no pulses sent in class {label.value}")
            gains.append(detected / sent)
            error_rates.append(errors / sifted if sifted > 0 else E0)
        return gains, error_rates

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

    Row k of mus, gains and error_rates belongs to class labels[k] (source
    order). For one point a row is a scalar; for a batch of points (losses,
    intensities, or segments of a pass) it has one entry per point, and so
    does eta when the losses do.
    """

    labels: Tuple[IntensityLabel, ...]
    mus: np.ndarray  # (class[, point])
    gains: np.ndarray  # Q_k: (class[, point])
    error_rates: np.ndarray  # E_k: (class[, point])
    y0: float
    eta: np.ndarray  # one per loss


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
    mus: Optional[ArrayLike] = None,
) -> AnalyticRates:
    """Gain Q_k and error rate E_k per intensity class.

    Q_k = 1 - (1 - Y0) exp(-eta mu_k); E_k Q_k = e0 Y0 + e_det (1 - exp(-eta mu_k))
    with Y0 the probability any of the four gated detectors fires on darks
    or background. total_loss_db is a scalar, or a 1-D array with one loss
    per point. mus, if given, replaces the source's intensities: a (class,
    point) array in source order that broadcasts against the losses.
    """
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    losses = np.asarray(total_loss_db, dtype=float)
    if losses.ndim > 1:
        raise DomainError("total_loss_db must be a scalar or a 1-D array")
    classes = source.intensity_classes
    if mus is None:
        mus = np.reshape([c.mu for c in classes], (len(classes),) + (1,) * losses.ndim)
    mus = np.asarray(mus, dtype=float)
    y0 = 1.0 - (1.0 - _click_prob(det, background_click_prob)) ** N_DETECTORS
    eta = _each(lambda loss: _total_eta(source, loss, det), losses)
    decay = _each(math.exp, -eta * mus)
    gains = 1.0 - (1.0 - y0) * decay
    with np.errstate(divide="ignore", invalid="ignore"):
        error_rates = np.where(gains > 0, (E0 * y0 + e_det * (1.0 - decay)) / gains, E0)
    return AnalyticRates(tuple(c.label for c in classes), mus, gains, error_rates, y0, eta)


def sift_fraction(source: SourceConfig, det: DetectorModel, basis_probability_z: Optional[ArrayLike] = None):
    """Probability sender and receiver pick the same basis.

    basis_probability_z, if given, replaces the sender's, one entry per point.
    """
    pz_s = source.basis_probability_z if basis_probability_z is None else basis_probability_z
    pz_r = det.basis_probability_z
    return pz_s * pz_r + (1.0 - pz_s) * (1.0 - pz_r)


def _expected_counts(source: SourceConfig, det: DetectorModel, rates: AnalyticRates, n_pulses: ArrayLike,
                     emit: Optional[ArrayLike] = None, p_z: Optional[ArrayLike] = None) -> np.ndarray:
    """Expected (point, class, basis, count) counts of each point of rates; no point axis for one point.

    n_pulses, the emit probabilities (a (class, point) array in source order)
    and the sender's Z-basis probability (one per point) broadcast against
    the points of rates; the last two default to the source's.
    """
    if emit is None:
        emit = [c.emit_probability for c in source.intensity_classes]
    p_z = np.asarray(source.basis_probability_z if p_z is None else p_z, dtype=float)

    def per_class(rows: ArrayLike) -> np.ndarray:  # (class[, point]) -> ([point, ]class, 1)
        return np.asarray(rows, dtype=float).T[..., None]

    p_basis = np.array([p_z, 1.0 - p_z]).T[..., None, :]
    sent = np.asarray(n_pulses, dtype=float)[..., None, None] * per_class(emit) * p_basis
    sift = np.asarray(sift_fraction(source, det, p_z))[..., None, None]
    gains, error_rates = per_class(rates.gains), per_class(rates.error_rates)
    # each count is the one before it times a factor: sent Q_k, then the sift fraction, then E_k
    factors = np.empty(np.broadcast_shapes(sent.shape, gains.shape, sift.shape) + (len(COUNTS),))
    factors[..., SENT] = sent
    factors[..., DETECTED] = gains
    factors[..., SIFTED] = sift
    factors[..., ERRORS] = error_rates
    return np.cumprod(factors, axis=-1)


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
    counts = _expected_counts(source, det, rates, n_pulses)
    if counts.ndim > 3:  # the axis-0 sum of a 2-D or larger array adds the segments one by one, in order
        counts = counts.sum(axis=0)
    total_pulses = elapsed_s = 0.0
    for k in np.atleast_1d(np.asarray(n_pulses, dtype=float)).tolist():  # in segment order too
        total_pulses, elapsed_s = total_pulses + k, elapsed_s + k / source.repetition_rate_hz
    return TallyTable(rates.labels, counts, total_pulses, elapsed_s)


# ---------------------------------------------------------------------------
# Monte Carlo route


def _simulate_shard(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    n_pulses: ArrayLike,
    seed_seq: np.random.SeedSequence,
    background_click_prob: float,
) -> TallyTable:
    """Monte Carlo of one shard, drawn as counts with no per-pulse arrays.

    total_loss_db and n_pulses are scalars or matching 1-D arrays, one entry
    per segment of a pass; the tally pools all segments. Per segment one
    multinomial draw splits the pulses into (class, sender basis) cells, and
    per (segment, cell) a second one splits the cell's pulses over the four
    outcome levels of receiver.outcome_probabilities. Pulses are independent
    and each lands in a level with exactly those probabilities, so the counts
    have the same distribution as a pulse-by-pulse simulation.
    """
    rng = np.random.default_rng(seed_seq)
    p_d = _click_prob(det, background_click_prob)
    losses, counts = np.atleast_1d(total_loss_db), np.atleast_1d(n_pulses)
    classes = source.intensity_classes
    # cell 2k: class k rectilinear, 2k + 1: class k diagonal
    cell_p = np.outer([c.emit_probability for c in classes],
                      [source.basis_probability_z, 1.0 - source.basis_probability_z]).ravel()
    p_same = np.tile([det.basis_probability_z, 1.0 - det.basis_probability_z], len(classes))
    # per segment in Python floats, so one segment rounds exactly as a scalar loss always has
    eta_channel = [transmittance_from_db(l + source.insertion_loss_db) for l in losses.tolist()]
    lam = np.array(eta_channel)[:, None] * np.repeat([c.mu for c in classes], 2)  # (segment, cell)

    sent = rng.multinomial(counts, cell_p / cell_p.sum())
    levels = outcome_probabilities(lam * det.efficiency, p_same, e_det, p_d)  # (segment, cell, level)
    # levels drawn from the last (sifted error) to the first (missed), so that numpy takes the
    # missed pulses, nearly all of them, as the remainder and each small level keeps its precision
    drawn = rng.multinomial(sent, levels[..., ::-1]).sum(axis=0)
    # a pulse at level j counts as detected, sifted and an error up to j, so the running sums
    # from the last level give errors, sifted, detected and sent
    cells = np.cumsum(drawn, axis=-1)[..., ::-1].reshape(len(classes), 2, len(COUNTS)).astype(float)
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
    """Monte Carlo of one transmission block.

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
Y1_ZERO = "degenerate decoy bound (Y1 lower bound is 0)"
MAX_EXP_ARG = math.log(sys.float_info.max)  # the largest x whose math.exp(x) does not overflow


def _square(x: float) -> float:
    return x**2  # Python's pow, which may round x * x differently


@dataclass(frozen=True)
class DecoyBounds:
    """Bounds on the single-photon yield and error rate.

    Each field is a scalar for one point and an array for a batch of
    points. e1_upper is None where the bound is degenerate.
    """

    y1_lower: ArrayLike
    e1_upper: Optional[ArrayLike]
    y0_estimate: ArrayLike
    degenerate: ArrayLike = False
    reason: Optional[ArrayLike] = None  # why a degenerate bound is degenerate; None reads as Y1_ZERO


def decoy_bounds(
    mu_a: ArrayLike,
    mu_b: ArrayLike,
    q_a: ArrayLike,
    q_b: ArrayLike,
    q_vacuum: ArrayLike,
    eq_a: ArrayLike,
    eq_b: ArrayLike,
) -> DecoyBounds:
    """Standard 2-decoy (signal + decoy + vacuum) bounds on Y1 and e1.

    Takes the two non-vacuum intensities in either order (the labeling
    convention of which class is brighter does not matter), their gains Q,
    the vacuum gain, and the error-gain products E*Q. Each is a scalar or an
    array with one entry per point; they broadcast, and each point is
    bounded on its own.
    """
    mu_a, mu_b, q_a, q_b, y0, eq_a, eq_b = _points(mu_a, mu_b, q_a, q_b, q_vacuum, eq_a, eq_b)
    if _any((mu_a <= 0) | (mu_b <= 0) | (mu_a == mu_b)):
        raise DomainError("need two distinct positive non-vacuum intensities")
    a_hi = mu_a > mu_b
    mu_hi, mu_lo, q_hi, q_lo, eq_lo = (_where(a_hi, x, y) for x, y in
                                       ((mu_a, mu_b), (mu_b, mu_a), (q_a, q_b), (q_b, q_a), (eq_b, eq_a)))
    overflow = mu_hi > MAX_EXP_ARG  # math.exp overflows past it, and the square may: neither is taken there
    lo, hi = _where(overflow, 0.0, mu_lo), _where(overflow, 0.0, mu_hi)
    exp_lo, exp_hi, lo2, hi2 = _each(math.exp, lo), _each(math.exp, hi), _each(_square, lo), _each(_square, hi)
    with np.errstate(all="ignore"):
        denominator = mu_hi * mu_lo - lo2
        prefactor = mu_hi / denominator
        y1 = prefactor * (q_lo * exp_lo - q_hi * exp_hi * (lo2 / hi2) - ((hi2 - lo2) / hi2) * y0)
        lost = (denominator == 0.0) | (hi2 == 0.0)  # mu_hi * mu_lo rounds to mu_lo**2
        unbounded = overflow | ~(lost | np.isfinite(y1))
        if _any(unbounded):
            k = int(np.argmax(np.ravel(unbounded)))
            raise DomainError(f"no finite decoy bound for intensities {np.ravel(mu_lo)[k]} and "
                              f"{np.ravel(mu_hi)[k]}: it overflows a float")
        y1 = _where(y1 < 0.0, 0.0, y1)  # max(y1, 0.0), then min(y1, 1.0), as Python's max and min
        y1 = _where(1.0 < y1, 1.0, y1)
        zero = y1 * mu_lo <= 0.0  # y1 = 0, or so small that y1 * mu_lo underflows
        # The gains are probabilities known to about an ulp of 1 and each bracket term takes up
        # to 8 roundings, so the bracket is known to 8 ulps of e^mu_lo + e^mu_hi + 2 (the y0
        # term weighs up to 2); the prefactor carries that into y1.
        rounding = prefactor * 8 * sys.float_info.epsilon * (exp_lo + exp_hi + 2.0)
        lost = lost | ~(zero | (rounding <= Y1_ROUNDING_TOLERANCE * y1))
        degenerate = lost | zero
        e1 = (eq_lo * exp_lo - E0 * y0) / (y1 * mu_lo)
    e1 = _where(e1 < 0.0, 0.0, e1)
    e1 = _where(1.0 < e1, 1.0, e1)
    return DecoyBounds(_where(degenerate, 0.0, y1), _where(degenerate, None, e1), y0, degenerate,
                       _where(lost, Y1_LOST_IN_ROUNDING, _where(zero, Y1_ZERO, None)))


def decoy_bounds_from_classes(labels: Tuple[IntensityLabel, ...], mus: ArrayLike, gains: ArrayLike,
                              error_rates: ArrayLike, y0: float = 0.0) -> DecoyBounds:
    """2-decoy bounds from per-class rows in source order: intensity mu, gain Q and error rate E.

    Row k belongs to class labels[k]; each row is a scalar or has one entry
    per point. A source without a vacuum class takes y0 as its vacuum gain.
    """
    non_vacuum = [k for k, l in enumerate(labels) if l is not IntensityLabel.VACUUM]
    if len(non_vacuum) != 2:
        raise DomainError("need exactly two non-vacuum intensity classes")
    a, b = non_vacuum
    q_vacuum = gains[labels.index(IntensityLabel.VACUUM)] if IntensityLabel.VACUUM in labels else y0
    return decoy_bounds(mus[a], mus[b], gains[a], gains[b], q_vacuum,
                        error_rates[a] * gains[a], error_rates[b] * gains[b])


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
    """Signal-class statistics feeding the key formula; scalars, or arrays with one entry per point."""

    n_signal: ArrayLike  # sifted signal detections
    errors_signal: ArrayLike
    detected_signal: ArrayLike  # all signal detections (before sifting)
    sent_signal: ArrayLike  # signal pulses sent
    mu_signal: ArrayLike
    elapsed_s: ArrayLike


@dataclass(frozen=True)
class KeyResult:
    """Key of one point (scalar fields) or of a batch of points (array fields)."""

    sifted_bits: ArrayLike
    qber_signal: ArrayLike
    bounds: DecoyBounds
    secret_key_length: ArrayLike
    secret_key_rate: ArrayLike
    regime: str
    reason: Optional[ArrayLike] = None

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


def _signal_stats(labels: Tuple[IntensityLabel, ...], counts: np.ndarray, mu_signal: ArrayLike,
                  elapsed_s: ArrayLike) -> SiftedStats:
    """Signal statistics of (point, class, basis, count) counts; no point axis for one point."""
    by_count = counts[..., labels.index(IntensityLabel.SIGNAL), :, :].sum(axis=-2)
    sent, detected, sifted, errors = by_count.T
    return SiftedStats(sifted, errors, detected, sent, mu_signal, elapsed_s)


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

    Every field of stats and bounds is a scalar or an array with one entry
    per point; they broadcast, each point is keyed on its own, and the
    result then holds arrays. A key length or rate that is not finite
    raises DomainError.
    """
    if regime not in ("asymptotic", "finite"):
        raise DomainError(f"unknown regime {regime!r}")
    n, errors, detected, sent, mu, elapsed, y1, e1, degenerate = _points(
        stats.n_signal, stats.errors_signal, stats.detected_signal, stats.sent_signal, stats.mu_signal,
        stats.elapsed_s, bounds.y1_lower, bounds.e1_upper, bounds.degenerate)  # e1_upper None: NaN
    with np.errstate(all="ignore"):  # the points that make no key may divide by zero
        e_sig = _where(n > 0, errors / n, E0)
        q_sig = _where(sent > 0, detected / sent, 0.0)
        # expected sifted single-photon count, scaled by the observed sifted fraction
        s1 = n * (mu * _each(math.exp, -mu) * y1) / q_sig
        ec_cost = sec.f_ec * n * binary_entropy(e_sig)
        # the first of these that holds makes a point's key zero, with its reason
        zero_keys = [
            (n < 1, "no sifted signal detections"),
            (e_sig > 0.5, "signal QBER above 0.5"),
            # e1 != e1 holds for NaN, which is what an e1_upper of None reads as
            ((degenerate != 0) | (e1 != e1), Y1_ZERO if bounds.reason is None else bounds.reason),
            (e1 >= 0.5, "single-photon error bound >= 0.5"),
            (q_sig <= 0, "zero signal gain"),
        ]
        if regime == "asymptotic":
            length = s1 * (1.0 - binary_entropy(e1)) - ec_cost
        else:
            log_term = math.log(1.0 / (sec.eps_secrecy / 2.0))  # eps split equally across the two deviations
            s1_minus = s1 - np.sqrt(n * log_term / 2.0)
            phi1 = e1 + np.sqrt(log_term / (2.0 * s1_minus))
            zero_keys += [
                (s1_minus <= 0, "single-photon count consumed by finite-size deviation"),
                (phi1 >= 0.5, "single-photon phase error bound >= 0.5"),
            ]
            length = (
                s1_minus * (1.0 - binary_entropy(phi1))
                - ec_cost
                - 6.0 * math.log2(21.0 / sec.eps_secrecy)
                - math.log2(2.0 / sec.eps_correctness)
            )
        zero, reason = False, None
        for holds, why in reversed(zero_keys):  # so the first that holds writes its reason last
            zero, reason = zero | holds, _where(holds, why, reason)
        length = _where(zero | (length < 0.0), 0.0, length)  # max(length, 0.0), as Python's max
        rate = _where(elapsed > 0, length / elapsed, 0.0)
        if _any(length * 0.0 + rate * 0.0 != 0.0):  # x * 0.0 is 0 for a finite x, NaN for inf or NaN
            raise DomainError("secret key length or rate is not finite: "
                              "the statistics or bounds hold a NaN or an infinity")
    reason = _where(zero, reason, _where(length > 0, None, "negative key length clamped to 0"))
    return KeyResult(n, e_sig, bounds, length, rate, regime, reason)


# ---------------------------------------------------------------------------
# convenience pipelines


def key_from_fixed_loss(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    sec: SecurityParams,
    duration_s: float,
    regime: str = "asymptotic",
    background_click_prob: float = 0.0,
    mus: Optional[ArrayLike] = None,
    emit: Optional[ArrayLike] = None,
    p_z: Optional[ArrayLike] = None,
) -> KeyResult:
    """Analytic end-to-end key result at a fixed channel loss, for one point or a batch.

    total_loss_db is a scalar or a 1-D array with one loss per point. mus and
    emit, (class, point) arrays in source order, and p_z, one per point,
    replace the source's intensities, emit probabilities and sender Z-basis
    probability point by point. Every point is keyed on its own and gets the
    numbers it gets alone; a batch gives a KeyResult of arrays.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise DomainError(f"duration must be finite and > 0 s, got {duration_s}")
    rates = analytic_rates(source, total_loss_db, det, e_det, background_click_prob, mus)
    n_pulses = duration_s * source.repetition_rate_hz
    counts = _expected_counts(source, det, rates, n_pulses, emit, p_z)
    mu_signal = rates.mus[rates.labels.index(IntensityLabel.SIGNAL)]
    stats = _signal_stats(rates.labels, counts, mu_signal, n_pulses / source.repetition_rate_hz)
    bounds = decoy_bounds_from_classes(rates.labels, rates.mus, rates.gains, rates.error_rates, rates.y0)
    return key_length(stats, bounds, sec, regime)


def key_from_tally(source: SourceConfig, tally: TallyTable, sec: SecurityParams, regime: str) -> KeyResult:
    """Key of a pooled tally; its bounds take the observed gains (all detections) and error rates (sifted)."""
    mus = [source.intensity(label).mu for label in tally.labels]
    bounds = decoy_bounds_from_classes(tally.labels, mus, *tally.observed_rates())
    stats = _signal_stats(tally.labels, tally.counts, source.intensity(IntensityLabel.SIGNAL).mu, tally.elapsed_s)
    return key_length(stats, bounds, sec, regime)


def integrate_pass(
    losses_db: ArrayLike,
    durations_s: ArrayLike,
    source: SourceConfig,
    det: DetectorModel,
    e_det: float,
    sec: SecurityParams,
    regime: str = "finite",
    mode: str = "analytic",
    seed: Optional[int] = None,
    background_click_prob: float = 0.0,
) -> Tuple[KeyResult, TallyTable]:
    """Accumulate tallies over a pass, then compute bounds and key once on the pool.

    losses_db and durations_s give the loss and duration of each segment of
    the pass, as PassProfile.segments returns them; a segment sends the
    source's repetition rate times its duration in pulses. Either mode takes
    every segment in one call: analytic_tallies or simulate_block.
    """
    if mode not in ("analytic", "mc"):
        raise DomainError(f"unknown pass-integration mode {mode!r}")
    if mode == "mc" and seed is None:
        raise DomainError("Monte Carlo pass integration requires a seed")
    losses = np.asarray(losses_db, dtype=float)
    pulses = source.repetition_rate_hz * np.asarray(durations_s, dtype=float)
    if mode == "analytic":
        pooled = analytic_tallies(source, losses, det, e_det, pulses, background_click_prob)
    else:
        counts = np.rint(pulses).astype(np.int64)
        pooled = TallyTable.zeros(source)
        if counts.sum():
            pooled = simulate_block(source, losses, det, e_det, counts, seed=seed,
                                    background_click_prob=background_click_prob)
    if pooled.total_pulses <= 0:
        empty = DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=0.0, degenerate=True)
        reason = ("no whole pulse sent above the minimum elevation" if losses.size
                  else "pass never rises above the minimum elevation")
        return KeyResult(0.0, E0, empty, 0.0, 0.0, regime, reason), pooled
    return key_from_tally(source, pooled, sec, regime), pooled
