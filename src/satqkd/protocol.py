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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import PassProfile, loss_at, transmittance_from_db
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


@dataclass
class CellCounts:
    sent: float = 0.0
    detected: float = 0.0
    sifted: float = 0.0
    errors: float = 0.0

    def __add__(self, other: "CellCounts") -> "CellCounts":
        return CellCounts(
            sent=self.sent + other.sent,
            detected=self.detected + other.detected,
            sifted=self.sifted + other.sifted,
            errors=self.errors + other.errors,
        )

    def validate(self):
        if not (self.errors <= self.sifted <= self.detected <= self.sent):
            raise DomainError(f"inconsistent tally cell {self}")


@dataclass
class TallyTable:
    """Per (intensity class, sender basis) sufficient statistics of a block."""

    cells: Dict[Tuple[IntensityLabel, Basis], CellCounts] = field(default_factory=dict)
    total_pulses: float = 0.0
    elapsed_s: float = 0.0

    def cell(self, label: IntensityLabel, basis: Basis) -> CellCounts:
        return self.cells.setdefault((label, basis), CellCounts())

    def __add__(self, other: "TallyTable") -> "TallyTable":
        merged = TallyTable(total_pulses=self.total_pulses + other.total_pulses,
                            elapsed_s=self.elapsed_s + other.elapsed_s)
        for src in (self, other):
            for key, cell in src.cells.items():
                merged.cells[key] = merged.cells.get(key, CellCounts()) + cell
        return merged

    def validate(self):
        for cell in self.cells.values():
            cell.validate()
        sent = sum(c.sent for c in self.cells.values())
        if abs(sent - self.total_pulses) > 1e-6 * max(1.0, self.total_pulses):
            raise DomainError("per-cell sent counts do not sum to total pulses")

    def by_class(self) -> Dict[IntensityLabel, CellCounts]:
        out: Dict[IntensityLabel, CellCounts] = {}
        for (label, _), cell in self.cells.items():
            out[label] = out.get(label, CellCounts()) + cell
        return out

    def to_dict(self) -> dict:
        """Deterministic, JSON-ready form (sorted keys)."""
        cells = {}
        for (label, basis) in sorted(self.cells, key=lambda k: (k[0].value, k[1].value)):
            c = self.cells[(label, basis)]
            cells[f"{label.value}/{basis.value}"] = {
                "sent": c.sent,
                "detected": c.detected,
                "sifted": c.sifted,
                "errors": c.errors,
            }
        return {"total_pulses": self.total_pulses, "elapsed_s": self.elapsed_s, "cells": cells}


# ---------------------------------------------------------------------------
# analytic route


@dataclass(frozen=True)
class AnalyticRates:
    """Closed-form per-class gain and error rate for a Poissonian WCP source."""

    gains: Dict[IntensityLabel, float]  # Q_k
    error_rates: Dict[IntensityLabel, float]  # E_k
    y0: float
    eta: float
    mus: Dict[IntensityLabel, float]


def _total_eta(source: SourceConfig, total_loss_db: float, det: DetectorModel) -> float:
    return transmittance_from_db(total_loss_db + source.insertion_loss_db) * det.efficiency


def analytic_rates(
    source: SourceConfig,
    total_loss_db: float,
    det: DetectorModel,
    e_det: float,
    background_click_prob: float = 0.0,
) -> AnalyticRates:
    """Gain Q_k and error rate E_k per intensity class.

    Q_k = 1 - (1 - Y0) exp(-eta mu_k); E_k Q_k = e0 Y0 + e_det (1 - exp(-eta mu_k))
    with Y0 the probability any of the four gated detectors fires on darks
    or background.
    """
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    eta = _total_eta(source, total_loss_db, det)
    p_click = det.dark_prob + background_click_prob
    y0 = 1.0 - (1.0 - p_click) ** N_DETECTORS
    gains, errs, mus = {}, {}, {}
    for cls in source.intensity_classes:
        q = 1.0 - (1.0 - y0) * math.exp(-eta * cls.mu)
        eq = E0 * y0 + e_det * (1.0 - math.exp(-eta * cls.mu))
        gains[cls.label] = q
        errs[cls.label] = eq / q if q > 0 else E0
        mus[cls.label] = cls.mu
    return AnalyticRates(gains=gains, error_rates=errs, y0=y0, eta=eta, mus=mus)


def sift_fraction(source: SourceConfig, det: DetectorModel) -> float:
    """Probability sender and receiver pick the same basis."""
    pz_s, pz_r = source.basis_probability_z, det.basis_probability_z
    return pz_s * pz_r + (1.0 - pz_s) * (1.0 - pz_r)


def analytic_tallies(
    source: SourceConfig,
    total_loss_db: float,
    det: DetectorModel,
    e_det: float,
    n_pulses: float,
    background_click_prob: float = 0.0,
) -> TallyTable:
    """Expected-value tallies (fractional counts) for the analytic route."""
    rates = analytic_rates(source, total_loss_db, det, e_det, background_click_prob)
    sift = sift_fraction(source, det)
    tally = TallyTable(total_pulses=n_pulses, elapsed_s=n_pulses / source.repetition_rate_hz)
    for cls in source.intensity_classes:
        for basis, p_basis in (
            (Basis.RECTILINEAR, source.basis_probability_z),
            (Basis.DIAGONAL, 1.0 - source.basis_probability_z),
        ):
            sent = n_pulses * cls.emit_probability * p_basis
            detected = sent * rates.gains[cls.label]
            sifted = detected * sift
            errors = sifted * rates.error_rates[cls.label]
            cell = tally.cell(cls.label, basis)
            cell.sent += sent
            cell.detected += detected
            cell.sifted += sifted
            cell.errors += errors
    return tally


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
    darks = rng.random((N_DETECTORS, n)) < p_d
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
    total_loss_db: float,
    det: DetectorModel,
    e_det: float,
    n_pulses: int,
    seed_seq: np.random.SeedSequence,
    background_click_prob: float,
    chunk: int = 2_000_000,
) -> TallyTable:
    """Monte Carlo of one shard that measures only the pulses that can click.

    A pulse with no arriving photon and no dark or background firing is
    never detected; it only adds to its cell's sent count. Per (class,
    sender basis) cell this draws, from the same distribution as a
    pulse-by-pulse simulation: the cell sizes; the pulses with at least one
    arriving photon and their photon counts; and, among the rest, the pulses
    with at least one firing and their firing pattern. measure_batch runs on
    those pulses only, in slices of at most ``chunk``.
    """
    rng = np.random.default_rng(seed_seq)
    p_d = det.dark_prob + background_click_prob
    if p_d >= 1.0:
        raise DomainError("dark_prob + background_click_prob must be < 1")
    classes = source.intensity_classes
    n_cells = 2 * len(classes)  # cell 2k: class k rectilinear, 2k + 1: class k diagonal
    cell_p = np.outer([c.emit_probability for c in classes],
                      [source.basis_probability_z, 1.0 - source.basis_probability_z]).ravel()
    eta_channel = transmittance_from_db(total_loss_db + source.insertion_loss_db)
    lam = np.repeat([c.mu for c in classes], 2) * eta_channel  # mean arriving photons

    sent = rng.multinomial(n_pulses, cell_p / cell_p.sum())
    active = rng.binomial(sent, -np.expm1(-lam))
    y0 = -math.expm1(N_DETECTORS * math.log1p(-p_d))
    dark_only = rng.binomial(sent - active, y0)

    # simulated pulses in order: the photon-active ones cell by cell, then the dark-only ones
    seg_len = np.concatenate([active, dark_only])
    seg_end = np.cumsum(seg_len)
    seg_cell = np.tile(np.arange(n_cells), 2)
    n_active, n_sim = int(seg_end[n_cells - 1]), int(seg_end[-1])
    by_level = np.zeros(4 * n_cells, dtype=np.int64)
    for start in range(0, n_sim, chunk):
        stop = min(start + chunk, n_sim)
        in_slice = np.clip(seg_end, start, stop) - np.clip(seg_end - seg_len, start, stop)
        cell = np.repeat(seg_cell, in_slice)
        m_dark = max(0, stop - max(start, n_active))
        photons = np.zeros(stop - start, dtype=np.int64)
        photons[: photons.size - m_dark] = _zero_truncated_poisson(rng, lam[cell[: cell.size - m_dark]])
        bits = rng.integers(0, 2, size=photons.size)
        darks = _dark_firings(rng, p_d, photons.size, m_dark)
        out = measure_batch(photons, cell % 2 == 0, bits, e_det, det, rng, darks=darks)
        # 0 missed, 1 detected only, 2 sifted, 3 sifted error
        level = out["detected"].astype(np.int64) + out["sifted"] + out["error"]
        by_level += np.bincount(4 * cell + level, minlength=4 * n_cells)

    by_level = by_level.reshape(n_cells, 4)
    detected, sifted, errors = (by_level[:, lo:].sum(axis=1) for lo in (1, 2, 3))
    tally = TallyTable(total_pulses=n_pulses, elapsed_s=n_pulses / source.repetition_rate_hz)
    for c in range(n_cells):
        basis = Basis.RECTILINEAR if c % 2 == 0 else Basis.DIAGONAL
        tally.cells[(classes[c // 2].label, basis)] = CellCounts(
            sent=float(sent[c]), detected=float(detected[c]),
            sifted=float(sifted[c]), errors=float(errors[c]),
        )
    return tally


def simulate_block(
    source: SourceConfig,
    total_loss_db: float,
    det: DetectorModel,
    e_det: float,
    n_pulses: int,
    seed: int,
    shards: int = 1,
    workers: int = 1,
    background_click_prob: float = 0.0,
) -> TallyTable:
    """Pulse-level Monte Carlo of one transmission block.

    Results are a deterministic function of (seed, shards): each shard draws
    from an independently derived rng stream and the merge is associative,
    so the worker count never changes the outcome.
    """
    if n_pulses < 1:
        raise DomainError("n_pulses must be >= 1")
    if shards < 1:
        raise DomainError("shards must be >= 1")
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    base = n_pulses // shards
    sizes = [base + (1 if i < n_pulses % shards else 0) for i in range(shards)]
    seqs = np.random.SeedSequence(seed).spawn(shards)

    def run(i: int) -> TallyTable:
        return _simulate_shard(
            source, total_loss_db, det, e_det, sizes[i], seqs[i], background_click_prob
        )

    if workers <= 1 or shards == 1:
        parts = [run(i) for i in range(shards)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(shards)))
    merged = parts[0]
    for p in parts[1:]:
        merged = merged + p
    merged.total_pulses = float(n_pulses)
    merged.elapsed_s = n_pulses / source.repetition_rate_hz
    return merged


# ---------------------------------------------------------------------------
# decoy bounds


@dataclass(frozen=True)
class DecoyBounds:
    y1_lower: float
    e1_upper: Optional[float]
    y0_estimate: float
    degenerate: bool = False


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
    y1 = (mu_hi / (mu_hi * mu_lo - mu_lo**2)) * (
        q_lo * math.exp(mu_lo)
        - q_hi * math.exp(mu_hi) * (mu_lo**2 / mu_hi**2)
        - ((mu_hi**2 - mu_lo**2) / mu_hi**2) * y0
    )
    y1 = min(max(y1, 0.0), 1.0)
    if y1 <= 0.0:
        return DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=y0, degenerate=True)
    e1 = (eq_lo * math.exp(mu_lo) - E0 * y0) / (y1 * mu_lo)
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
    by_class = tally.by_class()
    vals = {}
    for cls in source.intensity_classes:
        c = by_class.get(cls.label, CellCounts())
        if c.sent <= 0:
            raise DomainError(f"no pulses sent in class {cls.label.value}")
        q = c.detected / c.sent
        e = c.errors / c.sifted if c.sifted > 0 else E0
        vals[cls.label] = (cls.mu, q, e)
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
    by_class = tally.by_class()
    sig = by_class.get(IntensityLabel.SIGNAL, CellCounts())
    return SiftedStats(
        n_signal=sig.sifted,
        errors_signal=sig.errors,
        detected_signal=sig.detected,
        sent_signal=sig.sent,
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
        raise DomainError(f"signal QBER {e_sig} exceeds 0.5")
    if bounds.degenerate or bounds.e1_upper is None:
        return _zero_key(stats, bounds, regime, "degenerate decoy bound (Y1 lower bound is 0)")
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
    n_pulses = duration_s * source.repetition_rate_hz
    tally = analytic_tallies(source, total_loss_db, det, e_det, n_pulses, background_click_prob)
    rates = analytic_rates(source, total_loss_db, det, e_det, background_click_prob)
    bounds = decoy_bounds_from_rates(rates)
    return key_length(stats_from_tally(source, tally), bounds, sec, regime)


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
    """Accumulate tallies over a pass, then compute bounds and key once on the pool."""
    if mode not in ("analytic", "mc"):
        raise DomainError(f"unknown pass-integration mode {mode!r}")
    if mode == "mc" and seed is None:
        raise DomainError("Monte Carlo pass integration requires a seed")
    t0, t1 = (profile.times_s[0], profile.times_s[-1]) if len(profile.times_s) else (0.0, 0.0)
    pooled = TallyTable()
    seg_index = 0
    t = t0
    while t < t1:
        dt = min(step_s, t1 - t)
        mid = t + dt / 2.0
        el = profile.elevation_at(mid)
        if el is not None and el >= profile.min_elevation_deg:
            loss = profile.loss_model(el) + excess_loss_db
            n = source.repetition_rate_hz * dt
            if mode == "analytic":
                seg = analytic_tallies(source, loss, det, e_det, n, background_click_prob)
            else:
                seg = simulate_block(
                    source, loss, det, e_det, int(round(n)),
                    seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(seg_index,)).generate_state(1)[0]),
                    background_click_prob=background_click_prob,
                )
            pooled = pooled + seg
        t += dt
        seg_index += 1
    if pooled.total_pulses <= 0:
        empty = DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=0.0, degenerate=True)
        stats = SiftedStats(0.0, 0.0, 0.0, 0.0,
                            source.intensity(IntensityLabel.SIGNAL).mu, 0.0)
        return _zero_key(stats, empty, regime, "pass never rises above the minimum elevation"), pooled
    bounds = decoy_bounds_from_tally(source, pooled)
    result = key_length(stats_from_tally(source, pooled), bounds, sec, regime)
    return result, pooled
