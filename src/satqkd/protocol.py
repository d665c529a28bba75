"""Decoy-state BB84 pipeline: simulation, analytic tallies, bounds, key length.

Two routes produce the same sufficient statistics (a TallyTable): a Monte
Carlo over Poissonian weak coherent pulses, which draws each cell's counts
from the receiver's exact per-pulse outcome law, and the expected counts of
the closed-form gain/error equations for the same channel. One reader keys
every count array, through the 2-decoy bounds and the GLLP-style key formula
(with Hoeffding finite-size corrections).

Counting convention: sifted counts (same-basis detections) feed the key
formula, and the single-photon count estimate is scaled by the observed
sifted fraction so asymptotic and finite results are directly comparable.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .channel import transmittance_from_db
from .errors import DomainError
from .exact import each, square
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


def _any(mask) -> bool:
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def binary_entropy(x: ArrayLike):
    outside = (x <= 0.0) | (x >= 1.0)  # NaN is inside: it gives NaN
    x_in = _where(outside, 0.5, x)
    h = -x_in * each(math.log2, x_in) - (1.0 - x_in) * each(math.log2, 1.0 - x_in)
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


def _expected_counts(source: SourceConfig, total_loss_db: ArrayLike, det: DetectorModel, e_det: float,
                     n_pulses: ArrayLike, mus: Optional[ArrayLike] = None, emit: Optional[ArrayLike] = None,
                     p_z: Optional[ArrayLike] = None) -> np.ndarray:
    """Expected ([point,] class, basis, count) counts of the closed-form WCP model; no point axis for one point.

    A cell's sent pulses times the class gain Q_k = 1 - (1 - Y0) exp(-eta
    mu_k) are detected, those times the receiver's probability of the
    cell's basis sifted, and those times the error rate E_k, with E_k Q_k =
    e0 Y0 + e_det (1 - exp(-eta mu_k)), errors; Y0 is the probability any
    of the four gated detectors makes a noise click, each with probability
    det.dark_prob. total_loss_db is a scalar or a 1-D array with one loss
    per point, and n_pulses broadcasts against the points. mus and emit,
    (class[, point]) arrays in source order, and p_z, the sender's Z-basis
    probability ([point]), replace the source's.
    """
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    losses = np.asarray(total_loss_db, dtype=float)
    if losses.ndim > 1:
        raise DomainError("total_loss_db must be a scalar or a 1-D array")
    classes = source.intensity_classes
    if mus is None:
        mus = np.reshape([c.mu for c in classes], (len(classes),) + (1,) * losses.ndim)
    if emit is None:
        emit = [c.emit_probability for c in classes]
    p_z = np.asarray(source.basis_probability_z if p_z is None else p_z, dtype=float)
    y0 = 1.0 - (1.0 - det.dark_prob) ** N_DETECTORS
    eta = transmittance_from_db(losses + source.insertion_loss_db) * det.efficiency
    decay = each(math.exp, -eta * np.asarray(mus, dtype=float))
    gains = 1.0 - (1.0 - y0) * decay
    with np.errstate(divide="ignore", invalid="ignore"):
        error_rates = np.where(gains > 0, (E0 * y0 + e_det * (1.0 - decay)) / gains, E0)

    def per_class(rows: ArrayLike) -> np.ndarray:  # (class[, point]) -> ([point, ]class, 1)
        return np.asarray(rows, dtype=float).T[..., None]

    p_basis = np.array([p_z, 1.0 - p_z]).T[..., None, :]
    sent = np.asarray(n_pulses, dtype=float)[..., None, None] * per_class(emit) * p_basis
    pz_r = det.basis_probability_z
    sift = np.array([pz_r, 1.0 - pz_r])  # a detection is sifted when the receiver picks the sender's basis
    gains, error_rates = per_class(gains), per_class(error_rates)
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
) -> TallyTable:
    """Expected-value tallies (fractional counts) of the closed-form model.

    total_loss_db and n_pulses are scalars, or matching 1-D arrays with one
    entry per segment of a pass, pooled into one tally.
    """
    if np.shape(total_loss_db) != np.shape(n_pulses):
        raise DomainError("total_loss_db and n_pulses must be scalars or 1-D arrays of equal length")
    counts = _expected_counts(source, total_loss_db, det, e_det, n_pulses)
    if counts.ndim > 3:  # the axis-0 sum of a 2-D or larger array adds the segments one by one, in order
        counts = counts.sum(axis=0)
    # add.accumulate adds left to right, so both sums add the segments in order as a loop from 0.0 does
    pulses = np.concatenate(([0.0], np.ravel(np.asarray(n_pulses, dtype=float))))
    total_pulses = np.add.accumulate(pulses)[-1].item()
    elapsed_s = np.add.accumulate(pulses / source.repetition_rate_hz)[-1].item()
    return TallyTable(tuple(c.label for c in source.intensity_classes), counts, total_pulses, elapsed_s)


# ---------------------------------------------------------------------------
# Monte Carlo route


def _simulate_shard(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    n_pulses: ArrayLike,
    seed_seq: np.random.SeedSequence,
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
    losses, counts = np.atleast_1d(total_loss_db), np.atleast_1d(n_pulses)
    classes = source.intensity_classes
    # cell 2k: class k rectilinear, 2k + 1: class k diagonal
    cell_p = np.outer([c.emit_probability for c in classes],
                      [source.basis_probability_z, 1.0 - source.basis_probability_z]).ravel()
    p_same = np.tile([det.basis_probability_z, 1.0 - det.basis_probability_z], len(classes))
    eta_channel = transmittance_from_db(losses + source.insertion_loss_db)
    lam = eta_channel[:, None] * np.repeat([c.mu for c in classes], 2)  # (segment, cell)

    sent = rng.multinomial(counts, cell_p / cell_p.sum())
    levels = outcome_probabilities(lam * det.efficiency, p_same, e_det, det.dark_prob)  # (segment, cell, level)
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
        return _simulate_shard(source, losses, det, e_det, sizes[i], seqs[i])

    if workers <= 1 or shards == 1:
        parts = [run(i) for i in range(shards)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(shards)))
    counts = np.sum([p.counts for p in parts], axis=0)
    return TallyTable(parts[0].labels, counts, float(n_total), n_total / source.repetition_rate_hz)


# ---------------------------------------------------------------------------
# decoy bounds


# The Y1 bound cancels terms of size ~e^mu down to about (mu_hi - mu_lo) Y1, so its rounding
# error can outgrow Y1: for close intensities, or for a Y1 near the size of that error, as
# at high loss with no dark counts. A bound whose rounding error exceeds this share of it
# (a third of a double's digits) is refused.
Y1_ROUNDING_TOLERANCE = sys.float_info.epsilon ** (1.0 / 3.0)
Y1_LOST_IN_ROUNDING = "degenerate decoy bound (Y1 lower bound is lost in its rounding error)"
Y1_ZERO = "degenerate decoy bound (Y1 lower bound is 0)"
MAX_EXP_ARG = math.log(sys.float_info.max)  # the largest x whose math.exp(x) does not overflow


@dataclass(frozen=True)
class DecoyBounds:
    """Bounds on the single-photon yield and error rate.

    Each field is a scalar for one point and an array for a batch of
    points. reason says why a bound is degenerate and is None exactly where
    the bound holds; e1_upper is None where it is degenerate.
    """

    y1_lower: ArrayLike
    e1_upper: Optional[ArrayLike]
    y0_estimate: ArrayLike
    reason: Optional[ArrayLike]

    @property
    def degenerate(self) -> ArrayLike:
        return np.not_equal(self.reason, None)


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
    exp_lo, exp_hi, lo2, hi2 = each(math.exp, lo), each(math.exp, hi), each(square, lo), each(square, hi)
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
    return DecoyBounds(_where(degenerate, 0.0, y1), _where(degenerate, None, e1), y0,
                       _where(lost, Y1_LOST_IN_ROUNDING, _where(zero, Y1_ZERO, None)))


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
    n, errors, detected, sent, mu, elapsed, y1, e1 = _points(
        stats.n_signal, stats.errors_signal, stats.detected_signal, stats.sent_signal, stats.mu_signal,
        stats.elapsed_s, bounds.y1_lower, bounds.e1_upper)  # e1_upper None: NaN
    with np.errstate(all="ignore"):  # the points that make no key may divide by zero
        e_sig = _where(n > 0, errors / n, E0)
        q_sig = _where(sent > 0, detected / sent, 0.0)
        # expected sifted single-photon count, scaled by the observed sifted fraction
        s1 = n * (mu * each(math.exp, -mu) * y1) / q_sig
        ec_cost = sec.f_ec * n * binary_entropy(e_sig)
        # the first of these that holds makes a point's key zero, with its reason
        zero_keys = [
            (n < 1, "no sifted signal detections"),
            (e_sig > 0.5, "signal QBER above 0.5"),
            # e1 != e1 holds for NaN, which is what the None e1_upper of a degenerate bound reads as
            (e1 != e1, bounds.reason),
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
# the key of a count array


def _key_from_counts(labels: Tuple[IntensityLabel, ...], counts: np.ndarray, mus: Sequence,
                     elapsed_s: ArrayLike, sec: SecurityParams, regime: str) -> KeyResult:
    """Key of ([point,] class, basis, count) counts; no point axis for one point.

    labels are one signal, one decoy and one vacuum class, as SourceConfig
    requires, and mus holds one row per class in source order, a scalar or
    one entry per point. The 2-decoy bounds take each class's observed gain
    (detections per pulse sent) and error rate (errors per sifted detection);
    the key formula takes the signal class's counts.
    """
    by_class = counts[..., 0, :] + counts[..., 1, :]  # ([point,] class, count): the sum over the bases
    sent, detected, sifted, errors = np.ascontiguousarray(by_class.T)  # each (class[, point])
    empty = (sent <= 0).reshape(len(labels), -1).any(axis=1)
    if empty.any():
        raise DomainError(f"no pulses sent in class {labels[int(np.argmax(empty))].value}")
    gains = detected / sent
    with np.errstate(divide="ignore", invalid="ignore"):
        error_gains = np.where(sifted > 0, errors / sifted, E0) * gains
    a, b = (k for k, label in enumerate(labels) if label is not IntensityLabel.VACUUM)
    bounds = decoy_bounds(mus[a], mus[b], gains[a], gains[b], gains[labels.index(IntensityLabel.VACUUM)],
                          error_gains[a], error_gains[b])
    k = labels.index(IntensityLabel.SIGNAL)
    return key_length(SiftedStats(sifted[k], errors[k], detected[k], sent[k], mus[k], elapsed_s),
                      bounds, sec, regime)


def key_from_tally(source: SourceConfig, tally: TallyTable, sec: SecurityParams, regime: str) -> KeyResult:
    """Key of a pooled tally."""
    mus = [source.intensity(label).mu for label in tally.labels]
    return _key_from_counts(tally.labels, tally.counts, mus, tally.elapsed_s, sec, regime)


def key_from_fixed_loss(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    sec: SecurityParams,
    duration_s: float,
    regime: str = "asymptotic",
    mus: Optional[ArrayLike] = None,
    emit: Optional[ArrayLike] = None,
    p_z: Optional[ArrayLike] = None,
) -> KeyResult:
    """Analytic key at a fixed channel loss, for one point or a batch: the key of the expected counts.

    total_loss_db is a scalar or a 1-D array with one loss per point. mus and
    emit, (class, point) arrays in source order, and p_z, one per point,
    replace the source's intensities, emit probabilities and sender Z-basis
    probability point by point. Every point is keyed on its own and gets the
    numbers it gets alone; a batch gives a KeyResult of arrays.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise DomainError(f"duration must be finite and > 0 s, got {duration_s}")
    n_pulses = duration_s * source.repetition_rate_hz
    counts = _expected_counts(source, total_loss_db, det, e_det, n_pulses, mus, emit, p_z)
    labels = tuple(c.label for c in source.intensity_classes)
    rows = [c.mu for c in source.intensity_classes] if mus is None else np.asarray(mus, dtype=float)
    return _key_from_counts(labels, counts, rows, n_pulses / source.repetition_rate_hz, sec, regime)


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
        pooled = analytic_tallies(source, losses, det, e_det, pulses)
    else:
        counts = np.rint(pulses).astype(np.int64)
        pooled = TallyTable.zeros(source)
        if counts.sum():
            pooled = simulate_block(source, losses, det, e_det, counts, seed=seed)
    if pooled.total_pulses <= 0:
        reason = ("no whole pulse sent above the minimum elevation" if losses.size
                  else "pass never rises above the minimum elevation")
        empty = DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=0.0, reason=reason)
        return KeyResult(0.0, E0, empty, 0.0, 0.0, regime, reason), pooled
    return key_from_tally(source, pooled, sec, regime), pooled
