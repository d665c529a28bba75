"""Decoy-state BB84 pipeline: simulation, analytic tallies, bounds, key length.

Two routes produce the same sufficient statistics (a TallyTable): a Monte
Carlo over Poissonian weak coherent pulses, which draws each cell's counts
from the receiver's exact per-pulse outcome law, and the expected counts of
the closed-form gain/error equations for the same channel. One kernel,
key_from_tally, reads every ([point,] class, basis, count) array straight
to its key: each class's gain and error gain feed the 2-decoy bounds, and
the signal class's counts the GLLP-style key formula (with Hoeffding
finite-size corrections). A point that sent no pulse is keyed inside it,
to a zero key with the caller's reason.

Counting convention: sifted counts (same-basis detections) feed the key
formula, and the single-photon count estimate is scaled by the observed
sifted fraction so asymptotic and finite results are directly comparable.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .channel import transmittance_from_db
from .errors import DomainError
from .exact import each, square
from .receiver import DetectorModel, N_DETECTORS, outcome_probabilities
from .record import record
from .source import Basis, IntensityLabel, SourceConfig

if TYPE_CHECKING:  # numpy.typing costs an import that no run needs
    from numpy.typing import ArrayLike

E0 = 0.5  # error rate of background/dark clicks (random bits)


def _points(*values) -> tuple:
    """The values as float64 arrays of one broadcast shape, 0-d for one point; None reads as NaN."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


def binary_entropy(x: ArrayLike):
    outside = (x <= 0.0) | (x >= 1.0)  # NaN is inside: it gives NaN
    x_in = np.where(outside, 0.5, x)
    h = -x_in * each(math.log2, x_in) - (1.0 - x_in) * each(math.log2, 1.0 - x_in)
    return np.where(outside, 0.0, h)


# ---------------------------------------------------------------------------
# tallies


LABELS = tuple(IntensityLabel)  # signal, decoy, vacuum: the class axis of every count array
BASES = (Basis.RECTILINEAR, Basis.DIAGONAL)
COUNTS = ("sent", "detected", "sifted", "errors")
SENT, DETECTED, SIFTED, ERRORS = range(len(COUNTS))


@record
class TallyTable:
    """Sufficient statistics of a block per intensity class and sender basis.

    counts[k, b, j] is count COUNTS[j] of the pulses of class LABELS[k]
    sent in basis BASES[b], whatever order the source lists its classes in.
    The analytic route gives expected, fractional counts, so the array is
    float64; for a batch of points it puts a point axis first. total_pulses
    and elapsed_s hold for every point, or are ([point]) arrays when the
    points send different pulses or at different repetition rates.
    """

    counts: np.ndarray  # ([point,] class, basis, count)
    total_pulses: ArrayLike = 0.0
    elapsed_s: ArrayLike = 0.0

    def to_dict(self) -> dict:
        """Deterministic, JSON-ready form (sorted keys) of a one-point tally."""
        if self.counts.ndim != 3:
            raise DomainError(f"TallyTable.to_dict: counts of shape {self.counts.shape} have a point axis; "
                              "report one point's (class, basis, count) counts at a time")
        cells = {
            f"{label.value}/{basis.value}": dict(zip(COUNTS, self.counts[k, b].tolist()))
            for k, label in enumerate(LABELS)
            for b, basis in enumerate(BASES)
        }
        return {"total_pulses": self.total_pulses, "elapsed_s": self.elapsed_s,
                "cells": dict(sorted(cells.items()))}


# ---------------------------------------------------------------------------
# analytic route


def analytic_tallies(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    n_pulses: ArrayLike,
    mus: Optional[ArrayLike] = None,
    emit: Optional[ArrayLike] = None,
    p_z: Optional[ArrayLike] = None,
) -> TallyTable:
    """Expected-value tallies (fractional counts) of the closed-form WCP model, pooled over the segments of a pass.

    A cell's sent pulses times the class gain Q_k = 1 - (1 - Y0) exp(-eta
    mu_k) are detected, those times the receiver's probability of the
    cell's basis sifted, and those times the error rate E_k, with E_k Q_k =
    e0 Y0 + e_det (1 - exp(-eta mu_k)), errors; Y0 is the probability any
    of the four gated detectors makes a noise click, each with probability
    det.dark_prob.

    total_loss_db is a ([point,] segment) grid of losses and n_pulses a 1-D
    array with each segment's pulse count; a scalar loss and count are one
    segment. A pulse count is finite and >= 0, and need not be whole. mus,
    emit and p_z replace the source's intensities, emit probabilities and
    sender Z-basis probability: (class[, point]) arrays with rows in LABELS
    order and a ([point]) array. Every point is pooled on its own, and a
    batch gives counts with a leading point axis when any of them or the
    grid has one; the points send the same pulses, so total_pulses and
    elapsed_s hold for each.
    """
    losses, pulses = np.asarray(total_loss_db, dtype=float), np.asarray(n_pulses, dtype=float)
    if losses.ndim > 2 or losses.shape[-1:] != pulses.shape:
        raise DomainError("total_loss_db must be a scalar or a ([point,] segment) grid, its segment axis "
                          "and n_pulses of equal length")
    if not (np.isfinite(pulses) & (pulses >= 0)).all():
        raise DomainError(f"n_pulses must be finite and >= 0, got {n_pulses}")
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    losses, pulses = np.atleast_1d(losses), np.atleast_1d(pulses)
    classes = [source.intensity(label) for label in LABELS]

    def per_class(rows: ArrayLike) -> np.ndarray:  # (class[, point]) -> ([point,] 1, class, 1)
        return np.moveaxis(np.asarray(rows, dtype=float), 0, -1)[..., None, :, None]

    mus = per_class([c.mu for c in classes] if mus is None else mus)
    emit = per_class([c.emit_probability for c in classes] if emit is None else emit)
    p_z = np.asarray(source.basis_probability_z if p_z is None else p_z, dtype=float)
    y0 = 1.0 - (1.0 - det.dark_prob) ** N_DETECTORS
    eta = transmittance_from_db(losses + source.insertion_loss_db) * det.efficiency
    decay = each(math.exp, -eta[..., None, None] * mus)  # ([point,] segment, class, 1)
    gains = 1.0 - (1.0 - y0) * decay
    with np.errstate(divide="ignore", invalid="ignore"):
        error_rates = np.where(gains > 0, (E0 * y0 + e_det * (1.0 - decay)) / gains, E0)
    p_basis = np.moveaxis(np.array([p_z, 1.0 - p_z]), 0, -1)[..., None, None, :]  # ([point,] 1, 1, basis)
    sent = pulses[:, None, None] * emit * p_basis
    pz_r = det.basis_probability_z
    sift = np.array([pz_r, 1.0 - pz_r])  # a detection is sifted when the receiver picks the sender's basis
    # each count is the one before it times a factor: sent Q_k, then the sift fraction, then E_k
    factors = np.empty(np.broadcast_shapes(sent.shape, gains.shape, sift.shape) + (len(COUNTS),))
    factors[..., SENT] = sent
    factors[..., DETECTED] = gains
    factors[..., SIFTED] = sift
    factors[..., ERRORS] = error_rates
    # the sum over the segment axis, which is not the last, adds the segments one by one, in order
    counts = np.cumprod(factors, axis=-1).sum(axis=-4)
    # add.accumulate adds left to right, so both sums add the segments in order as a loop from 0.0 does
    pulses = np.concatenate(([0.0], pulses))
    total_pulses = np.add.accumulate(pulses)[-1].item()
    elapsed_s = np.add.accumulate(pulses / source.repetition_rate_hz)[-1].item()
    return TallyTable(counts, total_pulses, elapsed_s)


# ---------------------------------------------------------------------------
# Monte Carlo route


def simulate_block(
    source: SourceConfig,
    total_loss_db: ArrayLike,
    det: DetectorModel,
    e_det: float,
    n_pulses: ArrayLike,
    seed: int | np.random.SeedSequence,
) -> TallyTable:
    """Monte Carlo of one transmission block, drawn as counts with no per-pulse arrays.

    total_loss_db and n_pulses are scalars, or matching 1-D arrays that give
    the loss and pulse count of each segment of a pass, pooled into one
    tally. Each count is a whole number, and the block holds at most
    2**63 - 1 pulses; a block of none (a 0, all-zero segments or no
    segments) gives the zero tally. The tally is a deterministic function
    of seed: one rng stream draws every segment, seed itself when it is a
    SeedSequence, else the first child of SeedSequence(seed). So child i of
    SeedSequence(s) gives source i of a run a stream independent of every
    other source's, and child 0 draws what the int seed s draws.

    Per segment one multinomial draw splits the pulses into (class, sender
    basis) cells, and per (segment, cell) a second one splits the cell's
    pulses over the four outcome levels of receiver.outcome_probabilities.
    Pulses are independent and each lands in a level with exactly those
    probabilities, so the counts have the same distribution as a
    pulse-by-pulse simulation. The cells are drawn in the source's class
    order, so a seed draws the same counts whatever that order, and then
    put in LABELS order.
    """
    losses = np.atleast_1d(np.asarray(total_loss_db, dtype=float))
    counts = np.atleast_1d(np.asarray(n_pulses))
    if counts.dtype.kind != "i":  # floats, and Python ints past int64, which numpy holds as uint64 or objects
        values = counts.astype(float)
        if not (np.isfinite(values) & (values >= 0) & (values < 2.0**63) & (values == np.floor(values))).all():
            raise DomainError(f"n_pulses must be whole numbers in [0, 2**63), got {n_pulses}")
    counts = counts.astype(np.int64)
    if losses.ndim != 1 or losses.shape != counts.shape:
        raise DomainError("total_loss_db and n_pulses must be scalars or 1-D arrays of equal length")
    if not np.all(np.isfinite(losses) & (losses >= 0)):
        raise DomainError(f"losses must be finite and >= 0 dB, got {total_loss_db}")
    if (counts < 0).any() or not sum(counts.tolist()) < 2**63:
        raise DomainError("n_pulses must be >= 0 per segment, and their sum at most 2**63 - 1")
    if not 0.0 <= e_det <= 0.5:
        raise DomainError(f"e_det must be in [0, 0.5], got {e_det}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.default_rng(seed)
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
    cells = cells[[[c.label for c in classes].index(label) for label in LABELS]]
    total = float(counts.sum())
    return TallyTable(cells, total, total / source.repetition_rate_hz)


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


@record
class DecoyBounds:
    """Bounds on the single-photon yield and error rate.

    Each field is an array for a batch of points. One point runs through
    the same lines as 0-d arrays, and each field is unwrapped once, so it
    holds a float, a str or None. reason says why a bound is degenerate
    and is None exactly where the bound holds; e1_upper is None where it
    is degenerate.
    """

    y1_lower: ArrayLike
    e1_upper: Optional[ArrayLike]
    y0_estimate: ArrayLike
    reason: Optional[ArrayLike]

    def point(self, i: int) -> "DecoyBounds":
        """Point i of a batch, with the values and types a one-point call gives."""
        return DecoyBounds(self.y1_lower[i], self.e1_upper[i], self.y0_estimate[i], self.reason[i])


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
    bounded on its own. An argument that is not finite raises DomainError.
    """
    mu_a, mu_b, q_a, q_b, y0, eq_a, eq_b = args = _points(mu_a, mu_b, q_a, q_b, q_vacuum, eq_a, eq_b)
    if not np.isfinite(args).all():
        raise DomainError("an intensity, gain or error gain of the decoy bounds is not finite")
    if ((mu_a <= 0) | (mu_b <= 0) | (mu_a == mu_b)).any():
        raise DomainError("need two distinct positive non-vacuum intensities")
    a_hi = mu_a > mu_b
    mu_hi, mu_lo, q_hi, q_lo, eq_lo = (np.where(a_hi, x, y) for x, y in
                                       ((mu_a, mu_b), (mu_b, mu_a), (q_a, q_b), (q_b, q_a), (eq_b, eq_a)))
    overflow = mu_hi > MAX_EXP_ARG  # math.exp overflows past it, and the square may: neither is taken there
    lo, hi = np.where(overflow, 0.0, mu_lo), np.where(overflow, 0.0, mu_hi)
    exp_lo, exp_hi, lo2, hi2 = each(math.exp, lo), each(math.exp, hi), each(square, lo), each(square, hi)
    with np.errstate(all="ignore"):
        denominator = mu_hi * mu_lo - lo2
        prefactor = mu_hi / denominator
        y1 = prefactor * (q_lo * exp_lo - q_hi * exp_hi * (lo2 / hi2) - ((hi2 - lo2) / hi2) * y0)
        lost = (denominator == 0.0) | (hi2 == 0.0)  # mu_hi * mu_lo rounds to mu_lo**2
        unbounded = overflow | ~(lost | np.isfinite(y1))
        if unbounded.any():
            k = int(np.argmax(np.ravel(unbounded)))
            raise DomainError(f"no finite decoy bound for intensities {np.ravel(mu_lo)[k]} and "
                              f"{np.ravel(mu_hi)[k]}: it overflows a float")
        y1 = np.where(y1 < 0.0, 0.0, y1)  # max(y1, 0.0), then min(y1, 1.0), as Python's max and min
        y1 = np.where(1.0 < y1, 1.0, y1)
        zero = y1 * mu_lo <= 0.0  # y1 = 0, or so small that y1 * mu_lo underflows
        # The gains are probabilities known to about an ulp of 1 and each bracket term takes up
        # to 8 roundings, so the bracket is known to 8 ulps of e^mu_lo + e^mu_hi + 2 (the y0
        # term weighs up to 2); the prefactor carries that into y1.
        rounding = prefactor * 8 * sys.float_info.epsilon * (exp_lo + exp_hi + 2.0)
        lost = lost | ~(zero | (rounding <= Y1_ROUNDING_TOLERANCE * y1))
        degenerate = lost | zero
        e1 = (eq_lo * exp_lo - E0 * y0) / (y1 * mu_lo)
    e1 = np.where(e1 < 0.0, 0.0, e1)
    e1 = np.where(1.0 < e1, 1.0, e1)
    reason = np.where(lost, Y1_LOST_IN_ROUNDING, np.where(zero, Y1_ZERO, None))
    return DecoyBounds(np.where(degenerate, 0.0, y1)[()], np.where(degenerate, None, e1)[()], y0[()], reason[()])


# ---------------------------------------------------------------------------
# the key of a count array


@record
class SecurityParams:
    """Finite-key security parameters: the secrecy and correctness epsilons and the error-correction efficiency.

    f_ec is the leak of error correction relative to the Shannon limit,
    so it is at least 1.
    """

    eps_secrecy: float = 1e-9
    eps_correctness: float = 1e-15
    f_ec: float = 1.16

    def __post_init__(self):
        if not 0.0 < self.eps_secrecy < 1.0 or not 0.0 < self.eps_correctness < 1.0:
            raise DomainError("epsilons must be in (0,1)")
        if not 1.0 <= self.f_ec < math.inf:  # false for NaN too
            raise DomainError(f"f_ec must be finite and >= 1, got {self.f_ec}")


@record
class KeyResult:
    """Key of a batch of points (array fields) or of one point (float, str or None fields)."""

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

    def point(self, i: int) -> "KeyResult":
        """Point i of a batch, with the values and types a one-point call gives."""
        return KeyResult(self.sifted_bits[i], self.qber_signal[i], self.bounds.point(i), self.secret_key_length[i],
                         self.secret_key_rate[i], self.regime, self.reason[i])


def _refuse_empty_class(sent: np.ndarray):
    """DomainError naming the first class, in LABELS order, of the first point whose class sent no pulse.

    sent is (class[, point]). Points come before classes, so a batch fails
    as keying its points one by one fails.
    """
    empty = (sent <= 0).reshape(len(LABELS), -1).T.ravel()  # each point's classes in turn
    if empty.any():
        raise DomainError(f"no pulses sent in class {LABELS[int(np.argmax(empty)) % len(LABELS)].value}")


def key_from_tally(source: SourceConfig, tally: TallyTable, sec: SecurityParams, regime: str,
                   mus: Optional[ArrayLike] = None, empty_reason: Optional[str] = None) -> KeyResult:
    """Key of a pooled tally; counts with a leading point axis key each point on its own, as a batch.

    The tally's class rows are signal, decoy and vacuum (LABELS). mus, one
    row per class in that order, each a scalar or one entry per point,
    replaces the source's intensities. The 2-decoy bounds take each class's
    observed gain (detections per pulse sent) and error rate (errors per
    sifted detection); the key formula takes the signal class's counts.
    Asymptotic: GLLP-style, crediting only the bounded single-photon
    fraction and debiting the error-correction cost. Finite: Hoeffding
    deviations (eps budget split equally across the two deviations) shrink
    the single-photon count and inflate its error bound, then fixed
    secrecy/correctness penalties are subtracted.

    Every count, total_pulses and elapsed_s must be finite and >= 0, with
    sent >= detected >= sifted >= errors in each cell. With empty_reason, a
    point that sent no pulse (total_pulses <= 0) keys as one that sent a
    pulse per cell and detected none, and empty_reason is its key's reason
    and its bounds'. Without, it raises DomainError as any point with a
    class that sent no pulse does; so does a key length or rate that is not
    finite.
    """
    if regime not in ("asymptotic", "finite"):
        raise DomainError(f"unknown regime {regime!r}")
    counts = tally.counts
    values = np.concatenate([counts.ravel(), np.ravel(tally.total_pulses), np.ravel(tally.elapsed_s)])
    if not ((0.0 <= values) & (values < math.inf)).all():  # false for NaN too
        raise DomainError("a count, total_pulses or elapsed_s of the tally is not finite, or is negative")
    if not (counts[..., 1:] <= counts[..., :-1]).all():
        raise DomainError("inconsistent tally: every cell needs sent >= detected >= sifted >= errors")
    empty = False if empty_reason is None else np.asarray(tally.total_pulses) <= 0  # ([point])
    if np.any(empty):  # (sent, detected, sifted, errors) of each cell of an empty point
        counts = np.where(empty[..., None, None, None], [1.0, 0.0, 0.0, 0.0], counts)
    mus = [source.intensity(label).mu for label in LABELS] if mus is None else np.asarray(mus, dtype=float)
    by_class = counts[..., 0, :] + counts[..., 1, :]  # ([point,] class, count): the sum over the bases
    sent, detected, sifted, errors = np.ascontiguousarray(by_class.T)  # each (class[, point])
    _refuse_empty_class(sent)
    gains = detected / sent
    with np.errstate(divide="ignore", invalid="ignore"):
        error_gains = np.where(sifted > 0, errors / sifted, E0) * gains
    s, d, v = range(len(LABELS))  # the signal, decoy and vacuum rows
    bounds = decoy_bounds(mus[s], mus[d], gains[s], gains[d], gains[v], error_gains[s], error_gains[d])
    if np.any(empty):
        reason = np.where(empty, np.array(empty_reason, dtype=object), bounds.reason)[()]
        bounds = DecoyBounds(bounds.y1_lower, bounds.e1_upper, bounds.y0_estimate, reason)
    n, errors, q_sig, mu, elapsed, y1, e1 = _points(
        sifted[s], errors[s], gains[s], mus[s], tally.elapsed_s, bounds.y1_lower, bounds.e1_upper)  # e1_upper None: NaN
    with np.errstate(all="ignore"):  # the points that make no key may divide by zero
        e_sig = np.where(n > 0, errors / n, E0)
        # expected sifted single-photon count, scaled by the observed sifted fraction
        s1 = n * (mu * each(math.exp, -mu) * y1) / q_sig
        ec_cost = sec.f_ec * n * binary_entropy(e_sig)
        # the first of these that holds makes a point's key zero, with its reason
        zero_keys = [
            (empty, empty_reason),
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
            zero, reason = zero | holds, np.where(holds, why, reason)
        length = np.where(zero | (length < 0.0), 0.0, length)  # max(length, 0.0), as Python's max
        rate = np.where(elapsed > 0, length / elapsed, 0.0)
        if (length * 0.0 + rate * 0.0 != 0.0).any():  # x * 0.0 is 0 for a finite x, NaN for inf or NaN
            raise DomainError("secret key length or rate is not finite: "
                              "the statistics or bounds hold a NaN or an infinity")
    reason = np.where(zero, reason, np.where(length > 0, None, "negative key length clamped to 0"))
    return KeyResult(n[()], e_sig[()], bounds, length[()], rate[()], regime, reason[()])


def key_tallies(sources: Sequence[SourceConfig], tallies: Sequence[TallyTable], sec: SecurityParams, regime: str,
                empty_reason: Optional[str] = None) -> KeyResult:
    """The keys of the points of the sources' tallies, in order, made in one key_from_tally call.

    tallies[i] is sources[i]'s, of one point or a batch, and each of its
    points is keyed with that source's intensities and its tally's
    total_pulses and elapsed_s, so every point gets the key it gets alone,
    a point that sent no pulse the key of empty_reason.
    """
    points = [tally.counts.reshape(-1, *tally.counts.shape[-3:]) for tally in tallies]  # (point, class, basis, count)
    sizes = [len(p) for p in points]
    totals = np.concatenate([np.full(n, tally.total_pulses, dtype=float) for n, tally in zip(sizes, tallies)])
    elapsed = np.concatenate([np.full(n, tally.elapsed_s, dtype=float) for n, tally in zip(sizes, tallies)])
    mus = np.repeat([[src.intensity(label).mu for src in sources] for label in LABELS], sizes, axis=1)
    return key_from_tally(sources[0], TallyTable(np.concatenate(points), totals, elapsed), sec, regime, mus,
                          empty_reason)


def fixed_loss_tally(source: SourceConfig, total_loss_db: ArrayLike, det: DetectorModel, e_det: float,
                     duration_s: float, mus: Optional[ArrayLike] = None, emit: Optional[ArrayLike] = None,
                     p_z: Optional[ArrayLike] = None) -> TallyTable:
    """Analytic tally of duration_s at a fixed channel loss, for one point or a batch: that of a pass of one segment.

    total_loss_db is a scalar or a 1-D array with one loss per point. mus
    and emit, rows in LABELS order, and p_z replace the source's figures
    point by point, as in analytic_tallies.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise DomainError(f"duration must be finite and > 0 s, got {duration_s}")
    n_pulses = duration_s * source.repetition_rate_hz
    if not math.isfinite(n_pulses):
        raise DomainError(f"duration {duration_s:g} s at {source.repetition_rate_hz:g} Hz sends more pulses "
                          "than a float holds")
    losses = np.asarray(total_loss_db, dtype=float)[..., None]  # ([point,] segment)
    return analytic_tallies(source, losses, det, e_det, [n_pulses], mus, emit, p_z)


def key_from_fixed_loss(source: SourceConfig, total_loss_db: ArrayLike, det: DetectorModel, e_det: float,
                        sec: SecurityParams, duration_s: float, regime: str = "asymptotic",
                        mus: Optional[ArrayLike] = None, emit: Optional[ArrayLike] = None,
                        p_z: Optional[ArrayLike] = None) -> KeyResult:
    """Analytic key of fixed_loss_tally: each point gets the numbers it gets alone, a batch a KeyResult of arrays."""
    tally = fixed_loss_tally(source, total_loss_db, det, e_det, duration_s, mus, emit, p_z)
    return key_from_tally(source, tally, sec, regime, mus)


def pass_tally(losses_db: ArrayLike, durations_s: ArrayLike, source: SourceConfig, det: DetectorModel, e_det: float,
               mode: str = "analytic", seed: int | np.random.SeedSequence | None = None) -> TallyTable:
    """One source's tally of a pass, pooled over its segments in one analytic_tallies or simulate_block call.

    losses_db and durations_s give the loss and duration of each segment of
    the pass, as PassProfile.segments returns them; a segment sends the
    source's repetition rate times its duration in pulses, which the MC
    rounds so that the pass sends its total rounded.
    """
    if mode not in ("analytic", "mc"):
        raise DomainError(f"unknown pass-integration mode {mode!r}")
    if mode == "mc" and seed is None:
        raise DomainError("Monte Carlo pass integration requires a seed")
    losses = np.asarray(losses_db, dtype=float)
    pulses = source.repetition_rate_hz * np.asarray(durations_s, dtype=float)
    if mode == "analytic":
        return analytic_tallies(source, losses, det, e_det, pulses)
    # a segment sends what the rounded running total gains: rounding each on its own would bias the total
    counts = np.diff(np.rint(np.cumsum(pulses)), prepend=0.0).astype(np.int64)
    return simulate_block(source, losses, det, e_det, counts, seed=seed)


def empty_pass_reason(losses_db: ArrayLike) -> str:
    """Why a source that sends no pulse over a pass of these segment losses has no key."""
    return ("no whole pulse sent above the minimum elevation" if np.size(losses_db)
            else "pass never rises above the minimum elevation")

