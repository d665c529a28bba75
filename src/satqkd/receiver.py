"""Passive-basis-choice BB84 receiver with threshold detectors.

Four detectors (two per basis) are gated on every pulse; arriving photons
are routed to the basis selected for that pulse, each detected with the
detector efficiency, and dark/background counts can fire on any detector.
A pulse's outcome lies in the measured basis whenever a detector of that
basis clicked, and otherwise in the other basis, where only darks can have
fired. Double clicks within the outcome basis are squashed to a uniformly
random bit instead of being discarded. outcome_probabilities gives the
chance of each outcome of one pulse in closed form.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .record import record

if TYPE_CHECKING:  # numpy.typing costs an import that no run needs
    from numpy.typing import ArrayLike

N_DETECTORS = 4  # H, V, D, A


@record
class DetectorModel:
    """Receiver detection parameters.

    efficiency and dark_prob are documented defaults for a generic
    free-space BB84 receiver, not measured values. Every route reads
    dark_prob as the probability that one detector makes a noise click in
    one gate, from dark counts and background light alike; RunConfig.receiver
    adds the channel's background light to it.
    """

    efficiency: float = 0.5
    dark_prob: float = 1e-7  # per gate, per detector
    basis_probability_z: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise DomainError("efficiency must be in (0,1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise DomainError("dark_prob must be in [0,1)")
        if not 0.0 < self.basis_probability_z < 1.0:
            raise DomainError("basis_probability_z must be in (0,1)")


OUTCOME_LEVELS = ("missed", "detected only", "sifted right", "sifted error")


def outcome_probabilities(a: ArrayLike, p_same: ArrayLike, flip_prob: float, p_d: float) -> np.ndarray:
    """Exact probability that one pulse lands in each of OUTCOME_LEVELS under this module's receiver model.

    a: mean number of detected photons (mu times channel and detector
        efficiency); the detected photons are Poisson(a).
    p_same: probability that the receiver measures in the sender's basis.
    flip_prob: same-basis bit-flip probability (source extinction plus any
        residual misalignment).
    p_d: per-detector dark or background firing probability.

    a and p_same broadcast; the result has their shape plus a last axis of
    the four levels. With c(x) = 1 - (1 - p_d) e^-x, a detector port
    reached by Poisson(x) photons clicks with c(x). In the sender's basis
    the right port clicks with c(a (1 - flip_prob)) and the wrong one with
    c(a flip_prob), a double click being right or wrong with equal chance;
    with no click there, a dark in the other basis makes the pulse detected
    only. In the other basis each port clicks with c(a / 2) and any click
    is detected only; with no click there, a dark in the sender's basis
    makes the pulse sifted, right or wrong with equal chance.
    """
    a, p_same = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(p_same, dtype=float))
    log_quiet = math.log1p(-p_d)  # log of one detector's chance of no dark firing
    click_right = -np.expm1(log_quiet - a * (1.0 - flip_prob))
    click_wrong = -np.expm1(log_quiet - a * flip_prob)
    # no photon click in one basis (both ports quiet) and a dark in the other
    dark_elsewhere = np.exp(2.0 * log_quiet - a) * -math.expm1(2.0 * log_quiet)
    p_other = 1.0 - p_same
    levels = np.empty(a.shape + (len(OUTCOME_LEVELS),))
    levels[..., 0] = np.exp(4.0 * log_quiet - a)  # the same in either basis
    levels[..., 1] = p_same * dark_elsewhere + p_other * -np.expm1(2.0 * log_quiet - a)
    levels[..., 2] = p_same * click_right * (1.0 - click_wrong / 2.0) + p_other * dark_elsewhere / 2.0
    levels[..., 3] = p_same * click_wrong * (1.0 - click_right / 2.0) + p_other * dark_elsewhere / 2.0
    return levels
