"""Passive-basis-choice BB84 receiver with threshold detectors.

Four detectors (two per basis) are gated on every pulse; arriving photons
are routed to the basis selected for that pulse, each detected with the
detector efficiency, and dark/background counts can fire on any detector.
Double clicks within the measured basis are squashed to a uniformly random
bit instead of being discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError
from .source import Basis, PolarizationState

N_DETECTORS = 4  # H, V, D, A


@dataclass(frozen=True)
class DetectorModel:
    """Receiver detection parameters.

    efficiency and dark_prob are documented defaults for a generic
    free-space BB84 receiver, not measured values.
    """

    efficiency: float = 0.5
    dark_prob: float = 1e-7  # per gate, per detector
    gate_width_ps: float = 1000.0
    basis_probability_z: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise DomainError("efficiency must be in (0,1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise DomainError("dark_prob must be in [0,1)")
        if self.gate_width_ps <= 0:
            raise DomainError("gate_width_ps must be > 0")
        if not 0.0 < self.basis_probability_z < 1.0:
            raise DomainError("basis_probability_z must be in (0,1)")

    def background_yield(self) -> float:
        """Probability at least one of the four gated detectors dark-fires."""
        return 1.0 - (1.0 - self.dark_prob) ** N_DETECTORS


class ClickType(Enum):
    SINGLE = "single"
    DOUBLE_RESOLVED = "double_resolved"
    DARK = "dark"


@dataclass(frozen=True)
class MeasurementOutcome:
    detected: bool
    basis: Optional[Basis] = None
    bit: Optional[int] = None
    click_type: Optional[ClickType] = None


def measure_batch(
    photons: np.ndarray,
    sent_basis_z: np.ndarray,
    sent_bits: np.ndarray,
    flip_prob: float,
    det: DetectorModel,
    rng: np.random.Generator,
    darks: Optional[np.ndarray] = None,
) -> dict:
    """Vectorized measurement of a batch of arriving pulses.

    photons: number of photons reaching the receiver per pulse.
    sent_basis_z / sent_bits: sender's basis (True = rectilinear) and bit.
    flip_prob: same-basis bit-flip probability (source extinction plus any
        residual misalignment).
    darks: (4, n) bool dark/background firings, rows Z0, Z1, X0, X1; drawn
        with det.dark_prob per detector when None.

    Returns arrays: detected, basis_z (measured basis of the outcome),
    bit, sifted (detected in the sender's basis), error (sifted and wrong
    bit), signal_click (a real photon contributed), double (both detectors
    of the outcome basis clicked).
    """
    if not 0.0 <= flip_prob <= 0.5:
        raise DomainError(f"flip_prob must be in [0, 0.5], got {flip_prob}")
    photons = np.asarray(photons, dtype=np.int64)
    sent_basis_z = np.asarray(sent_basis_z, dtype=bool)
    sent_bits = np.asarray(sent_bits, dtype=np.int64)
    n = photons.size

    meas_z = rng.random(n) < det.basis_probability_z
    detected_photons = rng.binomial(photons, det.efficiency)

    same = meas_z == sent_basis_z
    # per-photon probability of projecting onto bit 1 in the measured basis
    p_one = np.where(same, np.where(sent_bits == 1, 1.0 - flip_prob, flip_prob), 0.5)
    ones = rng.binomial(detected_photons, p_one)
    sig_click1 = ones > 0
    sig_click0 = ones < detected_photons
    signal_click = detected_photons > 0

    if darks is None:
        darks = rng.random((N_DETECTORS, n)) < det.dark_prob
    z0 = np.where(meas_z, sig_click0, False) | darks[0]
    z1 = np.where(meas_z, sig_click1, False) | darks[1]
    x0 = np.where(~meas_z, sig_click0, False) | darks[2]
    x1 = np.where(~meas_z, sig_click1, False) | darks[3]

    any_z = z0 | z1
    any_x = x0 | x1
    detected = any_z | any_x
    # the measured basis wins whenever it clicked; otherwise only darks in
    # the other basis fired and the outcome lands there
    meas_clicked = np.where(meas_z, any_z, any_x)
    basis_z = np.where(meas_clicked, meas_z, ~meas_z)

    c0 = np.where(basis_z, z0, x0)
    c1 = np.where(basis_z, z1, x1)
    double = c0 & c1
    random_bits = rng.integers(0, 2, size=n)
    bit = np.where(double, random_bits, np.where(c1, 1, 0))

    sifted = detected & (basis_z == sent_basis_z)
    error = sifted & (bit != sent_bits)
    return {
        "detected": detected,
        "basis_z": basis_z,
        "bit": bit,
        "sifted": sifted,
        "error": error,
        "signal_click": signal_click & detected,
        "double": double & detected,
    }


def measure(
    photons_arriving: int,
    sent_state: PolarizationState,
    flip_prob: float,
    det: DetectorModel,
    rng: np.random.Generator,
) -> MeasurementOutcome:
    """Measure a single pulse; see measure_batch for the model."""
    if photons_arriving < 0:
        raise DomainError("photon count must be >= 0")
    out = measure_batch(
        photons=np.array([photons_arriving]),
        sent_basis_z=np.array([sent_state.basis is Basis.RECTILINEAR]),
        sent_bits=np.array([sent_state.bit]),
        flip_prob=flip_prob,
        det=det,
        rng=rng,
    )
    if not out["detected"][0]:
        return MeasurementOutcome(detected=False)
    if not out["signal_click"][0]:
        click = ClickType.DARK
    elif out["double"][0]:
        click = ClickType.DOUBLE_RESOLVED
    else:
        click = ClickType.SINGLE
    basis = Basis.RECTILINEAR if out["basis_z"][0] else Basis.DIAGONAL
    return MeasurementOutcome(detected=True, basis=basis, bit=int(out["bit"][0]), click_type=click)
