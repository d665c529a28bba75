"""Transmitter model for a dual-wavelength weak-coherent-pulse decoy-state BB84 source.

Covers the four polarization diodes, the signal/decoy/vacuum intensity
classes, the extinction-ratio error budget, and the spectral/temporal
emission profiles used for side-channel distinguishability diagnostics.

Spectral lines and pulse envelopes are modeled as normalized Gaussians so every
overlap metric, filtered or not, has a closed form with no integration grid,
cross-checked in the tests against a numeric-integration oracle.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import fields
from enum import Enum
from typing import Optional

from .errors import DomainError, OverlapUndefinedError
from .record import record

# FWHM of a Gaussian = 2*sqrt(2*ln2) * sigma
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

MAX_TRIGGER_HZ = 200e6  # laser driver limit
VALID_TEMP_RANGE_C = (0.0, 45.0)  # qualified window of the diodes' linear temperature drift, degC
STATE_WEIGHT = 0.25  # each of the four polarization states is prepared equally often; x0.25 is exact


def _finite(**values):
    """Raise DomainError naming the first of the keyword values that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


class Basis(Enum):
    RECTILINEAR = "Z"
    DIAGONAL = "X"


class PolarizationState(Enum):
    H = "H"
    V = "V"
    D = "D"
    A = "A"


class IntensityLabel(Enum):
    SIGNAL = "signal"
    DECOY = "decoy"
    VACUUM = "vacuum"


@record
class IntensityClass:
    """One decoy-state intensity level of the source."""

    label: IntensityLabel
    mu: float  # mean photon number per pulse
    emit_probability: float

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise DomainError(f"mean photon number must be finite and >= 0, got {self.mu}")
        if self.label is IntensityLabel.VACUUM and self.mu != 0:
            raise DomainError("vacuum class must have mu = 0")
        if not 0.0 <= self.emit_probability <= 1.0:
            raise DomainError(f"emit_probability must be in [0,1], got {self.emit_probability}")


@record
class ExtinctionSet:
    """Per-state extinction ratios (min/max counts through a rotating analyzer)."""

    er_h: float
    er_v: float
    er_d: float
    er_a: float

    def __post_init__(self):
        for f, er in zip(fields(self), self.values()):
            if not 0.0 <= er < 1.0:
                raise DomainError(f"extinction ratio {f.name} must be in [0,1), got {er}")

    def values(self) -> tuple:
        return (self.er_h, self.er_v, self.er_d, self.er_a)


@record
class FilterSpec:
    """Spectral bandpass filter in front of the output optics."""

    center_nm: float
    fwhm_nm: float
    shape: str = "rectangular"  # or "gaussian"

    def __post_init__(self):
        if not 0.0 < self.center_nm < math.inf or not 0.0 < self.fwhm_nm < math.inf:
            raise DomainError("filter center_nm and fwhm_nm must be finite and > 0")
        if self.shape not in ("rectangular", "gaussian"):
            raise DomainError(f"unknown filter shape {self.shape!r}")


@record
class DiodeProfile:
    """Emission characteristics of one polarization diode."""

    polarization: PolarizationState
    center_wavelength_nm: float
    spectral_fwhm_nm: float
    pulse_fwhm_by_class_ps: Mapping[IntensityLabel, float]  # one width per non-vacuum class
    temp_coefficient_nm_per_c: float = 0.0
    reference_temp_c: float = 25.0
    trigger_delay_ps: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.center_wavelength_nm < math.inf or not 0.0 < self.spectral_fwhm_nm < math.inf:
            raise DomainError("center_wavelength_nm and spectral_fwhm_nm must be finite and > 0")
        _finite(temp_coefficient_nm_per_c=self.temp_coefficient_nm_per_c, reference_temp_c=self.reference_temp_c,
                trigger_delay_ps=self.trigger_delay_ps)
        for label, fwhm in self.pulse_fwhm_by_class_ps.items():
            if label is not IntensityLabel.VACUUM and not 0.0 < fwhm < math.inf:
                raise DomainError(f"pulse FWHM for {label.value} must be finite and > 0")


@record
class SourceConfig:
    """Full description of one wavelength half of the transmitter."""

    wavelength_label_nm: float
    repetition_rate_hz: float
    intensity_classes: Sequence[IntensityClass]
    basis_probability_z: float
    diode_profiles: Sequence[DiodeProfile]
    extinction: ExtinctionSet
    filter: FilterSpec
    insertion_loss_db: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.wavelength_label_nm < math.inf:
            raise DomainError(f"wavelength_label_nm must be finite and > 0, got {self.wavelength_label_nm}")
        if not 0.0 < self.repetition_rate_hz <= MAX_TRIGGER_HZ:  # false for NaN too
            raise DomainError(
                f"repetition_rate_hz must be in (0, {MAX_TRIGGER_HZ:g}], got {self.repetition_rate_hz:g}"
            )
        if not 0.0 < self.basis_probability_z < 1.0:
            raise DomainError("basis_probability_z must be in (0,1)")
        if not 0.0 <= self.insertion_loss_db < math.inf:
            raise DomainError(f"insertion_loss_db must be finite and >= 0, got {self.insertion_loss_db}")
        total_p = sum(c.emit_probability for c in self.intensity_classes)
        if abs(total_p - 1.0) > 1e-9:
            raise DomainError(f"emit probabilities must sum to 1, got {total_p}")
        labels = [c.label for c in self.intensity_classes]
        # the 2-decoy bound needs a measured vacuum yield; a two-intensity source needs the
        # 1-decoy bound, which is not implemented
        if sorted(label.value for label in labels) != ["decoy", "signal", "vacuum"]:
            raise DomainError("need exactly one signal, one decoy and one vacuum intensity class, got "
                              f"{[label.value for label in labels]}")
        mu_signal, mu_decoy = self.intensity(IntensityLabel.SIGNAL).mu, self.intensity(IntensityLabel.DECOY).mu
        if mu_signal == mu_decoy or min(mu_signal, mu_decoy) <= 0:
            raise DomainError("signal and decoy mu must be distinct and positive")
        pols = [d.polarization for d in self.diode_profiles]
        if sorted(p.value for p in pols) != ["A", "D", "H", "V"]:
            raise DomainError("need exactly one diode per polarization H,V,D,A")
        for d in self.diode_profiles:
            for label in labels:
                if label is not IntensityLabel.VACUUM and label not in d.pulse_fwhm_by_class_ps:
                    raise DomainError(f"diode {d.polarization.value} has no pulse_fwhm_by_class_ps.{label.value}")

    def intensity(self, label: IntensityLabel) -> IntensityClass:
        for c in self.intensity_classes:
            if c.label is label:
                return c
        raise KeyError(label)


def intrinsic_qber(ext: ExtinctionSet) -> float:
    """QBER contributed by imperfect polarization extinction.

    A state prepared with extinction ratio er leaks into the orthogonal
    analyzer port with probability er/(1+er); the source QBER is the mean
    of that wrong-count fraction over the four states, each prepared a
    quarter of the time.
    """
    return STATE_WEIGHT * sum(er / (1.0 + er) for er in ext.values())


def shifted_center(diode: DiodeProfile, temp_c: float) -> float:
    """Emission wavelength at the given operating temperature.

    Linear in temperature around the diode's reference point. Temperatures
    outside VALID_TEMP_RANGE_C only warn; the linear model is extrapolated.
    A temperature that is not finite raises DomainError.
    """
    if not math.isfinite(temp_c):
        raise DomainError(f"temperature must be finite, got {temp_c}")
    lo, hi = VALID_TEMP_RANGE_C
    if not lo <= temp_c <= hi:
        warnings.warn(
            f"temperature {temp_c} degC outside validity window [{lo}, {hi}]; extrapolating",
            stacklevel=2,
        )
    return diode.center_wavelength_nm + diode.temp_coefficient_nm_per_c * (temp_c - diode.reference_temp_c)


def filter_transmission(center_nm: float, line_fwhm_nm: float, filt: FilterSpec) -> float:
    """Fraction of a Gaussian line's power that passes the bandpass filter; a far tail stays > 0 (erfc, not erf)."""
    _finite(center_nm=center_nm, line_fwhm_nm=line_fwhm_nm)
    if line_fwhm_nm <= 0:
        raise DomainError("line_fwhm_nm must be > 0")
    half, sig_f = filt.fwhm_nm / 2.0, filt.fwhm_nm * FWHM_TO_SIGMA
    sig = line_fwhm_nm * FWHM_TO_SIGMA
    if filt.shape == "rectangular":
        a = (filt.center_nm - half - center_nm) / (sig * math.sqrt(2.0))
        b = (filt.center_nm + half - center_nm) / (sig * math.sqrt(2.0))
        if a > 0.0:  # the band lies above the centre
            return 0.5 * (math.erfc(a) - math.erfc(b))
        if b < 0.0:  # the band lies below the centre
            return 0.5 * (math.erfc(-b) - math.erfc(-a))
        return 0.5 * (math.erf(b) - math.erf(a))
    # gaussian filter with unit peak transmission
    s2 = sig**2 + sig_f**2
    return (sig_f / math.sqrt(s2)) * math.exp(-((center_nm - filt.center_nm) ** 2) / (2.0 * s2))


def _bhattacharyya_gaussians(c_a, s_a, c_b, s_b) -> float:
    """Closed-form Bhattacharyya coefficient of two normal densities."""
    s2 = s_a**2 + s_b**2
    pref = math.sqrt(2.0 * s_a * s_b / s2)
    return pref * math.exp(-((c_a - c_b) ** 2) / (4.0 * s2))


def spectral_overlap(line_a: tuple, line_b: tuple, filt: Optional[FilterSpec] = None) -> float:
    """Bhattacharyya overlap of two Gaussian spectral lines, optionally filtered.

    Each line is (center_nm, fwhm_nm). With a filter, both lines are clipped by the filter transmission T and
    renormalized. The geometric mean of two normal densities is their unfiltered overlap BC0 times the density of
    a line (c_m, f_m), so the filtered overlap is the closed form BC0 * T(c_m, f_m) / (sqrt(T_a) * sqrt(T_b)).

    Raises DomainError for a center or width that is not finite, OverlapUndefinedError when a filtered line
    transmits no power.
    """
    (c_a, f_a), (c_b, f_b) = line_a, line_b
    _finite(center_a_nm=c_a, fwhm_a_nm=f_a, center_b_nm=c_b, fwhm_b_nm=f_b)
    if f_a <= 0 or f_b <= 0:
        raise DomainError("line FWHM must be > 0")
    bc0 = _bhattacharyya_gaussians(c_a, f_a * FWHM_TO_SIGMA, c_b, f_b * FWHM_TO_SIGMA)
    if filt is None:
        return min(1.0, bc0)
    t_a, t_b = filter_transmission(c_a, f_a, filt), filter_transmission(c_b, f_b, filt)
    if min(t_a, t_b) <= 0.0:
        raise OverlapUndefinedError(f"filtered line at {c_a if t_a <= 0 else c_b} nm transmits no power")
    if (c_a, f_a) == (c_b, f_b):
        return 1.0  # exactly, which the rounded closed form can miss by an ulp
    f2 = f_a**2 + f_b**2
    c_m, f_m = (c_a * f_b**2 + c_b * f_a**2) / f2, math.sqrt(2.0 * f_a**2 * f_b**2 / f2)
    # a root of each throughput alone, so two tiny tails do not underflow as a product
    return min(1.0, bc0 * filter_transmission(c_m, f_m, filt) / (math.sqrt(t_a) * math.sqrt(t_b)))


def temporal_overlap(fwhm_a_ps: float, fwhm_b_ps: float, delay_ps: float) -> float:
    """Bhattacharyya overlap of two Gaussian pulse intensity profiles.

    Equals 1 only for equal widths at zero relative delay and decreases strictly with |delay|; an eavesdropper
    timing attack gets easier as this drops below 1. A width or delay that is not finite raises DomainError.
    """
    _finite(fwhm_a_ps=fwhm_a_ps, fwhm_b_ps=fwhm_b_ps, delay_ps=delay_ps)
    if fwhm_a_ps <= 0 or fwhm_b_ps <= 0:
        raise DomainError("pulse FWHM must be > 0")
    s_a, s_b = fwhm_a_ps * FWHM_TO_SIGMA, fwhm_b_ps * FWHM_TO_SIGMA
    return min(1.0, _bhattacharyya_gaussians(0.0, s_a, delay_ps, s_b))


def distinguishability_report(config: SourceConfig, temp_c: float = 25.0) -> list[dict]:
    """Pairwise indistinguishability audit over all (diode, non-vacuum intensity class) modes.

    One row per mode pair: mode_a, mode_b, temporal_overlap,
    spectral_overlap, temporal_score, spectral_score and score, the larger
    of the two scores. Diagnostic only: scores are 1 - overlap and are not
    folded into the key-rate math.
    """
    modes = [
        (f"{diode.polarization.value}/{cls.label.value}", diode.pulse_fwhm_by_class_ps[cls.label],
         diode.trigger_delay_ps, shifted_center(diode, temp_c), diode.spectral_fwhm_nm)
        for diode in config.diode_profiles
        for cls in config.intensity_classes
        if cls.label is not IntensityLabel.VACUUM
    ]
    rows = []
    for (name_a, fw_a, d_a, c_a, sf_a), (name_b, fw_b, d_b, c_b, sf_b) in itertools.combinations(modes, 2):
        t_ov = temporal_overlap(fw_a, fw_b, d_b - d_a)
        try:
            s_ov = spectral_overlap((c_a, sf_a), (c_b, sf_b), config.filter)
        except OverlapUndefinedError:
            s_ov = 0.0  # no common transmitted power: fully distinguishable
        rows.append({"mode_a": name_a, "mode_b": name_b, "temporal_overlap": t_ov, "spectral_overlap": s_ov,
                     "temporal_score": 1.0 - t_ov, "spectral_score": 1.0 - s_ov,
                     "score": max(1.0 - t_ov, 1.0 - s_ov)})
    return rows
