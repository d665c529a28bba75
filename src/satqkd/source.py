"""Transmitter model for a dual-wavelength weak-coherent-pulse decoy-state BB84 source.

Covers the four polarization diodes, the signal/decoy/vacuum intensity
classes, the extinction-ratio error budget, and the spectral/temporal
emission profiles used for side-channel distinguishability diagnostics.

Spectral lines and pulse envelopes are modeled as normalized Gaussians so
every overlap metric has a closed form that can be cross-checked against a
numeric-integration oracle.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

from .errors import DomainError, OverlapUndefinedError

# Planck constant times speed of light, J*m
HC = 1.98645e-25

# FWHM of a Gaussian = 2*sqrt(2*ln2) * sigma
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

MAX_TRIGGER_HZ = 200e6  # laser driver limit


class Basis(Enum):
    RECTILINEAR = "Z"
    DIAGONAL = "X"


class PolarizationState(Enum):
    H = "H"
    V = "V"
    D = "D"
    A = "A"

    @property
    def basis(self) -> Basis:
        return Basis.RECTILINEAR if self in (PolarizationState.H, PolarizationState.V) else Basis.DIAGONAL

    @property
    def bit(self) -> int:
        """Bit convention: H=0, V=1, D=0, A=1."""
        return 0 if self in (PolarizationState.H, PolarizationState.D) else 1


class IntensityLabel(Enum):
    SIGNAL = "signal"
    DECOY = "decoy"
    VACUUM = "vacuum"


@dataclass(frozen=True)
class IntensityClass:
    """One decoy-state intensity level of the source."""

    label: IntensityLabel
    mu: float  # mean photon number per pulse
    emit_probability: float
    pulse_fwhm_ps: float = 0.0  # ignored for vacuum

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise DomainError(f"mean photon number must be finite and >= 0, got {self.mu}")
        if self.label is IntensityLabel.VACUUM and self.mu != 0:
            raise DomainError("vacuum class must have mu = 0")
        if not 0.0 <= self.emit_probability <= 1.0:
            raise DomainError(f"emit_probability must be in [0,1], got {self.emit_probability}")
        if self.label is not IntensityLabel.VACUUM and not 0.0 < self.pulse_fwhm_ps < math.inf:
            raise DomainError(f"{self.label.value} class needs pulse_fwhm_ps finite and > 0")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DiodeProfile:
    """Emission characteristics of one polarization diode."""

    polarization: PolarizationState
    center_wavelength_nm: float
    spectral_fwhm_nm: float
    temp_coefficient_nm_per_c: float = 0.0
    current_coefficient_nm_per_ma: float = 0.0
    reference_temp_c: float = 25.0
    reference_current_ma: float = 60.0
    trigger_delay_ps: float = 0.0
    pulse_fwhm_by_class_ps: Mapping[IntensityLabel, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.center_wavelength_nm < math.inf or not 0.0 < self.spectral_fwhm_nm < math.inf:
            raise DomainError("center_wavelength_nm and spectral_fwhm_nm must be finite and > 0")
        for label, fwhm in self.pulse_fwhm_by_class_ps.items():
            if label is not IntensityLabel.VACUUM and not 0.0 < fwhm < math.inf:
                raise DomainError(f"pulse FWHM for {label.value} must be finite and > 0")


@dataclass(frozen=True)
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
        if self.repetition_rate_hz <= 0 or self.repetition_rate_hz > MAX_TRIGGER_HZ:
            raise DomainError(
                f"repetition_rate_hz must be in (0, {MAX_TRIGGER_HZ:g}], got {self.repetition_rate_hz:g}"
            )
        if not 0.0 < self.basis_probability_z < 1.0:
            raise DomainError("basis_probability_z must be in (0,1)")
        if self.insertion_loss_db < 0:
            raise DomainError("insertion_loss_db must be >= 0")
        total_p = sum(c.emit_probability for c in self.intensity_classes)
        if abs(total_p - 1.0) > 1e-9:
            raise DomainError(f"emit probabilities must sum to 1, got {total_p}")
        labels = [c.label for c in self.intensity_classes]
        if len(set(labels)) != len(labels):
            raise DomainError("duplicate intensity class labels")
        non_vac = [c.mu for c in self.intensity_classes if c.label is not IntensityLabel.VACUUM]
        if len(non_vac) == 2 and (non_vac[0] == non_vac[1] or min(non_vac) <= 0):
            raise DomainError("signal and decoy mu must be distinct and positive")
        pols = [d.polarization for d in self.diode_profiles]
        if sorted(p.value for p in pols) != ["A", "D", "H", "V"]:
            raise DomainError("need exactly one diode per polarization H,V,D,A")

    def intensity(self, label: IntensityLabel) -> IntensityClass:
        for c in self.intensity_classes:
            if c.label is label:
                return c
        raise KeyError(label)


def intrinsic_qber(ext: ExtinctionSet, weights: Optional[Sequence[float]] = None) -> float:
    """QBER contributed by imperfect polarization extinction.

    A state prepared with extinction ratio er leaks into the orthogonal
    analyzer port with probability er/(1+er); the source QBER is the
    weighted mean of that wrong-count fraction over the four states
    (uniform weights by default).
    """
    ers = ext.values()
    if weights is None:
        weights = (0.25, 0.25, 0.25, 0.25)
    if len(weights) != 4:
        raise DomainError("weights must have exactly 4 entries")
    if any(w < 0 for w in weights):
        raise DomainError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise DomainError(f"weights must sum to 1 within 1e-9, got {sum(weights)}")
    return sum(w * er / (1.0 + er) for w, er in zip(weights, ers))


def shifted_center(
    diode: DiodeProfile,
    temp_c: float,
    current_ma: Optional[float] = None,
    valid_temp_range_c: tuple = (0.0, 45.0),
) -> float:
    """Emission wavelength under the given operating temperature and drive current.

    Linear in both knobs around the diode's reference point. Temperatures
    outside the qualified window only warn; the linear model is extrapolated.
    """
    if current_ma is None:
        current_ma = diode.reference_current_ma
    lo, hi = valid_temp_range_c
    if not lo <= temp_c <= hi:
        warnings.warn(
            f"temperature {temp_c} degC outside validity window [{lo}, {hi}]; extrapolating",
            stacklevel=2,
        )
    return (
        diode.center_wavelength_nm
        + diode.temp_coefficient_nm_per_c * (temp_c - diode.reference_temp_c)
        + diode.current_coefficient_nm_per_ma * (current_ma - diode.reference_current_ma)
    )


def filter_transmission(center_nm: float, line_fwhm_nm: float, filt: FilterSpec) -> float:
    """Fraction of a Gaussian line's power that passes the bandpass filter."""
    if line_fwhm_nm < 0:
        raise DomainError("line_fwhm_nm must be >= 0")
    half = filt.fwhm_nm / 2.0
    if line_fwhm_nm == 0.0:
        # delta line
        if filt.shape == "rectangular":
            return 1.0 if abs(center_nm - filt.center_nm) <= half else 0.0
        sig_f = filt.fwhm_nm * FWHM_TO_SIGMA
        return math.exp(-((center_nm - filt.center_nm) ** 2) / (2.0 * sig_f**2))
    sig = line_fwhm_nm * FWHM_TO_SIGMA
    if filt.shape == "rectangular":
        a = (filt.center_nm - half - center_nm) / (sig * math.sqrt(2.0))
        b = (filt.center_nm + half - center_nm) / (sig * math.sqrt(2.0))
        return 0.5 * (math.erf(b) - math.erf(a))
    # gaussian filter with unit peak transmission
    sig_f = filt.fwhm_nm * FWHM_TO_SIGMA
    s2 = sig**2 + sig_f**2
    return (sig_f / math.sqrt(s2)) * math.exp(-((center_nm - filt.center_nm) ** 2) / (2.0 * s2))


def _bhattacharyya_gaussians(c_a, s_a, c_b, s_b) -> float:
    """Closed-form Bhattacharyya coefficient of two normal densities."""
    s2 = s_a**2 + s_b**2
    pref = math.sqrt(2.0 * s_a * s_b / s2)
    return pref * math.exp(-((c_a - c_b) ** 2) / (4.0 * s2))


def spectral_overlap(
    line_a: tuple,
    line_b: tuple,
    filt: Optional[FilterSpec] = None,
    grid_points: int = 20001,
) -> float:
    """Bhattacharyya overlap of two Gaussian spectral lines, optionally filtered.

    Each line is (center_nm, fwhm_nm). With a filter, both lines are clipped
    by the filter transmission, renormalized, and the overlap integral is
    evaluated numerically.

    Raises OverlapUndefinedError when a filtered line has (numerically) zero
    transmitted power.
    """
    import numpy as np

    (c_a, f_a), (c_b, f_b) = line_a, line_b
    if f_a <= 0 or f_b <= 0:
        raise DomainError("line FWHM must be > 0")
    s_a, s_b = f_a * FWHM_TO_SIGMA, f_b * FWHM_TO_SIGMA
    if filt is None:
        return min(1.0, _bhattacharyya_gaussians(c_a, s_a, c_b, s_b))

    lo = min(c_a - 6 * s_a, c_b - 6 * s_b, filt.center_nm - filt.fwhm_nm)
    hi = max(c_a + 6 * s_a, c_b + 6 * s_b, filt.center_nm + filt.fwhm_nm)
    x = np.linspace(lo, hi, grid_points)
    if filt.shape == "rectangular":
        t = (np.abs(x - filt.center_nm) <= filt.fwhm_nm / 2.0).astype(float)
    else:
        sig_f = filt.fwhm_nm * FWHM_TO_SIGMA
        t = np.exp(-((x - filt.center_nm) ** 2) / (2.0 * sig_f**2))
    dens = []
    for c, s in ((c_a, s_a), (c_b, s_b)):
        p = np.exp(-((x - c) ** 2) / (2.0 * s**2)) * t
        power = np.trapezoid(p, x)
        if power <= 0.0 or not math.isfinite(power):
            raise OverlapUndefinedError(
                f"filtered line at {c} nm transmits no power through the filter"
            )
        dens.append(p / power)
    bc = float(np.trapezoid(np.sqrt(dens[0] * dens[1]), x))
    return min(1.0, bc)


def temporal_overlap(fwhm_a_ps: float, fwhm_b_ps: float, delay_ps: float) -> float:
    """Bhattacharyya overlap of two Gaussian pulse intensity profiles.

    Equals 1 only for equal widths at zero relative delay and decreases
    strictly with |delay|; an eavesdropper timing attack gets easier as this
    drops below 1.
    """
    if fwhm_a_ps <= 0 or fwhm_b_ps <= 0:
        raise DomainError("pulse FWHM must be > 0")
    s_a, s_b = fwhm_a_ps * FWHM_TO_SIGMA, fwhm_b_ps * FWHM_TO_SIGMA
    return min(1.0, _bhattacharyya_gaussians(0.0, s_a, delay_ps, s_b))


@dataclass(frozen=True)
class ModePair:
    """Distinguishability metrics for one pair of emission modes."""

    mode_a: str
    mode_b: str
    temporal_overlap: float
    spectral_overlap: float
    temporal_score: float
    spectral_score: float

    @property
    def score(self) -> float:
        return max(self.temporal_score, self.spectral_score)


@dataclass(frozen=True)
class DistinguishabilityReport:
    pairs: Sequence[ModePair]
    worst_pair: ModePair

    def as_rows(self):
        return [
            {
                "mode_a": p.mode_a,
                "mode_b": p.mode_b,
                "temporal_overlap": p.temporal_overlap,
                "spectral_overlap": p.spectral_overlap,
                "temporal_score": p.temporal_score,
                "spectral_score": p.spectral_score,
                "score": p.score,
            }
            for p in self.pairs
        ]


def distinguishability_report(config: SourceConfig, temp_c: float = 25.0) -> DistinguishabilityReport:
    """Pairwise indistinguishability audit over all (diode, intensity class) modes.

    Diagnostic only: scores are 1 - overlap and are not folded into the
    key-rate math.
    """
    modes = []
    for diode in config.diode_profiles:
        for cls in config.intensity_classes:
            if cls.label is IntensityLabel.VACUUM:
                continue
            pulse_fwhm = diode.pulse_fwhm_by_class_ps.get(cls.label, cls.pulse_fwhm_ps)
            center = shifted_center(diode, temp_c)
            modes.append(
                (
                    f"{diode.polarization.value}/{cls.label.value}",
                    pulse_fwhm,
                    diode.trigger_delay_ps,
                    center,
                    diode.spectral_fwhm_nm,
                )
            )
    pairs = []
    for i in range(len(modes)):
        for j in range(i + 1, len(modes)):
            name_a, fw_a, d_a, c_a, sf_a = modes[i]
            name_b, fw_b, d_b, c_b, sf_b = modes[j]
            t_ov = temporal_overlap(fw_a, fw_b, d_b - d_a)
            try:
                s_ov = spectral_overlap((c_a, sf_a), (c_b, sf_b), config.filter)
            except OverlapUndefinedError:
                s_ov = 0.0  # no common transmitted power: fully distinguishable
            pairs.append(
                ModePair(
                    mode_a=name_a,
                    mode_b=name_b,
                    temporal_overlap=t_ov,
                    spectral_overlap=s_ov,
                    temporal_score=1.0 - t_ov,
                    spectral_score=1.0 - s_ov,
                )
            )
    if not pairs:
        raise DomainError("source has no non-vacuum emission modes")
    worst = max(pairs, key=lambda p: p.score)
    return DistinguishabilityReport(pairs=pairs, worst_pair=worst)


def required_attenuation(pulse_energy_j: float, wavelength_nm: float, target_mu: float) -> float:
    """Attenuation (dB) needed to bring a pulse down to the target mean photon number."""
    if pulse_energy_j <= 0:
        raise DomainError("pulse_energy_j must be > 0")
    if target_mu <= 0:
        raise DomainError("target_mu must be > 0")
    n_photons = pulse_energy_j * (wavelength_nm * 1e-9) / HC
    if target_mu > n_photons:
        raise DomainError(
            f"target mu {target_mu} exceeds pulse photon number {n_photons:g}; "
            "attenuation would be negative"
        )
    return 10.0 * math.log10(n_photons / target_mu)
