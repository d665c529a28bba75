"""Free-space downlink channel: dB budgets, beam geometry, and satellite passes.

The pass model is a circular orbit over a non-rotating spherical Earth,
which is accurate enough to reproduce the familiar "several minutes above
10 degrees" LEO visibility window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .analysis import load_two_column_csv
from .errors import DomainError, FileFormatError

EARTH_RADIUS_M = 6371e3
EARTH_MU_M3_S2 = 3.986004418e14  # standard gravitational parameter

MIN_DIVERGENCE_RAD = 17e-6  # output-optics input tolerance floor
MAX_PASS_STEPS = 1_000_000  # steps of one pass walk: 1 ms steps over a pass of up to 1000 s


def transmittance_from_db(loss_db: float) -> float:
    """Convert a loss in dB to a linear transmittance; dB losses add, transmittances multiply."""
    if not loss_db >= 0:  # also false for NaN
        raise DomainError(f"loss must be >= 0 dB, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


@dataclass(frozen=True)
class GeometryParams:
    """Far-field beam-spreading geometry of the downlink."""

    range_m: float
    divergence_half_angle_rad: float
    receiver_diameter_m: float

    def __post_init__(self):
        if self.range_m <= 0 or self.receiver_diameter_m <= 0:
            raise DomainError("range and receiver diameter must be > 0")
        if self.divergence_half_angle_rad < MIN_DIVERGENCE_RAD:
            raise DomainError(
                f"divergence must be >= {MIN_DIVERGENCE_RAD:g} rad, got {self.divergence_half_angle_rad:g}"
            )


def geometric_loss(g: GeometryParams) -> float:
    """Beam-spreading loss in dB: ratio of receiver area to far-field spot area, clamped at 0 dB."""
    spot_diameter = 2.0 * g.range_m * g.divergence_half_angle_rad
    ratio = (g.receiver_diameter_m / spot_diameter) ** 2
    if ratio >= 1.0:
        return 0.0
    return -10.0 * math.log10(ratio)


def slant_range_m(elevation_deg: float, altitude_m: float) -> float:
    """Ground-station-to-satellite distance at the given elevation (spherical Earth)."""
    el = math.radians(elevation_deg)
    re = EARTH_RADIUS_M
    r = re + altitude_m
    return math.sqrt(r**2 - (re * math.cos(el)) ** 2) - re * math.sin(el)


@dataclass(frozen=True)
class ElevationLossModel:
    """Default elevation -> loss map: beam spreading at slant range plus airmass term.

    With the default 17 urad divergence and a 1 m receiver this gives roughly
    40 dB near 10 degrees elevation for a 500 km orbit.
    """

    altitude_m: float = 500e3
    divergence_half_angle_rad: float = MIN_DIVERGENCE_RAD
    receiver_diameter_m: float = 1.0
    zenith_atmospheric_db: float = 1.0

    def __call__(self, elevation_deg: float) -> float:
        if elevation_deg <= 0:
            raise DomainError("elevation must be > 0 for the loss model")
        d = slant_range_m(elevation_deg, self.altitude_m)
        g = GeometryParams(
            range_m=d,
            divergence_half_angle_rad=self.divergence_half_angle_rad,
            receiver_diameter_m=self.receiver_diameter_m,
        )
        airmass = 1.0 / math.sin(math.radians(elevation_deg))
        return geometric_loss(g) + self.zenith_atmospheric_db * airmass


@dataclass(frozen=True)
class FixedLossModel:
    loss_db: float = 40.0

    def __call__(self, elevation_deg: float) -> float:
        return self.loss_db


@dataclass(frozen=True)
class PassProfile:
    """Time-ordered elevation samples of one satellite pass above a ground station."""

    times_s: Sequence[float]
    elevations_deg: Sequence[float]
    loss_model: Callable[[float], float]
    min_elevation_deg: float = 10.0

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        el = np.asarray(self.elevations_deg, dtype=float)
        if t.shape != el.shape or t.ndim != 1:
            raise DomainError("times and elevations must be 1-D and equal length")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise DomainError("times must be strictly increasing")
        if el.size and (el.min() < 0 or el.max() > 90):
            raise DomainError("elevations must be in [0, 90] degrees")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "elevations_deg", el)

    @property
    def duration_s(self) -> float:
        if len(self.times_s) < 2:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    def elevation_at(self, t: float) -> Optional[float]:
        """Linear interpolation of elevation; None outside the pass span."""
        ts = self.times_s
        if len(ts) == 0 or t < ts[0] or t > ts[-1]:
            return None
        return float(np.interp(t, ts, self.elevations_deg))

    def segments(self, step_s: float, excess_loss_db: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Loss (dB, excess included) and duration (s) of each step of the pass above the minimum elevation.

        The pass is walked from its first to its last sample in steps of step_s,
        the last one cut short. A step takes the elevation at its midpoint (all
        midpoints are interpolated in one call) and is dropped when that lies
        below the minimum elevation. A step that would cut the pass into more
        than MAX_PASS_STEPS steps, or that is too small to move the pass clock,
        raises DomainError.
        """
        if not (math.isfinite(step_s) and step_s > 0):
            raise DomainError(f"step must be finite and > 0 s, got {step_s}")
        ts = self.times_s
        t0, t1 = (ts[0], ts[-1]) if len(ts) else (0.0, 0.0)
        if (t1 - t0) / step_s > MAX_PASS_STEPS:
            raise DomainError(f"step {step_s:g} s cuts the {t1 - t0:g} s pass into more than "
                              f"{MAX_PASS_STEPS} steps")
        mids, steps = [], []
        t = t0
        while t < t1:
            dt = min(step_s, t1 - t)
            if t + dt == t:  # below half an ulp of t
                raise DomainError(f"step {step_s:g} s is too small to advance the pass clock at t = {t:.17g} s")
            mids.append(t + dt / 2.0)
            steps.append(dt)
            t += dt
        if not mids:
            return np.empty(0), np.empty(0)
        elevations = np.interp(mids, ts, self.elevations_deg)
        keep = elevations >= self.min_elevation_deg  # every midpoint lies in [t0, t1]
        losses = [self.loss_model(el) + excess_loss_db for el in elevations[keep].tolist()]
        return np.array(losses, dtype=float), np.array(steps)[keep]


def _elevation_from_central_angle(gamma: float, orbit_radius_m: float) -> float:
    """Elevation (deg) of a satellite at central angle gamma from the station."""
    re = EARTH_RADIUS_M
    r = orbit_radius_m
    if gamma <= 0:
        return 90.0
    el = math.atan2(math.cos(gamma) - re / r, math.sin(gamma))
    return math.degrees(el)


def _central_angle_from_elevation(elevation_deg: float, orbit_radius_m: float) -> float:
    el = math.radians(elevation_deg)
    return math.acos((EARTH_RADIUS_M / orbit_radius_m) * math.cos(el)) - el


def synthesize_pass(
    max_elevation_deg: float,
    orbit_altitude_m: float,
    min_elevation_deg: float = 10.0,
    step_s: float = 1.0,
    loss_model: Optional[Callable[[float], float]] = None,
) -> PassProfile:
    """Generate a symmetric elevation-vs-time profile for a circular-orbit pass.

    The satellite moves along a great-circle ground track whose closest
    approach corresponds to the culmination elevation; sampling stops at
    min_elevation on both sides.
    """
    if not min_elevation_deg < max_elevation_deg <= 90.0:
        raise DomainError("need min_elevation < max_elevation <= 90")
    if orbit_altitude_m <= 0:
        raise DomainError("orbit altitude must be > 0")
    if not (math.isfinite(step_s) and step_s > 0):
        raise DomainError(f"step must be finite and > 0 s, got {step_s}")
    r = EARTH_RADIUS_M + orbit_altitude_m
    omega = math.sqrt(EARTH_MU_M3_S2 / r**3)  # orbital angular rate, rad/s
    gamma_max = _central_angle_from_elevation(max_elevation_deg, r)  # at culmination
    gamma_min = _central_angle_from_elevation(min_elevation_deg, r)  # at the horizon cut
    # cos(gamma(t)) = cos(gamma_max) * cos(omega t)
    half_span = math.acos(min(1.0, math.cos(gamma_min) / math.cos(gamma_max))) / omega
    if loss_model is None:
        loss_model = ElevationLossModel(altitude_m=orbit_altitude_m)
    if 2.0 * half_span / step_s > MAX_PASS_STEPS:
        raise DomainError(f"step {step_s:g} s cuts the {2.0 * half_span:g} s pass into more than "
                          f"{MAX_PASS_STEPS} samples")
    n_half = int(math.floor(half_span / step_s))
    offsets = np.arange(-n_half, n_half + 1) * step_s
    gammas = np.arccos(np.cos(gamma_max) * np.cos(omega * offsets))
    elevations = np.array([_elevation_from_central_angle(g, r) for g in gammas])
    times = offsets + n_half * step_s  # start the pass clock at 0
    return PassProfile(
        times_s=times,
        elevations_deg=np.clip(elevations, 0.0, 90.0),
        loss_model=loss_model,
        min_elevation_deg=min_elevation_deg,
    )


def load_pass_csv(path, loss_model: Callable[[float], float], min_elevation_deg: float = 10.0) -> PassProfile:
    """Read a (time_s, elevation_deg) two-column CSV into a PassProfile."""
    times, els = load_two_column_csv(path, "time_s", "elevation_deg")
    if len(times) < 2:
        raise FileFormatError(f"{path}: need at least 2 samples")
    return PassProfile(times_s=times, elevations_deg=els, loss_model=loss_model,
                       min_elevation_deg=min_elevation_deg)


@dataclass(frozen=True)
class PassSpec:
    """The ``pass`` block of a pass-mode channel: where its pass profile comes from.

    A (time_s, elevation_deg) CSV when csv_path is set, else a synthesized
    circular-orbit pass. Either way an ElevationLossModel at the orbit
    altitude maps elevation to loss.
    """

    csv_path: str | None = None
    max_elevation_deg: float = 90.0
    orbit_altitude_m: float = 500e3
    min_elevation_deg: float = 10.0
    step_s: float = 1.0
    zenith_atmospheric_db: float = 1.0
    receiver_diameter_m: float = 1.0

    def profile(self) -> PassProfile:
        loss_model = ElevationLossModel(
            altitude_m=self.orbit_altitude_m,
            zenith_atmospheric_db=self.zenith_atmospheric_db,
            receiver_diameter_m=self.receiver_diameter_m,
        )
        if self.csv_path is not None:
            return load_pass_csv(self.csv_path, loss_model, min_elevation_deg=self.min_elevation_deg)
        return synthesize_pass(
            max_elevation_deg=self.max_elevation_deg,
            orbit_altitude_m=self.orbit_altitude_m,
            min_elevation_deg=self.min_elevation_deg,
            step_s=self.step_s,
            loss_model=loss_model,
        )


@dataclass(frozen=True)
class ChannelConfig:
    """Downlink loss configuration: a fixed budget or an elevation-dependent pass.

    In pass mode the pass profile is built from pass_spec once, on construction.
    """

    mode: str  # "fixed" or "pass"
    fixed_loss_db: float = 40.0
    excess_loss_db: float = 0.0
    background_click_prob: float = 0.0
    pass_spec: PassSpec | None = field(default=None, metadata={"key": "pass"})  # 'pass' is a keyword
    pass_profile: PassProfile | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("fixed", "pass"):
            raise DomainError(f"channel mode must be 'fixed' or 'pass', got {self.mode!r}")
        if not (math.isfinite(self.fixed_loss_db) and math.isfinite(self.excess_loss_db)):
            raise DomainError("dB losses must be finite")
        if self.fixed_loss_db < 0 or self.excess_loss_db < 0:
            raise DomainError("dB losses must be >= 0")
        if not 0.0 <= self.background_click_prob < 1.0:
            raise DomainError("background_click_prob must be in [0,1)")
        if self.mode == "pass":
            if self.pass_spec is None:
                raise DomainError("pass mode requires a 'pass' block")
            object.__setattr__(self, "pass_profile", self.pass_spec.profile())
