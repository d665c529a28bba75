"""Free-space downlink channel: dB budgets, beam geometry, and satellite passes.

The pass model is a circular orbit over a non-rotating spherical Earth,
which is accurate enough to reproduce the familiar "several minutes above
10 degrees" LEO visibility window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, FileFormatError
from .exact import each, square
from .record import record

if TYPE_CHECKING:  # numpy.typing costs an import that no run needs
    from numpy.typing import ArrayLike

EARTH_RADIUS_M = 6371e3
EARTH_MU_M3_S2 = 3.986004418e14  # standard gravitational parameter

DIVERGENCE_HALF_ANGLE_RAD = 17e-6  # far-field half angle of the transmitter's output optics
MAX_PASS_STEPS = 1_000_000  # steps of one pass walk: 1 ms steps over a pass of up to 1000 s


def transmittance_from_db(loss_db: ArrayLike):
    """Linear transmittance of a loss in dB, a float for a scalar and an array for an array.

    dB losses add, transmittances multiply.
    """
    losses = np.asarray(loss_db, dtype=float)
    bad = losses[~(losses >= 0)]  # also NaN
    if bad.size:
        raise DomainError(f"loss must be >= 0 dB, got {bad[0]}")
    t = each(lambda loss: 10.0 ** (-loss / 10.0), losses)
    return t if t.ndim else float(t)


def beam_spreading_loss_db(range_m: ArrayLike, divergence_half_angle_rad: float,
                           receiver_diameter_m: float) -> np.ndarray:
    """Ratio of receiver area to far-field spot area in dB, clamped at 0 dB, at every range."""
    spot_diameter = 2.0 * np.asarray(range_m, dtype=float) * divergence_half_angle_rad
    ratio = each(square, receiver_diameter_m / spot_diameter)
    return np.where(ratio >= 1.0, 0.0, -10.0 * each(math.log10, ratio))


def slant_range_m(elevation_deg: ArrayLike, altitude_m: float):
    """Ground-station-to-satellite distance at each elevation (spherical Earth); a float for a scalar."""
    el = np.radians(np.asarray(elevation_deg, dtype=float))
    re = EARTH_RADIUS_M
    r = re + altitude_m
    d = np.sqrt(r**2 - each(square, re * np.cos(el))) - re * np.sin(el)
    return d if d.ndim else float(d)


@record
class ElevationLossModel:
    """Default elevation -> loss map: beam spreading at slant range plus airmass term.

    With the 17 urad divergence of DIVERGENCE_HALF_ANGLE_RAD and a 1 m receiver
    this gives roughly 40 dB near 10 degrees elevation for a 500 km orbit. The
    model takes one elevation or an array of them and gives a loss of the same
    shape.
    """

    altitude_m: float = 500e3
    receiver_diameter_m: float = 1.0
    zenith_atmospheric_db: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.zenith_atmospheric_db) and self.zenith_atmospheric_db >= 0):
            raise DomainError(f"zenith_atmospheric_db must be finite and >= 0, got {self.zenith_atmospheric_db}")
        if not (math.isfinite(self.receiver_diameter_m) and self.receiver_diameter_m > 0):
            raise DomainError(f"receiver_diameter_m must be finite and > 0, got {self.receiver_diameter_m}")
        if not (math.isfinite(self.altitude_m) and self.altitude_m > 0):
            raise DomainError(f"orbit altitude must be finite and > 0 m, got {self.altitude_m}")

    def __call__(self, elevation_deg: ArrayLike):
        el = np.asarray(elevation_deg, dtype=float)
        if (el <= 0).any():
            raise DomainError("elevation must be > 0 for the loss model")
        spreading = beam_spreading_loss_db(slant_range_m(el, self.altitude_m), DIVERGENCE_HALF_ANGLE_RAD,
                                           self.receiver_diameter_m)
        airmass = 1.0 / np.sin(np.radians(el))
        loss = spreading + self.zenith_atmospheric_db * airmass
        return loss if loss.ndim else float(loss)


@record
class PassProfile:
    """Time-ordered elevation samples of one satellite pass above a ground station.

    loss_model maps an array of elevations (degrees) to an array of losses
    (dB) of the same shape; segments calls it once, on every kept step.
    """

    times_s: Sequence[float]
    elevations_deg: Sequence[float]
    loss_model: Callable[[np.ndarray], np.ndarray]
    min_elevation_deg: float = 10.0

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        el = np.asarray(self.elevations_deg, dtype=float)
        if t.shape != el.shape or t.ndim != 1 or not t.size:
            raise DomainError("times and elevations must be 1-D, non-empty and of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise DomainError("times must be finite and strictly increasing")
        if not np.all((el >= 0) & (el <= 90)):  # false for NaN too
            raise DomainError("elevations must be in [0, 90] degrees")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "elevations_deg", el)

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1] - self.times_s[0])

    def segments(self, step_s: float, excess_loss_db: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Loss (dB, excess included) and duration (s) of each step of the pass above the minimum elevation.

        The pass is walked from its first to its last sample in steps of step_s:
        step k starts at t0 + k * step_s, counted rather than accumulated, and the
        last one is cut short to end at the last sample. A step takes the
        elevation at its midpoint (all midpoints are interpolated in one call)
        and is dropped when that lies below the minimum elevation. A step that
        would cut the pass into more than MAX_PASS_STEPS steps raises DomainError.
        """
        if not (math.isfinite(step_s) and step_s > 0):
            raise DomainError(f"step must be finite and > 0 s, got {step_s}")
        ts = self.times_s
        t0, t1 = ts[0], ts[-1]
        if (t1 - t0) / step_s > MAX_PASS_STEPS:
            raise DomainError(f"step {step_s:g} s cuts the {t1 - t0:g} s pass into more than "
                              f"{MAX_PASS_STEPS} steps")
        starts = t0 + step_s * np.arange(math.ceil((t1 - t0) / step_s))
        steps = np.minimum(step_s, t1 - starts)  # a start that rounds onto t1 gives a step <= 0
        elevations = np.interp(starts + steps / 2.0, ts, self.elevations_deg)
        keep = (steps > 0) & (elevations >= self.min_elevation_deg)
        losses = self.loss_model(elevations[keep]) + excess_loss_db
        return losses, steps[keep]


def _central_angle_from_elevation(elevation_deg: float, orbit_radius_m: float) -> float:
    el = math.radians(elevation_deg)
    return math.acos((EARTH_RADIUS_M / orbit_radius_m) * math.cos(el)) - el


def _check_min_elevation(min_elevation_deg: float) -> None:
    """A pass is cut at a minimum elevation >= 0: the loss model takes no elevation <= 0."""
    if not min_elevation_deg >= 0:  # false for NaN too
        raise DomainError(f"min_elevation_deg must be >= 0, got {min_elevation_deg}")


def _pass_window(max_elevation_deg: float, orbit_altitude_m: float, min_elevation_deg: float,
                 step_s: float) -> Tuple[float, float, float, int]:
    """(orbit radius, angular rate, culmination central angle, n_half) of a checked synthesized pass.

    The pass is sampled at 2 * n_half + 1 times step_s apart, centred on the
    culmination; a step that gives more than MAX_PASS_STEPS samples, or too
    few to leave the culmination, raises DomainError.
    """
    _check_min_elevation(min_elevation_deg)
    if not min_elevation_deg < max_elevation_deg <= 90.0:
        raise DomainError("need min_elevation < max_elevation <= 90")
    if not (math.isfinite(orbit_altitude_m) and orbit_altitude_m > 0):
        raise DomainError(f"orbit altitude must be finite and > 0 m, got {orbit_altitude_m}")
    if not (math.isfinite(step_s) and step_s > 0):
        raise DomainError(f"step must be finite and > 0 s, got {step_s}")
    r = EARTH_RADIUS_M + orbit_altitude_m
    omega = math.sqrt(EARTH_MU_M3_S2 / r**3)  # orbital angular rate, rad/s
    gamma_max = _central_angle_from_elevation(max_elevation_deg, r)  # at culmination
    gamma_min = _central_angle_from_elevation(min_elevation_deg, r)  # at the horizon cut
    # cos(gamma(t)) = cos(gamma_max) * cos(omega t)
    half_span = math.acos(min(1.0, math.cos(gamma_min) / math.cos(gamma_max))) / omega
    if 2.0 * half_span / step_s > MAX_PASS_STEPS:
        raise DomainError(f"step {step_s:g} s cuts the {2.0 * half_span:g} s pass into more than "
                          f"{MAX_PASS_STEPS} samples")
    n_half = int(math.floor(half_span / step_s))
    if n_half == 0:
        raise DomainError(f"step_s {step_s:g} s is longer than half the {2.0 * half_span:g} s pass, "
                          "which it would sample only at its culmination")
    return r, omega, gamma_max, n_half


def synthesize_pass(
    max_elevation_deg: float,
    orbit_altitude_m: float,
    min_elevation_deg: float = 10.0,
    step_s: float = 1.0,
    loss_model: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> PassProfile:
    """Generate a symmetric elevation-vs-time profile for a circular-orbit pass.

    The satellite moves along a great-circle ground track whose closest
    approach corresponds to the culmination elevation; sampling stops at
    min_elevation on both sides.
    """
    r, omega, gamma_max, n_half = _pass_window(max_elevation_deg, orbit_altitude_m, min_elevation_deg, step_s)
    if loss_model is None:
        loss_model = ElevationLossModel(altitude_m=orbit_altitude_m)
    offsets = np.arange(-n_half, n_half + 1) * step_s
    gammas = np.arccos(np.cos(gamma_max) * np.cos(omega * offsets))
    # the elevation at central angle gamma, atan2 taken from math for its rounding; 90 at gamma 0
    rise = (np.cos(gammas) - EARTH_RADIUS_M / r).tolist()
    atan = np.array([math.atan2(y, x) for y, x in zip(rise, np.sin(gammas).tolist())])
    elevations = np.where(gammas <= 0, 90.0, np.degrees(atan))
    times = offsets + n_half * step_s  # start the pass clock at 0
    return PassProfile(
        times_s=times,
        elevations_deg=np.clip(elevations, 0.0, 90.0),
        loss_model=loss_model,
        min_elevation_deg=min_elevation_deg,
    )


def load_pass_csv(path, loss_model: Callable[[np.ndarray], np.ndarray],
                  min_elevation_deg: float = 10.0) -> PassProfile:
    """Read a (time_s, elevation_deg) two-column CSV into a PassProfile."""
    from .analysis import load_two_column_csv  # only here: a command that reads no CSV never loads analysis

    times, els = load_two_column_csv(path, "time_s", "elevation_deg")
    if len(times) < 2:
        raise FileFormatError(f"{path}: need at least 2 samples")
    return PassProfile(times_s=times, elevations_deg=els, loss_model=loss_model,
                       min_elevation_deg=min_elevation_deg)


@record
class PassSpec:
    """The ``pass`` block of a pass-mode channel: where its pass profile comes from.

    A (time_s, elevation_deg) CSV when csv_path is set, else a synthesized
    circular-orbit pass. Either way an ElevationLossModel at the orbit
    altitude maps elevation to loss. Every setting is checked on
    construction; a synthesized pass is sampled only by profile.
    """

    csv_path: str | None = None
    max_elevation_deg: float = 90.0
    orbit_altitude_m: float = 500e3
    min_elevation_deg: float = 10.0
    step_s: float = 1.0
    zenith_atmospheric_db: float = 1.0
    receiver_diameter_m: float = 1.0

    def __post_init__(self):
        _check_min_elevation(self.min_elevation_deg)
        self.loss_model()  # checks the loss model's settings
        if self.csv_path is None:
            _pass_window(self.max_elevation_deg, self.orbit_altitude_m, self.min_elevation_deg, self.step_s)

    def loss_model(self) -> ElevationLossModel:
        return ElevationLossModel(
            altitude_m=self.orbit_altitude_m,
            zenith_atmospheric_db=self.zenith_atmospheric_db,
            receiver_diameter_m=self.receiver_diameter_m,
        )

    def profile(self) -> PassProfile:
        if self.csv_path is not None:
            return load_pass_csv(self.csv_path, self.loss_model(), min_elevation_deg=self.min_elevation_deg)
        return synthesize_pass(
            max_elevation_deg=self.max_elevation_deg,
            orbit_altitude_m=self.orbit_altitude_m,
            min_elevation_deg=self.min_elevation_deg,
            step_s=self.step_s,
            loss_model=self.loss_model(),
        )


@record
class ChannelConfig:
    """Downlink loss configuration: a fixed budget or an elevation-dependent pass.

    In pass mode the pass profile is built from pass_spec on its first read;
    a CSV pass is read on construction, so that a bad file fails every command.
    """

    mode: str  # "fixed" or "pass"
    fixed_loss_db: float = 40.0
    excess_loss_db: float = 0.0
    background_click_prob: float = 0.0  # per gate and detector; RunConfig.receiver adds it to dark_prob
    pass_spec: PassSpec | None = field(default=None, metadata={"key": "pass"})  # 'pass' is a keyword

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
            if self.pass_spec.csv_path is not None:
                self.pass_profile  # read now, so that a bad file fails every command

    @functools.cached_property
    def pass_profile(self) -> PassProfile | None:
        """The pass profile of a pass-mode channel, None in fixed mode."""
        return self.pass_spec.profile() if self.mode == "pass" else None
