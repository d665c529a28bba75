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


def _check_walk(step_s: float, duration_s: float) -> None:
    """A step must be finite and > 0 s and cut a pass of duration_s into at most MAX_PASS_STEPS steps."""
    if not (math.isfinite(step_s) and step_s > 0):
        raise DomainError(f"step must be finite and > 0 s, got {step_s}")
    if duration_s / step_s > MAX_PASS_STEPS:
        raise DomainError(f"step {step_s:g} s cuts the {duration_s:g} s pass into more than {MAX_PASS_STEPS} steps")


@record
class PassProfile:
    """One satellite pass above a ground station: its window [start_s, end_s] and its elevation over time.

    elevation maps an array of times (s) to the elevations (degrees) there,
    and loss_model an array of elevations to an array of losses (dB) of the
    same shape; walk and segments call each once, on every step.
    """

    start_s: float
    end_s: float
    elevation: Callable[[np.ndarray], np.ndarray]
    loss_model: Callable[[np.ndarray], np.ndarray]
    min_elevation_deg: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s) and self.start_s <= self.end_s):
            raise DomainError(f"the pass window needs finite start_s <= end_s, got [{self.start_s}, {self.end_s}]")
        _check_min_elevation(self.min_elevation_deg)

    @property
    def duration_s(self) -> float:
        return float(self.end_s - self.start_s)

    def walk(self, step_s: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Midpoint time (s), elevation (deg) and duration (s) of each step of the pass above the minimum elevation.

        Step k of the walk starts at start_s + k * step_s, counted rather than
        accumulated, and the last one is cut short to end at end_s. A step
        takes the elevation at its midpoint and is dropped when that lies below
        the minimum elevation; a step that would cut the pass into more than
        MAX_PASS_STEPS steps raises DomainError.
        """
        t0, t1 = self.start_s, self.end_s
        _check_walk(step_s, t1 - t0)
        starts = t0 + step_s * np.arange(math.ceil((t1 - t0) / step_s))
        steps = np.minimum(step_s, t1 - starts)  # a start that rounds onto t1 gives a step <= 0
        midpoints = starts + steps / 2.0
        elevations = self.elevation(midpoints)
        keep = (steps > 0) & (elevations >= self.min_elevation_deg)
        return midpoints[keep], elevations[keep], steps[keep]

    def segments(self, step_s: float, excess_loss_db: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Loss (dB, excess included) and duration (s) of each step of the walk: the loss model is called once."""
        _, elevations, durations = self.walk(step_s)
        return self.loss_model(elevations) + excess_loss_db, durations


def sampled_pass(times_s: Sequence[float], elevations_deg: Sequence[float],
                 loss_model: Callable[[np.ndarray], np.ndarray], min_elevation_deg: float = 10.0) -> PassProfile:
    """The pass through time-ordered (time, elevation) samples, linear between them, over their span."""
    t = np.asarray(times_s, dtype=float)
    el = np.asarray(elevations_deg, dtype=float)
    if t.shape != el.shape or t.ndim != 1 or not t.size:
        raise DomainError("times and elevations must be 1-D, non-empty and of equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise DomainError("times must be finite and strictly increasing")
    if not np.all((el >= 0) & (el <= 90)):  # false for NaN too
        raise DomainError("elevations must be in [0, 90] degrees")
    return PassProfile(float(t[0]), float(t[-1]), functools.partial(np.interp, xp=t, fp=el), loss_model,
                       min_elevation_deg)


def _central_angle_from_elevation(elevation_deg: float, orbit_radius_m: float) -> float:
    el = math.radians(elevation_deg)
    return math.acos((EARTH_RADIUS_M / orbit_radius_m) * math.cos(el)) - el


def _check_min_elevation(min_elevation_deg: float) -> None:
    """A pass is cut at a minimum elevation >= 0: the loss model takes no elevation <= 0."""
    if not min_elevation_deg >= 0:  # false for NaN too
        raise DomainError(f"min_elevation_deg must be >= 0, got {min_elevation_deg}")


def _pass_window(max_elevation_deg: float, orbit_altitude_m: float,
                 min_elevation_deg: float) -> Tuple[float, float, float, float]:
    """(orbit radius, angular rate, culmination central angle, half span) of a checked synthesized pass.

    The pass rises to min_elevation half span seconds before its culmination
    and sets to it half span seconds after.
    """
    _check_min_elevation(min_elevation_deg)
    if not min_elevation_deg < max_elevation_deg <= 90.0:
        raise DomainError("need min_elevation < max_elevation <= 90")
    if not (math.isfinite(orbit_altitude_m) and orbit_altitude_m > 0):
        raise DomainError(f"orbit altitude must be finite and > 0 m, got {orbit_altitude_m}")
    r = EARTH_RADIUS_M + orbit_altitude_m
    omega = math.sqrt(EARTH_MU_M3_S2 / r**3)  # orbital angular rate, rad/s
    gamma_max = _central_angle_from_elevation(max_elevation_deg, r)  # at culmination
    gamma_min = _central_angle_from_elevation(min_elevation_deg, r)  # at the horizon cut
    # cos(gamma(t)) = cos(gamma_max) * cos(omega t), t from the culmination
    half_span = math.acos(min(1.0, math.cos(gamma_min) / math.cos(gamma_max))) / omega
    return r, omega, gamma_max, half_span


def _orbit_elevation_deg(times_s: np.ndarray, culmination_s: float, omega: float, cos_gamma_max: float,
                         radius_ratio: float) -> np.ndarray:
    """Elevation (deg) at each time of a circular-orbit pass: the closed form at central angle gamma(t)."""
    gammas = np.arccos(cos_gamma_max * np.cos(omega * (times_s - culmination_s)))
    # the elevation at central angle gamma, atan2 taken from math for its rounding; 90 at gamma 0
    rise = (np.cos(gammas) - radius_ratio).tolist()
    atan = np.array([math.atan2(y, x) for y, x in zip(rise, np.sin(gammas).tolist())])
    return np.clip(np.where(gammas <= 0, 90.0, np.degrees(atan)), 0.0, 90.0)


def synthesize_pass(max_elevation_deg: float, orbit_altitude_m: float, min_elevation_deg: float = 10.0,
                    loss_model: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> PassProfile:
    """The symmetric pass of a circular orbit, from its rise to min_elevation to its set.

    The satellite moves along a great-circle ground track whose closest
    approach corresponds to the culmination elevation; the pass clock starts
    at the rise, and the elevation at any time is closed form.
    """
    r, omega, gamma_max, half_span = _pass_window(max_elevation_deg, orbit_altitude_m, min_elevation_deg)
    if loss_model is None:
        loss_model = ElevationLossModel(altitude_m=orbit_altitude_m)
    elevation = functools.partial(_orbit_elevation_deg, culmination_s=half_span, omega=omega,
                                  cos_gamma_max=math.cos(gamma_max), radius_ratio=EARTH_RADIUS_M / r)
    return PassProfile(0.0, 2.0 * half_span, elevation, loss_model, min_elevation_deg)


def load_pass_csv(path, loss_model: Callable[[np.ndarray], np.ndarray], min_elevation_deg: float = 10.0) -> PassProfile:
    """Read a (time_s, elevation_deg) two-column CSV into a PassProfile."""
    from .analysis import load_two_column_csv  # only here: a command that reads no CSV never loads analysis

    times, els = load_two_column_csv(path, "time_s", "elevation_deg")
    if len(times) < 2:
        raise FileFormatError(f"{path}: need at least 2 samples")
    return sampled_pass(times, els, loss_model, min_elevation_deg)


@record
class PassSpec:
    """The ``pass`` block of a pass-mode channel: where its pass profile comes from.

    A (time_s, elevation_deg) CSV when csv_path is set, else a synthesized
    circular-orbit pass. Either way an ElevationLossModel at the orbit
    altitude maps elevation to loss, and step_s is the step of the pass's
    walk. Every setting is checked on construction; a synthesized pass is
    built only by profile.
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
        span = 0.0  # a CSV pass's step is capped by ChannelConfig, which reads the file
        if self.csv_path is None:
            span = 2.0 * _pass_window(self.max_elevation_deg, self.orbit_altitude_m, self.min_elevation_deg)[-1]
        _check_walk(self.step_s, span)

    def loss_model(self) -> ElevationLossModel:
        return ElevationLossModel(
            altitude_m=self.orbit_altitude_m,
            zenith_atmospheric_db=self.zenith_atmospheric_db,
            receiver_diameter_m=self.receiver_diameter_m,
        )

    def profile(self) -> PassProfile:
        if self.csv_path is not None:
            return load_pass_csv(self.csv_path, self.loss_model(), min_elevation_deg=self.min_elevation_deg)
        return synthesize_pass(self.max_elevation_deg, self.orbit_altitude_m, self.min_elevation_deg,
                               self.loss_model())


@record
class ChannelConfig:
    """Downlink loss configuration: a fixed budget or an elevation-dependent pass.

    In pass mode the pass profile is built from pass_spec on its first read;
    a CSV pass is read, and its step capped, on construction.
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
            if self.pass_spec.csv_path is not None:  # read now, so that a bad file or step fails every command
                _check_walk(self.pass_spec.step_s, self.pass_profile.duration_s)

    @functools.cached_property
    def pass_profile(self) -> PassProfile | None:
        """The pass profile of a pass-mode channel, None in fixed mode."""
        return self.pass_spec.profile() if self.mode == "pass" else None
