"""Exhaustive grid search over source parameters maximizing the secret key.

The analytic key rate is cheap, so a deterministic grid is preferred over
local search: the whole table is returned for inspection and reruns are
bit-identical.
"""

from __future__ import annotations

import math
import operator
from typing import Dict

import numpy as np

from .errors import DomainError
from .protocol import DetectorModel, SecurityParams, key_from_fixed_loss
from .record import record
from .source import IntensityLabel, SourceConfig

# parameters the grid may sweep, in tie-break priority order, each with the open interval it lies in
DOMAINS = {"mu_signal": (0.0, math.inf), "mu_decoy": (0.0, math.inf), "p_signal": (0.0, math.inf),
           "p_decoy": (0.0, math.inf), "basis_probability_z": (0.0, 1.0)}
SWEEPABLE = tuple(DOMAINS)

MAX_GRID_POINTS = 1_000_000  # points of one search grid, as many as the steps of one pass walk


@record
class Axis:
    """One swept parameter: points values from lower to upper, both ends included; points is a whole number."""

    lower: float
    upper: float
    points: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError("axis lower must be < upper")
        try:
            operator.index(self.points)  # an int or numpy integer; a float, even 3.0, is no count of points
        except TypeError:
            raise DomainError(f"axis points must be a whole number, got {self.points!r}") from None
        if self.points < 2:
            raise DomainError("axis needs >= 2 grid points")

    def values(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.points)


@record
class SearchSpace:
    """The grid of a search: one Axis per swept parameter, each inside its parameter's domain."""

    axes: Dict[str, Axis]

    def __post_init__(self):
        for name, axis in self.axes.items():
            if name not in SWEEPABLE:
                raise DomainError(f"unknown search parameter {name!r}; choose from {SWEEPABLE}")
            lo, hi = DOMAINS[name]
            if not lo < axis.lower < axis.upper < hi:  # false for NaN too
                raise DomainError(f"{name} axis [{axis.lower:g}, {axis.upper:g}] leaves the domain "
                                  f"({lo:g}, {hi:g}) of {name}")
        if not self.axes:
            raise DomainError("search space has no axes")
        if math.prod(axis.points for axis in self.axes.values()) > MAX_GRID_POINTS:
            raise DomainError(f"search grid has more than {MAX_GRID_POINTS} points")


@record
class OptimizeResult:
    """The best grid point, its key length, and the table of every feasible point that was keyed."""

    best_params: Dict[str, float]
    best_key_length: float
    table: Dict[str, list]  # column name -> one entry per evaluated grid point


def optimize(
    space: SearchSpace,
    base_source: SourceConfig,
    total_loss_db: float,
    det: DetectorModel,
    e_det: float,
    sec: SecurityParams,
    regime: str = "asymptotic",
    duration_s: float = 1.0,
) -> OptimizeResult:
    """Evaluate the full grid and return the argmax (first listed combination wins ties).

    The feasible points are keyed in one key_from_fixed_loss call. The axes
    keep every swept value in its domain, so a point is infeasible when
    mu_signal equals mu_decoy, p_signal or p_decoy is 0 (an unswept emit
    probability may be), or the vacuum share 1 - p_signal - p_decoy is <= 0:
    the 2-decoy bound needs a vacuum class that sends.
    """
    names = [n for n in SWEEPABLE if n in space.axes]
    # row-major over the axes in SWEEPABLE order: the order of itertools.product
    grid = dict(zip(names, (g.ravel() for g in np.meshgrid(*(space.axes[n].values() for n in names),
                                                           indexing="ij"))))
    signal, decoy = base_source.intensity(IntensityLabel.SIGNAL), base_source.intensity(IntensityLabel.DECOY)
    defaults = (signal.mu, decoy.mu, signal.emit_probability, decoy.emit_probability,
                base_source.basis_probability_z)
    mu_s, mu_d, p_s, p_d, pz = np.broadcast_arrays(*(grid.get(n, d) for n, d in zip(SWEEPABLE, defaults)))
    p_v = 1.0 - p_s - p_d
    feasible = ~((mu_s == mu_d) | (p_s <= 0) | (p_d <= 0) | (p_v <= 0))
    if not feasible.any():
        raise DomainError("search space contains no feasible grid point")
    # rows in LABELS order: signal, decoy and the vacuum, which sends no photon and takes the rest
    mus, emit = (np.array(rows)[:, feasible] for rows in ([mu_s, mu_d, np.zeros(pz.shape)], [p_s, p_d, p_v]))
    result = key_from_fixed_loss(base_source, total_loss_db, det, e_det, sec, duration_s, regime,
                                 mus=mus, emit=emit, p_z=pz[feasible])
    table = {n: grid[n][feasible].tolist() for n in names}
    table["key_length_bits"] = result.secret_key_length.tolist()
    table["key_rate_bps"] = result.secret_key_rate.tolist()
    best = int(np.argmax(result.secret_key_length))
    return OptimizeResult(best_params={n: table[n][best] for n in names},
                          best_key_length=table["key_length_bits"][best], table=table)
