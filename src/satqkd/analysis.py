"""Characterization-data analysis: TCSPC pulse histograms and diode spectra.

Both are one Series, and one estimator serves both: subtract the series
minimum as baseline, find the unique global peak, and linearly interpolate
to the half-max crossings on either side. A spectrum's line center is the
centroid between those crossings.
"""

from __future__ import annotations

import csv
import warnings
from typing import Tuple

import numpy as np

from .errors import DomainError, FileFormatError, open_or_raise
from .record import record


@record
class Series:
    """Values y >= 0 at finite, strictly increasing x: a TCSPC histogram's
    (time_ps, counts) or a spectrum's (wavelength_nm, intensity)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        x, y = self.x, self.y
        if x.ndim != 1 or x.shape != y.shape:
            raise DomainError("series: x and y must be 1-D and equal length")
        if x.size < 5:
            raise DomainError("series: need at least 5 points")
        if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
            raise DomainError("series: x values must be finite and strictly increasing")
        if not np.all((y >= 0) & (y < np.inf)):  # false for NaN too
            raise DomainError("series: values must be finite and >= 0")


@record
class PeakEstimate:
    """The global peak of a series and its full width between the half-max
    crossings; multi_peak when a second peak rises above half of it."""

    peak_x: float
    fwhm: float
    left_crossing: float
    right_crossing: float
    multi_peak: bool = False


def estimate_peak(series: Series) -> PeakEstimate:
    """Peak position and FWHM of a series via half-max crossings above its minimum."""
    x = series.x
    y = series.y - series.y.min()
    peak = int(np.argmax(y))
    ymax = y[peak]
    if ymax <= 0:
        raise DomainError("series is flat after baseline subtraction")
    half = ymax / 2.0

    # secondary-peak check: any local max above 50% of the global one,
    # separated from it by a dip well below half (10% guard band so shot
    # noise riding on the main peak is not flagged)
    multi = False
    for i in range(1, len(y) - 1):
        if i == peak:
            continue
        if y[i] >= y[i - 1] and y[i] >= y[i + 1] and y[i] > half and not (
            min(y[min(i, peak):max(i, peak) + 1]) > half * 0.9
        ):
            multi = True
            break
    if multi:
        warnings.warn("secondary peak above 50% of the maximum; FWHM may be ambiguous", stacklevel=2)

    def bracket(direction: int, level: float) -> Tuple[int, int, float]:
        """First bin pair straddling `level` walking outward, plus 2-point interp."""
        i = peak
        while 0 <= i + direction < len(y):
            j = i + direction
            if y[j] < level:
                frac = (y[i] - level) / (y[i] - y[j])
                return i, j, float(x[i] + frac * (x[j] - x[i]))
            i = j
        raise DomainError("half-maximum crossing not found (peak touches the series boundary)")

    def cross(direction: int, level: float) -> float:
        """Crossing via a local straight-line fit to the flank around the bracket.

        The fit averages bin noise along the flank; on piecewise-linear or
        sparse data it degenerates to plain 2-point linear interpolation.
        """
        i, j, x_interp = bracket(direction, level)
        lo, hi = min(i, j) - 3, max(i, j) + 3
        ks = [
            k
            for k in range(max(lo, 0), min(hi, len(y) - 1) + 1)
            if ((k - peak) * direction >= 0 or k in (i, j))
            and 0.3 * level <= y[k] <= 1.7 * level
        ]
        if len(ks) >= 3:
            slope, intercept = np.polyfit(x[ks], y[ks], 1)
            if slope * direction < 0:
                return float((level - intercept) / slope)
        return x_interp

    # First pass with the raw maximum to get a provisional width, then refine
    # the peak amplitude with a parabola fitted over the top 10% of that
    # width. The fit removes the upward bias of the max order statistic on
    # noisy data; on noiseless or sparse data it reduces to the raw maximum.
    _, _, left0 = bracket(-1, half)
    _, _, right0 = bracket(+1, half)
    window = np.abs(x - x[peak]) <= 0.05 * (right0 - left0)
    window[peak] = True
    idx = np.where(window)[0]
    amp = ymax
    if idx.size >= 5:
        a, b, c = np.polyfit(x[idx], y[idx], 2)
        x_vertex = -b / (2.0 * a) if a < 0 else float(x[peak])
        x_vertex = min(max(x_vertex, float(x[idx[0]])), float(x[idx[-1]]))
        fit_amp = float(np.polyval((a, b, c), x_vertex))
        amp = fit_amp if 0.0 < fit_amp <= 1.5 * ymax else float(y[idx].mean())
    elif idx.size > 1:
        amp = float(y[idx].mean())
    half = amp / 2.0
    left, right = cross(-1, half), cross(+1, half)
    return PeakEstimate(peak_x=float(x[peak]), fwhm=right - left, left_crossing=left, right_crossing=right,
                        multi_peak=multi)


def centroid(series: Series, estimate: PeakEstimate) -> float:
    """The mean x between the estimate's crossings, weighted by y above the series minimum; its peak x if none."""
    x = series.x
    y = series.y - series.y.min()
    window = (x >= estimate.left_crossing) & (x <= estimate.right_crossing)
    if not window.any():
        window = x == estimate.peak_x
    return float(np.sum(x[window] * y[window]) / np.sum(y[window]))


def load_two_column_csv(path, col_x: str, col_y: str) -> Tuple[np.ndarray, np.ndarray]:
    """The two columns of a CSV whose header starts with col_x,col_y, as float arrays; blank rows are skipped."""
    xs, ys = [], []
    try:
        with open_or_raise(path, FileFormatError, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != [col_x, col_y]:
                raise FileFormatError(f"{path}: expected header '{col_x},{col_y}'")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    xs.append(float(row[0]))
                    ys.append(float(row[1]))
                except (ValueError, IndexError) as exc:
                    raise FileFormatError(f"{path}:{lineno}: bad row {row!r}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return np.asarray(xs), np.asarray(ys)


def load_series(path, col_x: str, col_y: str) -> Series:
    """The Series of a CSV's columns col_x,col_y; a series that fails validation is a FileFormatError."""
    x, y = load_two_column_csv(path, col_x, col_y)
    try:
        return Series(x, y)
    except DomainError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
