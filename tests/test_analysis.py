import csv
import math
import re

import numpy as np
import pytest

from satqkd.analysis import Series, centroid, estimate_peak, load_series
from satqkd.errors import DomainError, FileFormatError


def save_xy_csv(path, col_x, col_y, x, y):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([col_x, col_y])
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(xi)), repr(float(yi))])


def gaussian_histogram(fwhm_ps, bin_ps=4.0, center=5000.0, amplitude=1000.0, noise=0.0, seed=0):
    sigma = fwhm_ps / (2 * math.sqrt(2 * math.log(2)))
    x = np.arange(0.0, 10000.0, bin_ps)
    y = amplitude * np.exp(-((x - center) ** 2) / (2 * sigma**2))
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1 + noise * rng.standard_normal(y.size))
        y = np.clip(y, 0, None)
    return Series(x, y)


def test_fwhm_symmetric_triangle_exact():
    x = np.arange(0.0, 21.0)
    y = np.maximum(0.0, 100.0 * (1 - np.abs(x - 10.0) / 5.0))  # base width 10, peak 100
    est = estimate_peak(Series(x, y))
    assert est.fwhm == pytest.approx(5.0, abs=1e-9)
    assert est.peak_x == 10.0


@pytest.mark.parametrize("fwhm", [500.0, 900.0])
def test_fwhm_synthetic_gaussian(fwhm):
    est = estimate_peak(gaussian_histogram(fwhm))
    assert est.fwhm == pytest.approx(fwhm, abs=4.0)


def test_fwhm_invariant_under_scaling_and_baseline():
    base = gaussian_histogram(500.0, noise=0.01, seed=3)
    est = estimate_peak(base)
    scaled = Series(base.x, base.y * 7.5)
    offset = Series(base.x, base.y + 123.0)
    assert estimate_peak(scaled).fwhm == pytest.approx(est.fwhm, abs=1e-9)
    assert estimate_peak(offset).fwhm == pytest.approx(est.fwhm, abs=1e-9)


def test_fwhm_peak_at_boundary_errors():
    x = np.arange(0.0, 40.0, 4.0)
    y = np.exp(x / 10.0)  # monotone: peak is the last sample
    with pytest.raises(DomainError):
        estimate_peak(Series(x, y))


def test_fwhm_multi_peak_warns():
    x = np.arange(0.0, 2000.0, 4.0)
    y = 1000 * np.exp(-((x - 500.0) ** 2) / (2 * 50.0**2))
    y += 700 * np.exp(-((x - 1500.0) ** 2) / (2 * 50.0**2))
    with pytest.warns(UserWarning, match="secondary peak"):
        est = estimate_peak(Series(x, y))
    assert est.multi_peak


def test_series_validation():
    with pytest.raises(DomainError):
        Series([0, 1, 2], [1, 2, 1])  # too few points
    with pytest.raises(DomainError):
        Series([0, 1, 1, 2, 3], [1, 2, 3, 2, 1])
    with pytest.raises(DomainError):
        Series([1, 2, 3, 4, 5], [1, -2, 3, 2, 1])


def test_spectrum_delta_like_bin():
    x = np.linspace(775.0, 780.0, 51)
    y = np.zeros_like(x)
    y[25] = 100.0
    series = Series(x, y)
    assert centroid(series, estimate_peak(series)) == pytest.approx(x[25], abs=1e-9)


def test_spectrum_gaussian_center_and_band_check():
    sigma = 1.0 / (2 * math.sqrt(2 * math.log(2)))
    x = np.linspace(770.0, 785.0, 1501)
    y = 100 * np.exp(-((x - 777.5) ** 2) / (2 * sigma**2))
    series = Series(x, y)
    est = estimate_peak(series)
    center = centroid(series, est)
    assert center == pytest.approx(777.5, abs=0.05)
    assert est.fwhm == pytest.approx(1.0, abs=0.05)
    assert abs(center - 777.5) <= 2.5


def test_spectrum_out_of_band_flagged():
    sigma = 1.0 / (2 * math.sqrt(2 * math.log(2)))
    x = np.linspace(775.0, 787.0, 1201)
    y = 100 * np.exp(-((x - 781.0) ** 2) / (2 * sigma**2))
    series = Series(x, y)
    assert not abs(centroid(series, estimate_peak(series)) - 777.5) <= 2.5


def test_csv_round_trip(tmp_path):
    series = gaussian_histogram(500.0, noise=0.01, seed=1)
    path = tmp_path / "hist.csv"
    save_xy_csv(path, "time_ps", "counts", series.x, series.y)
    loaded = load_series(path, "time_ps", "counts")
    assert np.array_equal(loaded.x, series.x)
    assert np.array_equal(loaded.y, series.y)


def test_spectrum_csv_loader(tmp_path):
    path = tmp_path / "spec.csv"
    x = np.linspace(776, 779, 31)
    y = np.exp(-((x - 777.5) ** 2))
    save_xy_csv(path, "wavelength_nm", "intensity", x, y)
    loaded = load_series(path, "wavelength_nm", "intensity")
    assert np.array_equal(loaded.x, x)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,counts\n0,1\n1,2\n2,3\n3,2\n4,1\n")
    with pytest.raises(FileFormatError):
        load_series(path, "time_ps", "counts")


def test_csv_bad_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_ps,counts\n0,1\n1,abc\n2,3\n3,2\n4,1\n")
    with pytest.raises(FileFormatError):
        load_series(path, "time_ps", "counts")


@pytest.mark.parametrize("rows,message", [
    ("0,1\n1,2\n2,1\n", "series: need at least 5 points"),
    ("0,1\n1,2\n1,3\n2,2\n3,1\n", "series: x values must be finite and strictly increasing"),
    ("0,1\n1,-2\n2,3\n3,2\n4,1\n", "series: values must be finite and >= 0"),
    ("0,1\n1,nan\n2,3\n3,2\n4,1\n", "series: values must be finite and >= 0"),
])
def test_csv_invalid_series_is_a_file_format_error(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("wavelength_nm,intensity\n" + rows)
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        load_series(path, "wavelength_nm", "intensity")
