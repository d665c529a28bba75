import csv
import math

import numpy as np
import pytest

from satqkd.analysis import (
    HistogramSeries,
    SpectrumSeries,
    estimate_fwhm,
    estimate_spectrum,
    load_histogram_csv,
    load_spectrum_csv,
)
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
    return HistogramSeries(time_ps=x, counts=y)


def test_fwhm_symmetric_triangle_exact():
    x = np.arange(0.0, 21.0)
    y = np.maximum(0.0, 100.0 * (1 - np.abs(x - 10.0) / 5.0))  # base width 10, peak 100
    est = estimate_fwhm(HistogramSeries(time_ps=x, counts=y))
    assert est.fwhm == pytest.approx(5.0, abs=1e-9)
    assert est.peak_x == 10.0


@pytest.mark.parametrize("fwhm", [500.0, 900.0])
def test_fwhm_synthetic_gaussian(fwhm):
    est = estimate_fwhm(gaussian_histogram(fwhm))
    assert est.fwhm == pytest.approx(fwhm, abs=4.0)


def test_fwhm_invariant_under_scaling_and_baseline():
    base = gaussian_histogram(500.0, noise=0.01, seed=3)
    est = estimate_fwhm(base)
    scaled = HistogramSeries(time_ps=base.time_ps, counts=base.counts * 7.5)
    offset = HistogramSeries(time_ps=base.time_ps, counts=base.counts + 123.0)
    assert estimate_fwhm(scaled).fwhm == pytest.approx(est.fwhm, abs=1e-9)
    assert estimate_fwhm(offset).fwhm == pytest.approx(est.fwhm, abs=1e-9)


def test_fwhm_peak_at_boundary_errors():
    x = np.arange(0.0, 40.0, 4.0)
    y = np.exp(x / 10.0)  # monotone: peak is the last sample
    with pytest.raises(DomainError):
        estimate_fwhm(HistogramSeries(time_ps=x, counts=y))


def test_fwhm_multi_peak_warns():
    x = np.arange(0.0, 2000.0, 4.0)
    y = 1000 * np.exp(-((x - 500.0) ** 2) / (2 * 50.0**2))
    y += 700 * np.exp(-((x - 1500.0) ** 2) / (2 * 50.0**2))
    with pytest.warns(UserWarning, match="secondary peak"):
        est = estimate_fwhm(HistogramSeries(time_ps=x, counts=y))
    assert est.multi_peak


def test_series_validation():
    with pytest.raises(DomainError):
        HistogramSeries(time_ps=[0, 1, 2], counts=[1, 2, 1])  # too few points
    with pytest.raises(DomainError):
        HistogramSeries(time_ps=[0, 1, 1, 2, 3], counts=[1, 2, 3, 2, 1])
    with pytest.raises(DomainError):
        SpectrumSeries(wavelength_nm=[1, 2, 3, 4, 5], intensity=[1, -2, 3, 2, 1])


def test_spectrum_delta_like_bin():
    x = np.linspace(775.0, 780.0, 51)
    y = np.zeros_like(x)
    y[25] = 100.0
    est = estimate_spectrum(SpectrumSeries(wavelength_nm=x, intensity=y))
    assert est.center == pytest.approx(x[25], abs=1e-9)


def test_spectrum_gaussian_center_and_band_check():
    sigma = 1.0 / (2 * math.sqrt(2 * math.log(2)))
    x = np.linspace(770.0, 785.0, 1501)
    y = 100 * np.exp(-((x - 777.5) ** 2) / (2 * sigma**2))
    est = estimate_spectrum(
        SpectrumSeries(wavelength_nm=x, intensity=y), band_center_nm=777.5, band_halfwidth_nm=2.5
    )
    assert est.center == pytest.approx(777.5, abs=0.05)
    assert est.fwhm == pytest.approx(1.0, abs=0.05)
    assert est.in_band is True


@pytest.mark.parametrize("band", [
    dict(band_center_nm=777.5), dict(band_halfwidth_nm=2.5), dict(band_center_nm=777.5, band_halfwidth_nm=-1.0),
    dict(band_center_nm=777.5, band_halfwidth_nm=math.nan), dict(band_center_nm=777.5, band_halfwidth_nm=math.inf),
    dict(band_center_nm=math.nan, band_halfwidth_nm=2.5), dict(band_center_nm=-math.inf, band_halfwidth_nm=2.5),
])
def test_spectrum_band_needs_a_finite_pair(band):
    # a lone value was once ignored (in_band None) and a negative half width made in_band always false
    x = np.linspace(775.0, 780.0, 51)
    y = np.exp(-((x - 777.5) ** 2))
    with pytest.raises(DomainError, match="band_center_nm"):
        estimate_spectrum(SpectrumSeries(wavelength_nm=x, intensity=y), **band)


def test_spectrum_out_of_band_flagged():
    sigma = 1.0 / (2 * math.sqrt(2 * math.log(2)))
    x = np.linspace(775.0, 787.0, 1201)
    y = 100 * np.exp(-((x - 781.0) ** 2) / (2 * sigma**2))
    est = estimate_spectrum(
        SpectrumSeries(wavelength_nm=x, intensity=y), band_center_nm=777.5, band_halfwidth_nm=2.5
    )
    assert est.in_band is False


def test_csv_round_trip(tmp_path):
    series = gaussian_histogram(500.0, noise=0.01, seed=1)
    path = tmp_path / "hist.csv"
    save_xy_csv(path, "time_ps", "counts", series.time_ps, series.counts)
    loaded = load_histogram_csv(path)
    assert np.array_equal(loaded.time_ps, series.time_ps)
    assert np.array_equal(loaded.counts, series.counts)


def test_spectrum_csv_loader(tmp_path):
    path = tmp_path / "spec.csv"
    x = np.linspace(776, 779, 31)
    y = np.exp(-((x - 777.5) ** 2))
    save_xy_csv(path, "wavelength_nm", "intensity", x, y)
    loaded = load_spectrum_csv(path)
    assert np.array_equal(loaded.wavelength_nm, x)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,counts\n0,1\n1,2\n2,3\n3,2\n4,1\n")
    with pytest.raises(FileFormatError):
        load_histogram_csv(path)


def test_csv_bad_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_ps,counts\n0,1\n1,abc\n2,3\n3,2\n4,1\n")
    with pytest.raises(FileFormatError):
        load_histogram_csv(path)
