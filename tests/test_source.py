import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd.errors import DomainError, OverlapUndefinedError
from satqkd.source import (
    FWHM_TO_SIGMA,
    DiodeProfile,
    ExtinctionSet,
    FilterSpec,
    IntensityLabel,
    PolarizationState,
    distinguishability_report,
    filter_transmission,
    intrinsic_qber,
    required_attenuation,
    shifted_center,
    spectral_overlap,
    temporal_overlap,
)

from conftest import MEASURED_EXTINCTION


# ---------------------------------------------------------------------------
# numeric-integration oracles (trapezoidal, independent of the closed forms)


def gaussian(x, center, fwhm):
    sig = fwhm * FWHM_TO_SIGMA
    return np.exp(-((x - center) ** 2) / (2.0 * sig**2)) / (sig * math.sqrt(2 * math.pi))


def bhattacharyya_oracle(c_a, f_a, c_b, f_b, span=6000.0, n=400001):
    x = np.linspace(min(c_a, c_b) - span, max(c_a, c_b) + span, n)
    p, q = gaussian(x, c_a, f_a), gaussian(x, c_b, f_b)
    return float(np.trapezoid(np.sqrt(p * q), x))


def transmission_oracle(center, fwhm, filt: FilterSpec, n=200001):
    lo = filt.center_nm - filt.fwhm_nm / 2
    hi = filt.center_nm + filt.fwhm_nm / 2
    x = np.linspace(lo, hi, n)
    return float(np.trapezoid(gaussian(x, center, fwhm), x))


# ---------------------------------------------------------------------------
# intrinsic QBER


def test_intrinsic_qber_paper_extinction():
    q = intrinsic_qber(MEASURED_EXTINCTION)
    assert q == pytest.approx(0.0079, abs=5e-4)


def test_intrinsic_qber_perfect_source():
    assert intrinsic_qber(ExtinctionSet(0, 0, 0, 0)) == 0.0


def test_intrinsic_qber_half_extinction_closed_form():
    # er = 0.5 everywhere -> 0.5/1.5 = 1/3
    assert intrinsic_qber(ExtinctionSet(0.5, 0.5, 0.5, 0.5)) == pytest.approx(1 / 3, abs=1e-12)


def test_intrinsic_qber_rejects_bad_weights():
    with pytest.raises(DomainError):
        intrinsic_qber(MEASURED_EXTINCTION, weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(DomainError):
        intrinsic_qber(MEASURED_EXTINCTION, weights=(1.0, 0.0, 0.0))


def test_extinction_set_rejects_out_of_range():
    with pytest.raises(DomainError):
        ExtinctionSet(1.0, 0, 0, 0)
    with pytest.raises(DomainError):
        ExtinctionSet(-0.1, 0, 0, 0)


@given(
    ers=st.lists(st.floats(0, 0.99), min_size=4, max_size=4),
    bump=st.floats(0.0, 0.009),
    idx=st.integers(0, 3),
)
def test_intrinsic_qber_monotone_and_bounded(ers, bump, idx):
    base = intrinsic_qber(ExtinctionSet(*ers))
    assert 0.0 <= base < 0.5
    bumped = list(ers)
    bumped[idx] = min(bumped[idx] + bump, 0.99)
    assert intrinsic_qber(ExtinctionSet(*bumped)) >= base


# ---------------------------------------------------------------------------
# wavelength shift


def _diode(**kw):
    defaults = dict(
        polarization=PolarizationState.H,
        center_wavelength_nm=777.5,
        spectral_fwhm_nm=1.0,
        reference_temp_c=25.0,
        reference_current_ma=60.0,
    )
    defaults.update(kw)
    return DiodeProfile(**defaults)


def test_shifted_center_zero_coefficients():
    d = _diode()
    assert shifted_center(d, 40.0, 100.0) == 777.5


def test_shifted_center_temperature():
    d = _diode(temp_coefficient_nm_per_c=0.06)
    with pytest.warns(UserWarning, match="outside validity window"):
        assert shifted_center(d, 50.0, 60.0) == pytest.approx(779.0)


def test_shifted_center_current():
    d = _diode(current_coefficient_nm_per_ma=0.01)
    # 60 mA signal drive to 100 mA decoy drive
    assert shifted_center(d, 25.0, 100.0) == pytest.approx(777.9)


def test_shifted_center_warns_outside_window():
    d = _diode(temp_coefficient_nm_per_c=0.06)
    with pytest.warns(UserWarning):
        shifted_center(d, 60.0)


def test_shifted_center_is_linear():
    d = _diode(temp_coefficient_nm_per_c=0.03, current_coefficient_nm_per_ma=0.02)
    once = shifted_center(d, 45.0) - d.center_wavelength_nm
    half = shifted_center(d, 35.0) - d.center_wavelength_nm
    assert once == pytest.approx(2 * half, abs=1e-12)


# ---------------------------------------------------------------------------
# filter transmission


def test_filter_transmission_delta_line_in_band():
    filt = FilterSpec(777.5, 2.0)
    assert filter_transmission(777.5, 0.0, filt) == 1.0


def test_filter_transmission_centered_line_vs_oracle():
    filt = FilterSpec(777.5, 2.0)
    got = filter_transmission(777.5, 1.0, filt)
    assert got == pytest.approx(0.9818, abs=1e-3)
    assert got == pytest.approx(transmission_oracle(777.5, 1.0, filt), abs=1e-6)


def test_filter_transmission_out_of_band_line():
    filt = FilterSpec(777.5, 2.0)
    assert filter_transmission(781.0, 1.0, filt) < 1e-6


def test_filter_transmission_gaussian_filter_vs_oracle():
    filt = FilterSpec(777.5, 2.0, shape="gaussian")
    sig_f = 2.0 * FWHM_TO_SIGMA
    x = np.linspace(770, 785, 400001)
    oracle = float(np.trapezoid(gaussian(x, 778.0, 1.0) * np.exp(-((x - 777.5) ** 2) / (2 * sig_f**2)), x))
    assert filter_transmission(778.0, 1.0, filt) == pytest.approx(oracle, abs=1e-6)


@given(offset=st.floats(0.0, 5.0), step=st.floats(0.01, 2.0))
@settings(max_examples=50)
def test_filter_transmission_monotone_in_detuning(offset, step):
    filt = FilterSpec(777.5, 2.0)
    near = filter_transmission(777.5 + offset, 1.0, filt)
    far = filter_transmission(777.5 + offset + step, 1.0, filt)
    assert far <= near + 1e-12


# ---------------------------------------------------------------------------
# overlaps


def test_spectral_overlap_identical_lines():
    assert spectral_overlap((777.5, 1.0), (777.5, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_overlap_shifted_lines_closed_form():
    assert spectral_overlap((777.5, 1.0), (778.5, 1.0)) == pytest.approx(0.5, abs=1e-9)


def test_spectral_overlap_far_lines():
    assert spectral_overlap((776.0, 0.5), (779.0, 0.5)) < 1e-8


def test_spectral_overlap_vs_numeric_oracle():
    got = spectral_overlap((777.2, 0.8), (778.1, 1.3))
    assert got == pytest.approx(bhattacharyya_oracle(777.2, 0.8, 778.1, 1.3, span=20.0), abs=1e-6)


def test_spectral_overlap_filtered_no_power():
    filt = FilterSpec(777.5, 2.0)
    with pytest.raises(OverlapUndefinedError):
        spectral_overlap((900.0, 0.5), (777.5, 1.0), filt)


def test_spectral_overlap_filtered_identical_lines():
    filt = FilterSpec(777.5, 2.0)
    assert spectral_overlap((777.5, 1.0), (777.5, 1.0), filt) == pytest.approx(1.0, abs=1e-6)


def test_temporal_overlap_identical():
    assert temporal_overlap(700.0, 700.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_temporal_overlap_signal_vs_decoy_widths():
    got = temporal_overlap(500.0, 900.0, 0.0)
    assert got == pytest.approx(0.921, abs=1e-3)
    assert got == pytest.approx(bhattacharyya_oracle(0.0, 500.0, 0.0, 900.0), abs=1e-6)


def test_temporal_overlap_large_delay():
    assert temporal_overlap(500.0, 500.0, 2000.0) < 1e-3


def test_temporal_overlap_rejects_nonpositive_width():
    with pytest.raises(DomainError):
        temporal_overlap(0.0, 500.0, 0.0)


@given(
    fa=st.floats(10.0, 2000.0),
    fb=st.floats(10.0, 2000.0),
    d=st.floats(-3000.0, 3000.0),
)
def test_overlap_symmetry_and_range(fa, fb, d):
    ab = temporal_overlap(fa, fb, d)
    ba = temporal_overlap(fb, fa, -d)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert 0.0 <= ab <= 1.0


def test_temporal_overlap_strictly_decreasing_in_delay():
    delays = np.linspace(0.0, 1500.0, 40)
    vals = [temporal_overlap(500.0, 900.0, d) for d in delays]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# distinguishability report


def test_distinguishability_identical_modes(source):
    from dataclasses import replace

    diodes = tuple(
        replace(d, pulse_fwhm_by_class_ps={IntensityLabel.SIGNAL: 700.0, IntensityLabel.DECOY: 700.0})
        for d in source.diode_profiles
    )
    cfg = replace(source, diode_profiles=diodes)
    rep = distinguishability_report(cfg)
    assert all(p.score == pytest.approx(0.0, abs=1e-6) for p in rep.pairs)


def test_distinguishability_signal_decoy_width_gap(source):
    rep = distinguishability_report(source)
    assert rep.worst_pair.temporal_score == pytest.approx(0.079, abs=1e-3)


def test_distinguishability_shifted_diode(source):
    from dataclasses import replace

    # narrow lines: the shifted diode transmits only a vanishing band-edge tail
    diodes = [replace(d, spectral_fwhm_nm=0.5) for d in source.diode_profiles]
    diodes[0] = replace(diodes[0], center_wavelength_nm=diodes[0].center_wavelength_nm + 3.5)
    cfg = replace(source, diode_profiles=tuple(diodes))
    rep = distinguishability_report(cfg)
    shifted = [p for p in rep.pairs if p.mode_a.startswith("H") != p.mode_b.startswith("H")]
    assert max(p.spectral_score for p in shifted) > 0.95


# ---------------------------------------------------------------------------
# attenuation


def test_required_attenuation_identity():
    # pulse energy equal to one target photon -> 0 dB
    from satqkd.source import HC

    energy = 0.5 * HC / 785e-9
    assert required_attenuation(energy, 785.0, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_required_attenuation_one_picojoule():
    assert required_attenuation(1e-12, 785.0, 0.5) == pytest.approx(69.0, abs=0.05)
    assert required_attenuation(1e-12, 785.0, 0.3) == pytest.approx(71.2, abs=0.05)


def test_required_attenuation_rejects_negative():
    from satqkd.source import HC

    energy = 0.1 * HC / 785e-9  # only 0.1 photons in the pulse
    with pytest.raises(DomainError):
        required_attenuation(energy, 785.0, 0.5)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -0.1])
def test_intensity_class_rejects_non_finite_or_negative_mu(mu):
    from satqkd.source import IntensityClass

    with pytest.raises(DomainError, match="mean photon number"):
        IntensityClass(IntensityLabel.SIGNAL, mu=mu, emit_probability=0.7, pulse_fwhm_ps=900.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_intensity_class_rejects_non_finite_emit_probability(p):
    from satqkd.source import IntensityClass

    with pytest.raises(DomainError, match="emit_probability"):
        IntensityClass(IntensityLabel.SIGNAL, mu=0.3, emit_probability=p, pulse_fwhm_ps=900.0)


@pytest.mark.parametrize("fwhm", [math.nan, math.inf, 0.0])
def test_intensity_class_rejects_non_finite_pulse_fwhm(fwhm):
    from satqkd.source import IntensityClass

    with pytest.raises(DomainError, match="pulse_fwhm_ps"):
        IntensityClass(IntensityLabel.SIGNAL, mu=0.3, emit_probability=0.7, pulse_fwhm_ps=fwhm)


@pytest.mark.parametrize("field", ["center_wavelength_nm", "spectral_fwhm_nm"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_diode_profile_rejects_non_finite_wavelengths(field, value):
    with pytest.raises(DomainError, match=field):
        _diode(**{field: value})


def test_diode_profile_rejects_nan_pulse_fwhm():
    with pytest.raises(DomainError, match="pulse FWHM"):
        _diode(pulse_fwhm_by_class_ps={IntensityLabel.SIGNAL: math.nan})


@pytest.mark.parametrize("center, fwhm", [(math.nan, 2.0), (math.inf, 2.0), (777.5, math.nan), (777.5, math.inf)])
def test_filter_spec_rejects_non_finite_center_or_width(center, fwhm):
    with pytest.raises(DomainError, match="center_nm and fwhm_nm"):
        FilterSpec(center, fwhm)
