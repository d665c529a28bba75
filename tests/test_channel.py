import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satqkd.channel import (
    ChannelConfig,
    ElevationLossModel,
    FixedLossModel,
    GeometryParams,
    PassProfile,
    geometric_loss,
    load_pass_csv,
    slant_range_m,
    synthesize_pass,
    transmittance_from_db,
)
from satqkd.errors import DomainError, FileFormatError


def test_transmittance_trivial():
    assert transmittance_from_db(0.0) == 1.0
    assert transmittance_from_db(40.0) == pytest.approx(1e-4, rel=1e-12)
    assert transmittance_from_db(3.0) == pytest.approx(0.5012, abs=1e-4)


def test_transmittance_rejects_negative():
    with pytest.raises(DomainError):
        transmittance_from_db(-1.0)


def test_transmittance_rejects_nan():
    with pytest.raises(DomainError):
        transmittance_from_db(math.nan)


@given(a=st.floats(0.0, 100.0), b=st.floats(0.0, 100.0))
def test_transmittance_composes(a, b):
    combined = transmittance_from_db(a + b)
    product = transmittance_from_db(a) * transmittance_from_db(b)
    assert combined == pytest.approx(product, abs=1e-12, rel=1e-12)


def test_geometric_loss_clamped_when_receiver_exceeds_spot():
    g = GeometryParams(range_m=1000.0, divergence_half_angle_rad=17e-6, receiver_diameter_m=1.0)
    # spot is 3.4 cm at 1 km; a 1 m receiver catches everything
    assert geometric_loss(g) == 0.0


def test_geometric_loss_500km():
    g = GeometryParams(range_m=500e3, divergence_half_angle_rad=17e-6, receiver_diameter_m=0.7)
    assert geometric_loss(g) == pytest.approx(27.7, abs=0.05)


def test_geometric_loss_doubling_range_adds_6db():
    near = GeometryParams(range_m=500e3, divergence_half_angle_rad=17e-6, receiver_diameter_m=0.7)
    far = GeometryParams(range_m=1000e3, divergence_half_angle_rad=17e-6, receiver_diameter_m=0.7)
    assert geometric_loss(far) - geometric_loss(near) == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_geometry_enforces_divergence_floor():
    with pytest.raises(DomainError):
        GeometryParams(range_m=500e3, divergence_half_angle_rad=10e-6, receiver_diameter_m=0.7)


@given(
    r=st.floats(100e3, 2000e3),
    dr=st.floats(1.0, 500e3),
    div=st.floats(17e-6, 100e-6),
    ddiv=st.floats(0.0, 50e-6),
)
def test_geometric_loss_monotone(r, dr, div, ddiv):
    base = geometric_loss(GeometryParams(r, div, 0.7))
    assert geometric_loss(GeometryParams(r + dr, div, 0.7)) >= base
    assert geometric_loss(GeometryParams(r, div + ddiv, 0.7)) >= base
    assert geometric_loss(GeometryParams(r, div, 0.8)) <= base


def test_slant_range_limits():
    # zenith: slant range equals the altitude
    assert slant_range_m(90.0, 500e3) == pytest.approx(500e3, rel=1e-9)
    assert slant_range_m(10.0, 500e3) > 1000e3


def test_elevation_loss_model_monotone_nonincreasing():
    model = ElevationLossModel(altitude_m=500e3)
    els = np.linspace(5.0, 90.0, 50)
    losses = [model(el) for el in els]
    assert all(a >= b for a, b in zip(losses, losses[1:]))


def test_elevation_loss_model_roughly_40db_low_elevation():
    model = ElevationLossModel(altitude_m=500e3)
    assert model(10.0) == pytest.approx(40.0, abs=3.0)


def test_synthesize_pass_duration_brackets_visibility_window():
    profile = synthesize_pass(90.0, 500e3, min_elevation_deg=10.0, step_s=1.0)
    assert 4 * 60 <= profile.duration_s <= 12 * 60


def test_synthesize_pass_symmetric_about_culmination():
    profile = synthesize_pass(80.0, 500e3, min_elevation_deg=10.0, step_s=1.0)
    els = np.asarray(profile.elevations_deg)
    assert np.allclose(els, els[::-1], atol=1e-9)
    assert els.max() == pytest.approx(80.0, abs=0.5)


def test_synthesize_pass_grazing_pass_short():
    profile = synthesize_pass(10.5, 500e3, min_elevation_deg=10.0, step_s=1.0)
    assert profile.duration_s < 120


def test_synthesize_pass_duration_shrinks_with_min_elevation():
    durations = [
        synthesize_pass(90.0, 500e3, min_elevation_deg=el, step_s=1.0).duration_s
        for el in (5.0, 10.0, 20.0, 40.0)
    ]
    assert all(a >= b for a, b in zip(durations, durations[1:]))


def test_synthesize_pass_rejects_bad_elevations():
    with pytest.raises(DomainError):
        synthesize_pass(10.0, 500e3, min_elevation_deg=10.0)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_synthesize_pass_rejects_step_not_finite_and_positive(step):
    with pytest.raises(DomainError, match="step must be finite and > 0"):
        synthesize_pass(60.0, 500e3, step_s=step)


def test_synthesize_pass_rejects_more_samples_than_the_step_cap():
    with pytest.raises(DomainError, match="into more than 1000000 samples"):
        synthesize_pass(60.0, 500e3, step_s=1e-4)


def test_segments_sample_midpoints_and_skip_low_elevation():
    profile = PassProfile(
        times_s=[0.0, 10.0, 20.0],
        elevations_deg=[20.0, 30.0, 20.0],
        loss_model=lambda el: 100.0 - el,
        min_elevation_deg=10.0,
    )
    losses, durations = profile.segments(20.0)  # one step, its midpoint on the middle sample
    assert losses.tolist() == [70.0] and durations.tolist() == [20.0]
    losses, durations = profile.segments(5.0, excess_loss_db=1.5)  # elevations 22.5, 27.5, 27.5, 22.5
    assert losses.tolist() == pytest.approx([79.0, 74.0, 74.0, 79.0])
    assert durations.tolist() == [5.0] * 4
    dipping = PassProfile(times_s=[0.0, 10.0, 20.0], elevations_deg=[20.0, 5.0, 20.0],
                          loss_model=FixedLossModel(40.0), min_elevation_deg=10.0)
    losses, durations = dipping.segments(5.0)  # midpoint elevations 16.25, 8.75, 8.75, 16.25
    assert losses.tolist() == [40.0, 40.0] and durations.tolist() == [5.0, 5.0]
    const = PassProfile(times_s=[0.0, 10.0], elevations_deg=[30.0, 30.0], loss_model=FixedLossModel(40.0))
    losses, durations = const.segments(3.0)  # the last step is cut short
    assert losses.tolist() == [40.0] * 4 and durations.tolist() == pytest.approx([3.0, 3.0, 3.0, 1.0])
    low = PassProfile(times_s=[0.0, 10.0], elevations_deg=[5.0, 5.0], loss_model=FixedLossModel(40.0))
    assert [a.size for a in low.segments(1.0)] == [0, 0]


def test_segments_continuous_over_span():
    profile = synthesize_pass(90.0, 500e3, min_elevation_deg=10.0, step_s=5.0)
    losses, durations = profile.segments(profile.duration_s / 500)
    assert np.all(np.abs(np.diff(losses)) < 1.0)
    assert durations.sum() == pytest.approx(profile.duration_s)


def test_pass_profile_rejects_unsorted_times():
    with pytest.raises(DomainError):
        PassProfile(times_s=[0.0, 0.0, 1.0], elevations_deg=[10, 20, 30], loss_model=FixedLossModel())


def test_load_pass_csv_round_trip(tmp_path):
    path = tmp_path / "pass.csv"
    path.write_text("time_s,elevation_deg\n0,10\n10,45\n20,10\n")
    profile = load_pass_csv(path, FixedLossModel(40.0))
    assert profile.duration_s == 20.0
    assert profile.elevation_at(5.0) == pytest.approx(27.5)


def test_load_pass_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "pass.csv"
    path.write_text("t,el\n0,10\n10,45\n")
    with pytest.raises(FileFormatError):
        load_pass_csv(path, FixedLossModel(40.0))


def test_channel_config_validation():
    with pytest.raises(DomainError):
        ChannelConfig(mode="orbit")
    with pytest.raises(DomainError):
        ChannelConfig(mode="pass")  # missing profile
    with pytest.raises(DomainError):
        ChannelConfig(mode="fixed", background_click_prob=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ChannelConfig(mode="fixed", fixed_loss_db=bad)
        with pytest.raises(DomainError):
            ChannelConfig(mode="fixed", excess_loss_db=bad)
