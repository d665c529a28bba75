import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satqkd.channel import (
    ChannelConfig,
    ElevationLossModel,
    PassSpec,
    beam_spreading_loss_db,
    load_pass_csv,
    sampled_pass,
    slant_range_m,
    synthesize_pass,
    transmittance_from_db,
)
from satqkd.errors import DomainError, FileFormatError

from conftest import FixedLossModel
from reference_sampler import reference_loss, synthesized_elevations


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
    # spot is 3.4 cm at 1 km; a 1 m receiver catches everything
    assert beam_spreading_loss_db(1000.0, 17e-6, 1.0) == 0.0


def test_geometric_loss_500km():
    assert beam_spreading_loss_db(500e3, 17e-6, 0.7) == pytest.approx(27.7, abs=0.05)


def test_geometric_loss_doubling_range_adds_6db():
    near = beam_spreading_loss_db(500e3, 17e-6, 0.7)
    far = beam_spreading_loss_db(1000e3, 17e-6, 0.7)
    assert far - near == pytest.approx(20 * math.log10(2), abs=1e-9)


@given(
    r=st.floats(100e3, 2000e3),
    dr=st.floats(1.0, 500e3),
    div=st.floats(17e-6, 100e-6),
    ddiv=st.floats(0.0, 50e-6),
)
def test_geometric_loss_monotone(r, dr, div, ddiv):
    base = beam_spreading_loss_db(r, div, 0.7)
    assert beam_spreading_loss_db(r + dr, div, 0.7) >= base
    assert beam_spreading_loss_db(r, div + ddiv, 0.7) >= base
    assert beam_spreading_loss_db(r, div, 0.8) <= base


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


@pytest.mark.parametrize("bad", [
    dict(zenith_atmospheric_db=-5.0), dict(zenith_atmospheric_db=math.nan), dict(receiver_diameter_m=0.0),
    dict(receiver_diameter_m=math.inf), dict(altitude_m=0.0),
    dict(altitude_m=-500e3),
])
def test_elevation_loss_model_checks_its_settings(bad):
    with pytest.raises(DomainError, match="zenith_atmospheric_db|receiver_diameter_m|orbit altitude"):
        ElevationLossModel(**bad)


def test_transmittance_of_an_array_rounds_as_python_pow():
    losses = np.random.default_rng(5).uniform(0.0, 80.0, 2_000)
    assert transmittance_from_db(losses).tolist() == [10.0 ** (-x / 10.0) for x in losses.tolist()]
    with pytest.raises(DomainError, match="got nan"):
        transmittance_from_db(np.array([3.0, math.nan, -1.0]))


# Exactness oracle: the array geometry gives the scalar reference's numbers bit for bit. sin, cos,
# sqrt, radians and degrees round alike in numpy and math on IEEE hosts; a host where they do not
# fails here instead of moving every pass result.
LOSS_MODELS = [
    ElevationLossModel(),
    ElevationLossModel(altitude_m=1200e3, zenith_atmospheric_db=0.3, receiver_diameter_m=0.4),
    # a 12 m receiver catches the whole 10 m spot near zenith, clamping the beam spreading at 0 dB
    ElevationLossModel(altitude_m=300e3, zenith_atmospheric_db=2.5, receiver_diameter_m=12.0),
]


@pytest.mark.parametrize("model", LOSS_MODELS)
def test_loss_model_array_equals_scalar_reference(model):
    rng = np.random.default_rng(20221018)
    els = np.concatenate((rng.uniform(1e-6, 90.0, 12_000), [1e-6, 10.0, 45.0, 89.999999, 90.0]))
    reference = [reference_loss(model, el) for el in els.tolist()]
    assert model(els).tolist() == reference
    assert [model(el) for el in els[:200].tolist()] == reference[:200]  # the scalar call runs the array code
    assert model(els.reshape(-1, 5)).tolist() == np.reshape(reference, (-1, 5)).tolist()


@pytest.mark.parametrize("altitude_m", [500e3, 800e3])
def test_synthesized_elevations_equal_scalar_reference(altitude_m):
    for culmination in (10.5, 12.0, 17.3, 30.0, 45.0, 60.0, 75.0, 89.5, 90.0):
        profile = synthesize_pass(culmination, altitude_m)
        for step in (1.0, 0.7):
            midpoints, elevations, _ = profile.walk(step)
            assert elevations.tolist() == synthesized_elevations(culmination, altitude_m, midpoints).tolist()


@pytest.mark.parametrize("step", [0.01, 0.7, 1.0, 13.0, 1e3])
def test_segments_call_the_loss_model_once(step):
    calls = []

    def spy(elevations):
        calls.append(np.shape(elevations))
        return FixedLossModel(40.0)(elevations)

    losses, durations = synthesize_pass(60.0, 500e3, loss_model=spy).segments(step)
    assert calls == [losses.shape] and losses.size == durations.size > 0


def test_synthesize_pass_duration_brackets_visibility_window():
    profile = synthesize_pass(90.0, 500e3, min_elevation_deg=10.0)
    assert 4 * 60 <= profile.duration_s <= 12 * 60


def test_synthesize_pass_symmetric_about_culmination():
    profile = synthesize_pass(80.0, 500e3, min_elevation_deg=10.0)
    culmination = profile.duration_s / 2.0
    offsets = np.linspace(0.0, culmination, 101)
    els = profile.elevation(culmination + offsets)
    assert np.allclose(els, profile.elevation(culmination - offsets), atol=1e-9)
    assert els[0] == pytest.approx(80.0, abs=1e-9) and els[-1] == pytest.approx(10.0, abs=1e-9)


def test_synthesize_pass_grazing_pass_short():
    profile = synthesize_pass(10.5, 500e3, min_elevation_deg=10.0)
    assert profile.duration_s < 120


def test_synthesize_pass_duration_shrinks_with_min_elevation():
    durations = [
        synthesize_pass(90.0, 500e3, min_elevation_deg=el).duration_s
        for el in (5.0, 10.0, 20.0, 40.0)
    ]
    assert all(a >= b for a, b in zip(durations, durations[1:]))


def test_synthesize_pass_rejects_bad_elevations():
    with pytest.raises(DomainError):
        synthesize_pass(10.0, 500e3, min_elevation_deg=10.0)


@pytest.mark.parametrize("min_elevation", [-5.0, math.nan])
def test_synthesize_pass_refuses_a_negative_min_elevation_as_a_config_does(min_elevation):
    # it once sampled the pass down to the horizon, and segments then failed in the loss model
    with pytest.raises(DomainError, match=f"min_elevation_deg must be >= 0, got {min_elevation}"):
        synthesize_pass(60.0, 500e3, min_elevation_deg=min_elevation)


@pytest.mark.parametrize("min_elevation", [-5.0, math.nan])
def test_sampled_and_csv_passes_refuse_a_negative_min_elevation(tmp_path, min_elevation):
    # NaN once gave a pass of no segments, and -5 an error from the loss model at the 0 degree samples
    path = tmp_path / "pass.csv"
    path.write_text("time_s,elevation_deg\n0,0\n60,60\n120,0\n")
    for build in (lambda: sampled_pass([0, 60, 120], [0, 60, 0], ElevationLossModel(), min_elevation),
                  lambda: load_pass_csv(path, ElevationLossModel(), min_elevation_deg=min_elevation)):
        with pytest.raises(DomainError, match=f"min_elevation_deg must be >= 0, got {min_elevation}"):
            build()


@pytest.mark.parametrize("altitude_m", [0.0, -1.0, math.nan, math.inf])
def test_synthesize_pass_rejects_altitude_not_finite_and_positive(altitude_m):
    # inf divided by a zero orbital rate, and nan failed converting the sample count to an int
    with pytest.raises(DomainError, match="orbit altitude must be finite and > 0 m"):
        synthesize_pass(60.0, altitude_m)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_pass_spec_and_walk_reject_step_not_finite_and_positive(step):
    for spec in ({"max_elevation_deg": 60.0}, {"csv_path": "pass.csv"}):  # the CSV is read only by profile
        with pytest.raises(DomainError, match="step must be finite and > 0"):
            PassSpec(**spec, step_s=step)
    with pytest.raises(DomainError, match="step must be finite and > 0"):
        synthesize_pass(60.0, 500e3).walk(step)


def test_pass_spec_and_walk_reject_more_steps_than_the_step_cap(tmp_path):
    with pytest.raises(DomainError, match="cuts the 436.374 s pass into more than 1000000 steps"):
        PassSpec(max_elevation_deg=60.0, step_s=1e-4)
    with pytest.raises(DomainError, match="cuts the 436.374 s pass into more than 1000000 steps"):
        synthesize_pass(60.0, 500e3).walk(1e-4)
    # a CSV pass's span is known once the file is read, which the channel does on construction
    path = tmp_path / "pass.csv"
    path.write_text("time_s,elevation_deg\n0,30\n1000,40\n")
    with pytest.raises(DomainError, match="cuts the 1000 s pass into more than 1000000 steps"):
        ChannelConfig(mode="pass", pass_spec=PassSpec(csv_path=str(path), step_s=1e-4))


@pytest.mark.parametrize("culmination,step", [(60.0, 1e300), (10.0001, 2.0)])
def test_a_step_longer_than_the_pass_walks_it_in_one_step(culmination, step):
    # once refused: the sample grid that a step longer than half the pass cut held only the culmination
    profile = synthesize_pass(culmination, 500e3)
    midpoints, elevations, durations = profile.walk(step)
    assert durations.tolist() == [profile.duration_s] and midpoints.tolist() == [profile.duration_s / 2.0]
    assert elevations.tolist() == pytest.approx([culmination], abs=1e-9)


@settings(deadline=None)
@given(
    min_elevation=st.floats(0.0, 80.0),
    height=st.floats(1e-6, 1.0),  # the culmination's share of the way from the minimum elevation to 90
    altitude_m=st.floats(200e3, 2000e3),
    step=st.sampled_from([1.0, 0.7, 13.0]),
)
def test_synthesized_pass_walks_its_exact_rise_to_set_window(min_elevation, height, altitude_m, step):
    culmination = min_elevation + (90.0 - min_elevation) * height
    assume(min_elevation < culmination <= 90.0)
    profile = synthesize_pass(culmination, altitude_m, min_elevation_deg=min_elevation)
    rise_set = profile.elevation(np.array([profile.start_s, profile.end_s]))
    assert rise_set.tolist() == pytest.approx([min_elevation] * 2, abs=1e-6)
    _, elevations, durations = profile.walk(step)
    # no step of the window is dropped, and the steps cover it to a few ulps
    assert abs(math.fsum(durations.tolist()) - profile.duration_s) <= 4 * math.ulp(profile.end_s)
    assert np.all(elevations >= min_elevation)


def test_segments_sample_midpoints_and_skip_low_elevation():
    profile = sampled_pass(
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
    dipping = sampled_pass(times_s=[0.0, 10.0, 20.0], elevations_deg=[20.0, 5.0, 20.0],
                           loss_model=FixedLossModel(40.0), min_elevation_deg=10.0)
    losses, durations = dipping.segments(5.0)  # midpoint elevations 16.25, 8.75, 8.75, 16.25
    assert losses.tolist() == [40.0, 40.0] and durations.tolist() == [5.0, 5.0]
    const = sampled_pass(times_s=[0.0, 10.0], elevations_deg=[30.0, 30.0], loss_model=FixedLossModel(40.0))
    losses, durations = const.segments(3.0)  # the last step is cut short
    assert losses.tolist() == [40.0] * 4 and durations.tolist() == pytest.approx([3.0, 3.0, 3.0, 1.0])
    low = sampled_pass(times_s=[0.0, 10.0], elevations_deg=[5.0, 5.0], loss_model=FixedLossModel(40.0))
    assert [a.size for a in low.segments(1.0)] == [0, 0]


@given(
    t0=st.floats(0.0, 1.7e9),
    step=st.floats(1e-3, 300.0),
    steps=st.floats(1e-3, 1e4),
)
def test_segments_cover_the_pass_to_within_two_ulps(t0, step, steps):
    # step k starts at t0 + k * step, so no rounding builds up over the walk, at any start time
    t1 = t0 + step * steps
    assume(t1 > t0)
    profile = sampled_pass(times_s=[t0, t1], elevations_deg=[30.0, 30.0], loss_model=FixedLossModel(40.0))
    _, durations = profile.segments(step)
    assert abs(math.fsum(durations.tolist()) - (t1 - t0)) <= 2 * math.ulp(t1)


def test_pass_profile_needs_a_sample():
    with pytest.raises(DomainError, match="non-empty"):
        sampled_pass(times_s=[], elevations_deg=[], loss_model=FixedLossModel())


def test_segments_continuous_over_span():
    profile = synthesize_pass(90.0, 500e3, min_elevation_deg=10.0)
    losses, durations = profile.segments(profile.duration_s / 500)
    assert np.all(np.abs(np.diff(losses)) < 1.0)
    assert durations.sum() == pytest.approx(profile.duration_s)


def test_pass_profile_rejects_unsorted_times():
    with pytest.raises(DomainError):
        sampled_pass(times_s=[0.0, 0.0, 1.0], elevations_deg=[10, 20, 30], loss_model=FixedLossModel())


def test_load_pass_csv_round_trip(tmp_path):
    path = tmp_path / "pass.csv"
    path.write_text("time_s,elevation_deg\n0,10\n10,45\n20,10\n")
    profile = load_pass_csv(path, FixedLossModel(40.0))
    assert profile.duration_s == 20.0
    assert profile.elevation(5.0) == pytest.approx(27.5)


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
