import numpy as np
import pytest

from satqkd.errors import DomainError
from satqkd.receiver import ClickType, DetectorModel, measure, measure_batch
from satqkd.source import Basis, PolarizationState


def ideal_detector(**kw):
    defaults = dict(efficiency=1.0, dark_prob=0.0)
    defaults.update(kw)
    return DetectorModel(**defaults)


def batch(photons, det, flip_prob=0.0, n=100_000, seed=11, state=PolarizationState.H):
    rng = np.random.default_rng(seed)
    return measure_batch(
        photons=np.full(n, photons, dtype=np.int64),
        sent_basis_z=np.full(n, state.basis is Basis.RECTILINEAR),
        sent_bits=np.full(n, state.bit, dtype=np.int64),
        flip_prob=flip_prob,
        det=det,
        rng=rng,
    )


def test_no_photons_no_darks_never_detects():
    out = batch(0, ideal_detector())
    assert not out["detected"].any()


def test_single_scalar_measure_perfect_conditions():
    rng = np.random.default_rng(5)
    for _ in range(200):
        out = measure(1, PolarizationState.V, 0.0, ideal_detector(), rng)
        assert out.detected
        if out.basis is Basis.RECTILINEAR:
            assert out.bit == 1
            assert out.click_type is ClickType.SINGLE


def test_flip_probability_reproduced():
    flip = 0.0079
    n = 1_000_000
    out = batch(1, ideal_detector(), flip_prob=flip, n=n)
    sifted = out["sifted"]
    errors = out["error"][sifted]
    k, m = int(sifted.sum()), int(errors.sum())
    sigma = np.sqrt(k * flip * (1 - flip))
    assert abs(m - k * flip) < 5 * sigma


@pytest.mark.parametrize("n_photons", [1, 2, 3])
def test_detection_probability_matches_threshold_model(n_photons):
    eff = 0.4
    det = ideal_detector(efficiency=eff)
    n = 400_000
    out = batch(n_photons, det, n=n)
    expected = 1 - (1 - eff) ** n_photons
    k = int(out["detected"].sum())
    sigma = np.sqrt(n * expected * (1 - expected))
    assert abs(k - n * expected) < 5 * sigma


def test_wrong_basis_bit_is_uniform():
    n = 1_000_000
    out = batch(1, ideal_detector(), n=n)
    wrong = out["detected"] & ~out["sifted"]
    bits = out["bit"][wrong]
    k = bits.sum()
    sigma = np.sqrt(len(bits) * 0.25)
    assert abs(k - len(bits) / 2) < 5 * sigma


def test_dark_only_clicks_marked_dark():
    det = DetectorModel(efficiency=1.0, dark_prob=0.2)
    rng = np.random.default_rng(3)
    types = set()
    for _ in range(500):
        out = measure(0, PolarizationState.H, 0.0, det, rng)
        if out.detected:
            types.add(out.click_type)
    assert types == {ClickType.DARK}


def test_double_click_resolves_to_random_bit():
    det = ideal_detector()
    n = 200_000
    # wrong-basis two-photon pulses often split between both detectors
    rng = np.random.default_rng(9)
    out = measure_batch(
        photons=np.full(n, 8, dtype=np.int64),
        sent_basis_z=np.full(n, True),
        sent_bits=np.zeros(n, dtype=np.int64),
        flip_prob=0.0,
        det=det,
        rng=rng,
    )
    doubles = out["double"] & ~out["sifted"] & out["detected"]
    assert doubles.sum() > 1000
    bits = out["bit"][doubles]
    sigma = np.sqrt(len(bits) * 0.25)
    assert abs(bits.sum() - len(bits) / 2) < 5 * sigma


def test_identical_seed_identical_outcomes():
    det = DetectorModel()
    a = batch(1, det, n=10_000, seed=42)
    b = batch(1, det, n=10_000, seed=42)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_rejects_flip_prob_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        measure(1, PolarizationState.H, 0.6, DetectorModel(), rng)
    with pytest.raises(DomainError):
        measure(1, PolarizationState.H, -0.1, DetectorModel(), rng)


def test_rejects_negative_photons():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        measure(-1, PolarizationState.H, 0.0, DetectorModel(), rng)


def test_given_darks_replace_drawn_ones():
    # only the Z1 detector fires and no photon arrives: whatever basis was
    # selected, the outcome lands in Z with bit 1
    n = 1_000
    darks = np.zeros((4, n), dtype=bool)
    darks[1] = True
    out = measure_batch(
        photons=np.zeros(n, dtype=np.int64),
        sent_basis_z=np.ones(n, dtype=bool),
        sent_bits=np.ones(n, dtype=np.int64),
        flip_prob=0.0,
        det=DetectorModel(dark_prob=0.5),
        rng=np.random.default_rng(3),
        darks=darks,
    )
    assert out["detected"].all() and out["basis_z"].all() and (out["bit"] == 1).all()
    assert out["sifted"].all() and not out["error"].any() and not out["signal_click"].any()
