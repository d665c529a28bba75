import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd.channel import transmittance_from_db
from satqkd.errors import DomainError
from satqkd.protocol import analytic_tallies
from satqkd.receiver import OUTCOME_LEVELS, DetectorModel, outcome_probabilities
from satqkd.source import PolarizationState

from conftest import by_class
from reference_sampler import (
    N_MAX,
    enumerated_levels,
    measure_batch,
    n_photon_yield_and_error,
    photon_number_law,
    poisson_pmf,
)


def ideal_detector(**kw):
    defaults = dict(efficiency=1.0, dark_prob=0.0)
    defaults.update(kw)
    return DetectorModel(**defaults)


def batch(photons, det, flip_prob=0.0, n=100_000, seed=11, state=PolarizationState.H):
    # (rectilinear basis, bit) of each state; the bit convention is H=0, V=1, D=0, A=1
    basis_z, bit = {PolarizationState.H: (True, 0), PolarizationState.V: (True, 1),
                    PolarizationState.D: (False, 0), PolarizationState.A: (False, 1)}[state]
    rng = np.random.default_rng(seed)
    return measure_batch(
        photons=np.full(n, photons, dtype=np.int64),
        sent_basis_z=np.full(n, basis_z),
        sent_bits=np.full(n, bit, dtype=np.int64),
        flip_prob=flip_prob,
        det=det,
        rng=rng,
    )


def test_no_photons_no_darks_never_detects():
    out = batch(0, ideal_detector())
    assert not out["detected"].any()


def test_single_scalar_measure_perfect_conditions():
    out = batch(1, ideal_detector(), n=200, seed=5, state=PolarizationState.V)
    assert out["detected"].all() and out["signal_click"].all()
    z = out["basis_z"]
    assert (out["bit"][z] == 1).all() and not out["double"][z].any()


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
    out = batch(0, DetectorModel(efficiency=1.0, dark_prob=0.2), n=500, seed=3)
    assert out["detected"].any()
    assert not out["signal_click"].any()


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
    with pytest.raises(DomainError):
        batch(1, DetectorModel(), flip_prob=0.6, n=1)
    with pytest.raises(DomainError):
        batch(1, DetectorModel(), flip_prob=-0.1, n=1)


def test_rejects_negative_photons():
    with pytest.raises(DomainError):
        batch(-1, DetectorModel(), n=1)


# ---------------------------------------------------------------------------
# the closed-form outcome law against an exact enumeration of the receiver model


@pytest.mark.parametrize("sender_z", [True, False])
@pytest.mark.parametrize("p_z", [0.5, 0.9])
@pytest.mark.parametrize("p_d", [0.0, 1e-4, 0.2])
def test_outcome_law_matches_exact_enumeration(sender_z, p_z, p_d):
    points = list(itertools.product([1e-4, 1e-2, 0.3, 1.5], [0.5, 1.0], [0.0, 0.01, 0.3]))
    expected = np.array([enumerated_levels(*point, p_d, p_z, sender_z) for point in points])
    assert expected.sum(axis=1) == pytest.approx(1.0, rel=1e-13)
    p_same = p_z if sender_z else 1.0 - p_z
    for i, (lam_i, eta_i, flip_i) in enumerate(points):
        got = outcome_probabilities(lam_i * eta_i, p_same, flip_i, p_d)
        np.testing.assert_allclose(got, expected[i], rtol=1e-10, atol=0.0, err_msg=str(points[i]))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(1e-6, 2.0), eta_det=st.floats(0.05, 1.0), flip=st.floats(0.0, 0.5),
       p_d=st.sampled_from([0.0, 1e-7, 1e-4, 0.05]), p_z=st.floats(0.05, 0.95), sender_z=st.booleans())
def test_outcome_law_is_the_poisson_mixture_of_the_n_photon_laws(lam, eta_det, flip, p_d, p_z, sender_z):
    # sum_n e^-lam lam^n / n! P(level | n arriving photons) is the law of Poisson(lam) arriving photons
    per_n = np.array([enumerated_levels(photon_number_law(n), eta_det, flip, p_d, p_z, sender_z)
                      for n in range(N_MAX)])
    weights = poisson_pmf(lam)
    got = outcome_probabilities(lam * eta_det, p_z if sender_z else 1.0 - p_z, flip, p_d)
    np.testing.assert_allclose(weights @ per_n, got, rtol=1e-9, atol=1e-300)
    # and Y_n is the detected share of the n-photon law
    yields = np.array([n_photon_yield_and_error(n, eta_det, flip, p_d, p_z, sender_z)[0] for n in range(N_MAX)])
    np.testing.assert_allclose(weights @ yields, got[1:].sum(), rtol=1e-9, atol=1e-300)


def test_n_photon_yield_and_error_at_known_points():
    # nothing arrives: only darks click, and a sifted dark is a random bit
    p_d = 1e-3
    y0, e0 = n_photon_yield_and_error(0, 0.5, 0.01, p_d, 0.5, True)
    assert y0 == pytest.approx(1.0 - (1.0 - p_d) ** 4, rel=1e-12) and e0 == pytest.approx(0.5, rel=1e-12)
    # one photon, no darks: detected with the detector efficiency; sifted ones err with the flip
    # probability, since only a photon measured in the sender's basis is sifted
    y1, e1 = n_photon_yield_and_error(1, 0.6, 0.02, 0.0, 0.3, False)
    assert y1 == pytest.approx(0.6, rel=1e-12) and e1 == pytest.approx(0.02, rel=1e-12)
    assert n_photon_yield_and_error(0, 0.6, 0.02, 0.0, 0.3, False) == (0.0, 0.5)


def test_outcome_law_broadcasts_and_sums_to_one():
    a = np.array([0.0, 1e-12, 1e-3, 0.4, 50.0, 800.0])[:, None]
    levels = outcome_probabilities(a, np.array([0.5, 0.3]), 0.01, 1e-7)
    assert levels.shape == (6, 2, len(OUTCOME_LEVELS))
    assert (levels >= 0).all() and np.abs(levels.sum(axis=-1) - 1.0).max() < 1e-15
    # nothing arrives: only darks click; every detector quiet leaves the pulse missed
    assert levels[0, :, 0] == pytest.approx((1.0 - 1e-7) ** 4, rel=1e-15)
    assert (levels[-1, :, 0] == 0.0).all()


def test_outcome_law_gain_is_the_analytic_gain(source):
    # P(detected) = 1 - (1 - p_d)^4 e^-a, which is each class's gain Q_k in the analytic tally
    det = DetectorModel(dark_prob=3e-6)
    for loss in np.linspace(0.0, 60.0, 13).tolist():
        eta = transmittance_from_db(loss + source.insertion_loss_db) * det.efficiency
        rows = by_class(analytic_tallies(source, loss, det, 0.02, 1.0)).tolist()
        for cls, (sent, detected, _, _) in zip(source.intensity_classes, rows):
            levels = outcome_probabilities(eta * cls.mu, 0.5, 0.02, det.dark_prob)
            assert levels[1:].sum() == pytest.approx(detected / sent, rel=1e-9), (loss, cls.label)
