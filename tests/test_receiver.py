import itertools
import math

import numpy as np
import pytest

from satqkd.errors import DomainError
from satqkd.protocol import analytic_rates
from satqkd.receiver import OUTCOME_LEVELS, DetectorModel, measure_batch, outcome_probabilities
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
# the closed-form outcome law against an exact enumeration of measure_batch's model

N_MAX = 40  # arriving photons summed over; the Poisson tail past it is below 1e-40 at lambda 1.5
NS = np.arange(N_MAX)
COMB = np.array([[math.comb(n, m) for m in range(N_MAX)] for n in range(N_MAX)], dtype=float)


def binomial_pmf(p: float) -> np.ndarray:
    """(n, m) array of P(m successes of n trials); zero for m > n."""
    with np.errstate(all="ignore"):
        pmf = COMB * p ** NS[None, :] * (1.0 - p) ** (NS[:, None] - NS[None, :])
    return np.where(NS[None, :] <= NS[:, None], pmf, 0.0)


def signal_clicks(lam: float, eta_det: float, p_one: float) -> dict:
    """P(photon click on port 0, photon click on port 1) of the measured basis.

    Photon number n ~ Poisson(lam) arrives, m ~ Binomial(n, eta_det) are
    detected and k ~ Binomial(m, p_one) of them project onto bit 1.
    """
    poisson = np.array([math.exp(-lam) * lam**n / math.factorial(n) for n in range(N_MAX)])
    joint = poisson[:, None, None] * binomial_pmf(eta_det)[:, :, None] * binomial_pmf(p_one)[None, :, :]
    m, k = np.meshgrid(NS, NS, indexing="ij")
    joint = joint.sum(axis=0)  # (m, k)
    return {(c0, c1): float(joint[((k < m) == c0) & ((k > 0) == c1)].sum())
            for c0, c1 in itertools.product((False, True), repeat=2)}


def enumerated_levels(lam, eta_det, flip, p_d, p_z, sender_z) -> np.ndarray:
    """P(each outcome level) summed over both sent bits, both receiver bases,
    the photon-click pairs and the 16 dark patterns, by measure_batch's rules."""
    levels = np.zeros(len(OUTCOME_LEVELS))
    for sent_bit, meas_z in itertools.product((0, 1), (True, False)):
        same = meas_z == sender_z
        p_one = (1.0 - flip if sent_bit else flip) if same else 0.5
        weight = 0.5 * (p_z if meas_z else 1.0 - p_z)
        for (s0, s1), p_sig in signal_clicks(lam, eta_det, p_one).items():
            for darks in itertools.product((False, True), repeat=4):  # Z0, Z1, X0, X1
                p = weight * p_sig * math.prod(p_d if d else 1.0 - p_d for d in darks)
                z0, z1 = (meas_z and s0) or darks[0], (meas_z and s1) or darks[1]
                x0, x1 = (not meas_z and s0) or darks[2], (not meas_z and s1) or darks[3]
                if not (z0 or z1 or x0 or x1):
                    levels[0] += p
                    continue
                basis_z = meas_z if (z0 or z1 if meas_z else x0 or x1) else not meas_z
                c0, c1 = (z0, z1) if basis_z else (x0, x1)
                if basis_z != sender_z:
                    levels[1] += p
                elif c0 and c1:  # a double click: a random bit
                    levels[2] += p / 2.0
                    levels[3] += p / 2.0
                else:
                    levels[2 if int(c1) == sent_bit else 3] += p
    return levels


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


def test_outcome_law_broadcasts_and_sums_to_one():
    a = np.array([0.0, 1e-12, 1e-3, 0.4, 50.0, 800.0])[:, None]
    levels = outcome_probabilities(a, np.array([0.5, 0.3]), 0.01, 1e-7)
    assert levels.shape == (6, 2, len(OUTCOME_LEVELS))
    assert (levels >= 0).all() and np.abs(levels.sum(axis=-1) - 1.0).max() < 1e-15
    # nothing arrives: only darks click; every detector quiet leaves the pulse missed
    assert levels[0, :, 0] == pytest.approx((1.0 - 1e-7) ** 4, rel=1e-15)
    assert (levels[-1, :, 0] == 0.0).all()


def test_outcome_law_gain_is_the_analytic_gain(source):
    # P(detected) = 1 - (1 - p_d)^4 e^-a, which is the gain Q_k of protocol.analytic_rates
    det = DetectorModel(dark_prob=3e-6)
    rates = analytic_rates(source, np.linspace(0.0, 60.0, 13), det, e_det=0.02)
    levels = outcome_probabilities(rates.eta * rates.mus, 0.5, 0.02, det.dark_prob)
    np.testing.assert_allclose(levels[..., 1:].sum(axis=-1), rates.gains, rtol=1e-9)
