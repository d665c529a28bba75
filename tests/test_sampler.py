"""The active-pulse Monte Carlo against the pulse-by-pulse reference.

The sampler in satqkd.protocol measures only the pulses that can click. It
must draw the same distribution as the reference in tests/reference_sampler.py,
which simulates every pulse. The tests here compare the two with chi-square
statistics at fixed seeds, check the two exact sub-samplers (zero-truncated
photon counts, conditioned dark firings) against their closed forms, and
cover the edge cases: no light, no darks, slicing, and a full-pass block.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from satqkd import protocol
from satqkd.protocol import (
    _dark_firings,
    _simulate_shard,
    _zero_truncated_poisson,
    analytic_rates,
    simulate_block,
)
from satqkd.receiver import DetectorModel

from reference_sampler import reference_shard

SEEDS = 36
Z_LIMIT = 4.0  # one-sided normal quantile, p ~ 3e-5


def chi2_z(stat: float, dof: int) -> float:
    """Wilson-Hilferty: a chi-square(dof) statistic as a standard normal deviate."""
    v = 2.0 / (9.0 * dof)
    return ((stat / dof) ** (1.0 / 3.0) - (1.0 - v)) / math.sqrt(v)


def homogeneity_chi2(a: np.ndarray, b: np.ndarray):
    """Pearson chi-square that count vectors a and b share one multinomial; (stat, dof)."""
    keep = (a + b) > 0
    a, b = a[keep].astype(float), b[keep].astype(float)
    both = a + b
    ea, eb = both * a.sum() / both.sum(), both * b.sum() / both.sum()
    stat = float((((a - ea) ** 2) / ea).sum() + (((b - eb) ** 2) / eb).sum())
    return stat, int(keep.sum()) - 1


def outcome_counts(tally) -> np.ndarray:
    """Each pulse in exactly one category per cell: missed, detected only, sifted right, error."""
    rows = []
    for key in sorted(tally.cells, key=lambda k: (k[0].value, k[1].value)):
        c = tally.cells[key]
        rows.append([c.sent - c.detected, c.detected - c.sifted, c.sifted - c.errors, c.errors])
    return np.array(rows, dtype=np.int64).ravel()


REGIMES = {
    # loss dB, detector, background click probability, sender P(rectilinear)
    "signal_20db": (20.0, DetectorModel(), 0.0, 0.5),
    "dark_60db": (60.0, DetectorModel(dark_prob=1e-4), 0.0, 0.5),
    "background_30db_biased_bases": (30.0, DetectorModel(basis_probability_z=0.7), 5e-5, 0.8),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_sampler_matches_reference_distribution(regime, source, e_det):
    loss, det, background, pz = REGIMES[regime]
    source = replace(source, basis_probability_z=pz)
    n = 100_000
    new = np.zeros(4 * 2 * len(source.intensity_classes), dtype=np.int64)
    ref = np.zeros_like(new)
    for s in range(SEEDS):
        fast = _simulate_shard(source, loss, det, e_det, n, np.random.SeedSequence([1, s]), background)
        slow = reference_shard(source, loss, det, e_det, n, np.random.SeedSequence([2, s]), background)
        fast.validate()
        new += outcome_counts(fast)
        ref += outcome_counts(slow)
    assert new.sum() == ref.sum() == SEEDS * n
    # enough clicks that the comparison has power
    assert new.reshape(-1, 4)[:, 1:].sum() > 500
    stat, dof = homogeneity_chi2(new, ref)
    assert chi2_z(stat, dof) < Z_LIMIT, (stat, dof)


def goodness_of_fit_z(observed: np.ndarray, probs: np.ndarray) -> float:
    """Pearson chi-square of counts against category probabilities, as a normal deviate.

    Categories expected to hold fewer than five counts are pooled into one.
    """
    expected = observed.sum() * probs
    small = expected < 5
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < 5:  # fold a still-thin pooled bin into the largest one
        obs[np.argmax(exp[:-1])] += obs[-1]
        exp[np.argmax(exp[:-1])] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    stat = float(((obs - exp) ** 2 / exp).sum())
    return chi2_z(stat, len(exp) - 1)


@pytest.mark.parametrize("lam", [1e-3, 0.3, 2.5])
def test_zero_truncated_poisson_matches_pmf(lam):
    k = _zero_truncated_poisson(np.random.default_rng(4), np.full(200_000, lam))
    assert k.min() >= 1
    top = 8
    observed = np.bincount(np.minimum(k, top), minlength=top + 1)[1:]
    pmf = np.array([math.exp(-lam) * lam**j / math.factorial(j) for j in range(1, top)])
    pmf /= -math.expm1(-lam)
    assert goodness_of_fit_z(observed, np.append(pmf, 1.0 - pmf.sum())) < Z_LIMIT


@pytest.mark.parametrize("p_d", [0.01, 0.3])
def test_conditioned_dark_patterns_match_exact(p_d):
    darks = _dark_firings(np.random.default_rng(6), p_d, 200_000, 200_000)
    assert darks.any(axis=0).all()
    pattern = (darks * (1 << np.arange(4))[:, None]).sum(axis=0)
    observed = np.bincount(pattern, minlength=16)[1:]
    fires = np.array([bin(p).count("1") for p in range(1, 16)])
    probs = p_d**fires * (1 - p_d) ** (4 - fires)
    assert goodness_of_fit_z(observed, probs / probs.sum()) < Z_LIMIT


def test_sampler_vacuum_and_no_darks(source, e_det):
    det = DetectorModel(dark_prob=0.0)
    tally = _simulate_shard(source, 20.0, det, e_det, 200_000, np.random.SeedSequence(9), 0.0)
    tally.validate()
    for (label, _), cell in tally.cells.items():
        values = (cell.sent, cell.detected, cell.sifted, cell.errors)
        assert all(math.isfinite(v) for v in values)
        if label.value == "vacuum":
            assert cell.sent > 0 and cell.detected == 0
        else:
            assert cell.detected > 0
    assert sum(c.sent for c in tally.cells.values()) == 200_000


def test_sampler_slices_at_zero_loss(source, detector, e_det, monkeypatch):
    sizes, detections = [], []
    real = protocol.measure_batch

    def counting(photons, *args, **kwargs):
        out = real(photons, *args, **kwargs)
        sizes.append(photons.size)
        detections.append(int(out["detected"].sum()))
        return out

    monkeypatch.setattr(protocol, "measure_batch", counting)
    n, chunk = 60_000, 1_000
    tally = _simulate_shard(source, 0.0, detector, e_det, n, np.random.SeedSequence(10), 0.0, chunk=chunk)
    tally.validate()
    assert len(sizes) > 5 and max(sizes) <= chunk
    assert sum(detections) == sum(c.detected for c in tally.cells.values())
    assert sum(c.sent for c in tally.cells.values()) == n
    rates = analytic_rates(source, 0.0, detector, e_det)
    for label, cell in tally.by_class().items():
        q = rates.gains[label]
        assert abs(cell.detected - cell.sent * q) < 5 * math.sqrt(cell.sent * q * (1 - q)) + 1


def test_sampler_full_pass_block_at_40db(source, detector, e_det):
    n = 44_200_000_000  # one 442 s pass at 100 MHz
    t0 = time.perf_counter()
    tally = simulate_block(source, 40.0, detector, e_det, n, seed=11)
    assert time.perf_counter() - t0 < 30.0
    tally.validate()
    sent = [c.sent for c in tally.cells.values()]
    assert sum(int(s) for s in sent) == n and all(s == int(s) for s in sent)
    rates = analytic_rates(source, 40.0, detector, e_det)
    for label, cell in tally.by_class().items():
        q = rates.gains[label]
        assert abs(cell.detected - cell.sent * q) < 5 * math.sqrt(cell.sent * q * (1 - q))
