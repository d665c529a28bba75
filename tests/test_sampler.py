"""The Monte Carlo against the pulse-by-pulse reference.

The sampler in satqkd.protocol draws each cell's outcome counts from the
receiver's exact outcome law and never simulates a pulse. It must draw the
same distribution as the reference in tests/reference_sampler.py, which
measures every pulse. The tests here compare the two with chi-square
statistics at fixed seeds and cover the edge cases: no light, no darks, zero
loss, and a full-pass block. A whole Monte Carlo pass is one pooled draw; it
is compared in the same way with the per-segment pass loop it replaced, and
simulate_block is pinned byte for byte to recorded tallies.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from satqkd.channel import sampled_pass
from satqkd.protocol import (
    LABELS,
    SENT,
    analytic_tallies,
    pass_tally,
    simulate_block,
)
from satqkd.receiver import DetectorModel

from conftest import by_class, validate_tally
from reference_sampler import reference_pass, reference_block

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


def expected_gains(source, loss, det, e_det) -> list:
    """Each class's gain, detections per pulse sent, in the analytic tally (LABELS order)."""
    return [detected / sent for sent, detected, _, _ in
            by_class(analytic_tallies(source, loss, det, e_det, 1.0)).tolist()]


def outcome_counts(tally) -> np.ndarray:
    """Each pulse in exactly one category per cell: missed, detected only, sifted right, error."""
    cells = tally.counts.reshape(-1, 4)  # sent, detected, sifted, errors
    return (-np.diff(cells, axis=1, append=0.0)).astype(np.int64).ravel()


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
    noisy = replace(det, dark_prob=det.dark_prob + background)  # the reference adds the background itself
    n = 100_000
    new = np.zeros(4 * 2 * len(LABELS), dtype=np.int64)
    ref = np.zeros_like(new)
    for s in range(SEEDS):
        fast = simulate_block(source, loss, noisy, e_det, n, seed=np.random.SeedSequence([1, s]))
        slow = reference_block(source, loss, det, e_det, n, np.random.SeedSequence([2, s]), background)
        validate_tally(fast)
        new += outcome_counts(fast)
        ref += outcome_counts(slow)
    assert new.sum() == ref.sum() == SEEDS * n
    # enough clicks that the comparison has power
    assert new.reshape(-1, 4)[:, 1:].sum() > 500
    stat, dof = homogeneity_chi2(new, ref)
    assert chi2_z(stat, dof) < Z_LIMIT, (stat, dof)


def test_sampler_matches_reference_per_cell_at_zero_loss(source, e_det):
    # at 0 dB every non-vacuum cell holds thousands of clicks, so a receiver basis bias or a
    # detector efficiency applied to the wrong cells shows at once
    source = replace(source, basis_probability_z=0.8)
    det = DetectorModel(efficiency=0.6, dark_prob=1e-3, basis_probability_z=0.7)
    new = np.zeros(4 * 2 * len(LABELS), dtype=np.int64)
    ref = np.zeros_like(new)
    for s in range(8):
        drawn = simulate_block(source, 0.0, det, e_det, 50_000, seed=np.random.SeedSequence([3, s]))
        new += outcome_counts(drawn)
        ref += outcome_counts(reference_block(source, 0.0, det, e_det, 50_000, np.random.SeedSequence([4, s]), 0.0))
    assert new.reshape(-1, 4)[:, 1:].sum() > 50_000
    stat, dof = homogeneity_chi2(new, ref)
    assert chi2_z(stat, dof) < Z_LIMIT, (stat, dof)


def test_sampler_vacuum_and_no_darks(source, e_det):
    det = DetectorModel(dark_prob=0.0)
    tally = simulate_block(source, 20.0, det, e_det, 200_000, seed=np.random.SeedSequence(9))
    validate_tally(tally)
    for label, by_basis in zip(LABELS, tally.counts.tolist()):
        for values in by_basis:
            sent, detected, _, _ = values
            assert all(math.isfinite(v) for v in values)
            if label.value == "vacuum":
                assert sent > 0 and detected == 0
            else:
                assert detected > 0
    assert tally.counts[..., SENT].sum() == 200_000


def test_sampler_slices_at_zero_loss(source, detector, e_det):
    n = 60_000
    tally = simulate_block(source, 0.0, detector, e_det, n, seed=np.random.SeedSequence(10))
    validate_tally(tally)
    assert tally.counts[..., SENT].sum() == n
    gains = expected_gains(source, 0.0, detector, e_det)
    for q, (sent, detected, _, _) in zip(gains, by_class(tally).tolist()):
        assert abs(detected - sent * q) < 5 * math.sqrt(sent * q * (1 - q)) + 1


def test_sampler_full_pass_block_at_40db(source, detector, e_det):
    n = 44_200_000_000  # one 442 s pass at 100 MHz
    t0 = time.perf_counter()
    tally = simulate_block(source, 40.0, detector, e_det, n, seed=11)
    assert time.perf_counter() - t0 < 30.0
    validate_tally(tally)
    cell_sent = tally.counts[..., SENT].ravel().tolist()
    assert sum(int(s) for s in cell_sent) == n and all(s == int(s) for s in cell_sent)
    gains = expected_gains(source, 40.0, detector, e_det)
    for q, (sent, detected, _, _) in zip(gains, by_class(tally).tolist()):
        assert abs(detected - sent * q) < 5 * math.sqrt(sent * q * (1 - q))


def test_pooled_pass_matches_per_segment_reference(source, e_det):
    # three 1 s steps whose midpoints sit at 20, 30 and 40 degrees, with loss in dB = elevation
    profile = sampled_pass(times_s=[0.0, 3.0], elevations_deg=[15.0, 45.0],
                           loss_model=lambda el: el, min_elevation_deg=10.0)
    source = replace(source, repetition_rate_hz=100_000)
    det = DetectorModel(dark_prob=1e-4)
    losses, durations = profile.segments(1.0)
    assert losses.tolist() == pytest.approx([20.0, 30.0, 40.0]) and durations.tolist() == [1.0] * 3
    new = np.zeros(4 * 2 * len(LABELS), dtype=np.int64)
    ref = np.zeros_like(new)
    for s in range(SEEDS):
        pooled = pass_tally(losses, durations, source, det, e_det, mode="mc", seed=1000 + s)
        slow = reference_pass(profile, source, det, e_det, seed=2000 + s)
        validate_tally(pooled)
        assert pooled.total_pulses == slow.total_pulses == 300_000
        new += outcome_counts(pooled)
        ref += outcome_counts(slow)
    assert new.reshape(-1, 4)[:, 1:].sum() > 500
    stat, dof = homogeneity_chi2(new, ref)
    assert chi2_z(stat, dof) < Z_LIMIT, (stat, dof)


# simulate_block tallies per (seed, loss dB, pulses, dark_prob, background): the cells decoy/X,
# decoy/Z, signal/X, signal/Z, vacuum/X, vacuum/Z, each as (sent, detected, sifted, errors). The
# first case was recorded at 3be4b91, where the Monte Carlo began to draw each cell's outcome counts
# from receiver.outcome_probabilities; the others at 9c2cc56, the last commit that split a block
# into shards, with one shard: the one stream that simulate_block draws.
PINNED_BLOCKS = [
    ((0, 25.0, 200_000, 1e-7, 0.0),
     [(25109, 19, 9, 0), (24717, 16, 9, 0), (69826, 25, 18, 0), (70387, 35, 23, 1),
      (4978, 0, 0, 0), (4983, 0, 0, 0)]),
    ((1, 25.0, 200_000, 1e-7, 0.0),
     [(25265, 18, 13, 0), (24840, 21, 10, 0), (69603, 28, 15, 0), (70350, 32, 12, 0),
      (4940, 0, 0, 0), (5002, 0, 0, 0)]),
    ((7, 35.0, 300_000, 1e-4, 1e-5),
     [(37500, 19, 8, 3), (37803, 22, 11, 5), (105218, 58, 31, 16), (104671, 55, 30, 12),
      (7434, 6, 3, 1), (7374, 0, 0, 0)]),
    ((42, 0.0, 50_000, 1e-7, 0.0),
     [(6282, 1323, 669, 6), (6296, 1370, 697, 3), (17283, 2359, 1189, 9), (17549, 2340, 1164, 9),
      (1326, 0, 0, 0), (1264, 0, 0, 0)]),
    ((5, 30.0, 3, 1e-7, 0.0),
     [(1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)]),
]


@pytest.mark.parametrize("case, cells", PINNED_BLOCKS)
def test_simulate_block_reproduces_pinned_tallies(source, e_det, case, cells):
    seed, loss, n, dark, background = case
    tally = simulate_block(source, loss, DetectorModel(dark_prob=dark + background), e_det, n, seed=seed)
    names = ("decoy/X", "decoy/Z", "signal/X", "signal/Z", "vacuum/X", "vacuum/Z")
    expected = {
        "total_pulses": float(n),
        "elapsed_s": n / source.repetition_rate_hz,
        "cells": {name: dict(zip(("sent", "detected", "sifted", "errors"), map(float, c)))
                  for name, c in zip(names, cells)},
    }
    assert tally.to_dict() == expected


def test_pooled_segments_match_analytic_gains(source, detector, e_det):
    # at 0 dB 14 % (signal) to 23 % (decoy) of the active pulses carry two or more photons, so each
    # segment's own loss must set its photon counts, not a loss shared by the block
    losses, counts = [0.0, 30.0], [300_000, 300_000]
    tally = simulate_block(source, losses, detector, e_det, counts, seed=12)
    validate_tally(tally)
    per_class = dict(zip(LABELS, by_class(tally).tolist()))
    for k, cls in enumerate(map(source.intensity, LABELS)):
        gains = [expected_gains(source, loss, detector, e_det)[k] for loss in losses]
        sent = [n * cls.emit_probability for n in counts]
        expected = sum(m * q for m, q in zip(sent, gains))
        sigma = math.sqrt(sum(m * q * (1 - q) for m, q in zip(sent, gains)))
        cell_sent, cell_detected, _, _ = per_class[cls.label]
        assert abs(cell_sent - sum(sent)) < 5 * math.sqrt(sum(counts))
        assert abs(cell_detected - expected) < 5 * sigma + 1, (cls.label, cell_detected, expected)
