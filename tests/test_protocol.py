import json
import math
from dataclasses import replace

import numpy as np
import pytest

from satqkd.channel import FixedLossModel, PassProfile
from satqkd.errors import DomainError
from satqkd.protocol import (
    E0,
    SiftedStats,
    TallyTable,
    analytic_rates,
    analytic_tallies,
    decoy_bounds,
    decoy_bounds_from_rates,
    decoy_bounds_from_tally,
    integrate_pass,
    key_from_fixed_loss,
    key_length,
    sift_fraction,
    simulate_block,
)
from satqkd.receiver import DetectorModel
from satqkd.source import IntensityLabel


def poisson_rates(mu, eta, y0, ed):
    """Independent closed-form oracle for WCP gains and errors."""
    q = 1 - (1 - y0) * math.exp(-eta * mu)
    eq = E0 * y0 + ed * (1 - math.exp(-eta * mu))
    return q, eq / q if q > 0 else E0


def true_single_photon(eta, y0, ed):
    """Photon-number-resolved oracle: exact Y1 and e1 for a threshold receiver."""
    y1 = y0 + eta - y0 * eta
    e1 = (E0 * y0 + ed * eta) / y1 if y1 > 0 else E0
    return y1, e1


# ---------------------------------------------------------------------------
# analytic rates


def test_analytic_rates_vacuum_class(source, e_det):
    det = DetectorModel(dark_prob=1e-5)
    rates = analytic_rates(source, 40.0, det, e_det)
    assert rates.gains[IntensityLabel.VACUUM] == pytest.approx(rates.y0, rel=1e-12)
    assert rates.error_rates[IntensityLabel.VACUUM] == pytest.approx(E0, rel=1e-12)


def test_analytic_rates_40db_gain(source):
    det = DetectorModel(efficiency=0.5, dark_prob=0.0)
    rates = analytic_rates(source, 40.0, det, 0.0079)
    assert rates.gains[IntensityLabel.DECOY] == pytest.approx(2.5e-5, rel=1e-3)


def test_analytic_rates_no_darks_error_equals_e_det(source):
    det = DetectorModel(efficiency=0.5, dark_prob=0.0)
    rates = analytic_rates(source, 30.0, det, 0.0079)
    for label in (IntensityLabel.SIGNAL, IntensityLabel.DECOY):
        assert rates.error_rates[label] == pytest.approx(0.0079, rel=1e-12)


def test_analytic_rates_rejects_large_e_det(source, detector):
    with pytest.raises(DomainError):
        analytic_rates(source, 40.0, detector, 0.6)


def test_analytic_rates_match_oracle(source, detector, e_det):
    rates = analytic_rates(source, 35.0, detector, e_det)
    for cls in source.intensity_classes:
        q, e = poisson_rates(cls.mu, rates.eta, rates.y0, e_det)
        assert rates.gains[cls.label] == pytest.approx(q, rel=1e-12)
        assert rates.error_rates[cls.label] == pytest.approx(e, rel=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo vs analytic


def test_simulate_block_infinite_loss_no_darks(source, e_det):
    det = DetectorModel(efficiency=0.5, dark_prob=0.0)
    tally = simulate_block(source, 300.0, det, e_det, 100_000, seed=1)
    assert all(c.detected == 0 for c in tally.cells.values())


def test_simulate_block_matches_analytic(source, detector, e_det):
    n = 2_000_000
    tally = simulate_block(source, 25.0, detector, e_det, n, seed=13, shards=4)
    rates = analytic_rates(source, 25.0, detector, e_det)
    sift_p = sift_fraction(source, detector)
    for label, cell in tally.by_class().items():
        q = rates.gains[label]
        sigma = math.sqrt(cell.sent * q * (1 - q))
        assert abs(cell.detected - cell.sent * q) < 5 * sigma
        # sifted fraction of detections
        sigma_s = math.sqrt(max(cell.detected * sift_p * (1 - sift_p), 1))
        assert abs(cell.sifted - cell.detected * sift_p) < 5 * sigma_s
        if cell.sifted > 100:
            e = rates.error_rates[label]
            sigma_e = math.sqrt(cell.sifted * e * (1 - e))
            assert abs(cell.errors - cell.sifted * e) < 5 * sigma_e


def test_simulate_block_rejects_zero_pulses(source, detector, e_det):
    with pytest.raises(DomainError):
        simulate_block(source, 40.0, detector, e_det, 0, seed=1)


def test_simulate_deterministic_across_workers(source, detector, e_det):
    kw = dict(n_pulses=300_000, seed=21, shards=8)
    a = simulate_block(source, 30.0, detector, e_det, workers=1, **kw)
    b = simulate_block(source, 30.0, detector, e_det, workers=8, **kw)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_tally_merge_associative_commutative():
    from satqkd.source import Basis

    t1 = TallyTable(total_pulses=5, elapsed_s=0.5)
    t1.cell(IntensityLabel.SIGNAL, Basis.RECTILINEAR).sent = 5
    t2 = TallyTable(total_pulses=3, elapsed_s=0.3)
    t2.cell(IntensityLabel.SIGNAL, Basis.RECTILINEAR).sent = 2
    t2.cell(IntensityLabel.DECOY, Basis.DIAGONAL).sent = 1
    t3 = TallyTable(total_pulses=2, elapsed_s=0.2)
    t3.cell(IntensityLabel.VACUUM, Basis.RECTILINEAR).sent = 2
    left = (t1 + t2) + t3
    right = t1 + (t2 + t3)
    swapped = t3 + t1 + t2
    assert left.to_dict() == right.to_dict() == swapped.to_dict()


# ---------------------------------------------------------------------------
# sifting


def test_sift_keeps_same_basis_only(source, detector, e_det):
    tally = simulate_block(source, 20.0, detector, e_det, 500_000, seed=3)
    tally.validate()
    by_class = tally.by_class()
    for label, cell in by_class.items():
        n_k, m_k = cell.sifted, cell.errors
        assert m_k <= n_k <= cell.detected
        if cell.detected > 200:
            # symmetric 50/50 bases: about half of detections survive sifting
            p = 0.5
            sigma = math.sqrt(cell.detected * p * (1 - p))
            assert abs(n_k - cell.detected * p) < 5 * sigma


def test_sift_zero_when_all_wrong_basis():
    from satqkd.source import Basis

    t = TallyTable(total_pulses=100, elapsed_s=1.0)
    cell = t.cell(IntensityLabel.SIGNAL, Basis.RECTILINEAR)
    cell.sent, cell.detected, cell.sifted, cell.errors = 100, 40, 0, 0
    t.validate()
    signal = t.by_class()[IntensityLabel.SIGNAL]
    assert (signal.sifted, signal.errors) == (0, 0)


def test_tally_validate_rejects_inconsistent():
    from satqkd.source import Basis

    t = TallyTable(total_pulses=10, elapsed_s=1.0)
    cell = t.cell(IntensityLabel.SIGNAL, Basis.RECTILINEAR)
    cell.sent, cell.detected, cell.sifted, cell.errors = 10, 5, 6, 0
    with pytest.raises(DomainError):
        t.validate()


# ---------------------------------------------------------------------------
# decoy bounds


def test_decoy_bounds_sandwich_spec_point():
    eta, y0, ed = 0.05, 1e-5, 0.01
    q_s, e_s = poisson_rates(0.3, eta, y0, ed)
    q_d, e_d = poisson_rates(0.5, eta, y0, ed)
    b = decoy_bounds(0.5, 0.3, q_d, q_s, y0, e_d * q_d, e_s * q_s)
    y1_true, e1_true = true_single_photon(eta, y0, ed)
    assert b.y1_lower <= y1_true
    assert b.y1_lower >= 0.8 * y1_true
    assert b.e1_upper >= e1_true


def test_decoy_bounds_noiseless_channel_zero_error():
    eta = 0.01
    q_s, _ = poisson_rates(0.3, eta, 0.0, 0.0)
    q_d, _ = poisson_rates(0.5, eta, 0.0, 0.0)
    b = decoy_bounds(0.5, 0.3, q_d, q_s, 0.0, 0.0, 0.0)
    assert b.e1_upper == pytest.approx(0.0, abs=1e-9)


def test_decoy_bounds_label_order_invariance():
    eta, y0, ed = 0.02, 1e-6, 0.02
    q_s, e_s = poisson_rates(0.3, eta, y0, ed)
    q_d, e_d = poisson_rates(0.5, eta, y0, ed)
    a = decoy_bounds(0.5, 0.3, q_d, q_s, y0, e_d * q_d, e_s * q_s)
    b = decoy_bounds(0.3, 0.5, q_s, q_d, y0, e_s * q_s, e_d * q_d)
    assert a == b


def test_decoy_bounds_sandwich_grid():
    violations = 0
    for eta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        for y0 in np.linspace(0.0, 1e-4, 5):
            for ed in np.linspace(0.0, 0.05, 5):
                q_s, e_s = poisson_rates(0.3, eta, y0, ed)
                q_d, e_d = poisson_rates(0.5, eta, y0, ed)
                b = decoy_bounds(0.5, 0.3, q_d, q_s, y0, e_d * q_d, e_s * q_s)
                if b.degenerate:
                    continue
                y1_true, e1_true = true_single_photon(eta, y0, ed)
                if b.y1_lower > y1_true + 1e-12 or b.e1_upper < e1_true - 1e-12:
                    violations += 1
    assert violations == 0


def test_decoy_bounds_rejects_equal_intensities():
    with pytest.raises(DomainError):
        decoy_bounds(0.3, 0.3, 1e-4, 1e-4, 0.0, 0.0, 0.0)


def test_decoy_bounds_from_rates_and_tally_agree(source, detector, e_det):
    rates = analytic_rates(source, 30.0, detector, e_det)
    from_rates = decoy_bounds_from_rates(rates)
    tally = analytic_tallies(source, 30.0, detector, e_det, 1e9)
    from_tally = decoy_bounds_from_tally(source, tally)
    assert from_rates.y1_lower == pytest.approx(from_tally.y1_lower, rel=1e-9)
    assert from_rates.e1_upper == pytest.approx(from_tally.e1_upper, rel=1e-9)


# ---------------------------------------------------------------------------
# key length


def make_stats(eta, y0, ed, n_total, p_sig=0.7, mu_sig=0.3, sift_p=0.5, rep=1e8):
    q, e = poisson_rates(mu_sig, eta, y0, ed)
    sent = n_total * p_sig
    detected = sent * q
    n_sig = detected * sift_p
    return SiftedStats(
        n_signal=n_sig,
        errors_signal=n_sig * e,
        detected_signal=detected,
        sent_signal=sent,
        mu_signal=mu_sig,
        elapsed_s=n_total / rep,
    )


def bounds_for(eta, y0, ed):
    q_s, e_s = poisson_rates(0.3, eta, y0, ed)
    q_d, e_d = poisson_rates(0.5, eta, y0, ed)
    return decoy_bounds(0.5, 0.3, q_d, q_s, y0, e_d * q_d, e_s * q_s)


def test_key_length_zero_at_half_qber(security):
    stats = make_stats(1e-3, 1e-6, 0.0, 1e9)
    stats = replace(stats, errors_signal=stats.n_signal * 0.5)
    result = key_length(stats, bounds_for(1e-3, 1e-6, 0.0), security)
    assert result.secret_key_length == 0.0


def test_key_length_rejects_qber_above_half(security):
    stats = make_stats(1e-3, 1e-6, 0.0, 1e9)
    stats = replace(stats, errors_signal=stats.n_signal * 0.6)
    with pytest.raises(DomainError):
        key_length(stats, bounds_for(1e-3, 1e-6, 0.0), security)


def test_key_length_zero_past_bb84_threshold(security):
    stats = make_stats(1e-3, 1e-6, 0.0, 1e9)
    stats = replace(stats, errors_signal=stats.n_signal * 0.25)
    result = key_length(stats, bounds_for(1e-3, 1e-6, 0.25), security)
    assert result.secret_key_length == 0.0


def test_finite_key_never_exceeds_asymptotic(security):
    for eta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        for y0 in np.linspace(0.0, 1e-4, 5):
            for ed in np.linspace(0.0, 0.05, 5):
                stats = make_stats(eta, y0, ed, 1e10)
                bounds = bounds_for(eta, y0, ed)
                asym = key_length(stats, bounds, security, "asymptotic")
                finite = key_length(stats, bounds, security, "finite")
                assert finite.secret_key_length <= asym.secret_key_length + 1e-9


def test_key_rate_monotone_in_loss(source, detector, e_det, security):
    rates = [
        key_from_fixed_loss(source, float(db), detector, e_det, security, 300.0).secret_key_rate
        for db in range(0, 61)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0


def test_key_length_degenerate_bounds_zero_with_reason(security):
    from satqkd.protocol import DecoyBounds

    stats = make_stats(1e-3, 1e-6, 0.01, 1e9)
    degenerate = DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=1e-6, degenerate=True)
    result = key_length(stats, degenerate, security)
    assert result.secret_key_length == 0.0
    assert "degenerate" in result.reason


# ---------------------------------------------------------------------------
# pass integration


def test_integrate_pass_below_min_elevation(source, detector, e_det, security):
    profile = PassProfile(
        times_s=[0.0, 60.0, 120.0],
        elevations_deg=[3.0, 5.0, 3.0],
        loss_model=FixedLossModel(40.0),
        min_elevation_deg=10.0,
    )
    result, tally = integrate_pass(profile, source, detector, e_det, security)
    assert result.secret_key_length == 0.0
    assert tally.total_pulses == 0
    assert "elevation" in result.reason


def test_integrate_pass_constant_loss_matches_fixed(source, detector, e_det, security):
    duration = 120.0
    profile = PassProfile(
        times_s=[0.0, duration],
        elevations_deg=[45.0, 45.0],
        loss_model=FixedLossModel(38.0),
        min_elevation_deg=10.0,
    )
    from_pass, _ = integrate_pass(
        profile, source, detector, e_det, security, step_s=1.0, regime="asymptotic"
    )
    direct = key_from_fixed_loss(source, 38.0, detector, e_det, security, duration, "asymptotic")
    assert from_pass.secret_key_length == pytest.approx(direct.secret_key_length, rel=1e-9)


def test_integrate_pass_pooling_beats_per_segment_keys(source, detector, e_det, security):
    from satqkd.channel import synthesize_pass

    profile = synthesize_pass(90.0, 500e3, min_elevation_deg=10.0, step_s=1.0)
    pooled, _ = integrate_pass(profile, source, detector, e_det, security, regime="finite")
    # split the pass into 30 s slices keyed independently
    per_segment = 0.0
    t = profile.times_s[0]
    while t < profile.times_s[-1]:
        end = min(t + 30.0, profile.times_s[-1])
        sliced = PassProfile(
            times_s=[t, end],
            elevations_deg=[profile.elevation_at(t), profile.elevation_at(end)],
            loss_model=profile.loss_model,
            min_elevation_deg=profile.min_elevation_deg,
        )
        seg, _ = integrate_pass(sliced, source, detector, e_det, security, regime="finite")
        per_segment += seg.secret_key_length
        t = end
    assert pooled.secret_key_length >= per_segment


def test_integrate_pass_mc_mode_deterministic(source, detector, e_det, security):
    profile = PassProfile(
        times_s=[0.0, 2.0],
        elevations_deg=[60.0, 60.0],
        loss_model=FixedLossModel(42.0),
        min_elevation_deg=10.0,
    )
    small = replace(source, repetition_rate_hz=1e5)
    a, ta = integrate_pass(profile, small, detector, e_det, security, mode="mc", seed=7)
    b, tb = integrate_pass(profile, small, detector, e_det, security, mode="mc", seed=7)
    assert ta.to_dict() == tb.to_dict()
    with pytest.raises(DomainError):
        integrate_pass(profile, small, detector, e_det, security, mode="mc")
