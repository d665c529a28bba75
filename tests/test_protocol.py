import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from satqkd.channel import ElevationLossModel, sampled_pass, synthesize_pass, transmittance_from_db
from satqkd.config import default_run_config, default_source
from satqkd.errors import DomainError
from satqkd.exact import each, square
from satqkd.protocol import (
    BASES,
    COUNTS,
    DETECTED,
    ERRORS,
    E0,
    LABELS,
    SENT,
    SIFTED,
    SecurityParams,
    Y1_LOST_IN_ROUNDING,
    TallyTable,
    analytic_tallies,
    decoy_bounds,
    fixed_loss_tally,
    key_from_fixed_loss,
    key_from_tally,
    key_tallies,
    pass_tally,
    simulate_block,
)
from satqkd.receiver import DetectorModel
from satqkd.source import IntensityLabel, intrinsic_qber

from conftest import (MEASURED_EXTINCTION, FixedLossModel, by_class, closed_form_tally, degenerate, pass_key,
                      poisson_rates, rate_tally, single_photon_truth, source_with_mus, validate_tally)
from reference_sampler import elevation_at, enumerated_cells, reference_loss, single_photon_yield_and_error


def class_rates(tally):
    """{label: (gain, error rate)} of a tally: detections per pulse sent, errors per sifted detection."""
    return {label: (detected / sent, errors / sifted if sifted else E0)
            for label, (sent, detected, sifted, errors) in zip(LABELS, by_class(tally).tolist())}


# ---------------------------------------------------------------------------
# analytic tallies: the closed-form model's expected counts


def test_analytic_rates_vacuum_class(source, e_det):
    det = DetectorModel(dark_prob=1e-5)
    gain, error_rate = class_rates(analytic_tallies(source, 40.0, det, e_det, 1e9))[IntensityLabel.VACUUM]
    assert gain == pytest.approx(1.0 - (1.0 - 1e-5) ** 4, rel=1e-12)
    assert error_rate == pytest.approx(E0, rel=1e-12)


def test_analytic_rates_40db_gain(source):
    det = DetectorModel(efficiency=0.5, dark_prob=0.0)
    gain, _ = class_rates(analytic_tallies(source, 40.0, det, 0.0079, 1e9))[IntensityLabel.DECOY]
    assert gain == pytest.approx(2.5e-5, rel=1e-3)


def test_analytic_rates_no_darks_error_equals_e_det(source):
    det = DetectorModel(efficiency=0.5, dark_prob=0.0)
    rates = class_rates(analytic_tallies(source, 30.0, det, 0.0079, 1e9))
    for label in (IntensityLabel.SIGNAL, IntensityLabel.DECOY):
        assert rates[label][1] == pytest.approx(0.0079, rel=1e-12)


def test_analytic_rates_rejects_large_e_det(source, detector):
    with pytest.raises(DomainError):
        analytic_tallies(source, 40.0, detector, 0.6, 1e9)


def test_analytic_rates_match_oracle(source, detector, e_det):
    rates = class_rates(analytic_tallies(source, 35.0, detector, e_det, 1e9))
    eta = transmittance_from_db(35.0 + source.insertion_loss_db) * detector.efficiency
    y0 = 1.0 - (1.0 - detector.dark_prob) ** 4
    for cls in source.intensity_classes:
        q, e = poisson_rates(cls.mu, eta, y0, e_det)
        assert rates[cls.label][0] == pytest.approx(q, rel=1e-12)
        assert rates[cls.label][1] == pytest.approx(e, rel=1e-12)


def test_analytic_segments_pool_exactly_as_a_loop_over_them(source, detector, e_det):
    # over eight segments numpy's 1-D sum is pairwise; the pooled tally must still add in order
    losses = np.linspace(20.0, 60.0, 41).tolist()
    pulses = [1e8 - 1e6 * k for k in range(41)]
    det = replace(detector, dark_prob=detector.dark_prob + 2e-6)  # with background light
    pooled = analytic_tallies(source, losses, det, e_det, pulses)
    counts = total = elapsed = 0.0
    for loss, n in zip(losses, pulses):
        seg = analytic_tallies(source, loss, det, e_det, n)
        counts, total, elapsed = counts + seg.counts, total + seg.total_pulses, elapsed + seg.elapsed_s
    assert pooled.counts.tolist() == counts.tolist()
    assert (pooled.total_pulses, pooled.elapsed_s) == (total, elapsed)
    # each segment's counts, taken alone out of the 41-segment call, are its counts as a pass of one segment
    for i, (loss, n) in enumerate(zip(losses, pulses)):
        only_i = np.where(np.arange(len(pulses)) == i, pulses, 0.0)
        assert analytic_tallies(source, losses, det, e_det, only_i).counts.tolist() == \
            analytic_tallies(source, loss, det, e_det, n).counts.tolist()


def test_analytic_tallies_reject_mismatched_segments(source, detector, e_det):
    with pytest.raises(DomainError, match="equal length"):
        analytic_tallies(source, [30.0, 40.0], detector, e_det, [1e8])
    with pytest.raises(DomainError, match="equal length"):
        analytic_tallies(source, [30.0, 40.0], detector, e_det, 1e8)


def test_analytic_pass_and_fixed_loss_key_take_one_analytic_call(source, detector, e_det, security, monkeypatch):
    from satqkd import protocol

    calls = []
    real = protocol.analytic_tallies

    def counting(*args, **kwargs):
        calls.append("analytic_tallies")
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "analytic_tallies", counting)
    # a second analytic path would show as no call, or as a second call
    pass_key(*synthesize_pass(60.0, 500e3).segments(1.0), source, detector, e_det, security)
    assert calls == ["analytic_tallies"]
    calls.clear()
    key_from_fixed_loss(source, np.array([40.0, 45.0]), detector, e_det, security, 1.0)
    assert calls == ["analytic_tallies"]


# ---------------------------------------------------------------------------
# Monte Carlo vs analytic


def test_simulate_block_infinite_loss_no_darks(source, e_det):
    det = DetectorModel(efficiency=0.5, dark_prob=0.0)
    tally = simulate_block(source, 300.0, det, e_det, 100_000, seed=1)
    assert (tally.counts[..., DETECTED] == 0).all()


def test_simulate_block_matches_analytic(source, detector, e_det):
    n = 2_000_000
    tally = simulate_block(source, 25.0, detector, e_det, n, seed=13)
    expected = by_class(analytic_tallies(source, 25.0, detector, e_det, n)).tolist()
    for (sent, detected, sifted, errors), (m, d, s, r) in zip(by_class(tally).tolist(), expected):
        q = d / m
        sigma = math.sqrt(sent * q * (1 - q))
        assert abs(detected - sent * q) < 5 * sigma
        # sifted fraction of detections
        sift_p = s / d
        sigma_s = math.sqrt(max(detected * sift_p * (1 - sift_p), 1))
        assert abs(sifted - detected * sift_p) < 5 * sigma_s
        if sifted > 100:
            e = r / s
            sigma_e = math.sqrt(sifted * e * (1 - e))
            assert abs(errors - sifted * e) < 5 * sigma_e


@pytest.mark.parametrize("seed", [1, 2])
def test_monte_carlo_is_a_draw_of_the_outcome_law(source, detector, e_det, seed):
    # at 0 dB 14 % (signal) to 23 % (decoy) of the pulses that hold a photon hold two or more, so
    # double clicks weigh most here; 1e12 pulses resolve each signal and decoy error count to ~1e-4
    n = 10**12
    drawn = simulate_block(source, 0.0, detector, e_det, n, seed=seed).counts
    expected = enumerated_cells(source, 0.0, detector, e_det, float(n))
    # each count is binomial: the pulses of its cell that reach its level
    sigma = np.sqrt(expected * (1.0 - expected / n))
    assert (expected > 1e3).all()
    assert (np.abs(drawn - expected) < 5.0 * sigma).all(), (drawn - expected) / sigma


# the tally of a block or pass that sends no pulse lists every cell of the default source at zero
ZERO_TALLY = {
    "total_pulses": 0.0,
    "elapsed_s": 0.0,
    "cells": {f"{label}/{basis}": dict.fromkeys(COUNTS, 0.0)
              for label in ("decoy", "signal", "vacuum") for basis in ("X", "Z")},
}


@pytest.mark.parametrize("losses, n_pulses", [(40.0, 0), ([20.0, 30.0], [0, 0]), ([], [])])
def test_simulate_block_of_no_pulse_is_the_zero_tally(source, detector, e_det, losses, n_pulses):
    # a scalar 0, segments of 0 and no segments: each was refused, though the analytic route took them
    tally = simulate_block(source, losses, detector, e_det, n_pulses, seed=1)
    assert tally.counts.shape == (len(LABELS), len(BASES), len(COUNTS))
    assert tally.to_dict() == ZERO_TALLY == analytic_tallies(source, losses, detector, e_det, n_pulses).to_dict()


# ---------------------------------------------------------------------------
# sifting


def test_sift_keeps_same_basis_only(source, detector, e_det):
    tally = simulate_block(source, 20.0, detector, e_det, 500_000, seed=3)
    validate_tally(tally)
    for _, detected, n_k, m_k in by_class(tally).tolist():
        assert m_k <= n_k <= detected
        if detected > 200:
            # symmetric 50/50 bases: about half of detections survive sifting
            p = 0.5
            sigma = math.sqrt(detected * p * (1 - p))
            assert abs(n_k - detected * p) < 5 * sigma


def test_sift_zero_when_all_wrong_basis():
    # only the signal class sends; cell [0, 0] is its rectilinear basis
    t = TallyTable(np.zeros((len(LABELS), 2, 4)), total_pulses=100, elapsed_s=1.0)
    t.counts[0, 0] = 100, 40, 0, 0
    validate_tally(t)
    _, _, sifted, errors = by_class(t)[0]
    assert (sifted, errors) == (0, 0)


@pytest.mark.parametrize("pz_r", [0.9, 0.3])
def test_analytic_sifts_each_sender_basis_with_the_receivers_probability_of_it(source, e_det, pz_r):
    # the receiver measures in Z with pz_r whatever the sender sent: a Z cell's detections are
    # sifted with pz_r and an X cell's with 1 - pz_r, also when the sender's p_Z differs
    det = DetectorModel(basis_probability_z=pz_r)
    counts = analytic_tallies(replace(source, basis_probability_z=0.9), np.array([[0.0], [20.0], [40.0]]), det,
                              e_det, [1e9]).counts
    np.testing.assert_array_equal(counts[..., SIFTED], counts[..., DETECTED] * [pz_r, 1.0 - pz_r])


def test_simulate_block_matches_analytic_per_cell_at_biased_bases(source, e_det):
    # p_Z 0.9 at both ends: about 90 % of Z and 10 % of X detections are sifted. The vacuum class
    # is left out: its detections are darks, which the receiver sifts about half the time in either
    # basis, and the closed-form model does not follow that
    src = replace(source, basis_probability_z=0.9)
    det = DetectorModel(basis_probability_z=0.9)
    n = 10**9
    drawn = simulate_block(src, 20.0, det, e_det, n, seed=5).counts
    expected = analytic_tallies(src, 20.0, det, e_det, n).counts
    lit = [k for k, label in enumerate(LABELS) if label is not IntensityLabel.VACUUM]
    for cell, means in zip(drawn[lit].reshape(-1, 4).tolist(), expected[lit].reshape(-1, 4).tolist()):
        # each count is binomial in the one before it: detected in sent, sifted in detected, ...
        for trials, count, p in zip(cell, cell[1:], np.divide(means[1:], means[:-1]).tolist()):
            assert abs(count - trials * p) < 5 * math.sqrt(trials * p * (1 - p)), (cell, means)


def test_tally_validate_rejects_inconsistent():
    t = TallyTable(np.zeros((len(LABELS), 2, 4)), total_pulses=10, elapsed_s=1.0)
    t.counts[0, 0] = 10, 5, 6, 0
    with pytest.raises(DomainError):
        validate_tally(t)


# ---------------------------------------------------------------------------
# decoy bounds


def test_decoy_bounds_sandwich_spec_point():
    eta, y0, ed = 0.05, 1e-5, 0.01
    q_s, e_s = poisson_rates(0.3, eta, y0, ed)
    q_d, e_d = poisson_rates(0.5, eta, y0, ed)
    b = decoy_bounds(0.5, 0.3, q_d, q_s, y0, e_d * q_d, e_s * q_s)
    y1_true, e1_true = single_photon_truth(eta, y0, ed)
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
                if degenerate(b):
                    continue
                y1_true, e1_true = single_photon_truth(eta, y0, ed)
                if b.y1_lower > y1_true + 1e-12 or b.e1_upper < e1_true - 1e-12:
                    violations += 1
    assert violations == 0


def test_decoy_bounds_rejects_equal_intensities():
    with pytest.raises(DomainError):
        decoy_bounds(0.3, 0.3, 1e-4, 1e-4, 0.0, 0.0, 0.0)


@st.composite
def mu_pairs(draw):
    """Two intensities in [0.01, 1], either independent or 1e-16 to 1e-3 apart (relative), either order."""
    mu_a = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        mu_b = draw(st.floats(0.01, 1.0))
    else:
        mu_b = mu_a * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -3.0)))
    assume(mu_b != mu_a)
    return mu_a, mu_b


@settings(max_examples=300, deadline=None)
@given(
    mus=mu_pairs(),
    loss_db=st.floats(0.0, 70.0),
    dark_prob=st.one_of(st.just(0.0), st.floats(1e-9, 1e-5)),
    background=st.one_of(st.just(0.0), st.floats(1e-9, 1e-5)),
    ed=st.floats(0.0, 0.1),
)
@example(mus=(0.30000000000000004, 0.3), loss_db=40.0, dark_prob=1e-7, background=0.0, ed=0.0079)
def test_decoy_bounds_sound_on_analytic_route(mus, loss_db, dark_prob, background, ed):
    """The bounds never pass the single-photon truth of the receiver's exact law, for near-equal intensities too."""
    det = DetectorModel(dark_prob=dark_prob + background)  # background light clicks as darks do
    source = source_with_mus(*mus)
    b = key_from_fixed_loss(source, loss_db, det, ed, SecurityParams(), 1.0).bounds
    y1_true, e1_true = single_photon_yield_and_error(
        transmittance_from_db(loss_db + source.insertion_loss_db), det.efficiency, ed, det.dark_prob,
        det.basis_probability_z, source.basis_probability_z)
    assert b.y1_lower <= y1_true
    if not degenerate(b):
        assert b.e1_upper >= e1_true


def test_near_equal_intensities_give_zero_key_with_own_reason(detector, e_det, security):
    # one ulp apart: the bound came out at 2.9x the true Y1 and the key at ~0.9 kbps
    source = source_with_mus(0.30000000000000004, 0.3)
    result = key_from_fixed_loss(source, 40.0, detector, e_det, security, 300.0, "finite")
    assert result.secret_key_length == 0.0 and result.bounds.y1_lower == 0.0
    assert result.reason == Y1_LOST_IN_ROUNDING


@pytest.mark.parametrize("loss_db", [80.0, 90.0])
def test_high_loss_bound_lost_in_rounding_blames_no_intensities(source, e_det, security, loss_db):
    # mu 0.3 and 0.5 are far apart; with no darks Y1 falls to ~1e-8, near its own rounding error
    det = DetectorModel(dark_prob=0.0)
    result = key_from_fixed_loss(source, loss_db, det, e_det, security, 300.0, "finite")
    assert result.secret_key_length == 0.0 and degenerate(result.bounds)
    assert result.reason == Y1_LOST_IN_ROUNDING and "mu" not in result.reason


def test_decoy_bounds_from_rates_and_tally_agree(source, detector, e_det, security):
    # 10 s at 100 MHz: the fixed-loss key reads the same 1e9 expected pulses as the tally
    from_rates = key_from_fixed_loss(source, 30.0, detector, e_det, security, 10.0).bounds
    from_tally = key_from_tally(source, analytic_tallies(source, 30.0, detector, e_det, 1e9), security,
                                "asymptotic").bounds
    assert from_rates.y1_lower == pytest.approx(from_tally.y1_lower, rel=1e-9)
    assert from_rates.e1_upper == pytest.approx(from_tally.e1_upper, rel=1e-9)


# ---------------------------------------------------------------------------
# key length


def bounds_args(eta, y0, ed) -> tuple:
    """decoy_bounds' arguments at the closed-form rates of a 0.5 decoy and a 0.3 signal."""
    q_s, e_s = poisson_rates(0.3, eta, y0, ed)
    q_d, e_d = poisson_rates(0.5, eta, y0, ed)
    return 0.5, 0.3, q_d, q_s, y0, e_d * q_d, e_s * q_s


def with_signal_qber(tally, qber) -> TallyTable:
    """The tally with qber of each signal cell's sifted detections counted as errors."""
    counts = tally.counts.copy()
    counts[0, :, ERRORS] = counts[0, :, SIFTED] * qber
    return replace(tally, counts=counts)


def test_key_length_zero_at_half_qber(source, security):
    tally = with_signal_qber(closed_form_tally(1e-3, 1e-6, 0.0, 1e9), 0.5)
    result = key_from_tally(source, tally, security, "asymptotic")
    assert result.secret_key_length == 0.0


def test_key_length_rejects_qber_above_half(source, security):
    tally = with_signal_qber(closed_form_tally(1e-3, 1e-6, 0.0, 1e9), 0.6)
    result = key_from_tally(source, tally, security, "asymptotic")
    assert result.secret_key_length == result.secret_key_rate == 0.0
    assert result.qber_signal == pytest.approx(0.6)
    assert result.reason == "signal QBER above 0.5"


def test_key_length_zero_past_bb84_threshold(source, security):
    tally = with_signal_qber(closed_form_tally(1e-3, 1e-6, 0.25, 1e9), 0.25)
    result = key_from_tally(source, tally, security, "asymptotic")
    assert result.secret_key_length == 0.0


def test_finite_key_never_exceeds_asymptotic(source, security):
    for eta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        for y0 in np.linspace(0.0, 1e-4, 5):
            for ed in np.linspace(0.0, 0.05, 5):
                tally = closed_form_tally(eta, y0, ed, 1e10)
                asym = key_from_tally(source, tally, security, "asymptotic")
                finite = key_from_tally(source, tally, security, "finite")
                assert finite.secret_key_length <= asym.secret_key_length + 1e-9


def test_key_rate_monotone_in_loss(source, detector, e_det, security):
    rates = [
        key_from_fixed_loss(source, float(db), detector, e_det, security, 300.0).secret_key_rate
        for db in range(0, 61)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0


@settings(max_examples=200, deadline=None)
@given(
    mu_signal=st.floats(0.0, 1000.0, exclude_min=True),
    mu_decoy=st.floats(0.0, 1000.0, exclude_min=True),
    loss_db=st.floats(0.0, 100.0),
    regime=st.sampled_from(["asymptotic", "finite"]),
)
def test_key_from_fixed_loss_is_finite_or_domain_error(mu_signal, mu_decoy, loss_db, regime):
    mus = {IntensityLabel.SIGNAL: mu_signal, IntensityLabel.DECOY: mu_decoy, IntensityLabel.VACUUM: 0.0}
    base = default_source()
    try:
        source = replace(base, intensity_classes=tuple(
            replace(c, mu=mus[c.label]) for c in base.intensity_classes))
        result = key_from_fixed_loss(source, loss_db, DetectorModel(), intrinsic_qber(MEASURED_EXTINCTION),
                                     SecurityParams(), 1.0, regime)
    except DomainError:
        return
    for value in (result.secret_key_length, result.secret_key_rate):
        assert math.isfinite(value) and value >= 0.0


def source_at(base, mu_signal, mu_decoy, p_signal, p_decoy, p_z):
    """base with its signal and decoy intensities and emit probabilities replaced; vacuum takes the rest."""
    params = {IntensityLabel.SIGNAL: (mu_signal, p_signal), IntensityLabel.DECOY: (mu_decoy, p_decoy),
              IntensityLabel.VACUUM: (0.0, 1.0 - p_signal - p_decoy)}
    classes = tuple(replace(c, mu=params[c.label][0], emit_probability=params[c.label][1])
                    for c in base.intensity_classes)
    return replace(base, intensity_classes=classes, basis_probability_z=p_z)


def overrides_at(points):
    """(mus, emit, p_z) of source_at's parameters per point: (class, point) rows in LABELS order, one p_z a point."""
    mu_s, mu_d, p_s, p_d, p_z = (np.array(column) for column in zip(*points))
    return np.array([mu_s, mu_d, np.zeros_like(mu_s)]), np.array([p_s, p_d, 1.0 - p_s - p_d]), p_z


@st.composite
def source_points(draw):
    """(mu_signal, mu_decoy, p_signal, p_decoy, p_z) of a valid source; the vacuum class keeps >= 1e-4."""
    mu = st.one_of(st.floats(0.0, 2.0, exclude_min=True), st.floats(0.0, 1000.0, exclude_min=True))
    p_signal, share = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
    return draw(mu), draw(mu), p_signal, (1.0 - p_signal) * share, draw(st.floats(0.01, 0.99))


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(source_points(), st.floats(0.0, 100.0)), min_size=1, max_size=6),
    efficiency=st.floats(1e-3, 1.0),
    dark_prob=st.one_of(st.just(0.0), st.floats(1e-10, 1e-3)),
    background=st.one_of(st.just(0.0), st.floats(1e-10, 1e-3)),
    receiver_p_z=st.floats(0.01, 0.99),
    duration=st.floats(1e-3, 1e5),
    regime=st.sampled_from(["asymptotic", "finite"]),
)
def test_key_batch_is_finite_or_domain_error_and_each_point_keys_as_alone(
        points, efficiency, dark_prob, background, receiver_p_z, duration, regime):
    """Any detector, background, duration, class probabilities and p_Z: every key is finite and >= 0
    or the call raises DomainError, and each point of a batch gets exactly its one-point key."""
    base = default_source()
    det = DetectorModel(efficiency=efficiency, dark_prob=dark_prob + background, basis_probability_z=receiver_p_z)
    args = (det, intrinsic_qber(MEASURED_EXTINCTION), SecurityParams(), duration, regime)
    alone = []
    for params, loss in points:
        try:
            alone.append(key_from_fixed_loss(source_at(base, *params), loss, *args))
        except DomainError:
            alone.append(None)
    for one in filter(None, alone):
        for value in (one.secret_key_length, one.secret_key_rate):
            assert math.isfinite(value) and value >= 0.0
    mus, emit, p_z = overrides_at([params for params, _ in points])
    try:
        batch = key_from_fixed_loss(base, np.array([loss for _, loss in points]), *args,
                                    mus=mus, emit=emit, p_z=p_z)
    except DomainError:
        event("batch refused")
        assert None in alone
        return
    event("batch keyed")
    assert None not in alone
    for i, one in enumerate(alone):
        assert (batch.secret_key_length[i], batch.secret_key_rate[i], batch.reason[i]) == (
            one.secret_key_length, one.secret_key_rate, one.reason)
        assert (batch.sifted_bits[i], batch.qber_signal[i]) == (one.sifted_bits, one.qber_signal)
        assert (batch.bounds.y1_lower[i], batch.bounds.e1_upper[i]) == (one.bounds.y1_lower, one.bounds.e1_upper)


def key_fields(key, i=None) -> list:
    """Every number and reason of a KeyResult; of its point i when it holds a batch."""
    values = [key.sifted_bits, key.qber_signal, key.bounds.y1_lower, key.bounds.e1_upper, key.bounds.y0_estimate,
              key.bounds.reason, key.secret_key_length, key.secret_key_rate, key.reason]
    return values if i is None else [v[i] for v in values]


@pytest.mark.parametrize("regime", ["asymptotic", "finite"])
@pytest.mark.parametrize("loss", [30.0, 70.0])  # a key, and a key of 0 with its reason
def test_one_point_entry_points_return_scalars_equal_to_their_point_in_a_batch(
        source, detector, e_det, security, loss, regime):
    duration = 10.0
    pulses = duration * source.repetition_rate_hz
    analytic = analytic_tallies(source, loss, detector, e_det, pulses)
    mc = simulate_block(source, loss, detector, e_det, int(pulses), seed=3)
    batch = key_from_fixed_loss(source, np.array([loss, 40.0]), detector, e_det, security, duration, regime)
    # a tally whose counts carry a leading point axis keys as a batch
    mc_batch = key_from_tally(source, replace(mc, counts=np.stack([analytic.counts, mc.counts])), security, regime)
    pass_args = ([loss], [duration], source, detector, e_det, security, regime)
    ones = [
        (key_from_fixed_loss(source, loss, detector, e_det, security, duration, regime), batch, 0),
        (key_from_tally(source, analytic, security, regime), batch, 0),
        (pass_key(*pass_args)[0], batch, 0),
        (key_from_tally(source, mc, security, regime), mc_batch, 1),
        (pass_key(*pass_args, mode="mc", seed=3)[0], mc_batch, 1),
    ]
    for one, many, i in ones:
        values = key_fields(one)
        assert not any(isinstance(v, np.ndarray) for v in values)
        assert values == key_fields(many, i)


def filled_tally(sent_by_class) -> TallyTable:
    """A one-point tally whose classes, in LABELS order, sent the given pulses, half per basis."""
    counts = np.zeros((len(LABELS), len(BASES), len(COUNTS)))
    counts[..., SENT] = np.array(sent_by_class, dtype=float)[:, None] / 2.0
    counts[..., DETECTED] = counts[..., SENT] / 10.0
    return TallyTable(counts, float(sum(sent_by_class)), 1.0)


def empty_class_message(call) -> str:
    with pytest.raises(DomainError, match="no pulses sent in class") as info:
        call()
    return str(info.value)


def test_batch_names_the_empty_class_of_its_first_point_that_has_one(source, security):
    # class-major, the batch would name signal, which only the second point lacks
    first, second = filled_tally([10, 0, 10]), filled_tally([0, 10, 10])
    tally = replace(first, counts=np.stack([first.counts, second.counts]))
    assert empty_class_message(lambda: key_from_tally(source, tally, security, "finite")) == (
        "no pulses sent in class decoy")


def test_key_tallies_names_the_empty_class_a_loop_over_the_tallies_names(source, security):
    # of two empty classes the first in LABELS order is named, whatever order the source lists them in
    reordered = replace(source, intensity_classes=tuple(reversed(source.intensity_classes)))  # vacuum first
    sources, tallies = [source, reordered], [filled_tally([10, 10, 10]), filled_tally([0, 0, 10])]
    loop = empty_class_message(lambda: [key_from_tally(s, t, security, "finite") for s, t in zip(sources, tallies)])
    assert loop == empty_class_message(lambda: key_tallies(sources, tallies, security, "finite")) == (
        "no pulses sent in class signal")
    # with no reason to key it by, a tally that sent nothing is refused as one whose classes sent nothing
    nothing = TallyTable(np.zeros((len(LABELS), len(BASES), len(COUNTS))))
    assert empty_class_message(lambda: key_from_tally(source, nothing, security, "finite")) == (
        "no pulses sent in class signal")


@pytest.mark.parametrize("order", itertools.permutations(range(len(LABELS))))
def test_every_class_order_of_a_source_tallies_and_keys_as_the_source(source, detector, e_det, security, order):
    # the class axis is LABELS whatever order the source lists its classes in: at a fixed loss and
    # over a 60 degree pass, its tallies and keys are those of the source, alone and in one batch
    reordered = replace(source, intensity_classes=tuple(source.intensity_classes[k] for k in order))
    segments = synthesize_pass(60.0, 500e3).segments(1.0)
    expected, got = ([fixed_loss_tally(src, 35.0, detector, e_det, 10.0), pass_tally(*segments, src, detector, e_det)]
                     for src in (source, reordered))
    for want, tally in zip(expected, got):
        np.testing.assert_array_equal(tally.counts, want.counts)
        assert (tally.total_pulses, tally.elapsed_s) == (want.total_pulses, want.elapsed_s)
        for regime in ("asymptotic", "finite"):
            assert key_fields(key_from_tally(reordered, tally, security, regime)) == key_fields(
                key_from_tally(source, want, security, regime))
    batch = key_tallies([source, source, reordered, reordered], expected + got, security, "finite")
    for i, want in enumerate(expected):
        assert key_fields(batch, i) == key_fields(batch, i + 2) == key_fields(
            key_from_tally(source, want, security, "finite"))


@pytest.mark.parametrize("regime", ["asymptotic", "finite"])
def test_key_tallies_keys_every_point_as_alone_and_no_point_that_sent_nothing(source, detector, e_det, security,
                                                                              regime):
    # a batch of two losses, a tally that sent nothing, and a source with other intensities in reverse class order
    other = source_at(source, 0.6, 0.1, 0.8, 0.15, 0.5)
    other = replace(other, intensity_classes=tuple(reversed(other.intensity_classes)))
    empty = TallyTable(np.zeros((len(LABELS), len(BASES), len(COUNTS))))
    tallies = [analytic_tallies(source, [[30.0], [45.0]], detector, e_det, [1e9]), empty,
               simulate_block(other, 33.0, detector, e_det, 10**9, seed=5)]
    keys = key_tallies([source, source, other], tallies, security, regime, "sent nothing")
    alone = [key_from_tally(source, analytic_tallies(source, [loss], detector, e_det, [1e9]), security, regime)
             for loss in (30.0, 45.0)] + [None, key_from_tally(other, tallies[2], security, regime)]
    # key_fields of a point that sent nothing: its key's reason and its bounds' are the reason given
    unkeyed = [0.0, E0, 0.0, None, 0.0, "sent nothing", 0.0, 0.0, "sent nothing"]
    assert key_fields(key_from_tally(source, empty, security, regime, empty_reason="sent nothing")) == unkeyed
    for i, one in enumerate(alone):
        assert key_fields(keys, i) == (unkeyed if one is None else key_fields(one))
    assert keys.secret_key_length[0] > 0 and keys.secret_key_length[3] > 0
    # one tally whose points send, send nothing and send again keys them as alone too
    mixed = TallyTable(np.stack([tallies[0].counts[0], empty.counts, tallies[0].counts[1]]),
                       np.array([1e9, 0.0, 1e9]), np.array([10.0, 0.0, 10.0]))
    batch = key_from_tally(source, mixed, security, regime, empty_reason="sent nothing")
    for i, one in enumerate([alone[0], None, alone[1]]):
        assert key_fields(batch, i) == (unkeyed if one is None else key_fields(one))
    # with no point that sent a pulse, every point gets the empty key
    none_sent = key_tallies([source, other], [empty, empty], security, regime, "sent nothing")
    assert key_fields(none_sent, 0) == key_fields(none_sent, 1) == unkeyed


# (mu_signal, mu_decoy, p_signal, p_decoy, p_z, excess loss dB) of the points of a batched pass
GRID_POINTS = [(0.3, 0.5, 0.7, 0.25, 0.5, 0.0), (0.8, 0.05, 0.9, 0.05, 0.6, 0.0), (0.5, 0.1, 0.6, 0.3, 0.3, 3.0),
               (0.3, 0.5, 0.7, 0.25, 0.5, 25.0)]


def test_analytic_tallies_row_of_a_point_segment_grid_equals_that_point_alone(source, detector, e_det):
    losses, durations = synthesize_pass(60.0, 500e3).segments(1.0)
    grid = losses + np.array([point[-1] for point in GRID_POINTS])[:, None]  # (point, segment)
    pulses = source.repetition_rate_hz * durations
    mus, emit, p_z = overrides_at([point[:-1] for point in GRID_POINTS])
    batch = analytic_tallies(source, grid, detector, e_det, pulses, mus, emit, p_z)
    assert batch.counts.shape == (len(GRID_POINTS), 3, 2, len(COUNTS))
    for p in range(len(GRID_POINTS)):
        alone = analytic_tallies(source, grid[p], detector, e_det, pulses, mus[:, p], emit[:, p], p_z[p])
        assert batch.counts[p].tolist() == alone.counts.tolist()
        assert (batch.total_pulses, batch.elapsed_s) == (alone.total_pulses, alone.elapsed_s)


@pytest.mark.parametrize("regime", ["asymptotic", "finite"])
def test_batched_pass_key_equals_a_loop_over_one_point_pass_keys(source, detector, e_det, security, regime):
    losses, durations = synthesize_pass(60.0, 500e3).segments(1.0)
    grid = losses + np.array([point[-1] for point in GRID_POINTS])[:, None]
    mus, emit, p_z = overrides_at([point[:-1] for point in GRID_POINTS])
    tally = analytic_tallies(source, grid, detector, e_det, source.repetition_rate_hz * durations, mus, emit, p_z)
    batch = key_from_tally(source, tally, security, regime, mus)
    assert batch.secret_key_length[-1] == 0.0 < batch.secret_key_length[0]  # 25 dB more leaves no key
    for p, point in enumerate(GRID_POINTS):
        one, _ = pass_key(grid[p], durations, source_at(source, *point[:-1]), detector, e_det, security, regime)
        assert key_fields(one) == key_fields(batch, p)


def test_decoy_bounds_of_one_point_are_scalars_equal_to_their_point_in_a_batch():
    # (eta, y0, e_det): bounds that hold, and bounds lost in their rounding error
    rows = [bounds_args(*point) for point in [(1e-3, 1e-6, 0.01), (1e-12, 0.0, 0.01), (1e-9, 1e-3, 0.01)]]
    batch = decoy_bounds(*(np.array(column) for column in zip(*rows)))
    assert list(batch.reason) == [None, Y1_LOST_IN_ROUNDING, None]
    for i, row in enumerate(rows):
        one = decoy_bounds(*row)
        values = [one.y1_lower, one.e1_upper, one.y0_estimate, one.reason]
        assert not any(isinstance(v, np.ndarray) for v in values)
        assert values == [batch.y1_lower[i], batch.e1_upper[i], batch.y0_estimate[i], batch.reason[i]]


def test_key_length_rejects_non_finite_statistics(source, security):
    tally = closed_form_tally(1e-3, 1e-6, 0.01, 1e9)
    bad = []
    for count in (SIFTED, ERRORS):
        counts = tally.counts.copy()
        counts[0, :, count] = math.nan
        bad.append(replace(tally, counts=counts))
    for one in bad:
        with pytest.raises(DomainError, match="not finite"):
            key_from_tally(source, one, security, "asymptotic")
    # one bad point fails the whole batch
    batch = replace(tally, counts=np.stack([tally.counts, bad[0].counts]))
    with pytest.raises(DomainError, match="not finite"):
        key_from_tally(source, batch, security, "finite")


@pytest.mark.parametrize("cell,count,value", [
    ((0, 0), SIFTED, math.nan),  # reported sifted_bits NaN under a zero key
    ((0, 0), ERRORS, -5.0),  # keyed 1716.9 bits
    ((2, 0), DETECTED, -1.0),  # gave y0_estimate -3.0e-14 and a positive key
    ((1, 0), DETECTED, math.inf),  # was taken for a decoy bound that overflows a float
    (None, "elapsed_s", math.nan),  # reported rate 0.0 next to a positive length
    (None, "elapsed_s", -1.0),
    ((0, 1), ERRORS, None),  # more errors than sifted detections
], ids=["nan_sifted", "negative_errors", "negative_vacuum_detected", "inf_decoy_detected", "nan_elapsed",
        "negative_elapsed", "errors_above_sifted"])
def test_key_from_tally_refuses_a_malformed_tally(source, detector, e_det, security, cell, count, value):
    tally = fixed_loss_tally(source, 30.0, detector, e_det, 1.0)
    if cell is None:
        tally = replace(tally, **{count: value})
    else:
        counts = tally.counts.copy()
        counts[cell][count] = counts[cell][SIFTED] + 1.0 if value is None else value
        tally = replace(tally, counts=counts)
    for regime in ("asymptotic", "finite"):
        with pytest.raises(DomainError, match="tally"):
            key_from_tally(source, tally, security, regime)


@pytest.mark.parametrize("f_ec", [
    math.inf,  # keyed 0 bits: "negative key length clamped to 0"
    math.nan,  # failed as statistics that "hold a NaN"
    0.99,
])
def test_security_params_reject_non_finite_or_small_f_ec(f_ec):
    with pytest.raises(DomainError, match="f_ec"):
        SecurityParams(f_ec=f_ec)


def test_decoy_bounds_reject_intensity_whose_exp_overflows():
    with pytest.raises(DomainError, match="no finite decoy bound"):
        decoy_bounds(800.0, 0.3, 1.0, 1e-3, 0.0, 1e-3, 1e-5)
    # a non-finite argument is named as such: a NaN error gain gave a bound that held with e1_upper NaN,
    # and a NaN gain or vacuum gain was taken for an overflow
    args = (0.3, 0.5, 1e-3, 1e-3, 1e-6, 1e-5, 1e-5)
    for k in range(len(args)):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="not finite"):
                decoy_bounds(*args[:k], bad, *args[k + 1:])


def test_key_length_degenerate_bounds_zero_with_reason(source, security):
    from satqkd.protocol import Y1_ZERO

    # equal signal, decoy and vacuum gains bound Y1 at 0.97 Y0; signal and decoy gains half the vacuum's bound it at 0
    tally = rate_tally([5e-7, 5e-7, 1e-6], [0.01, 0.01, E0], 1e9)
    result = key_from_tally(source, tally, security, "asymptotic")
    assert result.bounds.reason == Y1_ZERO
    assert result.secret_key_length == 0.0
    assert "degenerate" in result.reason


# ---------------------------------------------------------------------------
# pass integration


def test_pass_below_min_elevation_keys_zero(source, detector, e_det, security):
    profile = sampled_pass(
        times_s=[0.0, 60.0, 120.0],
        elevations_deg=[3.0, 5.0, 3.0],
        loss_model=FixedLossModel(40.0),
        min_elevation_deg=10.0,
    )
    result, tally = pass_key(*profile.segments(1.0), source, detector, e_det, security)
    assert result.secret_key_length == 0.0
    assert tally.to_dict() == ZERO_TALLY
    assert "elevation" in result.reason


def test_pass_key_at_constant_loss_matches_fixed(source, detector, e_det, security):
    duration = 120.0
    profile = sampled_pass(
        times_s=[0.0, duration],
        elevations_deg=[45.0, 45.0],
        loss_model=FixedLossModel(38.0),
        min_elevation_deg=10.0,
    )
    from_pass, _ = pass_key(*profile.segments(1.0), source, detector, e_det, security, regime="asymptotic")
    direct = key_from_fixed_loss(source, 38.0, detector, e_det, security, duration, "asymptotic")
    assert from_pass.secret_key_length == pytest.approx(direct.secret_key_length, rel=1e-9)


def test_pass_key_pooling_beats_per_segment_keys(source, detector, e_det, security):
    profile = synthesize_pass(90.0, 500e3, min_elevation_deg=10.0)
    pooled, _ = pass_key(*profile.segments(1.0), source, detector, e_det, security, regime="finite")
    # split the pass into 30 s slices keyed independently
    per_segment = 0.0
    t = profile.start_s
    while t < profile.end_s:
        end = min(t + 30.0, profile.end_s)
        sliced = replace(profile, start_s=t, end_s=end)
        seg, _ = pass_key(*sliced.segments(1.0), source, detector, e_det, security, regime="finite")
        per_segment += seg.secret_key_length
        t = end
    assert pooled.secret_key_length >= per_segment


@pytest.mark.parametrize("culmination", [30.0, 60.0, 90.0])
def test_pass_key_at_1_s_steps_is_within_2e_6_of_the_0_01_s_walk(culmination):
    # the walk covers the exact rise-to-set window, so a 1 s step no longer cuts the pass's ends: the
    # 30-degree key fell 9.0e-4 short of the limit while the window was cut to whole samples
    cfg = default_run_config()
    src = cfg.sources[0]
    profile = synthesize_pass(culmination, 500e3)
    coarse, fine = (pass_key(*profile.segments(step), src, cfg.receiver, cfg.e_det(src), cfg.security,
                             regime="finite")[0].secret_key_length for step in (1.0, 0.01))
    assert coarse == pytest.approx(fine, rel=2e-6)
    if culmination == 60.0:
        assert coarse == pytest.approx(886317.9, abs=0.5)


def per_step_segments(profile, step_s, excess_loss_db, loss):
    """(losses, durations) of a pass walked with one elevation_at and one loss call per step.

    Step k starts at t0 + k * step_s.
    """
    losses, durations = [], []
    t0, t1 = profile.start_s, profile.end_s
    k, t = 0, t0
    while t < t1:
        dt = min(step_s, t1 - t)
        el = elevation_at(profile, t + dt / 2.0)
        if el is not None and el >= profile.min_elevation_deg:
            losses.append(loss(el) + excess_loss_db)
            durations.append(dt)
        k += 1
        t = t0 + k * step_s
    return losses, durations


@pytest.mark.parametrize("step", [1.0, 0.7, 13.0, 0.01])
def test_pass_segments_interpolate_as_one_call_per_step(step):
    # the exactness oracle of a whole pass: clock, midpoints and every loss against scalar math
    model = ElevationLossModel(altitude_m=600e3, zenith_atmospheric_db=0.7, receiver_diameter_m=0.8)
    dipping = sampled_pass(times_s=[0.0, 3.3, 10.1, 11.0], elevations_deg=[5.0, 40.0, 9.0, 12.0],
                           loss_model=lambda el: 60.0 - el / 2.0, min_elevation_deg=10.0)
    for profile, loss in ((synthesize_pass(75.0, 600e3, loss_model=model), lambda el: reference_loss(model, el)),
                          (dipping, dipping.loss_model)):
        losses, durations = profile.segments(step, 1.5)
        assert (losses.tolist(), durations.tolist()) == per_step_segments(profile, step, 1.5, loss)


def test_pass_tally_mc_mode_deterministic(source, detector, e_det):
    profile = sampled_pass(
        times_s=[0.0, 2.0],
        elevations_deg=[60.0, 60.0],
        loss_model=FixedLossModel(42.0),
        min_elevation_deg=10.0,
    )
    small = replace(source, repetition_rate_hz=1e5)
    segments = profile.segments(1.0)
    a = pass_tally(*segments, small, detector, e_det, mode="mc", seed=7)
    b = pass_tally(*segments, small, detector, e_det, mode="mc", seed=7)
    assert a.to_dict() == b.to_dict()
    with pytest.raises(DomainError):
        pass_tally(*segments, small, detector, e_det, mode="mc")


def test_no_route_can_take_a_noise_click_probability_of_one():
    # the routes read dark_prob as the whole noise, which RunConfig folds the background into and
    # refuses at a sum >= 1; a detector cannot hold such a value either
    with pytest.raises(DomainError, match="dark_prob must be in \\[0,1\\)"):
        DetectorModel(dark_prob=1.2)


@pytest.mark.parametrize("losses", [[20.0, math.nan], [math.inf, 30.0], [20.0, -1.0]])
def test_simulate_block_rejects_bad_segment_losses(source, detector, e_det, losses):
    with pytest.raises(DomainError, match="losses must be finite"):
        simulate_block(source, losses, detector, e_det, [1000, 1000], seed=1)


@pytest.mark.parametrize("losses, counts", [
    ([20.0, 30.0], [1000]),  # lengths differ
    ([20.0, 30.0, 40.0], [1000, -1, 5]),
])
def test_simulate_block_rejects_bad_segment_counts(source, detector, e_det, losses, counts):
    with pytest.raises(DomainError):
        simulate_block(source, losses, detector, e_det, counts, seed=1)


@pytest.mark.parametrize("n_pulses", [
    2.7,  # was drawn as 2 pulses
    1e19,  # past int64: was a raw OverflowError
    2**63,
    math.nan,  # was a raw ValueError
    math.inf,
    -5,
    [1e6, -1e6],
    [1e6, 2.5],
    [2**62, 2**62],  # each fits int64, their sum does not
], ids=["fraction", "1e19", "2**63", "nan", "inf", "negative", "negative_segment", "fractional_segment",
        "sum_past_int64"])
def test_simulate_block_rejects_a_pulse_count_that_is_not_a_whole_int64(source, detector, e_det, n_pulses):
    losses = [30.0] * len(n_pulses) if isinstance(n_pulses, list) else 30.0
    with pytest.raises(DomainError, match="n_pulses"):
        simulate_block(source, losses, detector, e_det, n_pulses, seed=1)


def test_simulate_block_takes_a_whole_float_count_as_that_many_pulses(source, detector, e_det):
    assert simulate_block(source, 30.0, detector, e_det, 1000.0, seed=1).to_dict() == \
        simulate_block(source, 30.0, detector, e_det, 1000, seed=1).to_dict()


@pytest.mark.parametrize("n_pulses", [
    -5.0,
    math.nan,  # was keyed, and failed as a decoy bound that "overflows a float"
    math.inf,  # was an uncaught RuntimeWarning
    [1e6, -1e6],  # was a tally with 0 pulses sent and 10.8 detected
], ids=["negative", "nan", "inf", "negative_segment"])
def test_analytic_tallies_rejects_a_negative_or_non_finite_pulse_count(source, detector, e_det, n_pulses):
    losses = [30.0] * len(n_pulses) if isinstance(n_pulses, list) else 30.0
    with pytest.raises(DomainError, match="n_pulses"):
        analytic_tallies(source, losses, detector, e_det, n_pulses)


def test_simulate_block_pools_segments_with_an_empty_one(source, detector, e_det):
    a = simulate_block(source, [20.0, 35.0, 50.0], detector, e_det, [70_001, 0, 29_999], seed=5)
    validate_tally(a)
    assert a.total_pulses == 100_000
    assert a.elapsed_s == 100_000 / source.repetition_rate_hz


def test_simulate_block_one_segment_array_equals_scalar(source, detector, e_det):
    scalar = simulate_block(source, 25.0, detector, e_det, 200_000, seed=3)
    array = simulate_block(source, np.array([25.0]), detector, e_det, np.array([200_000]), seed=3)
    assert array.to_dict() == scalar.to_dict()


def test_pass_tally_mc_draws_all_segments_in_one_call(source, detector, e_det, monkeypatch):
    from satqkd import protocol

    calls = []
    real = protocol.simulate_block

    def counting(*args, **kwargs):
        calls.append(args[4])  # n_pulses
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "simulate_block", counting)
    profile = sampled_pass(times_s=[0.0, 5.0], elevations_deg=[20.0, 70.0],
                           loss_model=lambda el: 60.0 - el / 2.0, min_elevation_deg=10.0)
    small = replace(source, repetition_rate_hz=1e4)
    tally = pass_tally(*profile.segments(1.0), small, detector, e_det, mode="mc", seed=2)
    assert len(calls) == 1 and list(calls[0]) == [10_000] * 5
    assert tally.total_pulses == 50_000


def test_pass_mc_zero_pulse_last_segment(source, detector, e_det, security):
    # the last step is 0.4 ms long: 0.4 pulses at 1 kHz, which round to none
    profile = sampled_pass(times_s=[0.0, 2.0004], elevations_deg=[60.0, 60.0],
                           loss_model=FixedLossModel(20.0), min_elevation_deg=10.0)
    small = replace(source, repetition_rate_hz=1e3)
    mc, tally = pass_key(*profile.segments(1.0), small, detector, e_det, security, mode="mc", seed=4)
    validate_tally(tally)
    assert tally.total_pulses == 1000 + 1000 + 0
    assert tally.counts[..., SENT].sum() == 2000
    analytic, _ = pass_key(*profile.segments(1.0), small, detector, e_det, security)
    assert math.isfinite(mc.secret_key_length) and math.isfinite(analytic.secret_key_length)
    # a pass above the minimum elevation whose only step rounds to no pulse
    short = sampled_pass(times_s=[0.0, 0.0004], elevations_deg=[60.0, 60.0],
                         loss_model=FixedLossModel(20.0), min_elevation_deg=10.0)
    mc, tally = pass_key(*short.segments(1.0), small, detector, e_det, security, mode="mc", seed=4)
    assert tally.to_dict() == ZERO_TALLY and mc.secret_key_length == 0.0
    assert "no whole pulse" in mc.reason


@pytest.mark.parametrize("step", [0.0017, 0.0014, 0.0006, 0.0003])
def test_pass_tally_mc_sends_the_rounded_total_at_a_fractional_step(source, detector, e_det, step):
    # 1.7, 1.4, 0.6 and 0.3 pulses a step at 1 kHz: rounding each step on its own sent 2, 1, 1 and 0
    profile = sampled_pass(times_s=[0.0, 10.0], elevations_deg=[60.0, 60.0],
                           loss_model=FixedLossModel(20.0), min_elevation_deg=10.0)
    small = replace(source, repetition_rate_hz=1e3)
    losses, durations = profile.segments(step)
    tally = pass_tally(losses, durations, small, detector, e_det, mode="mc", seed=3)
    validate_tally(tally)
    assert tally.total_pulses == np.rint((small.repetition_rate_hz * durations).sum()) == 10_000
    assert tally.counts[..., SENT].sum() == 10_000


def test_analytic_tallies_add_pulses_and_time_in_segment_order(source, detector, e_det):
    pulses = np.random.default_rng(3).uniform(0.0, 1e8, 500)
    tally = analytic_tallies(source, np.full(500, 30.0), detector, e_det, pulses)
    total = elapsed = 0.0
    for k in pulses.tolist():
        total, elapsed = total + k, elapsed + k / source.repetition_rate_hz
    assert (tally.total_pulses, tally.elapsed_s) == (total, elapsed)


def test_analytic_rates_rejects_nan_loss(source, detector, e_det):
    with pytest.raises(DomainError):
        analytic_tallies(source, math.nan, detector, e_det, 1e9)


@pytest.mark.parametrize("points", [2, 3])
def test_tally_to_dict_refuses_a_point_axis(source, detector, e_det, points):
    tally = analytic_tallies(source, np.linspace(30.0, 40.0, points)[:, None], detector, e_det, [1e8])
    assert tally.counts.shape == (points, 3, 2, 4)
    with pytest.raises(DomainError, match="point axis"):
        tally.to_dict()


@pytest.mark.parametrize("fn", [math.exp, math.log2, square], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("x", [
    np.array(0.7), np.array([]), np.zeros((0, 3)),
    np.array([0.5, 2.0, math.inf, math.nan, 1e-300, 700.0]),
    np.array([[0.25, 3.5, 1e-5], [math.nan, 8.0, math.inf]]),
], ids=["0-d", "empty", "empty-2d", "1-d", "2-d"])
def test_each_is_the_python_float_of_every_element(fn, x):
    listed = np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    got = each(fn, x)
    assert got.dtype == listed.dtype and got.shape == listed.shape
    assert got.tobytes() == listed.tobytes()  # bit for bit, NaN included
