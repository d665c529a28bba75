import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from satqkd.channel import ElevationLossModel, PassProfile, synthesize_pass, transmittance_from_db
from satqkd.config import default_source
from satqkd.errors import DomainError
from satqkd.protocol import (
    COUNTS,
    DETECTED,
    E0,
    SENT,
    SIFTED,
    SecurityParams,
    SiftedStats,
    Y1_LOST_IN_ROUNDING,
    TallyTable,
    _expected_counts,
    analytic_tallies,
    decoy_bounds,
    integrate_pass,
    key_from_fixed_loss,
    key_from_tally,
    key_length,
    simulate_block,
)
from satqkd.receiver import DetectorModel
from satqkd.source import IntensityLabel, intrinsic_qber

from conftest import MEASURED_EXTINCTION, FixedLossModel
from reference_sampler import elevation_at, enumerated_cells, reference_loss


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


def class_rates(tally):
    """{label: (gain, error rate)} of a tally: detections per pulse sent, errors per sifted detection."""
    return {label: (detected / sent, errors / sifted if sifted else E0)
            for label, (sent, detected, sifted, errors) in zip(tally.labels, tally.by_class().tolist())}


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
    per_segment = _expected_counts(source, losses, det, e_det, pulses)
    for i, (loss, n) in enumerate(zip(losses, pulses)):
        assert per_segment[i].tolist() == _expected_counts(source, loss, det, e_det, n).tolist()


def test_analytic_tallies_reject_mismatched_segments(source, detector, e_det):
    with pytest.raises(DomainError, match="equal length"):
        analytic_tallies(source, [30.0, 40.0], detector, e_det, [1e8])
    with pytest.raises(DomainError, match="equal length"):
        analytic_tallies(source, [30.0, 40.0], detector, e_det, 1e8)


def test_analytic_pass_and_fixed_loss_key_take_one_analytic_call(source, detector, e_det, security, monkeypatch):
    from satqkd import protocol

    calls = []
    for name in ("_expected_counts", "analytic_tallies"):
        def counting(*args, _real=getattr(protocol, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counting)
    integrate_pass(*synthesize_pass(60.0, 500e3).segments(1.0), source, detector, e_det, security)
    assert sorted(calls) == ["_expected_counts", "analytic_tallies"]
    calls.clear()
    key_from_fixed_loss(source, 40.0, detector, e_det, security, 1.0)
    assert calls == ["_expected_counts"]


# ---------------------------------------------------------------------------
# Monte Carlo vs analytic


def test_simulate_block_infinite_loss_no_darks(source, e_det):
    det = DetectorModel(efficiency=0.5, dark_prob=0.0)
    tally = simulate_block(source, 300.0, det, e_det, 100_000, seed=1)
    assert (tally.counts[..., DETECTED] == 0).all()


def test_simulate_block_matches_analytic(source, detector, e_det):
    n = 2_000_000
    tally = simulate_block(source, 25.0, detector, e_det, n, seed=13, shards=4)
    expected = analytic_tallies(source, 25.0, detector, e_det, n).by_class().tolist()
    for (sent, detected, sifted, errors), (m, d, s, r) in zip(tally.by_class().tolist(), expected):
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


def test_simulate_block_rejects_zero_pulses(source, detector, e_det):
    with pytest.raises(DomainError):
        simulate_block(source, 40.0, detector, e_det, 0, seed=1)


def test_simulate_deterministic_across_workers(source, detector, e_det):
    kw = dict(n_pulses=300_000, seed=21, shards=8)
    a = simulate_block(source, 30.0, detector, e_det, workers=1, **kw)
    b = simulate_block(source, 30.0, detector, e_det, workers=8, **kw)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# sifting


def test_sift_keeps_same_basis_only(source, detector, e_det):
    tally = simulate_block(source, 20.0, detector, e_det, 500_000, seed=3)
    tally.validate()
    for _, detected, n_k, m_k in tally.by_class().tolist():
        assert m_k <= n_k <= detected
        if detected > 200:
            # symmetric 50/50 bases: about half of detections survive sifting
            p = 0.5
            sigma = math.sqrt(detected * p * (1 - p))
            assert abs(n_k - detected * p) < 5 * sigma


def test_sift_zero_when_all_wrong_basis():
    # one class, signal; cell [0, 0] is its rectilinear basis
    t = TallyTable((IntensityLabel.SIGNAL,), np.zeros((1, 2, 4)), total_pulses=100, elapsed_s=1.0)
    t.counts[0, 0] = 100, 40, 0, 0
    t.validate()
    _, _, sifted, errors = t.by_class()[0]
    assert (sifted, errors) == (0, 0)


@pytest.mark.parametrize("pz_r", [0.9, 0.3])
def test_analytic_sifts_each_sender_basis_with_the_receivers_probability_of_it(source, e_det, pz_r):
    # the receiver measures in Z with pz_r whatever the sender sent: a Z cell's detections are
    # sifted with pz_r and an X cell's with 1 - pz_r, also when the sender's p_Z differs
    det = DetectorModel(basis_probability_z=pz_r)
    counts = _expected_counts(replace(source, basis_probability_z=0.9), np.array([0.0, 20.0, 40.0]), det,
                              e_det, 1e9)
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
    lit = [k for k, c in enumerate(src.intensity_classes) if c.label is not IntensityLabel.VACUUM]
    for cell, means in zip(drawn[lit].reshape(-1, 4).tolist(), expected[lit].reshape(-1, 4).tolist()):
        # each count is binomial in the one before it: detected in sent, sifted in detected, ...
        for trials, count, p in zip(cell, cell[1:], np.divide(means[1:], means[:-1]).tolist()):
            assert abs(count - trials * p) < 5 * math.sqrt(trials * p * (1 - p)), (cell, means)


def test_tally_validate_rejects_inconsistent():
    t = TallyTable((IntensityLabel.SIGNAL,), np.zeros((1, 2, 4)), total_pulses=10, elapsed_s=1.0)
    t.counts[0, 0] = 10, 5, 6, 0
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


def source_with_mus(mu_signal, mu_decoy):
    base = default_source()
    mus = {IntensityLabel.SIGNAL: mu_signal, IntensityLabel.DECOY: mu_decoy, IntensityLabel.VACUUM: 0.0}
    return replace(base, intensity_classes=tuple(replace(c, mu=mus[c.label]) for c in base.intensity_classes))


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
    """The bounds never pass the photon-number-resolved truth, for near-equal intensities too."""
    det = DetectorModel(dark_prob=dark_prob + background)  # background light clicks as darks do
    b = key_from_fixed_loss(source_with_mus(*mus), loss_db, det, ed, SecurityParams(), 1.0).bounds
    eta = 10.0 ** (-loss_db / 10.0) * det.efficiency
    y0 = 1.0 - (1.0 - dark_prob - background) ** 4
    y1_true, e1_true = true_single_photon(eta, y0, ed)
    assert b.y1_lower <= y1_true
    if not b.degenerate:
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
    assert result.secret_key_length == 0.0 and result.bounds.degenerate
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
    result = key_length(stats, bounds_for(1e-3, 1e-6, 0.0), security)
    assert result.secret_key_length == result.secret_key_rate == 0.0
    assert result.qber_signal == pytest.approx(0.6)
    assert result.reason == "signal QBER above 0.5"


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
    mu_s, mu_d, p_s, p_d, p_z = (np.array(column) for column in zip(*(params for params, _ in points)))
    by_label = {IntensityLabel.SIGNAL: (mu_s, p_s), IntensityLabel.DECOY: (mu_d, p_d),
                IntensityLabel.VACUUM: (np.zeros_like(mu_s), 1.0 - p_s - p_d)}
    mus, emit = (np.array([by_label[c.label][j] for c in base.intensity_classes]) for j in (0, 1))
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


def test_key_length_rejects_non_finite_statistics(security):
    bounds = bounds_for(1e-3, 1e-6, 0.01)
    stats = make_stats(1e-3, 1e-6, 0.01, 1e9)
    for bad in (replace(stats, n_signal=math.nan), replace(stats, errors_signal=math.nan)):
        with pytest.raises(DomainError, match="not finite"):
            key_length(bad, bounds, security)
    # one bad point fails the whole batch
    batch = replace(stats, n_signal=np.array([stats.n_signal, math.nan]))
    with pytest.raises(DomainError, match="not finite"):
        key_length(batch, bounds, security, "finite")


def test_decoy_bounds_reject_intensity_whose_exp_overflows():
    with pytest.raises(DomainError, match="no finite decoy bound"):
        decoy_bounds(800.0, 0.3, 1.0, 1e-3, 0.0, 1e-3, 1e-5)


def test_key_length_degenerate_bounds_zero_with_reason(security):
    from satqkd.protocol import Y1_ZERO, DecoyBounds

    stats = make_stats(1e-3, 1e-6, 0.01, 1e9)
    degenerate = DecoyBounds(y1_lower=0.0, e1_upper=None, y0_estimate=1e-6, reason=Y1_ZERO)
    result = key_length(stats, degenerate, security)
    assert result.secret_key_length == 0.0
    assert "degenerate" in result.reason


# ---------------------------------------------------------------------------
# pass integration


# the tally of a pass that sends no pulse lists every cell of the default source at zero
ZERO_TALLY = {
    "total_pulses": 0.0,
    "elapsed_s": 0.0,
    "cells": {f"{label}/{basis}": dict.fromkeys(COUNTS, 0.0)
              for label in ("decoy", "signal", "vacuum") for basis in ("X", "Z")},
}


def test_integrate_pass_below_min_elevation(source, detector, e_det, security):
    profile = PassProfile(
        times_s=[0.0, 60.0, 120.0],
        elevations_deg=[3.0, 5.0, 3.0],
        loss_model=FixedLossModel(40.0),
        min_elevation_deg=10.0,
    )
    result, tally = integrate_pass(*profile.segments(1.0), source, detector, e_det, security)
    assert result.secret_key_length == 0.0
    assert tally.to_dict() == ZERO_TALLY
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
        *profile.segments(1.0), source, detector, e_det, security, regime="asymptotic"
    )
    direct = key_from_fixed_loss(source, 38.0, detector, e_det, security, duration, "asymptotic")
    assert from_pass.secret_key_length == pytest.approx(direct.secret_key_length, rel=1e-9)


def test_integrate_pass_pooling_beats_per_segment_keys(source, detector, e_det, security):
    from satqkd.channel import synthesize_pass

    profile = synthesize_pass(90.0, 500e3, min_elevation_deg=10.0, step_s=1.0)
    pooled, _ = integrate_pass(*profile.segments(1.0), source, detector, e_det, security, regime="finite")
    # split the pass into 30 s slices keyed independently
    per_segment = 0.0
    t = profile.times_s[0]
    while t < profile.times_s[-1]:
        end = min(t + 30.0, profile.times_s[-1])
        sliced = PassProfile(
            times_s=[t, end],
            elevations_deg=[elevation_at(profile, t), elevation_at(profile, end)],
            loss_model=profile.loss_model,
            min_elevation_deg=profile.min_elevation_deg,
        )
        seg, _ = integrate_pass(*sliced.segments(1.0), source, detector, e_det, security, regime="finite")
        per_segment += seg.secret_key_length
        t = end
    assert pooled.secret_key_length >= per_segment


def per_step_segments(profile, step_s, excess_loss_db, loss):
    """(losses, durations) of a pass walked with one elevation_at and one loss call per step."""
    losses, durations = [], []
    t = profile.times_s[0]
    while t < profile.times_s[-1]:
        dt = min(step_s, profile.times_s[-1] - t)
        el = elevation_at(profile, t + dt / 2.0)
        if el is not None and el >= profile.min_elevation_deg:
            losses.append(loss(el) + excess_loss_db)
            durations.append(dt)
        t += dt
    return losses, durations


@pytest.mark.parametrize("step", [1.0, 0.7, 13.0, 0.01])
def test_pass_segments_interpolate_as_one_call_per_step(step):
    # the exactness oracle of a whole pass: clock, midpoints and every loss against scalar math
    model = ElevationLossModel(altitude_m=600e3, zenith_atmospheric_db=0.7, receiver_diameter_m=0.8)
    dipping = PassProfile(times_s=[0.0, 3.3, 10.1, 11.0], elevations_deg=[5.0, 40.0, 9.0, 12.0],
                          loss_model=lambda el: 60.0 - el / 2.0, min_elevation_deg=10.0)
    for profile, loss in ((synthesize_pass(75.0, 600e3, loss_model=model), lambda el: reference_loss(model, el)),
                          (dipping, dipping.loss_model)):
        losses, durations = profile.segments(step, 1.5)
        assert (losses.tolist(), durations.tolist()) == per_step_segments(profile, step, 1.5, loss)


def test_integrate_pass_mc_mode_deterministic(source, detector, e_det, security):
    profile = PassProfile(
        times_s=[0.0, 2.0],
        elevations_deg=[60.0, 60.0],
        loss_model=FixedLossModel(42.0),
        min_elevation_deg=10.0,
    )
    small = replace(source, repetition_rate_hz=1e5)
    segments = profile.segments(1.0)
    a, ta = integrate_pass(*segments, small, detector, e_det, security, mode="mc", seed=7)
    b, tb = integrate_pass(*segments, small, detector, e_det, security, mode="mc", seed=7)
    assert ta.to_dict() == tb.to_dict()
    with pytest.raises(DomainError):
        integrate_pass(*segments, small, detector, e_det, security, mode="mc")


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
    ([20.0, 30.0], [0, 0]),
])
def test_simulate_block_rejects_bad_segment_counts(source, detector, e_det, losses, counts):
    with pytest.raises(DomainError):
        simulate_block(source, losses, detector, e_det, counts, seed=1)


def test_simulate_block_segments_split_across_shards(source, detector, e_det):
    kw = dict(total_loss_db=[20.0, 35.0, 50.0], n_pulses=[70_001, 0, 29_999], seed=5, shards=3)
    a = simulate_block(source, det=detector, e_det=e_det, workers=1, **kw)
    b = simulate_block(source, det=detector, e_det=e_det, workers=3, **kw)
    assert a.to_dict() == b.to_dict()
    a.validate()
    assert a.total_pulses == 100_000
    assert a.elapsed_s == 100_000 / source.repetition_rate_hz


def test_simulate_block_one_segment_array_equals_scalar(source, detector, e_det):
    scalar = simulate_block(source, 25.0, detector, e_det, 200_000, seed=3, shards=2)
    array = simulate_block(source, np.array([25.0]), detector, e_det, np.array([200_000]), seed=3, shards=2)
    assert array.to_dict() == scalar.to_dict()


def test_integrate_pass_mc_draws_all_segments_in_one_call(source, detector, e_det, security, monkeypatch):
    from satqkd import protocol

    calls = []
    real = protocol.simulate_block

    def counting(*args, **kwargs):
        calls.append(args[4])  # n_pulses
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "simulate_block", counting)
    profile = PassProfile(times_s=[0.0, 5.0], elevations_deg=[20.0, 70.0],
                          loss_model=lambda el: 60.0 - el / 2.0, min_elevation_deg=10.0)
    small = replace(source, repetition_rate_hz=1e4)
    _, tally = integrate_pass(*profile.segments(1.0), small, detector, e_det, security, mode="mc", seed=2)
    assert len(calls) == 1 and list(calls[0]) == [10_000] * 5
    assert tally.total_pulses == 50_000


def test_integrate_pass_mc_zero_pulse_last_segment(source, detector, e_det, security):
    # the last step is 0.4 ms long: 0.4 pulses at 1 kHz, which round to none
    profile = PassProfile(times_s=[0.0, 2.0004], elevations_deg=[60.0, 60.0],
                          loss_model=FixedLossModel(20.0), min_elevation_deg=10.0)
    small = replace(source, repetition_rate_hz=1e3)
    mc, tally = integrate_pass(*profile.segments(1.0), small, detector, e_det, security, mode="mc", seed=4)
    tally.validate()
    assert tally.total_pulses == 1000 + 1000 + 0
    assert tally.counts[..., SENT].sum() == 2000
    analytic, _ = integrate_pass(*profile.segments(1.0), small, detector, e_det, security)
    assert math.isfinite(mc.secret_key_length) and math.isfinite(analytic.secret_key_length)
    # a pass above the minimum elevation whose only step rounds to no pulse
    short = PassProfile(times_s=[0.0, 0.0004], elevations_deg=[60.0, 60.0],
                        loss_model=FixedLossModel(20.0), min_elevation_deg=10.0)
    mc, tally = integrate_pass(*short.segments(1.0), small, detector, e_det, security, mode="mc", seed=4)
    assert tally.to_dict() == ZERO_TALLY and mc.secret_key_length == 0.0
    assert "no whole pulse" in mc.reason


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
