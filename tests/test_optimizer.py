import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from satqkd.errors import DomainError
from satqkd.optimizer import SWEEPABLE, Axis, SearchSpace, optimize
from satqkd.protocol import key_from_fixed_loss
from satqkd.source import IntensityLabel


def run(space, source, detector, e_det, security, loss=40.0):
    return optimize(space, source, loss, detector, e_det, security, duration_s=1.0)


def test_single_point_axis_rejected():
    with pytest.raises(DomainError):
        Axis(0.3, 0.3, 1)
    with pytest.raises(DomainError):
        Axis(0.5, 0.3, 5)


@pytest.mark.parametrize("points", [math.nan, 2.5, 3.0, "3", None])
def test_axis_points_that_are_no_whole_number_rejected(points):
    # each once constructed, and optimize then raised numpy's TypeError
    with pytest.raises(DomainError, match=f"axis points must be a whole number, got {points!r}"):
        Axis(0.1, 0.5, points)


def test_axis_takes_a_numpy_integer_point_count(source, detector, e_det, security):
    spaces = [SearchSpace(axes={"mu_signal": Axis(0.1, 0.4, points)}) for points in (np.int64(4), 4)]
    numpy_count, int_count = (run(space, source, detector, e_det, security) for space in spaces)
    assert numpy_count == int_count and len(numpy_count.table["mu_signal"]) == 4


def test_unknown_parameter_rejected():
    with pytest.raises(DomainError):
        SearchSpace(axes={"detector_efficiency": Axis(0.1, 0.9, 3)})


@pytest.mark.parametrize("name,lower,upper", [
    ("mu_signal", -1.0, 1.0), ("mu_decoy", 0.0, 1.0), ("mu_signal", 0.1, math.inf), ("p_signal", 0.0, 0.5),
    ("p_decoy", -0.1, 0.5), ("basis_probability_z", 0.0, 0.5), ("basis_probability_z", 0.5, 1.0),
])
def test_axis_outside_its_parameter_domain_rejected(name, lower, upper):
    with pytest.raises(DomainError, match=f"{name} axis"):
        SearchSpace(axes={name: Axis(lower, upper, 3)})


def test_best_dominates_paper_intensity_pair(source, detector, e_det, security):
    space = SearchSpace(axes={"mu_signal": Axis(0.1, 0.5, 5), "mu_decoy": Axis(0.1, 0.5, 5)})
    result = run(space, source, detector, e_det, security)
    # the grid contains (mu_signal 0.3, mu_decoy 0.5)
    baseline = key_from_fixed_loss(source, 40.0, detector, e_det, security, 1.0)
    assert result.best_key_length >= baseline.secret_key_length - 1e-9
    assert result.best_key_length >= max(result.table["key_length_bits"])


def test_optimum_mu_signal_brackets_design_choice(source, detector, e_det, security):
    space = SearchSpace(axes={"mu_signal": Axis(0.05, 1.0, 20), "mu_decoy": Axis(0.05, 1.0, 20)})
    result = run(space, source, detector, e_det, security)
    assert 0.2 <= result.best_params["mu_signal"] <= 0.8


def test_optimize_deterministic(source, detector, e_det, security):
    space = SearchSpace(axes={"mu_signal": Axis(0.1, 0.6, 6), "mu_decoy": Axis(0.2, 0.8, 4)})
    a = run(space, source, detector, e_det, security)
    b = run(space, source, detector, e_det, security)
    assert a == b


def test_grid_refinement_never_decreases_maximum(source, detector, e_det, security):
    coarse = SearchSpace(axes={"mu_signal": Axis(0.1, 0.9, 5), "mu_decoy": Axis(0.1, 0.9, 5)})
    fine = SearchSpace(axes={"mu_signal": Axis(0.1, 0.9, 9), "mu_decoy": Axis(0.1, 0.9, 9)})
    a = run(coarse, source, detector, e_det, security)
    b = run(fine, source, detector, e_det, security)
    assert b.best_key_length >= a.best_key_length - 1e-9


def test_empty_effective_grid_raises(source, detector, e_det, security):
    # every grid point collides mu_signal == mu_decoy
    space = SearchSpace(axes={"p_signal": Axis(0.98, 0.999, 3), "p_decoy": Axis(0.5, 0.9, 3)})
    with pytest.raises(DomainError):
        run(space, source, detector, e_det, security)


def test_grid_points_whose_vacuum_sends_nothing_are_infeasible(source, detector, e_det, security):
    # p_signal + p_decoy == 1 leaves the vacuum class no pulse, which the 2-decoy bound needs;
    # such a point once failed the whole search with "no pulses sent in class vacuum"
    space = SearchSpace(axes={"p_signal": Axis(0.5, 0.75, 2), "p_decoy": Axis(0.25, 0.5, 2)})
    result = run(space, source, detector, e_det, security)
    assert result.table["p_signal"] == [0.5] and result.table["p_decoy"] == [0.25]
    assert result.table == {k: [row[k] for row in reference_grid(space, source, 40.0, detector, e_det, security)]
                            for k in result.table}
    assert result.best_key_length > 0


def test_basis_bias_axis_supported(source, detector, e_det, security):
    space = SearchSpace(axes={"basis_probability_z": Axis(0.3, 0.7, 5)})
    result = run(space, source, detector, e_det, security)
    assert len(result.table["key_length_bits"]) == 5


def reference_grid(space, base, loss, detector, e_det, security, regime="asymptotic", duration_s=1.0):
    """The grid as one one-point key per feasible combination, in itertools.product order."""
    names = [n for n in SWEEPABLE if n in space.axes]
    signal, decoy = base.intensity(IntensityLabel.SIGNAL), base.intensity(IntensityLabel.DECOY)
    defaults = dict(zip(SWEEPABLE, (signal.mu, decoy.mu, signal.emit_probability, decoy.emit_probability,
                                    base.basis_probability_z)))
    rows = []
    for combo in itertools.product(*(space.axes[n].values() for n in names)):
        params = dict(zip(names, (float(v) for v in combo)))
        mu_s, mu_d, p_s, p_d, pz = (params.get(n, defaults[n]) for n in SWEEPABLE)
        p_v = 1.0 - p_s - p_d
        if mu_s <= 0 or mu_d <= 0 or mu_s == mu_d or p_s <= 0 or p_d <= 0 or p_v <= 0 or not 0.0 < pz < 1.0:
            continue
        by_label = {IntensityLabel.SIGNAL: (mu_s, p_s), IntensityLabel.DECOY: (mu_d, p_d),
                    IntensityLabel.VACUUM: (0.0, p_v)}
        classes = tuple(replace(c, mu=by_label[c.label][0], emit_probability=by_label[c.label][1])
                        for c in base.intensity_classes)
        source = replace(base, intensity_classes=classes, basis_probability_z=pz)
        key = key_from_fixed_loss(source, loss, detector, e_det, security, duration_s, regime)
        rows.append({**params, "key_length_bits": key.secret_key_length, "key_rate_bps": key.secret_key_rate})
    return rows


@pytest.mark.parametrize("loss, regime", [(38.0, "finite"), (25.0, "asymptotic"), (70.0, "asymptotic")])
def test_grid_equals_one_point_keys_of_each_feasible_combination(source, detector, e_det, security, loss, regime):
    # equal intensities and vacuum shares below 0 make some combinations infeasible
    space = SearchSpace(axes={
        "mu_signal": Axis(0.1, 0.9, 5), "mu_decoy": Axis(0.1, 0.5, 3), "p_signal": Axis(0.3, 0.9, 4),
        "p_decoy": Axis(0.05, 0.45, 3), "basis_probability_z": Axis(0.1, 0.9, 5),
    })
    result = optimize(space, source, loss, detector, e_det, security, regime=regime, duration_s=300.0)
    reference = reference_grid(space, source, loss, detector, e_det, security, regime, 300.0)
    assert 0 < len(reference) < 5 * 3 * 4 * 3 * 5
    assert result.table == {k: [row[k] for row in reference] for k in reference[0]}
    # the first listed combination wins ties: at 70 dB every key is 0 and the first row is best
    best = max(reference, key=lambda row: row["key_length_bits"])
    assert result.best_params == {k: v for k, v in best.items() if k in space.axes}
    assert result.best_key_length == best["key_length_bits"]


def test_grid_and_sweep_make_one_key_call(source, detector, e_det, security, monkeypatch, capsys):
    from satqkd import cli, optimizer, protocol

    calls = []
    real = optimizer.key_from_fixed_loss

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "key_from_fixed_loss", counting)
    run(SearchSpace(axes={"mu_signal": Axis(0.1, 0.9, 9), "mu_decoy": Axis(0.1, 0.9, 9)}),
        source, detector, e_det, security)
    assert calls == [40.0]
    keyed = []
    real_tally_key = protocol.key_from_tally
    monkeypatch.setattr(protocol, "key_from_tally", lambda *args: keyed.append(args[1]) or real_tally_key(*args))
    assert cli.main(["keyrate", "--sweep", "20:30:0.5"]) == 0
    capsys.readouterr()
    assert [tally.counts.shape[0] for tally in keyed] == [2 * 21]  # one call: both default sources, 21 losses each
