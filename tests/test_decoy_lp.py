"""The closed-form decoy bounds against the LP oracle of tests/decoy_lp.py.

No yields that agree with a tally's counts may have a Y_1 below the bound's
y1_lower or an e_1 above its e1_upper, on either route to the tally.
"""

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from satqkd.config import default_source
from satqkd.protocol import (E0, LABELS, SecurityParams, analytic_tallies, key_from_fixed_loss, key_from_tally,
                             simulate_block)
from satqkd.receiver import DetectorModel
from satqkd.source import IntensityLabel

from conftest import by_class, degenerate, source_with_mus
from decoy_lp import lp_bounds


def tally_lp(source, tally):
    """lp_bounds of a tally's classes, from the gains and error gains that key_from_tally gives decoy_bounds.

    decoy_bounds reads the vacuum's detections as random bits, an error gain
    of E0 times its gain, so that is the vacuum's row here.
    """
    rows = by_class(tally).tolist()
    gains = [detected / sent for sent, detected, _, _ in rows]
    error_gains = [(errors / sifted if sifted else E0) * gain for (_, _, sifted, errors), gain in zip(rows, gains)]
    vacuum = LABELS.index(IntensityLabel.VACUUM)
    error_gains[vacuum] = E0 * gains[vacuum]
    return lp_bounds([source.intensity(label).mu for label in LABELS], gains, error_gains)


@pytest.mark.parametrize("loss_db", [20.0, 30.0, 40.0, 45.0])
def test_lp_meets_the_y1_bound_and_sits_just_below_the_e1_bound(loss_db):
    # the oracle has power: the closed form is tight for Y1, and its e1 bound is 1-2 % above the LP's
    source, det, e_det = default_source(), DetectorModel(), 0.008
    bounds = key_from_fixed_loss(source, loss_db, det, e_det, SecurityParams(), 1.0).bounds
    (y1_min, y1_error), (e1_max, e1_error) = tally_lp(source, analytic_tallies(source, loss_db, det, e_det, 1.0))
    assert abs(bounds.y1_lower - y1_min) <= y1_error < 1e-8 * y1_min
    assert e1_max + e1_error < bounds.e1_upper < 1.03 * e1_max


@st.composite
def separated_mus(draw):
    """Two intensities in [0.01, 1], either independent or 1e-3 to 1e-1 apart (relative), either order.

    Closer intensities give near-parallel rows, along which the solver's
    feasibility tolerance moves the LP's optimum by far more than its
    first-order error: at 1.6e-8 apart the maximum of W_1 / Y_1 came out
    15 % high, at a Y_1 the rows allow only within that tolerance.
    """
    mu_a = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        mu_b = draw(st.floats(0.01, 1.0))
    else:
        mu_b = mu_a * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, -1.0)))
    assume(0.01 <= mu_b <= 1.0 and abs(mu_a - mu_b) >= 1e-3 * max(mu_a, mu_b))
    return mu_a, mu_b


@settings(max_examples=200, deadline=None)
@given(
    mus=separated_mus(),
    loss_db=st.floats(0.0, 70.0),
    dark_prob=st.one_of(st.just(0.0), st.floats(1e-9, 1e-5)),
    background=st.one_of(st.just(0.0), st.floats(1e-9, 1e-5)),
    ed=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_decoy_bounds_hold_every_yield_the_counts_allow_on_both_routes(mus, loss_db, dark_prob, background, ed,
                                                                        seed):
    source = source_with_mus(*mus)
    det = DetectorModel(dark_prob=dark_prob + background)
    tallies = {
        "analytic": analytic_tallies(source, loss_db, det, ed, 1.0),
        # 1e12 pulses cost a draw no more than a few: the counts sit near their means, so the LP is mostly feasible
        "mc": simulate_block(source, loss_db, det, ed, 10**12, seed=seed),
    }
    for route, tally in tallies.items():
        bounds = key_from_tally(source, tally, SecurityParams(), "asymptotic").bounds
        if degenerate(bounds):
            event(f"{route}: degenerate bounds")
            continue
        lp = tally_lp(source, tally)
        # the analytic counts are those of real yields; the MC's may fall outside what any yields give
        assert lp is not None or route == "mc"
        if lp is None:
            event("mc: no yields give these counts")
            continue
        # each tolerance is the LP's own error: the Poisson tail past n_max plus the solver's tolerance
        (y1_min, y1_error), (e1_max, e1_error) = lp
        assert bounds.y1_lower <= y1_min + y1_error, route
        assert bounds.e1_upper >= e1_max - e1_error, route
