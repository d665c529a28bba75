"""The analytic route reproduces results recorded from satqkd before its tally became one array.

data/analytic_pins.json holds, from the version whose tally was a dict of
per-(class, basis) cells and whose analytic pass looped over its segments:
the tally and key of two analytic passes (one with background light and
excess loss), a keyrate sweep and an optimize best. Two keyrate rates were
re-recorded when the fixed-loss key began to read its bounds' gains and
error rates from the expected counts: they moved by 1.0e-15 and 1.0e-14
relative. The two passes were re-recorded when a synthesized pass became
its closed-form elevation, walked over its exact rise-to-set window rather
than over a grid of whole samples. Python floats survive a JSON round trip
exactly, so every number is compared with ==.
"""

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

from satqkd.channel import synthesize_pass
from satqkd.cli import main
from satqkd.config import default_run_config

from conftest import pass_key

PINS = Path(__file__).with_name("data") / "analytic_pins.json"

# culmination deg, regime, excess loss dB, background click probability
PASSES = {
    "pass_60deg_finite": (60.0, "finite", 0.0, 0.0),
    "pass_90deg_background_asymptotic": (90.0, "asymptotic", 1.0, 5e-7),
}
CLI_RUNS = {
    "keyrate": ["keyrate", "--sweep", "20:60:2", "--regime", "finite", "--duration", "100"],
    "optimize": ["optimize", "--loss-db", "38", "--mu-points", "7"],
}


def _cli(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def analytic_results() -> dict:
    cfg = default_run_config()
    src = cfg.sources[0]
    results = {}
    for name, (culmination, regime, excess, background) in PASSES.items():
        profile = synthesize_pass(culmination, 500e3, min_elevation_deg=10.0)
        receiver = replace(cfg, channel=replace(cfg.channel, background_click_prob=background)).receiver
        key, tally = pass_key(
            *profile.segments(1.0, excess), src, receiver, cfg.e_det(src), cfg.security, regime=regime,
        )
        results[name] = {"key": key.to_dict(), "tally": tally.to_dict()}
    results["keyrate"] = _cli(CLI_RUNS["keyrate"])["rows"]
    opt = _cli(CLI_RUNS["optimize"])
    results["optimize"] = {k: opt[k] for k in ("best_params", "best_key_length_bits", "grid_points")}
    return json.loads(json.dumps(results))


def test_analytic_route_reproduces_pinned_results():
    pinned = json.loads(PINS.read_text())
    assert analytic_results() == pinned
