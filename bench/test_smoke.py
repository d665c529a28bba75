"""Smoke test of the benchmark harness: tiny ops, every check live.

Run with ``python -m pytest -q bench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_all_workloads_smoke(trace, section):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--size", "smoke",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected, name


@pytest.mark.parametrize("loss_db", [20.0, 35.0, 40.0, 45.0])
def test_oracle_matches_analytic_route(loss_db):
    """The checks' independent model agrees with satqkd's closed-form route."""
    from satqkd.config import load_run_config
    from satqkd.protocol import analytic_tallies, key_from_fixed_loss

    cfg = yaml.safe_load((ROOT / "configs" / "default.yaml").read_text())
    run_cfg = load_run_config(ROOT / "configs" / "default.yaml")
    src, run_src = cfg["sources"][0], run_cfg.sources[0]
    n = src["repetition_rate_hz"]
    args = (run_src, loss_db, run_cfg.detector, run_cfg.e_det(run_src))
    expected = oracle.expected_cells(cfg, src, loss_db, n)
    for name, cell in analytic_tallies(*args, n).to_dict()["cells"].items():
        assert cell == pytest.approx(expected[name], rel=1e-12)
    key = key_from_fixed_loss(*args, run_cfg.security, duration_s=1.0)
    assert oracle.asymptotic_key(cfg, src, {"cells": expected}) == pytest.approx(
        key.secret_key_length, rel=1e-9, abs=1e-9)
