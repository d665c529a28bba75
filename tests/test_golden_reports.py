"""The stdout of every keying command, byte for byte, against reports recorded before the commands keyed
their sources as one batch.

data/golden_reports.json maps each case of CASES to the exact stdout it printed then. The runs cover
`simulate`, `pass` (analytic and mc, both regimes), `keyrate` and `optimize` on configs/default.yaml and on
conftest's two distinct sources, plus a pass whose second source sends no whole pulse and a CSV pass that never
rises above the minimum elevation. `optimize` has since
named the source it searches; that one field is the only change allowed. The 11 cases of a synthesized pass
were re-recorded when it became its closed-form elevation, walked over its exact rise-to-set window rather than
over a grid of whole samples.

To record the file again, when a report is meant to change, run from the repository root:

    PYTHONPATH=src:tests python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from satqkd.cli import main
from satqkd.config import to_dict

from conftest import two_source_run_config

GOLDEN = Path(__file__).with_name("data") / "golden_reports.json"
PASS_CHANNEL = {"mode": "pass", "pass": {"max_elevation_deg": 60.0}}  # a 60-degree pass at 500 km
LOW_PASS_CSV = "time_s,elevation_deg\n0,3\n60,5\n120,3\n"  # below the default 10-degree minimum throughout


@functools.cache
def configs() -> dict:
    """Config name -> the run-config data the cases read."""
    default = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "default.yaml").read_text())
    two = to_dict(two_source_run_config(2_000_000))
    slow = copy.deepcopy(two)
    slow["sources"][1]["repetition_rate_hz"] = 1e-4  # 0.04 pulses over the pass: the MC rounds it to none
    return {"default": default, "two_sources": two, "default_pass": dict(default, channel=PASS_CHANNEL),
            "two_sources_pass": dict(two, channel=PASS_CHANNEL),
            "slow_second_source_pass": dict(slow, channel=PASS_CHANNEL),
            "low_csv_pass": dict(default, channel={"mode": "pass", "pass": {"csv_path": "low_pass.csv"}})}


def _cases() -> dict:
    cases = {}
    for name in ("default", "two_sources"):
        cases[f"simulate/{name}/finite"] = (name, ["simulate", "--seed", "3"])
        cases[f"simulate/{name}/finite/25dB"] = (name, ["simulate", "--seed", "7", "--loss-db", "25"])
        cases[f"simulate/{name}/asymptotic"] = (name, ["simulate", "--regime", "asymptotic", "--loss-db", "30",
                                                       "--seed", "11"])
        cases[f"keyrate/{name}/asymptotic"] = (name, ["keyrate", "--sweep", "0:60:0.5"])
        cases[f"keyrate/{name}/finite"] = (name, ["keyrate", "--sweep", "0:60:0.5", "--regime", "finite",
                                                  "--duration", "100"])
        cases[f"optimize/{name}/asymptotic"] = (name, ["optimize", "--loss-db", "38", "--mu-points", "12"])
        cases[f"optimize/{name}/finite"] = (name, ["optimize", "--loss-db", "36", "--regime", "finite",
                                                   "--duration", "300", "--mu-points", "7"])
        for regime in ("finite", "asymptotic"):
            cases[f"pass/{name}/analytic/{regime}"] = (f"{name}_pass", ["pass", "--regime", regime])
            cases[f"pass/{name}/mc/{regime}"] = (f"{name}_pass", ["pass", "--mode", "mc", "--seed", "3",
                                                                  "--regime", regime])
    cases["pass/two_sources/mc/finite/step_0.7"] = ("two_sources_pass", ["pass", "--mode", "mc", "--seed", "8",
                                                                         "--step", "0.7"])
    cases["pass/slow_second_source/analytic/finite"] = ("slow_second_source_pass", ["pass"])
    cases["pass/slow_second_source/mc/finite"] = ("slow_second_source_pass", ["pass", "--mode", "mc", "--seed", "3"])
    cases["pass/low_csv/analytic/finite"] = ("low_csv_pass", ["pass"])
    cases["pass/low_csv/mc/finite"] = ("low_csv_pass", ["pass", "--mode", "mc", "--seed", "3"])
    return cases


CASES = _cases()


def stdout_of(name: str, directory: Path) -> str:
    """The stdout of case name, run in-process on its config written under directory."""
    config, argv = CASES[name]
    data = copy.deepcopy(configs()[config])
    spec = data["channel"].get("pass", {})
    if "csv_path" in spec:  # the CSV goes next to the config, which names its path
        spec["csv_path"] = str(directory / spec["csv_path"])
        Path(spec["csv_path"]).write_text(LOW_PASS_CSV)
    path = directory / f"{config}.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--config", str(path)])
    assert code == 0, name
    return out.getvalue()


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_golden_report():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_the_golden_report(name, tmp_path):
    expected = golden()[name]
    config, argv = CASES[name]
    if argv[0] == "optimize":  # the report names the source it searches: the first
        label = configs()[config]["sources"][0]["wavelength_label_nm"]
        expected = json.dumps(dict(json.loads(expected), wavelength_nm=label), indent=2, sort_keys=True) + "\n"
    assert stdout_of(name, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        reports = {name: stdout_of(name, Path(scratch)) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reports)} reports in {GOLDEN}", file=sys.stderr)
