"""The stdout of every keying and analyze command, byte for byte, against reports recorded before the commands keyed
their sources as one batch, or, for the analyze commands, before one series and one peak estimate served both.

data/golden_reports.json maps each case of CASES to the exact stdout it printed then. The runs cover
`simulate`, `pass` (analytic and mc, both regimes), `keyrate` and `optimize` on configs/default.yaml and on
conftest's two distinct sources, plus a pass whose second source sends no whole pulse and a CSV pass that never
rises above the minimum elevation. The `analyze-histogram` runs read a clean pulse and one with a second peak,
which warns; the `analyze-spectrum` runs read one spectrum without a band and against a band it falls in and one
it misses, and a spectrum of two lines, which warns. Each case writes the CSV it reads itself. The 11 cases of a synthesized pass were re-recorded when it
became its closed-form elevation, walked over its exact rise-to-set window rather than over a grid of whole
samples, and the 4 `optimize` cases when the report named the source it searches. The two
`report-distinguishability` cases audit configs/default.yaml and the README's drift study (H, V, D and A
drifting at 0.03, 0.05, 0.07 and 0.09 nm/degC, at 30 degC); they were recorded once as they stood and again when
the filtered spectral overlap became a closed form, which moved its spectral overlaps and scores by up to 1e-6.

To record the file again, when a report is meant to change, run from the repository root:

    PYTHONPATH=src:tests python tests/test_golden_reports.py [NAME...]

which records the named cases, or every case when no name is given, and keeps the other reports as they are."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml

from satqkd.cli import main
from satqkd.config import to_dict

from conftest import two_source_run_config

GOLDEN = Path(__file__).with_name("data") / "golden_reports.json"
PASS_CHANNEL = {"mode": "pass", "pass": {"max_elevation_deg": 60.0}}  # a 60-degree pass at 500 km
LOW_PASS_CSV = "time_s,elevation_deg\n0,3\n60,5\n120,3\n"  # below the default 10-degree minimum throughout
DRIFT_NM_PER_C = (0.03, 0.05, 0.07, 0.09)  # temperature coefficients of the H, V, D and A diodes


def _peaks_csv(header: str, xs, peaks, baseline: float) -> str:
    """A CSV of Gaussian peaks (amplitude, center, fwhm) over baseline, with a 1% ripple for noise.

    Every value is rounded to 4 decimals, so the text is the same wherever exp and sin round differently.
    """
    rows = []
    for i, x in enumerate(xs):
        y = sum(a * math.exp(-4.0 * math.log(2.0) * ((x - c) / w) ** 2) for a, c, w in peaks)
        rows.append(f"{x:g},{(y + baseline) * (1.0 + 0.01 * math.sin(1.7 * i)):.4f}\n")
    return header + "\n" + "".join(rows)


# CSV name -> its text; an analyze case names the CSV it reads
SERIES_CSVS = {
    "pulse.csv": _peaks_csv("time_ps,counts", range(0, 4000, 8), [(1000.0, 2000.0, 500.0)], 20.0),
    "two_pulses.csv": _peaks_csv("time_ps,counts", range(0, 4000, 8),
                                 [(1000.0, 1200.0, 240.0), (700.0, 2800.0, 240.0)], 20.0),
    "spectrum.csv": _peaks_csv("wavelength_nm,intensity", [770.0 + 0.05 * i for i in range(301)],
                               [(100.0, 777.6, 0.8)], 2.0),
    "two_lines.csv": _peaks_csv("wavelength_nm,intensity", [770.0 + 0.05 * i for i in range(301)],
                                [(100.0, 776.0, 0.6), (80.0, 780.5, 0.6)], 2.0),
}
WARNS = {"analyze-histogram/two_pulses", "analyze-spectrum/two_lines"}  # a second peak above half the first


@functools.cache
def configs() -> dict:
    """Config name -> the run-config data the cases read."""
    default = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "default.yaml").read_text())
    two = to_dict(two_source_run_config(2_000_000))
    slow = copy.deepcopy(two)
    slow["sources"][1]["repetition_rate_hz"] = 1e-4  # 0.04 pulses over the pass: the MC rounds it to none
    drift = copy.deepcopy(default)  # the README's drift study: H, V, D and A drift at distinct rates
    for src in drift["sources"]:
        for diode, k in zip(src["diode_profiles"], DRIFT_NM_PER_C):
            diode["temp_coefficient_nm_per_c"] = k
    return {"default": default, "two_sources": two, "drift": drift,
            "default_pass": dict(default, channel=PASS_CHANNEL), "two_sources_pass": dict(two, channel=PASS_CHANNEL),
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
    cases["report-distinguishability/default"] = ("default", ["report-distinguishability"])
    cases["report-distinguishability/drift_30degC"] = ("drift", ["report-distinguishability", "--temp", "30"])
    cases["analyze-histogram/pulse"] = ("pulse.csv", ["analyze-histogram"])
    cases["analyze-histogram/two_pulses"] = ("two_pulses.csv", ["analyze-histogram"])
    cases["analyze-spectrum/no_band"] = ("spectrum.csv", ["analyze-spectrum"])
    cases["analyze-spectrum/in_band"] = ("spectrum.csv", ["analyze-spectrum", "--band-center", "777.5",
                                                          "--band-halfwidth", "2.5"])
    cases["analyze-spectrum/out_of_band"] = ("spectrum.csv", ["analyze-spectrum", "--band-center", "781",
                                                              "--band-halfwidth", "0.5"])
    cases["analyze-spectrum/two_lines"] = ("two_lines.csv", ["analyze-spectrum"])
    return cases


CASES = _cases()


def run_case(name: str, directory: Path) -> tuple[str, str]:
    """The (stdout, stderr) of case name, run in-process in directory on the config or CSV it writes there.

    Every warning is let through, so the command reports it on stderr as it does by default.
    """
    config, argv = CASES[name]
    if config in SERIES_CSVS:  # the report prints the path it reads, so the case reads it from the working directory
        (directory / config).write_text(SERIES_CSVS[config])
        argv = [*argv, config]
    else:
        data = copy.deepcopy(configs()[config])
        spec = data["channel"].get("pass", {})
        if "csv_path" in spec:  # the CSV goes next to the config, which names its path
            spec["csv_path"] = str(directory / spec["csv_path"])
            Path(spec["csv_path"]).write_text(LOW_PASS_CSV)
        path = directory / f"{config}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        argv = [*argv, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, name
    return out.getvalue(), err.getvalue()


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_golden_report():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_the_golden_report(name, tmp_path):
    out, err = run_case(name, tmp_path)
    assert out == golden()[name]
    # only a series with a second peak warns, in one JSON line on stderr
    assert [json.loads(line)["warning"] for line in err.splitlines()] == (["UserWarning"] if name in WARNS else [])


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    reports = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {}
    with tempfile.TemporaryDirectory() as scratch:
        reports.update({name: run_case(name, Path(scratch))[0] for name in names})
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(names)} of {len(reports)} reports in {GOLDEN}", file=sys.stderr)
