import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import satqkd
from satqkd import config
from satqkd.cli import main
from satqkd.config import (
    default_run_config,
    load_run_config,
    parse_run_config,
    to_dict,
)
from satqkd.errors import ConfigError
from satqkd.source import IntensityLabel

from conftest import save_run_config


@pytest.fixture
def config_path(tmp_path):
    cfg = default_run_config()
    cfg.sources = cfg.sources[:1]
    cfg.block_pulses = 200_000
    cfg.shards = 8
    path = tmp_path / "run.yaml"
    save_run_config(cfg, path)
    return path


def test_round_trip_is_semantically_identical(tmp_path):
    cfg = default_run_config()
    path = tmp_path / "cfg.yaml"
    save_run_config(cfg, path)
    reloaded = load_run_config(path)
    assert to_dict(reloaded) == to_dict(cfg)


def test_default_yaml_is_the_default_run_config():
    loaded = load_run_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    assert loaded == default_run_config()
    assert to_dict(loaded) == to_dict(default_run_config())


def test_unknown_key_rejected(tmp_path, config_path):
    data = yaml.safe_load(config_path.read_text())
    data["detector"]["effciency"] = 0.4  # typo
    with pytest.raises(ConfigError, match="effciency"):
        parse_run_config(data)


def test_unknown_top_level_key_rejected(config_path):
    data = yaml.safe_load(config_path.read_text())
    data["repetition_rate"] = 1e8
    with pytest.raises(ConfigError):
        parse_run_config(data)


def test_nested_invariants_rechecked_on_load(config_path):
    data = yaml.safe_load(config_path.read_text())
    data["sources"][0]["repetition_rate_hz"] = 500e6  # above the 200 MHz driver limit
    with pytest.raises(ConfigError, match="repetition_rate"):
        parse_run_config(data)


def test_emit_probabilities_must_sum_to_one(config_path):
    data = yaml.safe_load(config_path.read_text())
    data["sources"][0]["intensity_classes"][0]["emit_probability"] = 0.9
    with pytest.raises(ConfigError):
        parse_run_config(data)


def test_pass_mode_config_synthesizes_profile(config_path):
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {
        "mode": "pass",
        "pass": {"max_elevation_deg": 90.0, "orbit_altitude_m": 500e3, "min_elevation_deg": 10.0},
    }
    cfg = parse_run_config(data)
    assert cfg.channel.pass_profile is not None
    assert 4 * 60 <= cfg.channel.pass_profile.duration_s <= 12 * 60


def pass_mode_data(config_path) -> dict:
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"max_elevation_deg": 60.0, "step_s": 2.0}}
    return data


def test_pass_mode_round_trip_lists_every_pass_field(tmp_path, config_path):
    data = pass_mode_data(config_path)
    cfg = parse_run_config(data)
    path = tmp_path / "pass.yaml"
    save_run_config(cfg, path)
    reloaded = load_run_config(path)
    assert reloaded == cfg and to_dict(reloaded) == to_dict(cfg)
    assert to_dict(cfg)["channel"]["pass"] == {
        "max_elevation_deg": 60.0, "orbit_altitude_m": 500e3, "min_elevation_deg": 10.0,
        "step_s": 2.0, "zenith_atmospheric_db": 1.0, "receiver_diameter_m": 1.0,
    }
    np.testing.assert_array_equal(reloaded.channel.pass_profile.times_s, cfg.channel.pass_profile.times_s)


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_keyrate_sweep_monotone(capsys, config_path):
    code, out, _ = run_cli(capsys, "keyrate", "--config", str(config_path), "--sweep", "0:60:1")
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert len(rows) == 61
    rates = [r["key_rate_bps"] for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_cli_simulate_deterministic(capsys, config_path):
    code_a, out_a, _ = run_cli(capsys, "simulate", "--config", str(config_path), "--seed", "5")
    code_b, out_b, _ = run_cli(capsys, "simulate", "--config", str(config_path), "--seed", "5")
    assert code_a == code_b == 0
    tally_a = json.loads(out_a)["sources"][0]["tally"]
    tally_b = json.loads(out_b)["sources"][0]["tally"]
    assert json.dumps(tally_a, sort_keys=True) == json.dumps(tally_b, sort_keys=True)


def test_cli_simulate_different_seed_differs(capsys, config_path):
    _, out_a, _ = run_cli(capsys, "simulate", "--config", str(config_path), "--seed", "5")
    _, out_b, _ = run_cli(capsys, "simulate", "--config", str(config_path), "--seed", "6")
    assert json.loads(out_a)["sources"][0]["tally"] != json.loads(out_b)["sources"][0]["tally"]


def test_cli_pass_command(capsys, config_path, tmp_path):
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {
        "mode": "pass",
        "pass": {"max_elevation_deg": 90.0, "orbit_altitude_m": 500e3},
    }
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, _ = run_cli(capsys, "pass", "--config", str(path), "--regime", "finite")
    assert code == 0
    report = json.loads(out)
    assert report["combined_key_length_bits"] > 0


def test_cli_analytic_pass_refuses_seed(capsys, config_path, tmp_path):
    # the analytic pass draws no random numbers, so a seed would change nothing
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    code, out, err = run_cli(capsys, "pass", "--config", str(path), "--seed", "1")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "--seed applies only to --mode mc" in report["message"]
    code, out, _ = run_cli(capsys, "pass", "--config", str(path), "--mode", "mc", "--seed", "1")
    assert code == 0 and json.loads(out)["mode"] == "mc"


@pytest.mark.parametrize("argv", [["simulate"], ["optimize", "--mu-points", "3"]], ids=["simulate", "optimize"])
def test_cli_fixed_loss_command_refuses_a_pass_channel_without_loss_db(capsys, config_path, tmp_path, argv):
    # a pass-mode channel has no fixed loss to key at; --loss-db turns any config into a fixed-loss run
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "--loss-db" in report["message"]
    code, out, err = run_cli(capsys, *argv, "--config", str(path), "--loss-db", "30")
    assert code == 0 and err == ""
    fixed = pass_mode_data(config_path)
    fixed["channel"] = {"mode": "fixed", "fixed_loss_db": 30.0}
    path.write_text(yaml.safe_dump(fixed))
    _, same, _ = run_cli(capsys, *argv, "--config", str(path))
    report, same = json.loads(out), json.loads(same)
    report.pop("config", None), same.pop("config", None)  # the channels differ there by design
    assert report == same


# (label, mu, emit probability) of sources the 2-decoy bound cannot key: it needs a measured vacuum yield
NOT_SIGNAL_DECOY_VACUUM = {
    "signal_and_decoy": [("signal", 0.3, 0.75), ("decoy", 0.5, 0.25)],
    "signal_only": [("signal", 0.3, 1.0)],
    "two_signals": [("signal", 0.3, 0.5), ("signal", 0.5, 0.45), ("vacuum", 0.0, 0.05)],
}


@pytest.mark.parametrize("classes", NOT_SIGNAL_DECOY_VACUUM.values(), ids=NOT_SIGNAL_DECOY_VACUUM)
def test_cli_source_needs_one_signal_decoy_and_vacuum_class(capsys, config_path, tmp_path, classes):
    data = yaml.safe_load(config_path.read_text())
    data["sources"][0]["intensity_classes"] = [
        {"label": label, "mu": mu, "emit_probability": p} for label, mu, p in classes]
    path = tmp_path / "classes.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "keyrate", "--config", str(path), "--sweep", "40:40:1")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and report["message"].startswith(
        "config.sources[0]: need exactly one signal, one decoy and one vacuum intensity class")


def test_cli_analyze_histogram(capsys, tmp_path):
    sigma = 500.0 / (2 * math.sqrt(2 * math.log(2)))
    x = np.arange(0.0, 10000.0, 4.0)
    y = 1000 * np.exp(-((x - 5000.0) ** 2) / (2 * sigma**2))
    path = tmp_path / "hist.csv"
    path.write_text("time_ps,counts\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n")
    code, out, _ = run_cli(capsys, "analyze-histogram", str(path))
    assert code == 0
    assert json.loads(out)["fwhm_ps"] == pytest.approx(500.0, abs=4.0)


def test_cli_analyze_spectrum_band_check(capsys, tmp_path):
    x = np.linspace(775.0, 787.0, 601)
    y = 100 * np.exp(-((x - 781.0) ** 2) / 0.5)
    path = tmp_path / "spec.csv"
    path.write_text("wavelength_nm,intensity\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n")
    code, out, _ = run_cli(
        capsys, "analyze-spectrum", str(path), "--band-center", "777.5", "--band-halfwidth", "2.5"
    )
    assert code == 0
    assert json.loads(out)["in_band"] is False


def test_cli_report_distinguishability(capsys, config_path, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "report-distinguishability", "--config", str(config_path), "--out-dir", str(out_dir)
    )
    assert code == 0
    report = json.loads(out)
    assert report["sources"][0]["worst_pair"]["score"] == pytest.approx(0.079, abs=1e-3)
    assert (out_dir / "report.json").exists()
    assert any(p.name.startswith("distinguishability_") for p in out_dir.iterdir())


DISTINGUISHABILITY_COLUMNS = ["mode_a", "mode_b", "temporal_overlap", "spectral_overlap", "temporal_score",
                              "spectral_score", "score"]


def test_cli_distinguishability_csv_holds_the_report_pairs_in_column_order(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "report-distinguishability", "--out-dir", str(out_dir))
    assert code == 0
    sources = json.loads(out)["sources"]
    assert len(sources) == 2
    for src in sources:
        with open(out_dir / f"distinguishability_{int(src['wavelength_nm'])}nm.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == DISTINGUISHABILITY_COLUMNS
        assert rows == [[str(pair[k]) for k in header] for pair in src["pairs"]]


def test_cli_distinguishability_tie_reports_the_first_pair(capsys, tmp_path):
    # four copies of one diode, one pulse width for signal and decoy: every pair scores the same
    cfg = default_run_config()
    widths = {IntensityLabel.SIGNAL: 700.0, IntensityLabel.DECOY: 700.0}
    cfg.sources = tuple(
        replace(src, diode_profiles=tuple(replace(src.diode_profiles[0], polarization=d.polarization,
                                                  pulse_fwhm_by_class_ps=widths)
                                          for d in src.diode_profiles))
        for src in cfg.sources
    )
    path = tmp_path / "identical.yaml"
    save_run_config(cfg, path)
    code, out, _ = run_cli(capsys, "report-distinguishability", "--config", str(path))
    assert code == 0
    for src in json.loads(out)["sources"]:
        pairs = src["pairs"]
        assert len(pairs) == 28 and len({p["score"] for p in pairs}) == 1
        assert src["worst_pair"] == {k: pairs[0][k] for k in ("mode_a", "mode_b", "score")}


DISTINGUISHABILITY_PINS = Path(__file__).with_name("data") / "distinguishability_pins.json"


def test_cli_report_distinguishability_prints_pinned_stdout(capsys, tmp_path):
    # data/distinguishability_pins.json holds the reports printed before the diode drive-current
    # terms and the per-class pulse width were removed, for the default config and for the
    # README's drift study: diodes with distinct temperature coefficients, at 30 degC
    pinned = json.loads(DISTINGUISHABILITY_PINS.read_text())
    drift = default_run_config()
    drift.sources = tuple(
        replace(src, diode_profiles=tuple(replace(d, temp_coefficient_nm_per_c=k)
                                          for d, k in zip(src.diode_profiles, (0.03, 0.05, 0.07, 0.09))))
        for src in drift.sources
    )
    path = tmp_path / "drift.yaml"
    save_run_config(drift, path)
    for name, argv in (("default", []), ("drift_30degC", ["--config", str(path), "--temp", "30"])):
        code, out, _ = run_cli(capsys, "report-distinguishability", *argv)
        assert code == 0
        assert out == json.dumps(pinned[name], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_temperature_is_domain_error(capsys, value):
    code, out, err = run_cli(capsys, "report-distinguishability", f"--temp={value}")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "temperature must be finite" in report["message"]


def test_cli_warning_is_one_json_object_per_stderr_line():
    # a child process, where the warnings filters are Python's own: under the suite a warning is an error
    code, out, err = run_cli_bounded("report-distinguishability", "--temp", "50")
    assert code == 0
    assert [json.loads(line) for line in err.splitlines()] == [{
        "warning": "UserWarning",
        "message": "temperature 50.0 degC outside validity window [0.0, 45.0]; extrapolating",
    }]
    # the warning leaves stdout as it is without it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet):
            assert main(["report-distinguishability", "--temp", "50"]) == 0
    assert out == quiet.getvalue() and json.loads(out)["temp_c"] == 50.0


# flags that no longer exist because they changed none of the command's output
REMOVED_FLAGS = [
    ("keyrate", "--seed", "1"), ("optimize", "--seed", "1"), ("report-distinguishability", "--seed", "1"),
    ("keyrate", "--loss-db", "40"), ("report-distinguishability", "--loss-db", "40"), ("pass", "--loss-db", "40"),
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
def test_cli_removed_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_cli_optimize(capsys, config_path, tmp_path):
    out_dir = tmp_path / "opt"
    code, out, _ = run_cli(
        capsys, "optimize", "--config", str(config_path), "--mu-points", "4",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    report = json.loads(out)
    assert report["grid_points"] > 0
    assert (out_dir / "optimize_grid.csv").exists()


def test_cli_exit_codes(capsys, tmp_path, config_path):
    # config error
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text("sources: []\nchannel: {mode: fixed}\n")
    code, _, err = run_cli(capsys, "keyrate", "--config", str(bad_cfg))
    assert code == 2
    assert json.loads(err)["error"] == "config"
    # file-format error
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("a,b\n1,2\n")
    code, _, err = run_cli(capsys, "analyze-histogram", str(bad_csv))
    assert code == 3
    assert json.loads(err)["error"] == "file-format"
    # domain error: fixed-mode channel fed to the pass command
    code, _, err = run_cli(capsys, "pass", "--config", str(config_path))
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_loss_flag_is_domain_error(capsys, config_path, value):
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path), f"--loss-db={value}")
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize("key", ["fixed_loss_db", "excess_loss_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cli_non_finite_yaml_number_is_config_error(capsys, config_path, tmp_path, key, value):
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "fixed", key: value}  # dumped as .nan / .inf / -.inf
    path = tmp_path / "nonfinite.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "config" and key in report["message"]


SOURCE = ["sources", 0]
FWHMS = SOURCE + ["diode_profiles", 0, "pulse_fwhm_by_class_ps"]
WHERE = "config.sources[0]"


# (keys down to the value, bad value, text the error message must hold)
WRONG_VALUES = [
    (SOURCE + ["extinction", "er_h"], "abc", f"{WHERE}.extinction.er_h: expected a number"),
    (SOURCE + ["extinction", "er_h"], False, f"{WHERE}.extinction.er_h: expected a number"),
    (FWHMS + ["signal"], "x", f"{WHERE}.diode_profiles[0].pulse_fwhm_by_class_ps.signal: expected a number"),
    (FWHMS + ["signal"], math.nan, f"{WHERE}.diode_profiles[0].pulse_fwhm_by_class_ps.signal: expected a finite"),
    (FWHMS, 5, f"{WHERE}.diode_profiles[0].pulse_fwhm_by_class_ps: expected a mapping"),
    (["e_misalignment"], "0.1", "config.e_misalignment: expected a number"),
    (SOURCE + ["intensity_classes"], 5, f"{WHERE}.intensity_classes: expected a list"),
    (["sources"], 5, "config.sources: expected a list"),
    (SOURCE + ["intensity_classes", 0, "label"], ["a"], f"{WHERE}.intensity_classes[0].label: expected one of"),
    (["channel", "pass", "csv_path"], 5, "config.channel.pass.csv_path: expected str"),
    (["channel", "pass", "loss"], 1, "config.channel.pass: unknown keys ['loss']"),
    (["detector", "gate_width_ps"], 1000.0, "config.detector: unknown keys ['gate_width_ps']"),
    (SOURCE + ["intensity_classes", 0, "pulse_fwhm_ps"], 900.0,
     f"{WHERE}.intensity_classes[0]: unknown keys ['pulse_fwhm_ps']"),
    (SOURCE + ["diode_profiles", 0, "current_coefficient_nm_per_ma"], 0.01,
     f"{WHERE}.diode_profiles[0]: unknown keys ['current_coefficient_nm_per_ma']"),
    (SOURCE + ["diode_profiles", 0, "reference_current_ma"], 60.0,
     f"{WHERE}.diode_profiles[0]: unknown keys ['reference_current_ma']"),
    (FWHMS, {"signal": 900.0}, f"{WHERE}: diode H has no pulse_fwhm_by_class_ps.decoy"),
]


@pytest.mark.parametrize("keys,value,message", WRONG_VALUES,
                         ids=[f"{'.'.join(map(str, keys))}={value!r}" for keys, value, _ in WRONG_VALUES])
def test_cli_wrong_yaml_value_is_config_error_naming_its_path(capsys, config_path, tmp_path, keys, value, message):
    data = pass_mode_data(config_path)
    *parents, last = keys
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    path = tmp_path / "wrong.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "keyrate", "--config", str(path), "--sweep", "40:40:1")
    assert code == 2 and out == ""
    assert message in json.loads(err)["message"]


BAD_SPANS = ["0", "-1", "nan", "inf"]


@pytest.mark.parametrize("value", BAD_SPANS)
def test_cli_pass_step_not_finite_and_positive_is_domain_error(capsys, config_path, tmp_path, value):
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    code, out, err = run_cli(capsys, "pass", "--config", str(path), f"--step={value}")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "step must be finite and > 0" in report["message"]


def run_cli_bounded(*argv, seconds: float = 60.0):
    """The CLI in a child process under a time limit and a 2 GiB address-space limit.

    A walk or grid that runs away then fails the test instead of filling the
    machine's memory or hanging the suite.
    """
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    path = os.pathsep.join(filter(None, [str(Path(satqkd.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "satqkd.cli", *argv], capture_output=True, text=True,
                          timeout=seconds, preexec_fn=limit_memory, env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_pass_step_over_the_step_cap_is_domain_error(config_path, tmp_path):
    # 1e-4 s steps cut the synthesized 60-degree pass into more than MAX_PASS_STEPS (1e6) steps
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    code, out, err = run_cli_bounded("pass", "--config", str(path), "--step", "1e-4")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "into more than 1000000 steps" in report["message"]


def test_cli_pass_step_that_cannot_move_the_clock_is_domain_error(config_path, tmp_path):
    # at t = 1e6 s half an ulp is 5.8e-11 s: a 5e-11 s step leaves t as it is, while the
    # 1e-5 s pass holds only 2e5 such steps, under the step cap
    csv = tmp_path / "late_pass.csv"
    csv.write_text("time_s,elevation_deg\n1000000.0,30.0\n1000000.00001,31.0\n")
    data = pass_mode_data(config_path)
    data["channel"]["pass"] = {"csv_path": str(csv)}
    path = tmp_path / "late_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli_bounded("pass", "--config", str(path), "--step", "5e-11")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "too small to advance the pass clock" in report["message"]


# (sweep, text of the refusal): unbounded walks that would fill memory, and walks that key nothing
BAD_SWEEPS = [
    ("nan:60:1", "must be finite"), ("0:nan:1", "must be finite"), ("0:60:nan", "must be finite"),
    ("0:inf:1", "must be finite"),
    ("0:1e6:1e-9", "more than 1000000 points"),
    ("1e17:1e17:1", "too small to move the loss from 1e+17"),  # 1e17 + 1 == 1e17
]


@pytest.mark.parametrize("sweep,message", BAD_SWEEPS, ids=[s for s, _ in BAD_SWEEPS])
def test_cli_sweep_not_finite_or_unbounded_is_usage_error(sweep, message):
    code, out, err = run_cli_bounded("keyrate", f"--sweep={sweep}")
    assert code == 2 and out == ""
    assert message in err


def test_cli_optimize_grid_over_the_cap_is_domain_error():
    # 1e5 x 1e5 points would ask numpy for 74.5 GiB
    code, out, err = run_cli_bounded("optimize", "--mu-points", "100000")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "more than 1000000 points" in report["message"]


@pytest.mark.parametrize("command", ["keyrate", "optimize"])
@pytest.mark.parametrize("value", BAD_SPANS)
def test_cli_duration_not_finite_and_positive_is_domain_error(capsys, config_path, command, value):
    code, out, err = run_cli(capsys, command, "--config", str(config_path), f"--duration={value}")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "duration must be finite and > 0" in report["message"]


def test_cli_loss_override_drops_pass_block(capsys, config_path, tmp_path):
    data = pass_mode_data(config_path)
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--loss-db", "30")
    assert code == 0
    assert json.loads(out)["config"]["channel"] == {
        "mode": "fixed", "fixed_loss_db": 30.0, "excess_loss_db": 0.0, "background_click_prob": 0.0}


def test_cli_pass_csv_error_is_file_format_error(capsys, config_path, tmp_path):
    bad_csv = tmp_path / "pass.csv"
    bad_csv.write_text("t,el\n0,10\n1,11\n")
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"csv_path": str(bad_csv)}}
    path = tmp_path / "csv_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "pass", "--config", str(path))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "file-format"


YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_give_equal_run_config(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    loaded = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(config, "YAML_LOADER", loader)
        loaded.append(load_run_config(path))
    assert loaded[0] == loaded[1]
    assert to_dict(loaded[0]) == to_dict(loaded[1])


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda l: l.__name__)
def test_every_yaml_loader_rejects_malformed_and_nan(capsys, monkeypatch, tmp_path, config_path, loader):
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("sources: [\nchannel: {mode: fixed\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(malformed))
    assert code == 2 and out == ""
    assert "invalid YAML" in json.loads(err)["message"]
    with pytest.raises(ConfigError):
        load_run_config(malformed)
    nan = tmp_path / "nan.yaml"
    nan.write_text(config_path.read_text().replace("fixed_loss_db: 40.0", "fixed_loss_db: .nan"))
    assert ".nan" in nan.read_text()
    code, out, err = run_cli(capsys, "simulate", "--config", str(nan))
    assert code == 2 and out == ""
    assert "fixed_loss_db" in json.loads(err)["message"]


def test_cli_intensity_whose_exp_overflows_is_domain_error(capsys, config_path, tmp_path):
    code, out, err = run_cli(capsys, "optimize", "--mu-max", "800", "--mu-points", "3")
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "domain"
    data = yaml.safe_load(config_path.read_text())
    (decoy,) = [c for c in data["sources"][0]["intensity_classes"] if c["label"] == "decoy"]
    decoy["mu"] = 800.0
    path = tmp_path / "bright_decoy.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "keyrate", "--config", str(path))
    assert code == 4 and out == ""
    assert "no finite decoy bound" in json.loads(err)["message"]


def test_cli_sampled_qber_above_half_is_a_zero_key(capsys, tmp_path):
    # at 50 dB a 2e6-pulse block of the first source sifts one signal bit, and it is an error
    data = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "default.yaml").read_text())
    data["block_pulses"] = 2_000_000
    path = tmp_path / "short_block.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--loss-db", "50", "--seed", "9")
    assert code == 0
    keys = [s["key"] for s in json.loads(out)["sources"]]
    assert keys[0]["qber_signal"] > 0.5 and keys[0]["reason"] == "signal QBER above 0.5"
    assert all(k["secret_key_length_bits"] == k["secret_key_rate_bps"] == 0.0 for k in keys)


def test_cli_missing_config_file_is_config_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "missing.yaml"))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "config" and "cannot read" in json.loads(err)["message"]


def test_cli_missing_pass_csv_is_file_format_error(capsys, config_path, tmp_path):
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"csv_path": str(tmp_path / "missing.csv")}}
    path = tmp_path / "missing_csv_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "pass", "--config", str(path))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "file-format" and "cannot read" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["analyze-histogram", "analyze-spectrum"])
def test_cli_missing_analysis_file_is_file_format_error(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, str(tmp_path / "missing.csv"))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "file-format" and "cannot read" in json.loads(err)["message"]


def gaussian_csv(path, header, bad_value=None):
    """A 201-point Gaussian peak as a two-column CSV; bad_value replaces the value of point 10."""
    x = np.linspace(0.0, 2000.0, 201).tolist()
    y = (1000.0 * np.exp(-((np.array(x) - 1000.0) ** 2) / (2 * 150.0**2)) + 5.0).tolist()
    if bad_value is not None:
        y[10] = bad_value
    rows = [f"{a},{b}" for a, b in zip(x, y)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("command,header,value", [
    ("analyze-histogram", "time_ps,counts", "inf"),
    ("analyze-histogram", "time_ps,counts", "nan"),
    ("analyze-spectrum", "wavelength_nm,intensity", "nan"),
])
def test_cli_non_finite_analysis_value_is_file_format_error(capsys, tmp_path, command, header, value):
    # an inf count once printed "fwhm_ps": NaN, and a NaN one blamed the peak touching the boundary
    path = gaussian_csv(tmp_path / "series.csv", header, value)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 3 and out == ""
    report = json.loads(err)
    assert report["error"] == "file-format" and "values must be finite and >= 0" in report["message"]


def test_cli_pass_csv_with_nan_elevation_is_config_error(capsys, config_path, tmp_path):
    # the NaN sample once dropped the steps around it and keyed the rest of the pass
    csv_path = tmp_path / "pass.csv"
    csv_path.write_text("time_s,elevation_deg\n0,5\n100,40\n200,nan\n300,40\n400,5\n")
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"csv_path": str(csv_path)}}
    path = tmp_path / "nan_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "pass", "--config", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "elevations must be in [0, 90] degrees" in report["message"]


@pytest.mark.parametrize("key,value,message", [
    ("zenith_atmospheric_db", -5.0, "zenith_atmospheric_db must be finite and >= 0"),
    ("receiver_diameter_m", 0.0, "receiver_diameter_m must be finite and > 0"),
    ("receiver_diameter_m", -1.0, "receiver_diameter_m must be finite and > 0"),
    ("orbit_altitude_m", 0.0, "orbit altitude must be finite and > 0"),
])
@pytest.mark.parametrize("command", ["keyrate", "pass"])
def test_cli_bad_loss_model_setting_is_config_error_naming_its_key(capsys, config_path, tmp_path, key, value,
                                                                    message, command):
    # a negative atmospheric loss once keyed a pass, and a 0 m receiver failed only the pass command
    data = pass_mode_data(config_path)
    data["channel"]["pass"][key] = value
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and message in report["message"]


@pytest.mark.parametrize("bound", [["--mu-min", "-1"], ["--mu-min", "0"], ["--mu-max", "-0.5", "--mu-min", "-1"]])
def test_cli_optimize_axis_outside_the_mu_domain_is_domain_error(capsys, config_path, bound):
    # --mu-min -1 once dropped the points it made infeasible and reported a 90-point grid
    code, out, err = run_cli(capsys, "optimize", "--config", str(config_path), *bound)
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "mu_signal axis" in report["message"]
    code, _, err = run_cli(capsys, "optimize", "--config", str(config_path), "--mu-min", "nan")
    assert code == 4 and json.loads(err)["error"] == "domain"


@pytest.mark.parametrize("input_kind", ["simulate_flag", "pass_mc_flag", "yaml"])
def test_cli_negative_seed_is_config_error(capsys, config_path, tmp_path, input_kind):
    data = pass_mode_data(config_path) if input_kind == "pass_mc_flag" else yaml.safe_load(config_path.read_text())
    if input_kind == "yaml":
        data["seed"] = -1
    path = tmp_path / "seed.yaml"
    path.write_text(yaml.safe_dump(data))
    argv = {"simulate_flag": ["simulate", "--seed", "-1"], "pass_mc_flag": ["pass", "--mode", "mc", "--seed", "-1"],
            "yaml": ["simulate"]}[input_kind]
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "seed must be >= 0" in report["message"]


@pytest.mark.parametrize("band", [
    ["--band-center", "777.5"], ["--band-halfwidth", "2.5"],
    ["--band-center", "777.5", "--band-halfwidth", "-1"], ["--band-center", "777.5", "--band-halfwidth", "nan"],
    ["--band-center", "777.5", "--band-halfwidth", "inf"], ["--band-center", "nan", "--band-halfwidth", "2.5"],
])
def test_cli_spectrum_band_flags_need_a_finite_pair(capsys, tmp_path, band):
    # one flag alone once printed "in_band": null, and a negative half width made in_band always false
    path = gaussian_csv(tmp_path / "spec.csv", "wavelength_nm,intensity")
    code, out, err = run_cli(capsys, "analyze-spectrum", str(path), *band)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "config"


# every command that keys, with the flags that make its report deterministic
NOISE_RUNS = {
    "simulate": ["simulate", "--seed", "4"],
    "keyrate": ["keyrate", "--regime", "finite", "--sweep", "30:45:5"],
    "pass_analytic": ["pass"],
    "pass_mc": ["pass", "--mode", "mc", "--seed", "9"],
    "optimize": ["optimize", "--loss-db", "30", "--mu-points", "5"],
}


@pytest.mark.parametrize("dark,background", [(1e-7, 5e-7), (1e-7, 3e-6)])
@pytest.mark.parametrize("run", sorted(NOISE_RUNS))
def test_cli_every_command_takes_dark_and_background_as_one_noise(capsys, config_path, tmp_path, run, dark,
                                                                 background):
    # background light clicks a detector as a dark count does: (dark d, background b) is (d + b, 0);
    # optimize once keyed as if there were no background
    argv = NOISE_RUNS[run]
    reports = []
    for name, d, b in (("split", dark, background), ("folded", dark + background, 0.0)):
        data = pass_mode_data(config_path) if argv[0] == "pass" else yaml.safe_load(config_path.read_text())
        data["detector"]["dark_prob"] = d
        data["channel"]["background_click_prob"] = b
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 0 and err == ""
        report = json.loads(out)
        report.pop("config", None)  # the echo shows each config's own keys
        reports.append(report)
    assert reports[0] == reports[1]


def test_cli_dark_plus_background_of_one_is_config_error_at_load(capsys, config_path, tmp_path):
    data = yaml.safe_load(config_path.read_text())
    data["detector"]["dark_prob"] = 0.6
    data["channel"]["background_click_prob"] = 0.6
    path = tmp_path / "noisy.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match="detector.dark_prob \\+ channel.background_click_prob must be < 1"):
        load_run_config(path)
    for command in ("simulate", "keyrate", "optimize"):
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "config"
        assert "detector.dark_prob" in report["message"] and "channel.background_click_prob" in report["message"]


def test_cli_block_pulses_past_int64_is_config_error(capsys, config_path, tmp_path):
    # 2**63 pulses once raised OverflowError where the Monte Carlo counts them in int64
    data = yaml.safe_load(config_path.read_text())
    data["block_pulses"] = 2**63 - 1
    assert parse_run_config(data).block_pulses == 2**63 - 1
    data["block_pulses"] = 2**63
    path = tmp_path / "huge_block.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--loss-db", "30")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "block_pulses must be in [1, 2**63 - 1]" in report["message"]


@pytest.mark.parametrize("argv,sub", [
    (["keyrate", "--sweep", "40:40:1"], ""),
    (["simulate", "--loss-db", "40"], "sub"),
], ids=["file", "under_a_file"])
def test_cli_out_dir_that_cannot_be_a_directory_is_config_error(capsys, config_path, tmp_path, argv, sub):
    # an existing file once raised FileExistsError, and a path under one printed the report, then
    # raised NotADirectoryError
    afile = tmp_path / "afile"
    afile.write_text("")
    out_dir = str(afile / sub)  # afile itself when sub is ""
    code, out, err = run_cli(capsys, *argv, "--config", str(config_path), "--out-dir", out_dir)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["error"] == "config" and f"--out-dir {out_dir}" in report["message"]
    assert afile.read_text() == ""
