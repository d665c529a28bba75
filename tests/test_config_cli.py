import json
import math
import os
import resource
import subprocess
import sys
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
    save_run_config,
    to_dict,
)
from satqkd.errors import ConfigError


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

    A pass walk that runs away then fails the test instead of filling the
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
