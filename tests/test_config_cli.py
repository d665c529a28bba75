import json
import math

import numpy as np
import pytest
import yaml

from satqkd.cli import main
from satqkd.config import (
    default_run_config,
    load_run_config,
    parse_run_config,
    run_config_to_dict,
    save_run_config,
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
    assert run_config_to_dict(reloaded) == run_config_to_dict(cfg)


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
