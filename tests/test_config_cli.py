import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import satqkd
from satqkd import channel, config, protocol
from satqkd.channel import PassSpec, synthesize_pass
from satqkd.cli import main
from satqkd.config import (
    default_run_config,
    load_run_config,
    parse_run_config,
    to_dict,
)
from satqkd.errors import ConfigError, DomainError
from satqkd.protocol import COUNTS, KeyResult, key_from_fixed_loss, key_from_tally, pass_tally, simulate_block
from satqkd.source import IntensityLabel

from conftest import save_run_config, two_source_run_config


@pytest.fixture
def config_path(tmp_path):
    cfg = default_run_config()
    cfg = replace(cfg, sources=cfg.sources[:1], block_pulses=200_000)
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


def test_readme_pass_block_lists_every_pass_key_at_its_default(tmp_path):
    # the documented block is the schema: merged into configs/default.yaml it loads as the default PassSpec
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("A pass-mode channel replaces the `channel` block with:\n\n```yaml\n")[1].split("```")[0]
    channel = yaml.safe_load(block)["channel"]
    defaults = {f.name: f.default for f in dataclasses.fields(PassSpec) if f.name != "csv_path"}
    assert list(channel["pass"]) == list(defaults) and channel["pass"] == defaults
    assert "\n    # csv_path: " in block  # the one key left commented out: setting it reads a CSV instead
    data = yaml.safe_load((root / "configs" / "default.yaml").read_text())
    data["channel"].update(channel)
    path = tmp_path / "readme_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    cfg = load_run_config(path)
    assert cfg.channel.mode == "pass" and cfg.channel.pass_spec == PassSpec()


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
    for reread, made in zip(reloaded.channel.pass_profile.walk(2.0), cfg.channel.pass_profile.walk(2.0)):
        np.testing.assert_array_equal(reread, made)


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


@pytest.mark.parametrize("argv", [["simulate", "--loss-db", "30"], ["pass", "--mode", "mc"]],
                         ids=["simulate", "pass_mc"])
def test_cli_sources_draw_independent_streams(capsys, tmp_path, argv):
    # source i draws child i of SeedSequence(seed): seed 1's second source and seed 2's first,
    # two sources that differ only in their wavelength label, draw different streams
    data = to_dict(default_run_config())
    data["block_pulses"] = 200_000
    if argv[0] == "pass":
        data["channel"] = {"mode": "pass", "pass": {"max_elevation_deg": 60.0, "step_s": 2.0}}
    path = tmp_path / "two_sources.yaml"
    path.write_text(yaml.safe_dump(data))
    tallies = {}
    for seed in (1, 2):
        code, out, _ = run_cli(capsys, *argv, "--config", str(path), "--seed", str(seed))
        assert code == 0
        tallies[seed] = [source["tally"] for source in json.loads(out)["sources"]]
    assert tallies[1][1]["total_pulses"] == tallies[2][0]["total_pulses"]
    assert tallies[1][1] != tallies[2][0]


def test_cli_analytic_commands_leave_numpy_random_unloaded(config_path, tmp_path):
    # importing numpy.random adds about 6 MiB to the peak RSS of a run that draws nothing
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    script = (
        "import contextlib, io, sys\n"
        "from satqkd.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['keyrate']), main(['pass', '--config', {str(path)!r}]),\n"
        "             main(['optimize', '--loss-db', '38', '--mu-points', '5'])]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.stdout.split() == ["[0,", "0,", "0]", "False"], proc.stderr


def run_in_child(*argvs) -> list:
    """[exit codes, whether satqkd.analysis is loaded] after CLI calls in one fresh child process."""
    script = (
        "import contextlib, io, json, sys\n"
        "from satqkd.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {[list(a) for a in argvs]!r}]\n"
        "print(json.dumps([codes, 'satqkd.analysis' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_commands_that_read_no_csv_leave_analysis_unloaded(config_path, tmp_path):
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    config, passes = ["--config", str(config_path)], ["--config", str(path)]
    argvs = (["simulate", *config], ["keyrate", *passes], ["pass", *passes],
             ["optimize", "--loss-db", "38", "--mu-points", "5", *passes], ["report-distinguishability", *config])
    assert run_in_child(*argvs) == [[0] * 5, False]


@pytest.mark.parametrize("command", ["analyze-histogram", "analyze-spectrum", "keyrate"])
def test_cli_commands_that_read_a_csv_load_analysis(config_path, tmp_path, command):
    if command == "keyrate":  # a CSV pass is read when its config loads
        csv_path = tmp_path / "pass.csv"
        csv_path.write_text("time_s,elevation_deg\n0,10\n100,40\n200,10\n")
        data = yaml.safe_load(config_path.read_text())
        data["channel"] = {"mode": "pass", "pass": {"csv_path": str(csv_path)}}
        path = tmp_path / "csv_pass.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = [command, "--config", str(path)]
    else:
        header = "time_ps,counts" if command == "analyze-histogram" else "wavelength_nm,intensity"
        argv = [command, str(gaussian_csv(tmp_path / "series.csv", header))]
    assert run_in_child(argv) == [[0], True]


def test_no_run_loads_numpy_typing(config_path, tmp_path):
    # numpy never imports numpy.typing itself; the package names ArrayLike in annotations only
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    script = (
        "import contextlib, io, sys\n"
        "from satqkd.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['simulate', '--config', {str(config_path)!r}]),\n"
        f"             main(['pass', '--config', {str(path)!r}, '--mode', 'mc', '--seed', '3']), main(['keyrate'])]\n"
        "print(codes, 'numpy.typing' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.stdout.split() == ["[0,", "0,", "0]", "False"], proc.stderr


def test_import_compiles_no_dataclass_methods():
    # @dataclass compiles its methods from generated source (co_filename "<string>") on every import;
    # every class of the package is a record, whose methods are compiled once with satqkd.record
    script = (
        "import inspect, json, sys\n"
        "import satqkd.cli\n"
        "found = sorted({cls.__qualname__ for name, module in list(sys.modules.items()) if name.startswith('satqkd')\n"
        "                for cls in vars(module).values() if isinstance(cls, type) and cls.__module__ == name\n"
        "                for member in vars(cls).values()\n"
        "                if getattr(getattr(inspect.unwrap(member), '__code__', None), 'co_filename', '') == '<string>'})\n"
        "print(json.dumps(found))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_no_schema_class_names_array_like():
    # the config schema evaluates its classes' annotations, where ArrayLike, imported for type checkers
    # only, would be a NameError
    seen, todo = set(), [config.RunConfig]
    while todo:
        tp = todo.pop()
        todo += typing.get_args(tp)
        if dataclasses.is_dataclass(tp) and tp not in seen:
            seen.add(tp)
            assert not any("ArrayLike" in str(a) for a in inspect.get_annotations(tp).values()), tp
            todo += [hint for _, hint in config._schema(tp)[0].values()]
    assert {config.RunConfig, satqkd.SourceConfig, channel.PassSpec, satqkd.DetectorModel} <= seen


@pytest.mark.parametrize("argv,calls", [
    ([], 0), (["keyrate"], 0), (["optimize", "--loss-db", "38", "--mu-points", "3"], 0), (["pass"], 1),
], ids=["load", "keyrate", "optimize", "pass"])
def test_synthesized_pass_is_sampled_only_by_the_pass_command(capsys, config_path, tmp_path, monkeypatch,
                                                                argv, calls):
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    sampled = []

    def counted(*args, **kwargs):
        sampled.append(args)
        return synthesize_pass(*args, **kwargs)

    monkeypatch.setattr(channel, "synthesize_pass", counted)
    if argv:
        assert run_cli(capsys, *argv, "--config", str(path))[0] == 0
    else:
        load_run_config(path)
    assert len(sampled) == calls


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
        with open(out_dir / f"distinguishability_{src['wavelength_nm']:g}nm.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == DISTINGUISHABILITY_COLUMNS
        assert rows == [[str(pair[k]) for k in header] for pair in src["pairs"]]


def test_cli_distinguishability_writes_one_csv_per_label_that_shares_an_integer_part(capsys, tmp_path):
    cfg = default_run_config()
    second = cfg.sources[1]
    slow_h = replace(second.diode_profiles[0], trigger_delay_ps=300.0)  # so the two tables differ
    cfg = replace(cfg, sources=(cfg.sources[0], replace(second, wavelength_label_nm=785.4,
                                                        diode_profiles=(slow_h, *second.diode_profiles[1:]))))
    path = tmp_path / "labels.yaml"
    save_run_config(cfg, path)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "report-distinguishability", "--config", str(path), "--out-dir", str(out_dir))
    assert code == 0
    sources = json.loads(out)["sources"]
    assert sources[0]["worst_pair"] != sources[1]["worst_pair"]
    assert sorted(p.name for p in out_dir.glob("*.csv")) == ["distinguishability_785.4nm.csv",
                                                             "distinguishability_785nm.csv"]
    for src, name in zip(sources, ["785", "785.4"]):
        with open(out_dir / f"distinguishability_{name}nm.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows == [[str(pair[k]) for k in header] for pair in src["pairs"]]


def test_cli_two_sources_with_one_label_is_config_error(capsys, tmp_path):
    # RunConfig refuses such a config, so the YAML data is edited: the check is reached through the loader
    data = to_dict(default_run_config())
    data["sources"][1]["wavelength_label_nm"] = 785.0
    path = tmp_path / "same_label.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    code, out, err = run_cli(capsys, "report-distinguishability", "--config", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "wavelength_label_nm 785 names both sources" in report["message"]


def test_cli_report_holding_an_array_fails_instead_of_printing_a_string(capsys, config_path, monkeypatch):
    # a 0-d array that leaked into a source's key must not reach the report as a string
    point = KeyResult.point

    def leaky_point(self, i):
        result = point(self, i)
        return replace(result, secret_key_length=np.asarray(result.secret_key_length))

    monkeypatch.setattr(KeyResult, "point", leaky_point)
    with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
        main(["simulate", "--config", str(config_path)])
    assert capsys.readouterr().out == ""


def two_source_config(tmp_path, block_pulses: int):
    """The YAML path of conftest's two_source_run_config."""
    path = tmp_path / "two_sources.yaml"
    save_run_config(two_source_run_config(block_pulses), path)
    return path


def typed(fields: dict) -> dict:
    return {k: (type(v), v) for k, v in fields.items()}


def two_source_pass_config(tmp_path, rates=(None, None)):
    """The YAML path of conftest's two sources over a 60-degree pass at 500 km; a rate not None replaces that
    source's repetition rate."""
    data = to_dict(two_source_run_config(1000))
    data["channel"] = {"mode": "pass", "pass": {"max_elevation_deg": 60.0}}
    for src, rate in zip(data["sources"], rates):
        src["repetition_rate_hz"] = src["repetition_rate_hz"] if rate is None else rate
    path = tmp_path / "two_sources_pass.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


def count_key_calls(monkeypatch) -> list:
    """The list that the tally of every later protocol.key_from_tally call is appended to."""
    calls = []
    real = protocol.key_from_tally
    monkeypatch.setattr(protocol, "key_from_tally", lambda *args: calls.append(args[1]) or real(*args))
    return calls


@pytest.mark.parametrize("regime", ["asymptotic", "finite"])
def test_cli_simulate_keys_each_source_as_a_loop_of_one_point_keys(capsys, tmp_path, monkeypatch, regime):
    path = two_source_config(tmp_path, 10**10)
    cfg = load_run_config(path)
    reports = []
    monkeypatch.setattr("satqkd.cli._emit", lambda report, out_dir: reports.append(report))
    calls = count_key_calls(monkeypatch)
    keyed = zero = 0
    for seed in (1, 7, 11):
        for loss in (25.0, 33.3, 41.0, 55.0, 70.0):
            assert main(["simulate", "--config", str(path), "--seed", str(seed), "--loss-db", str(loss),
                         "--regime", regime]) == 0
            assert len(calls) == 1  # both sources in one key call
            calls.clear()
            streams = np.random.SeedSequence(seed).spawn(2)
            for src, stream, block in zip(cfg.sources, streams, reports.pop()["sources"]):
                tally = simulate_block(src, loss, cfg.receiver, cfg.e_det(src), cfg.block_pulses, seed=stream)
                assert typed(block["key"]) == typed(key_from_tally(src, tally, cfg.security, regime).to_dict())
                assert block["tally"] == tally.to_dict()
                length = block["key"]["secret_key_length_bits"]
                keyed += length > 0
                zero += length == 0 and loss >= 55.0
    assert keyed and zero == 12  # some keys, and none at 55 and 70 dB


@pytest.mark.parametrize("regime", ["asymptotic", "finite"])
@pytest.mark.parametrize("mode", ["analytic", "mc"])
def test_cli_pass_keys_each_source_as_a_loop_of_one_point_keys(capsys, tmp_path, monkeypatch, mode, regime):
    path = two_source_pass_config(tmp_path)
    cfg = load_run_config(path)
    reports = []
    monkeypatch.setattr("satqkd.cli._emit", lambda report, out_dir: reports.append(report))
    calls = count_key_calls(monkeypatch)
    for step in (1.0, 0.7):
        for seed in ((3, 8) if mode == "mc" else (None,)):
            argv = ["pass", "--config", str(path), "--mode", mode, "--regime", regime, "--step", str(step)]
            assert main(argv + (["--seed", str(seed)] if seed else [])) == 0
            assert len(calls) == 1  # both sources in one key call
            calls.clear()
            report = reports.pop()
            segments = cfg.channel.pass_profile.segments(step, cfg.channel.excess_loss_db)
            streams = np.random.SeedSequence(seed).spawn(2) if seed else [None, None]
            total = 0.0
            for src, stream, block in zip(cfg.sources, streams, report["sources"]):
                tally = pass_tally(*segments, src, cfg.receiver, cfg.e_det(src), mode, stream)
                key = key_from_tally(src, tally, cfg.security, regime)
                assert typed(block["key"]) == typed(key.to_dict())
                assert block["tally"] == tally.to_dict()
                assert key.secret_key_length > 0
                total += key.secret_key_length
            assert report["combined_key_length_bits"] == total


@pytest.mark.parametrize("regime", ["asymptotic", "finite"])
def test_cli_keyrate_sums_the_one_point_keys_of_each_source(capsys, tmp_path, monkeypatch, regime):
    path = two_source_config(tmp_path, 1000)
    cfg = load_run_config(path)
    calls = count_key_calls(monkeypatch)
    code, out, _ = run_cli(capsys, "keyrate", "--config", str(path), "--sweep", "0:60:0.5", "--regime", regime,
                           "--duration", "100")
    assert code == 0 and len(calls) == 1  # both sources over every loss in one key call
    rows = json.loads(out)["rows"]
    losses = (0.5 * np.arange(121)).tolist()
    assert [row["loss_db"] for row in rows] == losses
    both = 0
    for row, loss in zip(rows, losses):
        rates = [key_from_fixed_loss(src, loss, cfg.receiver, cfg.e_det(src), cfg.security, 100.0,
                                     regime).secret_key_rate for src in cfg.sources]
        assert row["key_rate_bps"] == 0.0 + rates[0] + rates[1]
        both += rates[0] > 0 and rates[1] > 0
    assert 0 < both < len(rows)


def test_cli_pass_source_that_sends_no_whole_pulse_keys_nothing_and_the_other_as_alone(capsys, tmp_path):
    # at 1e-4 Hz the second source sends 0.04 pulses over the pass, which the MC rounds to none
    path = two_source_pass_config(tmp_path, (None, 1e-4))
    code, out, _ = run_cli(capsys, "pass", "--config", str(path), "--mode", "mc", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    first, second = report["sources"]
    reason = "no whole pulse sent above the minimum elevation"
    assert second["key"] == {"sifted_bits": 0.0, "qber_signal": 0.5, "y1_lower": 0.0, "e1_upper": None,
                             "y0_estimate": 0.0, "secret_key_length_bits": 0.0, "secret_key_rate_bps": 0.0,
                             "regime": "finite", "reason": reason}
    cells = {f"{label}/{basis}": dict.fromkeys(COUNTS, 0.0)
             for label in ("decoy", "signal", "vacuum") for basis in ("X", "Z")}
    assert second["tally"] == {"total_pulses": 0.0, "elapsed_s": 0.0, "cells": cells}
    # the first source draws child 0 of the seed's streams whatever the number of sources
    data = yaml.safe_load(path.read_text())
    data["sources"] = data["sources"][:1]
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    code, out, _ = run_cli(capsys, "pass", "--config", str(path), "--mode", "mc", "--seed", "3")
    assert code == 0
    assert json.loads(out)["sources"] == [first] and first["key"]["secret_key_length_bits"] > 0
    assert report["combined_key_length_bits"] == first["key"]["secret_key_length_bits"]


# (repetition rates, seed): 4 or 9 pulses per source, or 436 and 2, so that the first class to send none lies
# in the first source or in the second
TINY_PASSES = [((0.01, 0.01), 1), ((0.01, 0.01), 2), ((1.0, 0.005), 1), ((1.0, 0.005), 2), ((0.02, 0.02), 1),
               ((0.02, 0.02), 2)]


@pytest.mark.parametrize("rates,seed", TINY_PASSES)
def test_cli_pass_names_the_empty_class_that_keying_source_by_source_names(capsys, tmp_path, rates, seed):
    path = two_source_pass_config(tmp_path, rates)
    cfg = load_run_config(path)
    segments = cfg.channel.pass_profile.segments(1.0, cfg.channel.excess_loss_db)
    streams = np.random.SeedSequence(seed).spawn(2)
    with pytest.raises(DomainError, match="no pulses sent in class") as loop:
        for src, stream in zip(cfg.sources, streams):
            key_from_tally(src, pass_tally(*segments, src, cfg.receiver, cfg.e_det(src), "mc", stream),
                           cfg.security, "finite")
    code, out, err = run_cli(capsys, "pass", "--config", str(path), "--mode", "mc", "--seed", str(seed))
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "domain", "message": str(loop.value)}


@pytest.mark.parametrize("block_pulses,seed,label", [(1, 1, "decoy"), (1, 3, "decoy"), (3, 5, "vacuum")])
def test_cli_simulate_names_the_empty_class_that_keying_source_by_source_names(
        capsys, tmp_path, block_pulses, seed, label):
    # checked class by class over both sources, seeds 1 and 3 would name signal
    cfg = replace(default_run_config(), block_pulses=block_pulses)
    path = tmp_path / "tiny_block.yaml"
    save_run_config(cfg, path)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--seed", str(seed))
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "domain", "message": f"no pulses sent in class {label}"}


def test_cli_stdout_of_every_command_is_the_indented_sorted_json_dump(capsys, tmp_path, config_path):
    passes = tmp_path / "pass.yaml"
    passes.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    two = two_source_config(tmp_path, 200_000)
    argvs = [
        ["simulate", "--config", str(two), "--loss-db", "30"],
        ["keyrate", "--sweep", "0:70:5"],
        ["pass", "--config", str(passes)],
        ["pass", "--config", str(passes), "--mode", "mc", "--seed", "3"],
        ["optimize", "--loss-db", "38", "--mu-points", "4"],
        ["analyze-histogram", str(gaussian_csv(tmp_path / "histogram.csv", "time_ps,counts"))],
        ["analyze-spectrum", str(gaussian_csv(tmp_path / "spectrum.csv", "wavelength_nm,intensity"))],
        ["report-distinguishability", "--config", str(two)],
    ]
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv[0]


def test_cli_distinguishability_tie_reports_the_first_pair(capsys, tmp_path):
    # four copies of one diode, one pulse width for signal and decoy: every pair scores the same
    cfg = default_run_config()
    widths = {IntensityLabel.SIGNAL: 700.0, IntensityLabel.DECOY: 700.0}
    cfg = replace(cfg, sources=tuple(
        replace(src, diode_profiles=tuple(replace(src.diode_profiles[0], polarization=d.polarization,
                                                  pulse_fwhm_by_class_ps=widths)
                                          for d in src.diode_profiles))
        for src in cfg.sources
    ))
    path = tmp_path / "identical.yaml"
    save_run_config(cfg, path)
    code, out, _ = run_cli(capsys, "report-distinguishability", "--config", str(path))
    assert code == 0
    for src in json.loads(out)["sources"]:
        pairs = src["pairs"]
        assert len(pairs) == 28 and len({p["score"] for p in pairs}) == 1
        assert src["worst_pair"] == {k: pairs[0][k] for k in ("mode_a", "mode_b", "score")}


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
    (SOURCE + ["wavelength_label_nm"], -5.0, f"{WHERE}: wavelength_label_nm must be finite and > 0, got -5.0"),
    (SOURCE + ["wavelength_label_nm"], 0.0, f"{WHERE}: wavelength_label_nm must be finite and > 0, got 0.0"),
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


@pytest.mark.parametrize("text,hint", [("1e-7", True), ("1E+3", True), ("'0.5'", True), ("abc", False), ("nan", False)])
def test_cli_number_that_yaml_reads_as_text_gets_the_exponent_rule(capsys, config_path, tmp_path, text, hint):
    path = tmp_path / "text_number.yaml"
    path.write_text(config_path.read_text().replace("background_click_prob: 0.0", f"background_click_prob: {text}"))
    assert f"background_click_prob: {text}" in path.read_text()
    code, out, err = run_cli(capsys, "optimize", "--config", str(path), "--loss-db", "40", "--mu-points", "3")
    assert code == 2 and out == ""
    message = json.loads(err)["message"]
    assert message.startswith("config.channel.background_click_prob: expected a number, got ")
    rule = " (YAML 1.1 reads it as text: write it with a decimal point and a signed exponent, e.g. 1.0e-7)"
    assert message.endswith(rule) == hint


BAD_SPANS = ["0", "-1", "nan", "inf"]


@pytest.mark.parametrize("value", BAD_SPANS)
def test_cli_pass_step_not_finite_and_positive_is_domain_error(capsys, config_path, tmp_path, value):
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    code, out, err = run_cli(capsys, "pass", "--config", str(path), f"--step={value}")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "step must be finite and > 0" in report["message"]


def child_env() -> dict:
    """The environment of a child Python process that imports this satqkd."""
    path = os.pathsep.join(filter(None, [str(Path(satqkd.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli_bounded(*argv, seconds: float = 60.0):
    """The CLI in a child process under a time limit and a 2 GiB address-space limit.

    A walk or grid that runs away then fails the test instead of filling the
    machine's memory or hanging the suite.
    """
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run([sys.executable, "-m", "satqkd.cli", *argv], capture_output=True, text=True,
                          timeout=seconds, preexec_fn=limit_memory, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_pass_step_over_the_step_cap_is_domain_error(config_path, tmp_path):
    # 1e-4 s steps cut the synthesized 60-degree pass into more than MAX_PASS_STEPS (1e6) steps
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(pass_mode_data(config_path)))
    code, out, err = run_cli_bounded("pass", "--config", str(path), "--step", "1e-4")
    assert code == 4 and out == ""
    report = json.loads(err)
    assert report["error"] == "domain" and "into more than 1000000 steps" in report["message"]


def test_cli_pass_step_below_half_an_ulp_of_the_clock_walks_the_pass(config_path, tmp_path):
    # at t = 1e6 s half an ulp is 5.8e-11 s, so t + 5e-11 == t; step k starts at t0 + k * 5e-11,
    # and the 2e5 steps cover the 1e-5 s pass
    csv = tmp_path / "late_pass.csv"
    t0, t1 = 1000000.0, 1000000.00001
    csv.write_text(f"time_s,elevation_deg\n{t0!r},30.0\n{t1!r},31.0\n")
    data = pass_mode_data(config_path)
    data["channel"]["pass"] = {"csv_path": str(csv)}
    path = tmp_path / "late_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli_bounded("pass", "--config", str(path), "--step", "5e-11")
    assert code == 0 and err == ""
    for src, report in zip(data["sources"], json.loads(out)["sources"]):
        rate = src["repetition_rate_hz"]
        assert report["tally"]["total_pulses"] == pytest.approx(rate * (t1 - t0), abs=rate * 2 * math.ulp(t1))


# (sweep, text of the refusal): unbounded walks that would fill memory, and walks that key nothing
BAD_SWEEPS = [
    ("nan:60:1", "must be finite"), ("0:nan:1", "must be finite"), ("0:60:nan", "must be finite"),
    ("0:inf:1", "must be finite"),
    ("0:1e6:1e-9", "more than 1000000 points"),
    ("0:1e308:1e-300", "more than 1000000 points"),  # (hi - lo) / step overflows to inf
]


@pytest.mark.parametrize("sweep,message", BAD_SWEEPS, ids=[s for s, _ in BAD_SWEEPS])
def test_cli_sweep_not_finite_or_unbounded_is_usage_error(sweep, message):
    code, out, err = run_cli_bounded("keyrate", f"--sweep={sweep}")
    assert code == 2 and out == ""
    assert message in err


def test_cli_sweep_step_below_an_ulp_of_lo_is_one_row():
    # 1e17 + 1 == 1e17, so the sweep is the one loss lo
    code, out, _ = run_cli_bounded("keyrate", "--sweep=1e17:1e17:1")
    assert code == 0
    assert [row["loss_db"] for row in json.loads(out)["rows"]] == [1e17]


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


@pytest.mark.parametrize("command", ["pass", "keyrate"])  # a CSV pass is read when the config loads
def test_cli_pass_csv_error_is_file_format_error(capsys, config_path, tmp_path, command):
    bad_csv = tmp_path / "pass.csv"
    bad_csv.write_text("t,el\n0,10\n1,11\n")
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"csv_path": str(bad_csv)}}
    path = tmp_path / "csv_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "file-format"


NOT_UTF8 = b"seed: 1\n\xff junk: 1\n"  # 0xff starts no UTF-8 character


def test_cli_csv_pass_not_utf8_is_file_format_error(capsys, config_path, tmp_path):
    bad_csv = tmp_path / "pass.csv"
    bad_csv.write_bytes(b"time_s,elevation_deg\n0,10\n" + NOT_UTF8)
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"csv_path": str(bad_csv)}}
    path = tmp_path / "csv_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "pass", "--config", str(path))
    assert code == 3 and out == ""
    report = json.loads(err)
    assert report["error"] == "file-format" and "not UTF-8" in report["message"]


def test_cli_histogram_not_utf8_is_file_format_error(capsys, tmp_path):
    bad_csv = tmp_path / "histogram.csv"
    bad_csv.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "analyze-histogram", str(bad_csv))
    assert code == 3 and out == ""
    report = json.loads(err)
    assert report["error"] == "file-format" and "not UTF-8" in report["message"]


YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda l: l.__name__)
def test_cli_config_not_utf8_is_invalid_yaml(capsys, monkeypatch, tmp_path, loader):
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    path = tmp_path / "not_utf8.yaml"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "invalid YAML" in report["message"]


# each anchor one list deeper than the last: the reader builds it without recursion, at any stack depth
ALIAS_CHAIN = "[&a0 [], " + ", ".join(f"&a{i} [*a{i - 1}]" for i in range(1, 3000)) + "]"


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda l: l.__name__)
# under an unknown key, and under a known one whose value is refused with its repr in the message; run from a
# shell, a 985- or 990-deep value is read, as the 100-deep one and the alias chain are anywhere, and the whole
# repr of each made a line of thousands of bytes or passed the recursion limit
@pytest.mark.parametrize("key, value", [
    ("junk", "[" * 3000), ("junk", "[" * 3000 + "]" * 3000), ("seed", "[" * 3000),
    ("seed", "[" * 3000 + "]" * 3000), ("seed", "[" * 100 + "]" * 100), ("seed", "[" * 985 + "]" * 985),
    ("seed", "[" * 990 + "]" * 990), ("seed", ALIAS_CHAIN),
], ids=["junk-open", "junk-closed", "seed-open", "seed-closed", "seed-100", "seed-985", "seed-990",
        "seed-alias-chain"])
def test_cli_config_nested_past_the_recursion_limit_is_one_config_error(capsys, monkeypatch, config_path, loader,
                                                                        key, value):
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    with config_path.open("a") as fh:
        fh.write(f"{key}: {value}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config_path))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "config"
    assert len(line.replace(str(config_path), "").encode()) <= 200  # one short line, however deep the value


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


@pytest.mark.parametrize("command", ["pass", "keyrate"])
def test_cli_missing_pass_csv_is_file_format_error(capsys, config_path, tmp_path, command):
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"csv_path": str(tmp_path / "missing.csv")}}
    path = tmp_path / "missing_csv_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, command, "--config", str(path))
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


@pytest.mark.parametrize("command", ["pass", "keyrate"])
def test_cli_pass_csv_with_nan_elevation_is_config_error(capsys, config_path, tmp_path, command):
    # the NaN sample once dropped the steps around it and keyed the rest of the pass
    csv_path = tmp_path / "pass.csv"
    csv_path.write_text("time_s,elevation_deg\n0,5\n100,40\n200,nan\n300,40\n400,5\n")
    data = yaml.safe_load(config_path.read_text())
    data["channel"] = {"mode": "pass", "pass": {"csv_path": str(csv_path)}}
    path = tmp_path / "nan_pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and "elevations must be in [0, 90] degrees" in report["message"]


@pytest.mark.parametrize("key,value,message", [
    ("zenith_atmospheric_db", -5.0, "zenith_atmospheric_db must be finite and >= 0"),
    ("receiver_diameter_m", 0.0, "receiver_diameter_m must be finite and > 0"),
    ("receiver_diameter_m", -1.0, "receiver_diameter_m must be finite and > 0"),
    ("orbit_altitude_m", 0.0, "orbit altitude must be finite and > 0"),
    ("max_elevation_deg", 5.0, "need min_elevation < max_elevation <= 90"),
    ("max_elevation_deg", 95.0, "need min_elevation < max_elevation <= 90"),
    ("step_s", 0.0, "step must be finite and > 0 s"),
    ("step_s", -1.0, "step must be finite and > 0 s"),
    ("step_s", 1e-4, "into more than 1000000 steps"),
    # the samples were clipped to 0 degrees: keyrate ran, and pass failed in the loss model
    ("min_elevation_deg", -5.0, "min_elevation_deg must be >= 0"),
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


@pytest.mark.parametrize("key,value", [("step_s", 1e300), ("max_elevation_deg", 10.0001)])
def test_cli_step_longer_than_half_the_pass_keys_its_exact_window(capsys, config_path, tmp_path, key, value):
    # both were refused while a synthesized pass was a grid of samples step_s apart, since a step longer
    # than half the pass left only the culmination; walked over the exact window, one step covers it
    data = pass_mode_data(config_path)
    data["channel"]["pass"][key] = value
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(data))
    for command in ("keyrate", "pass"):
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 0 and err == ""
    report = json.loads(out)
    window = load_run_config(path).channel.pass_profile.duration_s
    assert report["duration_s"] == window
    for src, block in zip(data["sources"], report["sources"]):
        pulses = src["repetition_rate_hz"] * window
        assert block["tally"]["total_pulses"] == pulses
        assert abs(block["tally"]["elapsed_s"] - window) <= 2 * math.ulp(window)  # pulses / rate


def test_cli_pass_elevation_csv_lists_the_midpoint_of_each_kept_step(capsys, config_path, tmp_path):
    dipping = tmp_path / "dipping.csv"  # its 9-degree sample drops the steps around it
    dipping.write_text("time_s,elevation_deg\n0,5\n3.3,40\n10.1,9\n11,12\n")
    for name, spec in (("synthesized", {"max_elevation_deg": 60.0, "step_s": 2.0}),
                       ("sampled", {"csv_path": str(dipping), "step_s": 0.7})):
        data = pass_mode_data(config_path)
        data["channel"]["pass"] = spec
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data))
        out_dir = tmp_path / name
        assert run_cli(capsys, "pass", "--config", str(path), "--out-dir", str(out_dir))[0] == 0
        with open(out_dir / "pass_elevation.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        times, elevations = np.array(rows, dtype=float).T
        profile = load_run_config(path).channel.pass_profile
        losses, durations = profile.segments(spec["step_s"])
        assert header == ["time_s", "elevation_deg"] and 0 < len(rows) == losses.size
        assert profile.loss_model(elevations).tolist() == losses.tolist()
        assert profile.elevation(times).tolist() == elevations.tolist()
        assert np.all(times - durations / 2.0 >= profile.start_s) and np.all(times + durations / 2.0 <= profile.end_s)
        assert np.all(np.diff(times) > 0)


@pytest.mark.parametrize("command", ["keyrate", "pass"])
def test_cli_min_elevation_of_zero_keys_the_pass_down_to_the_horizon(capsys, config_path, tmp_path, command):
    data = pass_mode_data(config_path)
    data["channel"]["pass"]["min_elevation_deg"] = 0.0
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 0 and err == ""
    if command == "pass":
        assert json.loads(out)["combined_key_length_bits"] > 0


@pytest.mark.parametrize("argv", [["keyrate", "--sweep", "40:40:1", "--duration", "1e301"],
                                  ["optimize", "--loss-db", "40", "--mu-points", "3", "--duration", "1e308"]],
                         ids=["keyrate", "optimize"])
def test_cli_duration_whose_pulse_count_overflows_is_domain_error(capsys, argv):
    # duration_s * repetition_rate_hz was inf: a RuntimeWarning, then a decoy bound blamed the intensities
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["error"] == "domain" and "duration" in report["message"]


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
    ["--band-center=-inf", "--band-halfwidth", "2.5"],  # "=": argparse takes a bare "-inf" for a flag
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


@pytest.mark.parametrize("argv,name", [
    (["keyrate", "--sweep", "30:31:1"], "report.json"),
    (["keyrate", "--sweep", "30:31:1"], "keyrate_vs_loss.csv"),
    (["report-distinguishability"], "distinguishability_785nm.csv"),
], ids=["report", "csv", "csv_of_a_source"])
def test_cli_out_dir_file_that_cannot_be_written_is_config_error(capsys, tmp_path, argv, name):
    # a directory takes the file's name: a file mode would not stop a run as root. The report was
    # once printed, then the write raised IsADirectoryError
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "config",
                                "message": f"--out-dir {out_dir}: cannot write {name}: Is a directory"}


@pytest.mark.parametrize("shards", [0, 2, 100_000])
def test_cli_shards_other_than_one_is_config_error(capsys, config_path, tmp_path, shards):
    # each source's block is one Monte Carlo stream; shards: 100000 once cost 38 s of shard set-up
    data = yaml.safe_load(config_path.read_text())
    data["shards"] = shards
    path = tmp_path / "sharded.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--loss-db", "30")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "config" and f"shards must be 1, got {shards}" in report["message"]


def test_cli_simulate_workers_other_than_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers: invalid choice: 2" in capsys.readouterr().err


def test_cli_simulate_takes_the_benchmark_argv(capsys, config_path):
    # the benchmark writes shards: 1 and passes --workers 1; both still mean the one stream per source
    data = yaml.safe_load(config_path.read_text())
    assert data["shards"] == 1
    argv = ["simulate", "--config", str(config_path), "--seed", "3", "--loss-db", "35", "--regime", "finite"]
    code, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0 and json.loads(out)["shards"] == 1
    assert run_cli(capsys, *argv) == (0, out, "")
