"""Command-line entry points.

Every subcommand prints one machine-readable JSON report to stdout and can
additionally drop flat CSV series into --out-dir for plotting. Each
diagnostic on stderr, an error or a warning, is one JSON object on one line.
Exit codes: 0 success, 2 config/schema error, 3 data-file format error,
4 domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import RunConfig, default_run_config, load_run_config, to_dict
from .errors import ConfigError, FileFormatError, SatQkdError
from .optimizer import Axis, SearchSpace, optimize
from .protocol import empty_pass_reason, fixed_loss_tally, key_tallies, pass_tally, simulate_block
from .source import distinguishability_report

EXIT_CONFIG = 2
EXIT_FILE = 3
EXIT_DOMAIN = 4
# the error name and exit code of each error class, the most specific first
ERROR_EXITS = ((ConfigError, "config", EXIT_CONFIG), (FileFormatError, "file-format", EXIT_FILE),
               (SatQkdError, "domain", EXIT_DOMAIN))

MAX_SWEEP_POINTS = 1_000_000  # losses of one keyrate sweep, as many as the steps of one pass walk


def _make_out_dir(out_dir: Optional[str]):
    """Create --out-dir before the command runs, so that a path no directory can take is a config error."""
    if out_dir:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out-dir {out_dir}: cannot make the directory: {exc.strerror}") from exc


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float.__repr__ -> json's text


def _key_text(key) -> str:
    """A dict key that is not a str as json converts it to one."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        text = float.__repr__(key)
        return _NON_FINITE.get(text, text)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(value, newline: str, put):
    """Put the text of value, nested at the indent that newline ends in, piece by piece."""
    if isinstance(value, float):  # float and its subclasses, such as np.float64
        text = float.__repr__(value)
        put(_NON_FINITE.get(text, text))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            put(sep + encode_basestring_ascii(key if key.__class__ is str else _key_text(key)) + ": ")
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):  # int and its subclasses but bool
        put(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def json_text(value) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True), written in one pass.

    json's indented encoder is its pure-Python generator, about twice as
    slow. Keys, numbers, strings and the TypeError of a value json cannot
    encode are json's; a report holds no reference cycle, which json would
    refuse with a ValueError.
    """
    pieces = []
    _write_json(value, "\n", pieces.append)
    return "".join(pieces)


def _write_out_file(out_dir: str, name: str, write, newline: Optional[str] = None):
    """Call write on out_dir/name, opened for text; a file that cannot be written is a config error."""
    try:
        with open(Path(out_dir) / name, "w", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"--out-dir {out_dir}: cannot write {name}: {exc.strerror}") from exc


def _emit(report: dict, out_dir: Optional[str]):
    """Print the report, once --out-dir's report.json holds it: a failed write prints nothing."""
    text = json_text(report)
    if out_dir:
        _write_out_file(out_dir, "report.json", lambda fh: fh.write(text + "\n"))
    print(text)


def _write_csv(out_dir: Optional[str], name: str, header, rows):
    if not out_dir:
        return

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _write_out_file(out_dir, name, write, newline="")


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_run_config(args.config)
    else:
        cfg = default_run_config()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)  # checked by RunConfig, as a YAML seed is
    if getattr(args, "loss_db", None) is not None:
        cfg = replace(cfg, channel=replace(cfg.channel, mode="fixed", fixed_loss_db=args.loss_db, pass_spec=None))
    return cfg


def _total_fixed_loss(cfg: RunConfig) -> float:
    if cfg.channel.mode != "fixed":
        raise ConfigError(f"a channel in {cfg.channel.mode} mode has no fixed loss: give --loss-db, "
                          "or run the pass command")
    return cfg.channel.fixed_loss_db + cfg.channel.excess_loss_db


def _source_blocks(sources, tallies, keys):
    """Each source's report block, from its one-point tally and its point of the keys, and the sums of their key
    lengths and rates, which start at 0 and add the sources in order."""
    source_keys = [keys.point(i) for i in range(len(sources))]
    blocks = [{"wavelength_nm": src.wavelength_label_nm, "tally": tally.to_dict(), "key": key.to_dict()}
              for src, tally, key in zip(sources, tallies, source_keys)]
    return blocks, sum(key.secret_key_length for key in source_keys), sum(key.secret_key_rate for key in source_keys)


def cmd_simulate(args) -> dict:
    cfg = _load_config(args)
    loss = _total_fixed_loss(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.sources))  # one independent stream per source
    tallies = [simulate_block(src, loss, cfg.receiver, cfg.e_det(src), cfg.block_pulses, seed=stream)
               for src, stream in zip(cfg.sources, streams)]
    blocks, length, rate = _source_blocks(cfg.sources, tallies,
                                          key_tallies(cfg.sources, tallies, cfg.security, args.regime))
    return {
        "command": "simulate",
        "loss_db": loss,
        "seed": cfg.seed,
        "shards": cfg.shards,
        "regime": args.regime,
        "sources": blocks,
        "combined_key_length_bits": length,
        "combined_key_rate_bps": rate,
        "config": to_dict(cfg),
    }


def cmd_keyrate(args) -> dict:
    cfg = _load_config(args)
    losses = args.sweep
    total_losses = [loss + cfg.channel.excess_loss_db for loss in losses]
    tallies = [fixed_loss_tally(src, total_losses, cfg.receiver, cfg.e_det(src), args.duration)
               for src in cfg.sources]
    keys = key_tallies(cfg.sources, tallies, cfg.security, args.regime)
    # a row per source; the sum starts at 0 and adds the sources in order
    rates = sum(keys.secret_key_rate.reshape(len(cfg.sources), -1)).tolist()
    losses = [round(loss, 12) for loss in losses]
    _write_csv(args.out_dir, "keyrate_vs_loss.csv", ["loss_db", "key_rate_bps"], zip(losses, rates))
    return {
        "command": "keyrate",
        "regime": args.regime,
        "duration_s": args.duration,
        "rows": [{"loss_db": l, "key_rate_bps": r} for l, r in zip(losses, rates)],
    }


def cmd_pass(args) -> dict:
    if args.mode == "analytic" and args.seed is not None:
        raise ConfigError("--seed applies only to --mode mc: the analytic pass draws no random numbers")
    cfg = _load_config(args)
    if cfg.channel.mode != "pass":
        raise ConfigError("pass command requires a channel in pass mode")
    profile = cfg.channel.pass_profile
    step = cfg.channel.pass_spec.step_s if args.step is None else args.step
    segments = profile.segments(step, cfg.channel.excess_loss_db)  # shared by every source
    # one independent stream per source; the analytic pass draws none, and so never loads numpy.random
    streams = (np.random.SeedSequence(cfg.seed).spawn(len(cfg.sources)) if args.mode == "mc"
               else [None] * len(cfg.sources))
    tallies = [pass_tally(*segments, src, cfg.receiver, cfg.e_det(src), args.mode, stream)
               for src, stream in zip(cfg.sources, streams)]
    keys = key_tallies(cfg.sources, tallies, cfg.security, args.regime, empty_pass_reason(segments[0]))
    blocks, length, _ = _source_blocks(cfg.sources, tallies, keys)
    if args.out_dir:  # the midpoint of each kept step, walked again only here
        _write_csv(args.out_dir, "pass_elevation.csv", ["time_s", "elevation_deg"], zip(*profile.walk(step)[:2]))
    return {
        "command": "pass",
        "duration_s": profile.duration_s,
        "regime": args.regime,
        "mode": args.mode,
        "sources": blocks,
        "combined_key_length_bits": length,
    }


def cmd_optimize(args) -> dict:
    cfg = _load_config(args)
    axes = {
        "mu_signal": Axis(args.mu_min, args.mu_max, args.mu_points),
        "mu_decoy": Axis(args.mu_min, args.mu_max, args.mu_points),
    }
    result = optimize(
        SearchSpace(axes=axes), cfg.sources[0], _total_fixed_loss(cfg), cfg.receiver,
        cfg.e_det(cfg.sources[0]), cfg.security, regime=args.regime,
        duration_s=args.duration,
    )
    _write_csv(args.out_dir, "optimize_grid.csv", list(result.table), zip(*result.table.values()))
    return {
        "command": "optimize",
        "wavelength_nm": cfg.sources[0].wavelength_label_nm,  # the source searched: only the first
        "best_params": result.best_params,
        "best_key_length_bits": result.best_key_length,
        "grid_points": len(result.table["key_length_bits"]),
    }


def cmd_analyze_histogram(args) -> dict:
    from .analysis import estimate_peak, load_series  # only the analyze commands load analysis

    est = estimate_peak(load_series(args.file, "time_ps", "counts"))
    return {
        "command": "analyze-histogram",
        "file": str(args.file),
        "peak_time_ps": est.peak_x,
        "fwhm_ps": est.fwhm,
        "left_crossing_ps": est.left_crossing,
        "right_crossing_ps": est.right_crossing,
        "multi_peak": est.multi_peak,
    }


def cmd_analyze_spectrum(args) -> dict:
    if (args.band_center is None) != (args.band_halfwidth is None):
        raise ConfigError("--band-center and --band-halfwidth must be given together")
    if args.band_center is not None and not (math.isfinite(args.band_center)
                                             and 0.0 <= args.band_halfwidth < math.inf):
        raise ConfigError("--band-center must be finite and --band-halfwidth finite and >= 0")
    from .analysis import centroid, estimate_peak, load_series

    series = load_series(args.file, "wavelength_nm", "intensity")
    est = estimate_peak(series)
    center = centroid(series, est)
    return {
        "command": "analyze-spectrum",
        "file": str(args.file),
        "center_nm": center,
        "fwhm_nm": est.fwhm,
        "in_band": None if args.band_center is None else abs(center - args.band_center) <= args.band_halfwidth,
        "multi_peak": est.multi_peak,
    }


def cmd_report_distinguishability(args) -> dict:
    cfg = _load_config(args)
    reports = []
    for src in cfg.sources:
        rows = distinguishability_report(src, temp_c=args.temp)
        columns = list(rows[0])  # every row has the same keys
        _write_csv(args.out_dir, f"distinguishability_{src.wavelength_label_nm:g}nm.csv", columns,
                   ([r[k] for k in columns] for r in rows))
        worst = max(rows, key=lambda r: r["score"])  # the first of equal scores
        reports.append({"wavelength_nm": src.wavelength_label_nm, "pairs": rows,
                        "worst_pair": {k: worst[k] for k in ("mode_a", "mode_b", "score")}})
    return {"command": "report-distinguishability", "temp_c": args.temp, "sources": reports}


def _sweep_spec(text: str) -> list:
    """The losses lo + k * step, k = 0, 1, ..., up to hi of a LO:HI:STEP sweep; at most MAX_SWEEP_POINTS of them."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise argparse.ArgumentTypeError("sweep lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("sweep needs hi >= lo and step > 0")
    last = (hi + 1e-9 - lo) / step  # the last k, as a float: it can be too large for an int, or inf
    if last >= MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(f"sweep has more than {MAX_SWEEP_POINTS} points")
    return (lo + step * np.arange(math.floor(last) + 1)).tolist()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The satqkd argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(prog="satqkd", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags that change its output
    def common(p, config=True, seed=False, loss_db=False):
        if config:
            p.add_argument("--config", help="YAML run configuration")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        if loss_db:
            p.add_argument("--loss-db", type=float, help="override with a fixed channel loss")
        p.add_argument("--out-dir", help="directory for report.json and CSV series")

    p = sub.add_parser("simulate", help="Monte Carlo block simulation and key extraction")
    common(p, seed=True, loss_db=True)
    p.add_argument("--regime", choices=["asymptotic", "finite"], default="finite")
    p.add_argument("--workers", type=int, choices=[1], default=1,
                   help="only 1: each source's block is one Monte Carlo draw")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("keyrate", help="analytic key-rate sweep over channel loss")
    common(p)
    p.add_argument("--sweep", type=_sweep_spec, default="0:60:1", metavar="LO:HI:STEP")
    p.add_argument("--regime", choices=["asymptotic", "finite"], default="asymptotic")
    p.add_argument("--duration", type=float, default=300.0, help="block duration in seconds")
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("pass", help="integrate a satellite pass into one pooled key")
    common(p, seed=True)
    p.add_argument("--regime", choices=["asymptotic", "finite"], default="finite")
    p.add_argument("--mode", choices=["analytic", "mc"], default="analytic")
    p.add_argument("--step", type=float, help="walk step in seconds (default: the config's pass.step_s)")
    p.set_defaults(func=cmd_pass)

    p = sub.add_parser("optimize", help="grid search over source intensities")
    common(p, loss_db=True)
    p.add_argument("--regime", choices=["asymptotic", "finite"], default="asymptotic")
    p.add_argument("--mu-min", type=float, default=0.05)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--mu-points", type=int, default=20)
    p.add_argument("--duration", type=float, default=1.0)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("analyze-histogram", help="FWHM of a TCSPC histogram CSV")
    p.add_argument("file")
    common(p, config=False)
    p.set_defaults(func=cmd_analyze_histogram)

    p = sub.add_parser("analyze-spectrum", help="center and FWHM of a spectrum CSV")
    p.add_argument("file")
    p.add_argument("--band-center", type=float, help="band check center, nm")
    p.add_argument("--band-halfwidth", type=float, help="band check half width, nm")
    common(p, config=False)
    p.set_defaults(func=cmd_analyze_spectrum)

    p = sub.add_parser("report-distinguishability", help="pairwise mode overlap table")
    common(p)
    p.add_argument("--temp", type=float, default=25.0, help="operating temperature, degC")
    p.set_defaults(func=cmd_report_distinguishability)

    return parser


def _diagnostic(**fields):
    """One diagnostic on stderr, as one JSON object on one line."""
    print(json.dumps(fields), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = None
    # the warnings filters stay as they are; a warning they let through is recorded, not printed
    with warnings.catch_warnings(record=True) as caught:
        try:
            _make_out_dir(args.out_dir)
            _emit(args.func(args), args.out_dir)
        except SatQkdError as exc:
            error = exc
    for warning in caught:
        _diagnostic(warning=warning.category.__name__, message=str(warning.message))
    if error is not None:
        name, code = next((name, code) for kind, name, code in ERROR_EXITS if isinstance(error, kind))
        _diagnostic(error=name, message=str(error))
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
