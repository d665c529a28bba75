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
from pathlib import Path
from typing import Optional

from . import __version__
from .analysis import estimate_fwhm, estimate_spectrum, load_histogram_csv, load_spectrum_csv
from .config import RunConfig, default_run_config, load_run_config, to_dict
from .errors import ConfigError, FileFormatError, SatQkdError
from .optimizer import Axis, SearchSpace, optimize
from .protocol import integrate_pass, key_from_fixed_loss, key_from_tally, simulate_block
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


def _emit(report: dict, out_dir: Optional[str]):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    print(text)
    if out_dir:
        (Path(out_dir) / "report.json").write_text(text + "\n")


def _write_csv(out_dir: Optional[str], name: str, header, rows):
    if not out_dir:
        return
    with open(Path(out_dir) / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_run_config(args.config)
    else:
        cfg = default_run_config()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)  # checked by RunConfig, as a YAML seed is
    if getattr(args, "loss_db", None) is not None:
        cfg.channel = replace(cfg.channel, mode="fixed", fixed_loss_db=args.loss_db, pass_spec=None)
    return cfg


def _total_fixed_loss(cfg: RunConfig) -> float:
    if cfg.channel.mode != "fixed":
        raise ConfigError(f"a channel in {cfg.channel.mode} mode has no fixed loss: give --loss-db, "
                          "or run the pass command")
    return cfg.channel.fixed_loss_db + cfg.channel.excess_loss_db


def cmd_simulate(args) -> dict:
    cfg = _load_config(args)
    loss = _total_fixed_loss(cfg)
    per_source = []
    total_length = 0.0
    total_rate = 0.0
    for i, src in enumerate(cfg.sources):
        tally = simulate_block(
            src, loss, cfg.receiver, cfg.e_det(src), cfg.block_pulses,
            seed=cfg.seed + i, shards=cfg.shards, workers=args.workers,
        )
        result = key_from_tally(src, tally, cfg.security, args.regime)
        total_length += result.secret_key_length
        total_rate += result.secret_key_rate
        per_source.append(
            {
                "wavelength_nm": src.wavelength_label_nm,
                "tally": tally.to_dict(),
                "key": result.to_dict(),
            }
        )
    return {
        "command": "simulate",
        "loss_db": loss,
        "seed": cfg.seed,
        "shards": cfg.shards,
        "regime": args.regime,
        "sources": per_source,
        "combined_key_length_bits": total_length,
        "combined_key_rate_bps": total_rate,
        "config": to_dict(cfg),
    }


def cmd_keyrate(args) -> dict:
    cfg = _load_config(args)
    losses = args.sweep
    total_losses = [loss + cfg.channel.excess_loss_db for loss in losses]
    # one call per source over the whole sweep; the sum starts at 0 and adds the sources in order
    rates = sum(
        key_from_fixed_loss(src, total_losses, cfg.receiver, cfg.e_det(src), cfg.security,
                            duration_s=args.duration, regime=args.regime).secret_key_rate
        for src in cfg.sources
    ).tolist()
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
    segments = profile.segments(args.step, cfg.channel.excess_loss_db)  # shared by every source
    per_source = []
    total = 0.0
    for i, src in enumerate(cfg.sources):
        result, tally = integrate_pass(
            *segments, src, cfg.receiver, cfg.e_det(src), cfg.security,
            regime=args.regime, mode=args.mode, seed=cfg.seed + i,
        )
        total += result.secret_key_length
        per_source.append(
            {"wavelength_nm": src.wavelength_label_nm, "key": result.to_dict(),
             "tally": tally.to_dict()}
        )
    _write_csv(
        args.out_dir, "pass_elevation.csv", ["time_s", "elevation_deg"],
        zip(profile.times_s, profile.elevations_deg),
    )
    return {
        "command": "pass",
        "duration_s": profile.duration_s,
        "regime": args.regime,
        "mode": args.mode,
        "sources": per_source,
        "combined_key_length_bits": total,
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
    if result.table:
        header = list(result.table[0].keys())
        _write_csv(args.out_dir, "optimize_grid.csv", header,
                   ([row[h] for h in header] for row in result.table))
    return {
        "command": "optimize",
        "best_params": result.best_params,
        "best_key_length_bits": result.best_key_length,
        "grid_points": len(result.table),
    }


def cmd_analyze_histogram(args) -> dict:
    series = load_histogram_csv(args.file)
    est = estimate_fwhm(series)
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
    series = load_spectrum_csv(args.file)
    est = estimate_spectrum(series, band_center_nm=args.band_center, band_halfwidth_nm=args.band_halfwidth)
    return {
        "command": "analyze-spectrum",
        "file": str(args.file),
        "center_nm": est.center,
        "fwhm_nm": est.fwhm,
        "in_band": est.in_band,
        "multi_peak": est.multi_peak,
    }


def cmd_report_distinguishability(args) -> dict:
    cfg = _load_config(args)
    reports = []
    for src in cfg.sources:
        rows = distinguishability_report(src, temp_c=args.temp)
        columns = list(rows[0])  # every row has the same keys
        _write_csv(args.out_dir, f"distinguishability_{int(src.wavelength_label_nm)}nm.csv", columns,
                   ([r[k] for k in columns] for r in rows))
        worst = max(rows, key=lambda r: r["score"])  # the first of equal scores
        reports.append({"wavelength_nm": src.wavelength_label_nm, "pairs": rows,
                        "worst_pair": {k: worst[k] for k in ("mode_a", "mode_b", "score")}})
    return {"command": "report-distinguishability", "temp_c": args.temp, "sources": reports}


def _sweep_spec(text: str) -> list:
    """The losses lo, lo + step, ... up to hi of a LO:HI:STEP sweep; at most MAX_SWEEP_POINTS of them."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise argparse.ArgumentTypeError("sweep lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("sweep needs hi >= lo and step > 0")
    losses = []
    loss = lo
    while loss <= hi + 1e-9:
        if len(losses) == MAX_SWEEP_POINTS:
            raise argparse.ArgumentTypeError(f"sweep has more than {MAX_SWEEP_POINTS} points")
        if loss + step == loss:
            raise argparse.ArgumentTypeError(f"sweep step {step:g} is too small to move the loss from {loss:g}")
        losses.append(loss)
        loss += step
    return losses


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
    p.add_argument("--workers", type=int, default=1, help="threads; changes only the speed")
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
    p.add_argument("--step", type=float, default=1.0, help="integration step in seconds")
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
            report = args.func(args)
        except SatQkdError as exc:
            error = exc
    for warning in caught:
        _diagnostic(warning=warning.category.__name__, message=str(warning.message))
    if error is not None:
        name, code = next((name, code) for kind, name, code in ERROR_EXITS if isinstance(error, kind))
        _diagnostic(error=name, message=str(error))
        return code
    _emit(report, args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
