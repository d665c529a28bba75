"""Closed-loop benchmark of the satqkd command-line paths.

One run measures one workload in this process and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 bench/run.py --workload mc_block --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from spans recorded around satqkd's public functions. ``--workload all``
runs every workload, each in its own fresh process, and prints one table;
``--size smoke`` shrinks every op so that the whole harness, checks
included, runs in seconds. Details and the reasons behind each workload are
in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 20  # set-ups per untraced run, spread evenly over its measuring time

END_TO_END = {
    "setup_s": "s",
    "keys_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "op_ok_ratio": "ratio",
}

# traced-run metric -> (unit, source). Times are seconds per traced op,
# averaged over every traced op; counts are per op over the workload's first
# ``count_ops`` ops, so they repeat exactly for a given seed.
PER_LAYER = {
    "config.load_s": ("s/op", ("s", "config.load")),
    "config.loads": ("count/op", ("count", "config.load_calls")),
    "cli.self_s": ("s/op", ("self_s", "cli.main")),
    "cli.report_bytes": ("B/op", ("count", "cli.report_bytes")),
    "channel.loss_model_calls": ("count/op", ("count", "channel.loss_model_calls")),
    "channel.loss_model_s": ("s/op", ("s", "channel.loss_model")),
    "channel.elevation_at_calls": ("count/op", ("count", "channel.elevation_at_calls")),
    "receiver.measure_batch_s": ("s/op", ("s", "receiver.measure_batch")),
    "receiver.measure_batch_calls": ("count/op", ("count", "receiver.measure_batch_calls")),
    "receiver.pulses_measured": ("count/op", ("count", "receiver.pulses_measured")),
    "receiver.detections": ("count/op", ("count", "receiver.detections")),
    "receiver.detected_ratio": ("ratio", None),
    "protocol.simulate_block_self_s": ("s/op", ("self_s", "protocol.simulate_block")),
    "protocol.simulate_block_calls": ("count/op", ("count", "protocol.simulate_block_calls")),
    "protocol.pulses_simulated": ("count/op", ("count", "protocol.pulses_simulated")),
    "protocol.integrate_pass_self_s": ("s/op", ("self_s", "protocol.integrate_pass")),
    "protocol.tally_merges": ("count/op", ("count", "protocol.tally_merge_calls")),
    "protocol.key_from_fixed_loss_self_s": ("s/op", ("self_s", "protocol.key_from_fixed_loss")),
    "protocol.analytic_rates_calls": ("count/op", ("count", "protocol.analytic_rates_calls")),
    "protocol.analytic_tallies_calls": ("count/op", ("count", "protocol.analytic_tallies_calls")),
    "protocol.decoy_bounds_calls": ("count/op", ("count", "protocol.decoy_bounds_calls")),
    "protocol.decoy_bounds_s": ("s/op", ("s", "protocol.decoy_bounds")),
    "protocol.key_length_calls": ("count/op", ("count", "protocol.key_length_calls")),
    "protocol.key_length_s": ("s/op", ("s", "protocol.key_length")),
    "protocol.key_evals": ("count/op", ("count", "key_evals")),
    "optimizer.optimize_s": ("s/op", ("s", "optimizer.optimize")),
    "optimizer.grid_points": ("count/op", ("count", "optimizer.grid_points")),
    "mpulse_per_s": ("Mpulse/s", None),
    "trace.op_s_p50": ("s", None),
    "trace.overhead_s": ("s", None),
}


class HarnessError(Exception):
    """The checkout cannot be benchmarked; nothing was measured."""


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


# ---------------------------------------------------------------------------
# machine context, reported with every run and never used to scale a metric


def steal_ticks():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def calibration_s() -> float:
    """A fixed loop of pure Python plus one numpy reduction; no satqkd."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    acc += float(np.sqrt(np.arange(250_000, dtype=np.float64)).sum())
    return perf_counter() - start


# ---------------------------------------------------------------------------
# set-up


def use_checkout_sources() -> Path:
    """Put the checkout's ``src`` first on the import path and import the dependencies.

    numpy and PyYAML are imported here, before any clock starts: their
    import is not set-up of the program and stays out of ``setup_s``.
    satqkd's bytecode is compiled here too, as an install would, so that
    ``setup_s`` does not depend on whether the interpreter may write
    ``__pycache__`` (``PYTHONDONTWRITEBYTECODE``) or a previous run did.
    """
    src = ROOT / "src"
    if not (src / "satqkd" / "cli.py").is_file():
        raise HarnessError(f"no satqkd sources under {src}")
    if not compileall.compile_dir(str(src / "satqkd"), quiet=1):
        raise HarnessError(f"cannot compile the satqkd sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import yaml  # noqa: F401

    return src


def set_up(src: Path, config_path: Path) -> float:
    """Seconds for a fresh import of ``satqkd.cli`` plus one config load.

    Every satqkd module is dropped first, so each call imports the package
    anew; ops that follow use the modules of the latest call.
    """
    for name in [n for n in sys.modules if n == "satqkd" or n.startswith("satqkd.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("satqkd.cli")
    sys.modules["satqkd.config"].load_run_config(str(config_path))
    seconds = perf_counter() - start
    origin = Path(sys.modules["satqkd"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise HarnessError(f"satqkd was imported from {origin}, not from {src}")
    return seconds


def base_config() -> dict:
    import yaml

    path = ROOT / "configs" / "default.yaml"
    if not path.is_file():
        raise HarnessError(f"missing {path}")
    with open(path) as fh:
        return yaml.safe_load(fh)


def write_config(cfg: dict, path: Path):
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)


# ---------------------------------------------------------------------------
# one run


def call_cli(argv):
    """Run ``satqkd.cli.main`` in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["satqkd.cli"].main
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = main(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def untimed_cli(argv) -> dict:
    code, text, err, _ = call_cli(argv)
    if code != 0:
        raise RuntimeError(f"satqkd {' '.join(argv)} exited {code}: {err.strip()}")
    return json.loads(text)


def run_op(workload, i, cfg, path, tracer, pool):
    """Op ``i``: every command of plan ``i`` on its config ``cfg`` at ``path``, timed, then checked."""
    commands = workload.argvs(i, str(path))
    gc.collect()  # every op starts with the same collector state
    texts, problems, seconds = [], [], 0.0
    if tracer is not None:
        tracer.open_op(i)
    try:
        for argv in commands:
            code, text, err, dt = call_cli(argv)
            seconds += dt
            texts.append(text)
            if code != 0:
                problems.append(f"satqkd {argv[0]} exited {code}: {err.strip()}")
                break
    except Exception:  # a crash in the program is a failed op, not a harness error
        problems.append(traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.close_op()
    record = {"op": i, "traced": tracer is not None, "seconds": seconds,
              "report_bytes": sum(len(t) for t in texts), "key_evals": 0, "pulses": 0}
    if not problems:
        try:
            reports = [json.loads(t) for t in texts]
            problems += workload.check(i, cfg, str(path), reports, untimed_cli, pool)
            record["key_evals"], record["pulses"] = workload.work(reports)
        except Exception:
            problems.append(traceback.format_exc())
    record["problems"] = problems
    return record


def tail_level(n: int):
    """The highest of p90, p95, p99 with at least ten of ``n`` ops beyond it, or None."""
    levels = [p for p in (90, 95, 99) if n * (100 - p) / 100 >= 10]
    return levels[-1] if levels else None


def end_to_end(records, setup_times) -> tuple:
    """The gated metrics, and the op-time distribution, which is printed but not gated.

    Op time is gated as throughput, a sum over the whole run. On a shared
    host the median and tail of pure-Python op times jump between the
    host's fast and slow spells from run to run, by more than their bound.
    """
    times = [r["seconds"] for r in records]
    ok = sum(1 for r in records if not r["problems"])
    stats = {"op_s_min": min(times), "op_s_p50": statistics.median(times)}
    level = tail_level(len(times))
    if level is not None:
        stats[f"op_s_p{level}"] = percentile(times, level)
    return {
        "setup_s": statistics.median(setup_times),
        "keys_per_s": sum(r["key_evals"] for r in records) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ok_ratio": ok / len(records),
    }, stats


def per_layer(workload, records, tracer) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    prefix = {r["op"]: r for r in traced if r["op"] < workload.count_ops}
    counts = {}
    for op in prefix:
        for name, v in tracer.counts.get(op, {}).items():
            counts[name] = counts.get(name, 0) + v
    counts["cli.report_bytes"] = sum(r["report_bytes"] for r in prefix.values())
    counts["key_evals"] = sum(r["key_evals"] for r in prefix.values())
    totals = tracer.totals()
    metrics = {}
    for name, (_, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, key = source
        if kind == "count":
            metrics[name] = counts.get(key, 0) / len(prefix)
        else:
            metrics[name] = totals.get(key, {}).get(kind, 0.0) / len(traced)
    pulses = counts.get("receiver.pulses_measured", 0)
    metrics["receiver.detected_ratio"] = counts.get("receiver.detections", 0) / pulses if pulses else 0.0
    metrics["mpulse_per_s"] = sum(r["pulses"] for r in plain) / sum(r["seconds"] for r in plain) / 1e6
    metrics["trace.op_s_p50"] = statistics.median(r["seconds"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.op_s_p50"] - statistics.median(r["seconds"] for r in plain)
    return metrics


def run(args) -> int:
    from workloads import WORKLOADS

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "python": platform.python_version(), "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
    }
    steal_start = steal_ticks()
    context["calibration_before_s"] = calibration_s()

    workload = WORKLOADS[args.workload](base_config(), args.seed, args.size == "smoke")
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    setup_path = work_dir / "setup.yaml"
    try:
        src = use_checkout_sources()
        write_config(workload.config(0), setup_path)
        setup_times = [set_up(src, setup_path)]
        import numpy

        context.update(numpy=numpy.__version__, satqkd=sys.modules["satqkd"].__version__)

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            context["hooks_missing"] = tracer.missing

        records = []
        start = perf_counter()
        deadline = start + args.seconds
        i = 0
        while i < workload.count_ops or perf_counter() < deadline:
            cfg, path = workload.config(i), work_dir / "plan.yaml"
            write_config(cfg, path)
            # a traced run pairs each traced op with the same op untraced, in
            # alternating order, so the tracing overhead is measured in-run
            modes = [tracer, None] if i % 2 == 0 else [None, tracer]
            for k, mode in enumerate(modes if args.trace else [None]):
                records.append(run_op(workload, i, cfg, path, mode, pool=k == 0))
            i += 1
            # set-ups between ops sample the host over the whole run, not
            # only its first second; the tracer's wrappers would not survive one
            due = start + args.seconds * len(setup_times) / SETUP_SAMPLES
            if not args.trace and len(setup_times) < SETUP_SAMPLES and perf_counter() >= due:
                setup_times.append(set_up(src, setup_path))
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    pooled = workload.finish()
    failed = sum(1 for r in records if r["problems"])
    op_stats = {}
    if args.trace:
        metrics, units = per_layer(workload, records, tracer), {k: u for k, (u, _) in PER_LAYER.items()}
        note = f"{sum(1 for r in records if r['traced'])} traced ops"
    else:
        metrics, op_stats = end_to_end(records, setup_times)
        units, note = END_TO_END, "untraced"

    context["calibration_after_s"] = calibration_s()
    steal_end = steal_ticks()
    context["steal_ticks"] = None if steal_start is None else steal_end - steal_start
    result = {
        "correct": failed == 0 and not pooled,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail = {"context": context, "result": result, "op_time_stats": op_stats, "setup_s": setup_times,
              "pooled_problems": pooled, "ops": records}
    if tracer is not None:
        detail["trace"] = tracer.dump()
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail))

    for r in records:
        for p in r["problems"]:
            print(f"op {r['op']}: {p}", file=sys.stderr)
    for p in pooled:
        print(p, file=sys.stderr)
    print(json.dumps({"context": context}))
    print(f"{args.workload}: {len(records)} ops ({note}), {failed} failed; details in {out.relative_to(ROOT)}")
    for k, u in units.items():
        print(f"  {k:40s} {metrics[k]:14.6g} {u}")
    for k, v in op_stats.items():
        print(f"  {k:40s} {v:14.6g} s (not gated: moves with the host's load)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other; one table."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{name}: incorrect output\n{proc.stderr}", file=sys.stderr)
            status = 1
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for k, m in result["metrics"].items():
            print(f"  {k:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({name: result for name, result in rows}))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    try:
        return run(args)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
