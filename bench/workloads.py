"""The three workloads: generated configs, CLI argument lists and output checks.

An op is one plan: one config derived from ``configs/default.yaml`` and the
``satqkd`` commands run on it; plan ``j`` draws its inputs from the workload
seed and ``j`` only. Drawn values follow a golden-ratio sequence from a
seeded offset, so any prefix of plans covers its range evenly and runs of
different lengths see the same mix. The checks use only the reports and the
independent model in ``oracle``; none depends on the exact random draws of
the Monte Carlo.
"""

from __future__ import annotations

import copy
import math
import random

from oracle import PooledCounts, asymptotic_key, expected_cells

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REL = 1e-9  # relative slack for comparisons between floating-point keys


class Draw:
    """Value ``i`` of a stratified sequence in [lo, hi]."""

    def __init__(self, rng: random.Random, lo: float, hi: float):
        self.lo, self.hi, self.offset = lo, hi, rng.random()

    def __call__(self, i: int) -> float:
        return self.lo + (self.hi - self.lo) * ((self.offset + i * GOLDEN) % 1.0)


def _finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0


def tally_problems(where: str, tally: dict) -> list:
    out = []
    for name, c in tally["cells"].items():
        if not 0 <= c["errors"] <= c["sifted"] <= c["detected"] <= c["sent"]:
            out.append(f"{where} {name}: need errors <= sifted <= detected <= sent, got {c}")
    sent = sum(c["sent"] for c in tally["cells"].values())
    if abs(sent - tally["total_pulses"]) > REL * max(1.0, tally["total_pulses"]):
        out.append(f"{where}: cells sum to {sent} sent, total_pulses is {tally['total_pulses']}")
    return out


def key_problems(where: str, key: dict, asymptotic=None) -> list:
    out = [
        f"{where}: {f} = {key[f]!r} is not finite and >= 0"
        for f in ("secret_key_length_bits", "secret_key_rate_bps")
        if not _finite_nonneg(key[f])
    ]
    if asymptotic is not None and not out:
        if key["secret_key_length_bits"] > asymptotic * (1.0 + REL) + REL:
            out.append(f"{where}: finite key {key['secret_key_length_bits']} > asymptotic {asymptotic}")
    return out


def source_problems(cfg: dict, where: str, sources: list) -> list:
    """Tally and key checks of every per-source block of a finite-regime report."""
    out = []
    if len(sources) != len(cfg["sources"]):
        return [f"{where}: {len(sources)} source blocks for {len(cfg['sources'])} sources"]
    for j, (block, src) in enumerate(zip(sources, cfg["sources"])):
        out += tally_problems(f"{where} source {j}", block["tally"])
        out += key_problems(f"{where} source {j}", block["key"],
                            asymptotic_key(cfg, src, block["tally"]))
    return out


class Workload:
    """How plan ``j``'s config and commands are made, and how its reports are checked."""

    name = ""
    count_ops = 1  # the traced run reports counts over this many first ops

    def __init__(self, base: dict, seed: int, smoke: bool):
        self.base = base
        self.rng = random.Random(f"{self.name}/{seed}")
        self.plan_seeds = random.Random(f"{self.name}/{seed}/ops")
        self.seeds = []
        if smoke:
            self.count_ops = 2

    def plan_seed(self, j: int) -> int:
        while len(self.seeds) <= j:
            self.seeds.append(self.plan_seeds.randrange(1, 2**31))
        return self.seeds[j]

    def config(self, j: int) -> dict:
        raise NotImplementedError

    def argvs(self, j: int, path: str) -> list:
        raise NotImplementedError

    def check(self, j: int, cfg: dict, path: str, reports: list, run_cli, pool: bool) -> list:
        """Problems found in plan ``j``'s reports; ``pool`` adds them to the run's pooled counts."""
        raise NotImplementedError

    def work(self, reports: list) -> tuple:
        """(key evaluations, pulses simulated) of one plan, from its reports."""
        raise NotImplementedError

    def finish(self) -> list:
        return []


class MCWorkload(Workload):
    """A Monte Carlo workload: its tallies are pooled over the run for the 5-sigma check."""

    count_ops = 4

    def __init__(self, base, seed, smoke):
        super().__init__(base, seed, smoke)
        self.pooled = PooledCounts()

    def work(self, reports):
        (rep,) = reports
        return len(rep["sources"]), sum(s["tally"]["total_pulses"] for s in rep["sources"])

    def finish(self):
        return self.pooled.problems()


class MCBlock(MCWorkload):
    """``satqkd simulate``: one full 2e6-pulse chunk per source at a drawn fixed loss."""

    name = "mc_block"

    def __init__(self, base, seed, smoke):
        super().__init__(base, seed, smoke)
        self.loss = Draw(self.rng, 30.0, 40.0)
        self.cfg = copy.deepcopy(base)
        self.cfg.update(block_pulses=20_000 if smoke else 2_000_000, shards=1)

    def config(self, j):
        return self.cfg

    def argvs(self, j, path):
        return [["simulate", "--config", path, "--seed", str(self.plan_seed(j)),
                 "--loss-db", repr(self.loss(j)), "--regime", "finite", "--workers", "1"]]

    def check(self, j, cfg, path, reports, run_cli, pool):
        (rep,) = reports
        out = source_problems(cfg, "simulate", rep["sources"])
        if pool and not out:
            for block, src in zip(rep["sources"], cfg["sources"]):
                self.pooled.add(block["tally"]["cells"],
                                expected_cells(cfg, src, self.loss(j), cfg["block_pulses"]))
        return out


def pass_config(base: dict, culmination_deg: float, rate_hz=None) -> dict:
    cfg = copy.deepcopy(base)
    if rate_hz is not None:
        for src in cfg["sources"]:
            src["repetition_rate_hz"] = rate_hz
    cfg["channel"] = dict(cfg["channel"], mode="pass", **{"pass": {
        "max_elevation_deg": culmination_deg,
        "orbit_altitude_m": 500e3,
        "min_elevation_deg": 10.0,
        "step_s": 1.0,
    }})
    return cfg


class MCPass(MCWorkload):
    """``satqkd pass --mode mc``: a 500 km pass at 1e4 Hz, one 1 s block per segment."""

    name = "mc_pass"

    def __init__(self, base, seed, smoke):
        super().__init__(base, seed, smoke)
        self.culmination = Draw(self.rng, 30.0, 90.0)
        self.rate_hz = 1e3 if smoke else 1e4
        self.step = "10" if smoke else "1"

    def config(self, j):
        return pass_config(self.base, self.culmination(j), self.rate_hz)

    def argvs(self, j, path):
        return [["pass", "--config", path, "--mode", "mc", "--regime", "finite",
                 "--step", self.step, "--seed", str(self.plan_seed(j))]]

    def check(self, j, cfg, path, reports, run_cli, pool):
        (rep,) = reports
        out = source_problems(cfg, "pass mc", rep["sources"])
        if pool and not out:
            # the analytic route over the same segments gives the expected tallies
            expected = run_cli(["pass", "--config", path, "--mode", "analytic",
                                "--regime", "finite", "--step", self.step])
            for block, exp in zip(rep["sources"], expected["sources"]):
                self.pooled.add(block["tally"]["cells"], exp["tally"]["cells"])
        return out


class AnalyticPlan(Workload):
    """``keyrate`` sweep, analytic finite ``pass`` at 100 MHz, and a 20x20 ``optimize``."""

    name = "analytic_plan"
    count_ops = 20

    def __init__(self, base, seed, smoke):
        super().__init__(base, seed, smoke)
        self.culmination = Draw(self.rng, 30.0, 90.0)
        self.loss = Draw(self.rng, 35.0, 45.0)
        self.sweep = "20:60:2" if smoke else "20:60:0.5"
        self.step = "10" if smoke else "1"

    def config(self, j):
        return pass_config(self.base, self.culmination(j))

    def argvs(self, j, path):
        return [
            ["keyrate", "--config", path, "--sweep", self.sweep],
            ["pass", "--config", path, "--regime", "finite", "--step", self.step],
            ["optimize", "--config", path, "--loss-db", repr(self.loss(j))],
        ]

    def check(self, j, cfg, path, reports, run_cli, pool):
        keyrate, pass_rep, opt = reports
        out = []
        rows = keyrate["rows"]
        rates = [r["key_rate_bps"] for r in rows]
        out += [f"keyrate at {r['loss_db']} dB: rate {r['key_rate_bps']!r} is not finite and >= 0"
                for r in rows if not _finite_nonneg(r["key_rate_bps"])]
        if not out:
            out += [f"keyrate rises from {rows[k]['loss_db']} to {rows[k + 1]['loss_db']} dB"
                    for k in range(len(rates) - 1) if rates[k + 1] > rates[k] * (1.0 + REL)]
            if not any(r["loss_db"] == 40.0 and r["key_rate_bps"] > 0 for r in rows):
                out.append("keyrate: no positive rate at 40 dB")
            if any(r["loss_db"] >= 50.0 and r["key_rate_bps"] != 0 for r in rows):
                out.append("keyrate: nonzero rate at or beyond 50 dB")
        out += source_problems(cfg, "pass analytic", pass_rep["sources"])
        if not pass_rep["combined_key_length_bits"] > 0:
            out.append(f"pass analytic: combined key {pass_rep['combined_key_length_bits']!r} is not > 0")
        src = cfg["sources"][0]
        default = asymptotic_key(cfg, src, {"cells": expected_cells(
            cfg, src, self.loss(j) + cfg["channel"].get("excess_loss_db", 0.0), src["repetition_rate_hz"])})
        best = opt["best_key_length_bits"]
        if not _finite_nonneg(best) or best < default * (1.0 - REL):
            out.append(f"optimize: best key {best!r} below the default mu pair's {default}")
        return out

    def work(self, reports):
        keyrate, pass_rep, opt = reports
        n_sources = len(pass_rep["sources"])
        return len(keyrate["rows"]) * n_sources + n_sources + opt["grid_points"], 0


WORKLOADS = {w.name: w for w in (MCBlock, MCPass, AnalyticPlan)}
