"""Spans and counts around calls into satqkd's public functions.

The tracer never edits the program. It replaces module and class attributes
with wrappers, in the defining module and in every satqkd module that
imported the same object by name (``cli`` and ``protocol`` import most of
them), and puts the originals back on ``uninstall``. Spans and counts are
recorded only while an op is open, so the benchmark's own checks, which run
between ops, leave no trace.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


def _measure_batch_counts(counts, args, kwargs, result):
    photons = kwargs["photons"] if "photons" in kwargs else args[0]
    counts["receiver.pulses_measured"] += int(photons.size)
    counts["receiver.detections"] += int(result["detected"].sum())


def _simulate_block_counts(counts, args, kwargs, result):
    counts["protocol.pulses_simulated"] += int(result.total_pulses)


def _optimize_counts(counts, args, kwargs, result):
    counts["optimizer.grid_points"] += len(result.table)


# (module, attribute, record name, spanned, extra counts). A spanned hook
# records a span and a call count; the others only count calls.
HOOKS = (
    ("satqkd.config", "load_run_config", "config.load", True, None),
    ("satqkd.cli", "main", "cli.main", True, None),
    ("satqkd.channel", "ElevationLossModel.__call__", "channel.loss_model", True, None),
    ("satqkd.channel", "PassProfile.elevation_at", "channel.elevation_at", False, None),
    ("satqkd.receiver", "measure_batch", "receiver.measure_batch", True, _measure_batch_counts),
    ("satqkd.protocol", "simulate_block", "protocol.simulate_block", True, _simulate_block_counts),
    ("satqkd.protocol", "integrate_pass", "protocol.integrate_pass", True, None),
    ("satqkd.protocol", "key_from_fixed_loss", "protocol.key_from_fixed_loss", True, None),
    ("satqkd.protocol", "decoy_bounds", "protocol.decoy_bounds", True, None),
    ("satqkd.protocol", "key_length", "protocol.key_length", True, None),
    ("satqkd.protocol", "analytic_rates", "protocol.analytic_rates", False, None),
    ("satqkd.protocol", "analytic_tallies", "protocol.analytic_tallies", False, None),
    ("satqkd.protocol", "TallyTable.__add__", "protocol.tally_merge", False, None),
    ("satqkd.optimizer", "optimize", "optimizer.optimize", True, _optimize_counts),
)


class Tracer:
    """In-memory spans ``(name id, start, end, parent index, op id)`` and per-op counts."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {}  # op id -> Counter
        self.missing = []
        self._stack = []
        self._undo = []
        self._op = None
        self._op_counts = None

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- ops -------------------------------------------------------------

    def open_op(self, op_id: int):
        self._op = op_id
        self._op_counts = self.counts.setdefault(op_id, Counter())
        self._op_index = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._op_index)
        self._op_start = perf_counter()

    def close_op(self):
        self._end(self._name_id("op"), self._op_index, self._op_start)
        self._op = None
        self._op_counts = None

    def _end(self, name_id, index, start):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name_id, start, end, parent, self._op)

    # -- wrappers --------------------------------------------------------

    def _spanned(self, fn, name, extra):
        name_id = self._name_id(name)
        calls = name + "_calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(name_id, index, start)
            self._op_counts[calls] += 1
            if extra is not None:
                extra(self._op_counts, args, kwargs, result)
            return result

        return traced

    def _counted(self, fn, name):
        calls = name + "_calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._op is not None:
                self._op_counts[calls] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every hook that exists; record the ones the program no longer has."""
        for module_name, attr, name, spanned, extra in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._spanned(original, name, extra) if spanned else self._counted(original, name)
            targets = [owner] if owner_name else [
                m for n, m in sys.modules.items() if n == "satqkd" or n.startswith("satqkd.")
            ]
            for target in targets:
                if target is not None and vars(target).get(leaf) is original:
                    self._undo.append((target, leaf, original))
                    setattr(target, leaf, wrapper)

    def uninstall(self):
        for target, leaf, original in reversed(self._undo):
            setattr(target, leaf, original)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict:
        """Per name: {"s": summed duration, "self_s": duration minus child spans}."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            acc = out.setdefault(self.names[name_id], {"s": 0.0, "self_s": 0.0})
            acc["s"] += end - start
            acc["self_s"] += end - start - child[i]
        return out

    def dump(self) -> dict:
        """Compact form for writing out: times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_us", "end_us", "parent", "op"],
            "names": self.names,
            "spans": [
                [n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, op]
                for n, s, e, p, op in self.spans
            ],
        }
