"""Span tracing at fwlab's module boundaries, from the benchmark's side.

The tracer wraps module attributes (public functions, the names a module
imported from another, the closures a workload carries) so that each call
records a span: its name, start, end and the span that was open when it
began.  Spans stay in memory until the run ends.  Nothing inside ``src/``
is edited; ``restore`` puts every original back.
"""

from __future__ import annotations

import json
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from fwlab import _optim
from fwlab import comparison_harness as ch
from fwlab import filtering_sim as fs
from fwlab import fourier_metric as fm
from fwlab import hamiltonians as ham
from fwlab import prediction_game as pg
from fwlab import sobolev as sb

ROOT = Path(__file__).resolve().parent.parent
# per-layer metric name -> unit, as BENCHMARK.json lists them; the metric
# "<layer>.<boundary>.calls" or ".s" reads the spans named "<layer>.<boundary>"
PER_LAYER = {
    m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}
LAYERS = tuple(name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s"))


def _count_success(counts, args, result):
    counts["comparison_harness.polish.success_ratio"] += bool(result.success)


def _count_converged(counts, args, result):
    counts["optim.ascent.converged_ratio"] += bool(result[2])


def _count_points(counts, args, result):
    counts["fourier_metric.kappa_field.points"] += np.atleast_2d(args[0]).shape[0]


class Tracer:
    """In-memory span recorder that patches module attributes."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return(counts, args, result)``
        adds counts measured at the same boundary."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    def replace(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, on_return=None):
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), on_return))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def install_setup(self):
        """Boundaries crossed while set-up builds the spectral tables."""
        self.patch(fm, "default_config", "fourier_metric.quadrature")
        self.patch(fm, "_quadrature", "fourier_metric.quadrature")

    def install_ops(self):
        """Boundaries crossed by the units of work.

        Names a module imported from another are patched where they are
        looked up, e.g. ``projected_gradient_ascent`` in both
        ``comparison_harness`` and ``_optim``.
        """
        self.patch(ch, "doubling_maximize", "comparison_harness.doubling")
        self.patch(ch, "FixedSupportMetric", "comparison_harness.gram")
        polish = self.wrap("comparison_harness.polish", ch.optimize.minimize, _count_success)
        self.replace(ch, "optimize", types.SimpleNamespace(minimize=polish))
        for owner in (ch, _optim):
            self.patch(owner, "projected_gradient_ascent", "optim.ascent", _count_converged)
        for factory in ("kappa_gradient_field", "kappa_hessian_field"):
            make_field = getattr(fm, factory)
            self.replace(fm, factory, self._field_factory(make_field))
        self.patch(fm, "make_kappa", "fourier_metric.make_kappa")
        self.patch(fm, "char_fn_batch", "measures.char_fn_batch")
        for attr in ("K_filtering", "G_filtering", "K_regret", "G_regret"):
            self.patch(ham, attr, f"hamiltonians.{attr}")
        self.patch(sb, "dissipation_check", "sobolev.dissipation_check")
        self.patch(fs, "estimate_cost", "filtering_sim.estimate_cost")
        self.patch(pg, "monte_carlo_regret", "prediction_game.monte_carlo")
        self.patch(pg, "step", "prediction_game.step")
        self.patch(pg, "exact_value_small", "prediction_game.exact_value")
        self.patch(pg, "linprog", "prediction_game.lp")

    def _field_factory(self, make_field):
        def factory(kernel):
            return self.wrap("fourier_metric.kappa_field", make_field(kernel), _count_points)

        return factory

    def spans(self, t0: float, t1: float) -> dict:
        """Spans that started in [t0, t1), as arrays; parents re-indexed, -1 at the top."""
        start = np.array(self.span_start, dtype=float)
        keep = np.flatnonzero((start >= t0) & (start < t1))
        new_index = np.full(len(start) + 1, -1)
        new_index[keep] = np.arange(keep.size)
        parent = np.array(self.span_parent, dtype=np.int64)[keep]
        return {
            "name": np.array(self.span_name, dtype=np.int64)[keep],
            "parent": new_index[parent],
            "start": start[keep],
            "end": np.array(self.span_end, dtype=float)[keep],
        }


def summarize(tracer: Tracer, spans: dict) -> dict:
    """Per span name: calls, busy time and self time over the given spans.

    Busy time sums the spans of a name whose parent span has another name
    (no traced boundary here calls itself through another); self time is
    each span's duration minus the time its direct children cover.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    name = spans["name"]
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    out = {}
    for nid, label in enumerate(tracer.names):
        mine = name == nid
        out[label] = {
            "calls": int(np.count_nonzero(mine)),
            "busy_s": float(np.sum(dur[mine & (parent_name != nid)])),
            "self_s": float(np.sum(self_time[mine])),
        }
    return out


# metrics that are not "<span>.calls" or "<span>.s" of a span seen in the units of work
COUNTED = ("fourier_metric.kappa_field.points", "filtering_sim.particle_steps")
RATIOS = {
    "comparison_harness.polish.success_ratio": "comparison_harness.polish",
    "optim.ascent.converged_ratio": "optim.ascent",
}
ALIASES = {
    "prediction_game.rounds": "prediction_game.step.calls",
    "prediction_game.lp.solves": "prediction_game.lp.calls",
}
SETUP_METRICS = ("fourier_metric.quadrature.s",)


def layer_busy(tracer: Tracer, spans: dict) -> dict:
    """Per layer: the time one of its spans is open, i.e. the summed duration
    of its spans that have no ancestor span in the same layer."""
    prefixes = [label.split(".")[0] for label in tracer.names]
    ids = {p: i for i, p in enumerate(dict.fromkeys(prefixes))}
    layer = [ids[prefixes[n]] for n in spans["name"].tolist()]
    dur = spans["end"] - spans["start"]
    busy = [0.0] * len(ids)
    above = []  # bit mask of the layers on each span's ancestor chain
    # parents start before their children, so they come first
    for i, p in enumerate(spans["parent"].tolist()):
        mask = above[p] | (1 << layer[p]) if p >= 0 else 0
        above.append(mask)
        if not (mask >> layer[i]) & 1:
            busy[layer[i]] += float(dur[i])
    return {p: busy[i] for p, i in ids.items()}


def _layer_self(rows: dict, layer: str) -> float:
    return sum(row["self_s"] for label, row in rows.items() if label.split(".")[0] == layer)


def per_layer_metrics(
    tracer: Tracer, setup: dict, ops: dict, n_ops: int, overhead_s: float
) -> dict:
    """The PER_LAYER metrics, per unit of work; set-up metrics per process.

    A ratio is useful outcomes over calls at its boundary, 0 when the
    workload never crosses that boundary.
    """
    values = {}
    for metric in PER_LAYER:
        span, _, field = ALIASES.get(metric, metric).rpartition(".")
        if metric in COUNTED:
            values[metric] = tracer.counts[metric] / n_ops
        elif metric in RATIOS:
            calls = ops.get(RATIOS[metric], {}).get("calls", 0)
            values[metric] = tracer.counts[metric] / calls if calls else 0.0
        elif metric in SETUP_METRICS:
            values[metric] = setup.get(span, {}).get("busy_s", 0.0)
        elif metric == "trace.overhead_s":
            values[metric] = overhead_s
        elif field == "self_s":
            values[metric] = _layer_self(ops, span) / n_ops
        else:
            key = "calls" if field == "calls" else "busy_s"
            values[metric] = ops.get(span, {}).get(key, 0) / n_ops
    return values


def layer_table(setup: dict, ops: dict, busy: dict, n_ops: int, solve: dict) -> str:
    """Human-readable per-boundary and per-layer table (times per unit of work)."""
    lines = [f"{'span':<40} {'calls/op':>12} {'busy s/op':>11} {'self s/op':>11}"]
    for label in sorted(label for label, row in ops.items() if row["calls"]):
        row = ops[label]
        lines.append(
            f"{label:<40} {row['calls'] / n_ops:>12.1f} "
            f"{row['busy_s'] / n_ops:>11.5f} {row['self_s'] / n_ops:>11.5f}"
        )
    lines.append("")
    lines.append(f"{'layer':<40} {'':>12} {'busy s/op':>11} {'self s/op':>11}")
    for layer in LAYERS:
        lines.append(
            f"{layer:<40} {'':>12} {busy.get(layer, 0.0) / n_ops:>11.5f} "
            f"{_layer_self(ops, layer) / n_ops:>11.5f}"
        )
    quad = setup.get("fourier_metric.quadrature", {})
    lines.append("")
    lines.append(
        f"set-up quadrature: {quad.get('calls', 0)} calls, {quad.get('busy_s', 0.0):.5f} s"
    )
    lines.append(
        f"rescaled solve_s median: untraced {solve['untraced']:.5f} s, "
        f"traced {solve['traced']:.5f} s, "
        f"overhead {solve['traced'] - solve['untraced']:.5f} s over {n_ops} traced units"
    )
    return "\n".join(lines) + "\n"


def write_spans(path, tracer: Tracer, spans: dict) -> None:
    """Span file: the name list plus per-span name index, parent index (-1 at
    the top), start and end (``time.perf_counter`` seconds)."""
    np.savez_compressed(
        path,
        names=np.array(json.dumps(tracer.names)),
        **spans,
    )
