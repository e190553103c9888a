"""One workload in one fresh process; started by run.py, not by hand.

    python3 bench/worker.py --workload NAME --seed N --seconds S --role ROLE

Set-up imports fwlab, builds the spectral quadrature tables the workload
uses and draws its instances from the seed, then prints ``READY``.  Role
``setup`` stops there.  Role ``measure`` runs the unit of work in whole
rounds over the instance pool for ``--seconds``, checking every result.
Role ``trace`` spends half of ``--seconds`` untraced and half traced, and
writes the span file and the per-layer table.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fwlab
import workloads
from fwlab import fourier_metric as fm
from calibration import calibrate, rescale
from tracing import (
    PER_LAYER,
    Tracer,
    layer_busy,
    layer_table,
    per_layer_metrics,
    summarize,
    write_spans,
)

RESULTS = Path(__file__).resolve().parent / "results"


def set_up(workload, seed: int) -> list:
    for cfg in workload.tables().values():
        fm.weight_mass(cfg)  # fills the quadrature table cache
    return [
        workload.make_instance(np.random.default_rng([seed, k])) for k in range(workload.pool)
    ]


def run_rounds(workload, instances: list, seconds: float) -> dict:
    """Units of work in whole rounds over the pool until ``seconds`` have passed.

    Each unit sits between two calibration loops and its time is kept both
    as wall seconds and rescaled to the reference speed.  Outputs are kept
    with their instance index and checked afterwards, so that neither the
    checks nor their references count in the timings or in the peak
    resident set size.
    """
    wall, times, outputs = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        for k, inst in enumerate(instances):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.solve(inst)
            except Exception:  # a failed unit is counted, and the run goes on
                failed += 1
                traceback.print_exc()
                continue
            wall.append(time.perf_counter() - t0)
            after = calibrate()
            times.append(rescale(wall[-1], before, after))
            before = after
            outputs.append((k, out))
        if time.perf_counter() >= deadline:
            break
    return {
        "attempted": attempted, "failed": failed, "times": times, "wall": wall, "outputs": outputs,
    }


def check_outputs(workload, instances: list, outputs: list) -> list:
    refs = [workload.references(inst) for inst in instances]
    return [p for k, out in outputs for p in workload.check(out, refs[k])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    tracer = Tracer()
    t_setup = time.perf_counter()
    if args.role == "trace":
        tracer.install_setup()
    instances = set_up(workload, args.seed)
    t_ready = time.perf_counter()
    tracer.restore()
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    seconds = args.seconds if args.role == "measure" else args.seconds / 2.0
    plain = run_rounds(workload, instances, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.role == "trace":
        tracer.install_ops()
        traced_instances = [workload.trace(inst, tracer.wrap) for inst in instances]
        t_ops = time.perf_counter()
        traced = run_rounds(workload, traced_instances, seconds)
        t_end = time.perf_counter()
        tracer.restore()
        n_ops = len(traced["times"]) or 1
        solve = {
            "untraced": statistics.median(plain["times"] or [0.0]),
            "traced": statistics.median(traced["times"] or [0.0]),
        }
        setup_rows = summarize(tracer, tracer.spans(t_setup, t_ready))
        op_spans = tracer.spans(t_ops, t_end)
        op_rows = summarize(tracer, op_spans)
        table = layer_table(setup_rows, op_rows, layer_busy(tracer, op_spans), n_ops, solve)
        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / f"{args.workload}-seed{args.seed}"
        write_spans(f"{stem}-spans.npz", tracer, op_spans)
        Path(f"{stem}-layers.txt").write_text(table)
        sys.stderr.write(table)
        per_layer = per_layer_metrics(
            tracer, setup_rows, op_rows, n_ops, solve["traced"] - solve["untraced"]
        )
    runs = [plain] if args.role == "measure" else [plain, traced]
    problems = check_outputs(workload, instances, [o for r in runs for o in r["outputs"]])
    result = {
        "fwlab": fwlab.__file__,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": not problems,
        "problems": problems[:5],
        "solve_s": plain["times"],
        "solve_wall_s": plain["wall"],
        "peak_rss_mb": peak_rss_mb,
    }
    if args.role == "trace":
        result["per_layer"] = {
            name: {"value": value, "unit": PER_LAYER[name]} for name, value in per_layer.items()
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
