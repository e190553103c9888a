"""fwlab benchmark: one workload, measured in fresh single processes.

    python3 bench/run.py --workload {doubling,constants,simulation} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; fwlab is imported from ``src/`` and
the sequence-form LP reference from ``tests/_oracles.py``.  With ``--trace
0`` it starts SETUP_SAMPLES fresh processes in turn, each timed from its
start to the end of its set-up, then one more that runs the unit of work
for ``--seconds``.  Times are rescaled to the reference speed (see
calibration.py).  With ``--trace 1`` a single process
runs the workload half untraced and half traced and reports the per-layer
metrics.  The last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate, rescale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("doubling", "constants", "simulation")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    env["PYTHONPATH"] = os.pathsep.join(path + [p for p in [env.get("PYTHONPATH")] if p])
    # one BLAS thread, within the two cores: with two, the first LAPACK call
    # of a fresh process sometimes stalled for a second on the reference box
    env.update({var: "1" for var in THREAD_VARIABLES})
    return env


def run_child(args, role: str, deadline: float) -> tuple:
    """Start one worker; return (seconds from start to READY, last stdout line)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{role} worker for {args.workload} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (ROOT / "src" / "fwlab" / "__init__.py", ROOT / "tests" / "_oracles.py"):
        if not needed.is_file():
            sys.stderr.write(f"run.py: {needed.relative_to(ROOT)} is missing; "
                             "run from the root of an fwlab checkout\n")
            return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    if args.trace:
        _, line = run_child(args, "trace", deadline)
    else:
        setups, before = [], calibrate()
        for _ in range(SETUP_SAMPLES):
            setup_s = run_child(args, "setup", deadline)[0]
            after = calibrate()
            setups.append(rescale(setup_s, before, after))
            before = after
        _, line = run_child(args, "measure", deadline)
    child = json.loads(line)
    if Path(child["fwlab"]).resolve().parent != ROOT / "src" / "fwlab":
        raise RuntimeError(f"fwlab was imported from {child['fwlab']}, not from src/")

    if args.trace:
        metrics = child["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(child["solve_s"]), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
        sys.stderr.write(
            f"{args.workload} seed {args.seed}: wall-clock solve median "
            f"{statistics.median(child['solve_wall_s']):.4f} s over {len(child['solve_s'])} units\n"
        )
    for problem in child["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    (BENCH / "results").mkdir(exist_ok=True)
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
