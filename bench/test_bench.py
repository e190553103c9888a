"""The benchmark's own tests.

    python3 -m pytest bench -q

Each output check passes on a real unit of work against its reference and
fails once that reference is perturbed; the tracer's busy and self times
add up on a known call tree; every per-layer metric reads a span the tracer
records; and run.py refuses a directory that holds no fwlab source.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import references as ref
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent


def _solved(name: str, seed: int = 3):
    workload = W.WORKLOADS[name]
    inst = workload.make_instance(np.random.default_rng([seed, 0]))
    return workload, workload.solve(inst), workload.references(inst)


@pytest.fixture(scope="module")
def doubling():
    return _solved("doubling")


@pytest.fixture(scope="module")
def constants():
    return _solved("constants")


@pytest.fixture(scope="module")
def simulation():
    return _solved("simulation")


def test_doubling_checks_fail_on_perturbed_references(doubling):
    workload, report, refs = doubling
    assert workload.check(report, refs) == []
    raised_floor = dict(refs, floor=max(report.stats["values"]) + 1e-3)
    assert any("below the diagonal floor" in p for p in workload.check(report, raised_floor))
    # a floor 0.1 too low leaves an excess that no longer vanishes with eps
    lowered_floor = dict(refs, floor=refs["floor"] - 0.1)
    assert any("exceeds" in p for p in workload.check(report, lowered_floor))
    flat_slope = dict(refs, slope=0.0)
    assert any("exceeds" in p for p in workload.check(report, flat_slope))
    failed_verdict = dataclasses.replace(report, passed=False)
    assert any("verdict" in p for p in workload.check(failed_verdict, refs))


def test_doubling_slope_bounds_measured_excess(doubling):
    # today's excess is about 0.0004..0.03 per unit eps; the bound is a
    # Lipschitz estimate and sits well above it
    _, report, refs = doubling
    excess = [(v - refs["floor"]) / e for v, e in zip(report.stats["values"], W.DOUBLING_EPS)]
    assert 0 < max(excess) < refs["slope"]


def test_constants_checks_fail_on_perturbed_references(constants):
    workload, out, refs = constants
    assert workload.check(out, refs) == []

    def fails(out=out, **changed):
        return workload.check(out, dict(refs, **changed)) != []

    sups = refs["regret_sups"]
    assert fails(regret_sups=[sups[0] + 1e-6] + sups[1:])
    lo, hi = refs["g_lq_bounds"]
    width = hi - lo
    assert fails(g_lq_bounds=(lo + 2 * width, hi + 2 * width))
    assert fails(g_lq_bounds=(lo - 2 * width, hi - 2 * width))
    assert fails(lipschitz_ratio_limit=0.5 * out["regret_stats"]["max_lipschitz_ratio"])
    assert fails(sign_gap_limit=out["regret_stats"]["max_sign_gap"] - 1e-6)
    # fitted constants pulled just under the largest held-out ratio
    worst = max(d / s for d, s in out["filter_held_out"])
    assert fails(dict(out, filter_modulus=worst * (1 - 1e-3) if worst > 0 else worst - 1e-3))
    worst = max(out["dissipation_held_out"])
    assert fails(dict(out, dissipation_constant=worst - 1e-3 * abs(worst)))


def test_dissipation_design_bounds_the_held_out_family():
    # held-out pairs have weights (1, -1) and atoms on [-3, 3]; over a grid
    # of such pairs, finer near the dipole at -pi/2, none beats the design
    from fwlab import measures as ms
    from fwlab import sobolev as sb

    a, b, eps_moll = W._dissipation_fields()

    def ratio(eta):
        rec = sb.dissipation_check(eta, a, b, W.DISSIPATION_LAMBDA, W.DISSIPATION_DELTA, eps_moll)
        return (rec.lhs + 0.25 * W.DISSIPATION_DELTA * rec.norm_sq_loss) / rec.norm_sq_weak

    design = [ratio(eta) for eta in W._dissipation_design()]
    assert max(design) == design[-1] > max(design[:-1])
    xs = np.concatenate([np.linspace(-3.0, 3.0, 25), -math.pi / 2 + np.linspace(-0.05, 0.05, 11)])
    held_out = [
        ratio(ms.SignedAtomicMeasure(1, [[x], [y]], [1.0, -1.0]))
        for x in xs for y in xs if x < y
    ]
    assert max(held_out) <= design[-1]


def test_regret_reference_is_subset_maximum():
    M = np.array([[2.0, -1.0], [-1.0, 3.0]])
    assert ref.regret_sup_zero_q(M) == 1.5  # max(0, M11, M22) / 2; the full set is excluded


def test_simulation_checks_fail_on_perturbed_references(simulation):
    workload, out, refs = simulation
    assert workload.check(out, refs) == []
    for key in ("cost", "regret"):
        est, err = out[key]
        assert workload.check(out, dict(refs, **{key: refs[key] + 6 * err})) != []
    dp = refs["dp_values"]
    for k in range(len(dp)):
        shifted = dp[:k] + [dp[k] + 1e-8] + dp[k + 1 :]
        assert workload.check(out, dict(refs, dp_values=shifted)) != []


def test_lq_closed_form_matches_riccati_ode():
    # P and c solve dP/dt = P^2/rho, dc/dt = -sigma_tilde^2 P backward from (1, 0)
    rho, T, st = 1.3, 1.0, 0.6
    ts = np.linspace(0.0, T, 20001)
    P = rho / (rho + T - ts)
    c = st**2 * rho * np.log((rho + T - ts) / rho)
    assert np.allclose(np.gradient(P, ts, edge_order=2), P * P / rho, atol=1e-6)
    assert np.allclose(np.gradient(c, ts, edge_order=2), -(st**2) * P, atol=1e-6)
    assert math.isclose(
        ref.lq_cost_closed_form(0.5, 0.2, 1.0, st, rho, T),
        P[0] * 0.25 + c[0] + 0.2 + 1.0,
    )


def test_tracer_busy_and_self_times():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("b.leaf", leaf)
    # a.outer -> b.leaf -> a.inner: a's time counts once
    traced_inner = tracer.wrap("a.inner", leaf)
    traced_reentry = tracer.wrap("b.leaf", traced_inner)

    def outer():
        time.sleep(0.02)
        traced_leaf()
        traced_reentry()

    traced_outer = tracer.wrap("a.outer", outer)
    t0 = time.perf_counter()
    traced_outer()
    spans = tracer.spans(t0, time.perf_counter())
    rows = tracing.summarize(tracer, spans)
    busy = tracing.layer_busy(tracer, spans)
    assert rows["a.outer"]["calls"] == 1 and rows["b.leaf"]["calls"] == 2
    assert rows["a.inner"]["calls"] == 1
    assert rows["a.outer"]["busy_s"] >= 0.04
    assert rows["a.outer"]["self_s"] == pytest.approx(
        rows["a.outer"]["busy_s"] - rows["b.leaf"]["busy_s"]
    )
    assert rows["b.leaf"]["self_s"] == pytest.approx(
        rows["b.leaf"]["busy_s"] - rows["a.inner"]["busy_s"]
    )
    assert busy == pytest.approx({"a": rows["a.outer"]["busy_s"], "b": rows["b.leaf"]["busy_s"]})


def test_every_per_layer_metric_reads_a_recorded_span():
    from fwlab import fourier_metric as fm
    from fwlab import measures as ms

    tracer = tracing.Tracer()
    tracer.install_setup()
    tracer.install_ops()
    fm.kappa_gradient_field(fm.make_kappa(ms.dirac(0.0), ms.dirac(1.0), 0.5, fm.default_config(1)))
    tracer.restore()
    wrap = tracer.wrap
    for name in ("doubling", "simulation"):
        workload = W.WORKLOADS[name]
        workload.trace(workload.make_instance(np.random.default_rng(0)), wrap)
    recorded = set(tracer.names)
    special = set(tracing.COUNTED) | set(tracing.RATIOS) | {"trace.overhead_s"}
    for metric in tracing.PER_LAYER:
        if metric in special or metric.endswith(".self_s"):
            continue
        span = tracing.ALIASES.get(metric, metric).rpartition(".")[0]
        assert span in recorded, metric
    assert set(tracing.RATIOS.values()) <= recorded


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "doubling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
