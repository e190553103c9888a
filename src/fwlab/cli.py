"""Scenario-driven command line front end.

Every subcommand reads one JSON scenario file (``schema`` 1, one per
subcommand), applies ``--set`` overrides, and writes CSV rows into the output
directory (``filter-sim`` adds a JSON summary, ``dp-value --dump`` its value
table).  Outputs embed the tool version, the hash of the resolved scenario,
and the seed, and are byte-identical for identical (scenario, seed, version).

Exit codes: 0 success, 1 input or usage error (a scenario key that its target
never reads is one), 2 a numerical check failed, 3 an internal numerical
fault (a diverging simulation or a non-finite stage-game value).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import comparison_harness as ch
from . import filtering_sim as fs
from . import fourier_metric as fm
from . import hamiltonians as ham
from . import prediction_game as pg
from . import sobolev as sb
from ._rng import mean_stderr, substream
from .measures import Theta, measure_from_json, measure_to_json

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL_FAULT = 3


class ScenarioError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: one line, exit 1
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def _config_hash(scenario: dict) -> str:
    canonical = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list, rows: list, meta: dict) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {text} is not allowed")
    return value


def _loads(raw: str):
    """Parse JSON, rejecting NaN, Infinity and numbers that overflow to them."""
    return json.loads(raw, parse_constant=_finite_float, parse_float=_finite_float)


def _apply_override(scenario: dict, key: str, raw: str) -> None:
    node = scenario
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ScenarioError(f"override path {key!r} crosses a non-object")
    try:
        val = _loads(raw)
    except json.JSONDecodeError:
        val = raw
    node[parts[-1]] = val


# objects whose keys are read one by one rather than passed on as keywords
_SUBKEYS = {"config": "lambda k_radius k_nodes_per_axis", "sim": "dt n_particles horizon runs seed"}


def _check_keys(scenario: dict, target: str) -> None:
    """Reject the first key, top-level or inside ``_SUBKEYS``, that the target never reads."""
    unread = [k for k in scenario if k not in ("target", "schema", *DISPATCH[target][1].split())]
    for key, known in _SUBKEYS.items():
        if isinstance(scenario.get(key), dict):
            unread += [f"{key}.{k}" for k in scenario[key] if k not in known.split()]
    if unread:
        raise ScenarioError(f"scenario key {unread[0]!r} is not read by target {target!r}")


def _metric_config(scenario: dict, dim: int) -> fm.FourierConfig:
    spec = scenario.get("config", {})
    base = fm.default_config(dim)
    return fm.FourierConfig(
        dim,
        int(spec.get("lambda", base.lam)),
        float(spec.get("k_radius", base.k_radius)),
        int(spec.get("k_nodes_per_axis", base.k_nodes_per_axis)),
    )


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (exit_code, rows_meta)
# ---------------------------------------------------------------------------


def _run_metric(scenario: dict, out: Path, meta: dict) -> int:
    dim = int(scenario.get("dim", 1))
    cfg = _metric_config(scenario, dim)
    rows = []
    for case in scenario["cases"]:
        mu = measure_from_json(case["mu"])
        nu = measure_from_json(case["nu"])
        inputs_hash = hashlib.sha256(
            (measure_to_json(mu) + measure_to_json(nu)).encode()
        ).hexdigest()[:12]
        value = fm.rho_F(mu, nu, cfg)
        rows.append([case.get("name", "case"), "rho_F", inputs_hash, value, meta["config_hash"]])
        if "theta" in case and "iota" in case:
            th = Theta(float(case["theta"]["t"]), mu, np.asarray(case["theta"]["m"], float))
            io = Theta(float(case["iota"]["t"]), nu, np.asarray(case["iota"]["m"], float))
            rows.append(
                [case.get("name", "case"), "d_F", inputs_hash, fm.d_F(th, io, cfg), meta["config_hash"]]
            )
    _write_csv(out / "metric.csv", ["case", "kind", "inputs_hash", "value", "config_id"], rows, meta)
    return EXIT_OK


def _random_grid_pair(scenario: dict, rng) -> tuple:
    box = sb.box1d(float(scenario.get("length", 32.0)), int(scenario.get("n", 512)))
    band = int(scenario.get("band", box.nodes[0] // 4))
    return sb.random_band_limited(box, band, rng), sb.random_band_limited(box, band, rng)


def _run_sobolev_check(scenario: dict, out: Path, meta: dict) -> int:
    rng = substream(int(scenario.get("seed", 0)), 0)
    count = int(scenario.get("count", 10))
    tol = {"tol": float(scenario["tol"])} if "tol" in scenario else {}
    rows = []
    passed = True
    for case in range(count):
        f, h = _random_grid_pair(scenario, rng)
        rep = sb.leibniz_identity_check(f, h, **tol)
        resid, bound = rep.stats["max_residual"], rep.stats["bound"]
        passed = passed and rep.passed
        rows.append([f"case{case}", resid, bound, resid / bound])
    _write_csv(out / "sobolev_check.csv", ["case", "residual", "bound", "ratio"], rows, meta)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _run_commutator_check(scenario: dict, out: Path, meta: dict) -> int:
    rng = substream(int(scenario.get("seed", 0)), 0)
    count = int(scenario.get("count", 20))
    k = int(scenario.get("k", 2))
    rows = []
    for case in range(count):
        f, g = _random_grid_pair(scenario, rng)
        residual, bound = sb.commutator_residual(f, g, k)
        ratio = residual / bound if bound > 0 else 0.0
        rows.append([f"case{case}", residual, bound, ratio])
    _write_csv(out / "commutator_check.csv", ["case", "residual", "bound", "ratio"], rows, meta)
    return EXIT_OK


def _run_dissipation_check(scenario: dict, out: Path, meta: dict) -> int:
    rng = substream(int(scenario.get("seed", 0)), 0)
    box = sb.box1d(float(scenario.get("length", 32.0)), int(scenario.get("n", 1024)))
    report = sb.dissipation_constant_check(
        sb.random_dipoles(int(scenario.get("count", 20)), rng),
        box,
        int(scenario.get("lambda", 4)),
        float(scenario.get("delta", 1.2)),
        float(scenario.get("eps_factor", 4.0)) * box.spacings()[0],
    )
    rows = [
        [f"case{i}", rec.lhs, rec.norm_sq_loss, rec.norm_sq_weak, ratio]
        for i, (rec, ratio) in enumerate(zip(report.stats["records"], report.stats["ratios"]))
    ]
    _write_csv(
        out / "dissipation_check.csv",
        ["case", "lhs", "norm_sq_loss", "norm_sq_weak", "ratio"],
        rows,
        dict(meta, fitted_c=repr(float(report.stats["fitted_c"]))),
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _run_hamiltonian(scenario: dict, out: Path, meta: dict) -> int:
    kind = scenario.get("kind", "filtering")
    rows = []
    status = EXIT_OK
    if kind == "filtering":
        factory = ham.COEFFS_REGISTRY.get(scenario.get("problem", "lq1d"))
        if factory is None:
            raise ScenarioError(f"unknown problem {scenario.get('problem')!r}")
        coeffs = factory()
        grid = np.linspace(
            float(scenario.get("control_lo", -2.0)),
            float(scenario.get("control_hi", 2.0)),
            int(scenario.get("control_points", 101)),
        )
        for case in scenario["cases"]:
            mu = measure_from_json(case["mu"])
            alpha = float(case.get("p_slope", 1.0))
            beta = float(case.get("q_const", 1.0))
            jet = ham.JetArgs(
                lambda X, alpha=alpha: alpha * X,
                lambda X, beta=beta: np.full((X.shape[0], 1, 1), beta),
                np.atleast_2d(float(case.get("M", 1.0))),
            )
            val = ham.G_filtering(mu, jet, coeffs, grid)
            rows.append([case.get("name", "case"), "G_filtering", val])
    elif kind == "regret":
        for case in scenario["cases"]:
            mu = measure_from_json(case["mu"])
            M = np.asarray(case["M"], dtype=float)
            qc = np.asarray(case.get("q_const", np.zeros_like(M)), dtype=float)
            q = lambda X, qc=qc: np.broadcast_to(qc, (X.shape[0],) + qc.shape)
            val = ham.G_regret(mu, q, M)
            rows.append([case.get("name", "case"), "G_regret", val])
    elif kind == "regret-check":
        K = int(scenario.get("K", 2))
        n_samples = int(scenario.get("samples", 25))
        scale = float(scenario.get("constant_scale", 1.0))
        rng = substream(int(scenario.get("seed", 0)), 1)
        cfgs = {K: fm.default_config(K)}
        samples = ham.regret_samples(K, n_samples, rng)
        report = ham.check_assumptions_regret(samples, cfgs)
        # engineered tightening of the constant for failure-path tests
        max_ratio = report.stats["max_lipschitz_ratio"]
        passed = report.passed and max_ratio <= scale
        rows.append(["max_lipschitz_ratio", "regret-check", max_ratio])
        rows.append(["max_sign_gap", "regret-check", report.stats["max_sign_gap"]])
        status = EXIT_OK if passed else EXIT_CHECK_FAILED
    else:
        raise ScenarioError(f"unknown hamiltonian kind {kind!r}")
    _write_csv(out / "hamiltonian.csv", ["case", "kind", "value"], rows, meta)
    return status


def _run_filter_sim(scenario: dict, out: Path, meta: dict) -> int:
    factory = ham.COEFFS_REGISTRY.get(scenario.get("coeffs", "lq1d"))
    if factory is None:
        raise ScenarioError(f"unknown coefficient set {scenario.get('coeffs')!r}")
    params = scenario.get("coeffs_params", {})
    coeffs = factory(**params) if params else factory()
    sim = scenario["sim"]
    cfg = fs.SimConfig(
        dt=float(sim["dt"]),
        n_particles=int(sim["n_particles"]),
        horizon=float(sim["horizon"]),
        runs=int(sim.get("runs", 1)),
        seed=int(sim.get("seed", 0)),
    )
    lq = fs.LQParams(horizon=cfg.horizon, **scenario.get("lq", {}))
    policy_name = scenario.get("policy", "zero")
    if policy_name not in fs.POLICY_REGISTRY:
        raise ScenarioError(f"unknown policy {policy_name!r}")
    policy = fs.POLICY_REGISTRY[policy_name](lq)
    mu = measure_from_json(scenario["mu"])
    t0 = float(scenario.get("t", 0.0))

    costs, rows = fs.sample_costs(t0, mu, policy, coeffs, cfg)
    _write_csv(out / "filter_sim.csv", ["time", "mean", "variance", "cost_to_date"], rows, meta)
    est, stderr = mean_stderr(costs)
    _write_json(
        out / "filter_sim_summary.json",
        {"estimate": est, "std_error": stderr, **meta},
    )
    return EXIT_OK


def _run_game_sim(scenario: dict, out: Path, meta: dict) -> int:
    K = int(scenario["K"])
    T = int(scenario["T"])
    runs = int(scenario.get("runs", 1000))
    seed = int(scenario.get("seed", 0))
    m0 = measure_from_json(scenario["m0"])
    f_name = scenario.get("forecaster", "uniform")
    a_name = scenario.get("adversary", "full-set")
    if f_name not in pg.FORECASTER_REGISTRY:
        raise ScenarioError(f"unknown forecaster {f_name!r}")
    if a_name not in pg.ADVERSARY_REGISTRY:
        raise ScenarioError(f"unknown adversary {a_name!r}")
    forecaster = pg.FORECASTER_REGISTRY[f_name](K)
    adversary = pg.ADVERSARY_REGISTRY[a_name](K)
    est, stderr = pg.monte_carlo_regret(T, m0, forecaster, adversary, runs, seed)
    _write_csv(
        out / "game_sim.csv",
        ["T", "estimate", "std_error"],
        [[T, est, stderr]],
        meta,
    )
    return EXIT_OK


def _run_dp_value(scenario: dict, out: Path, meta: dict, dump: bool = False) -> int:
    K = int(scenario["K"])
    T = int(scenario["T"])
    m0 = measure_from_json(scenario["m0"])
    grid_name = scenario.get("grid", "vertices")
    if grid_name == "vertices":
        grid = [ham.vertex_action(K, mask) for mask in range(2**K)]
    elif grid_name == "full-set-only":
        grid = [ham.vertex_action(K, 2**K - 1)]
    else:
        raise ScenarioError(f"unknown adversary grid {grid_name!r}")
    table = {} if dump else None
    value = pg.exact_value_small(T, m0, grid, table)
    if dump:
        _write_json(out / "dp_value_table.json", {"value": value, "n_nodes": len(table)})
    _write_csv(out / "dp_value.csv", ["T", "value"], [[T, value]], meta)
    return EXIT_OK


def _run_comparison_doubling(scenario: dict, out: Path, meta: dict) -> int:
    support = np.asarray(scenario["support"], dtype=float)
    if support.ndim == 1:
        support = support[:, None]
    lq = fs.LQParams(**scenario.get("lq", {}))
    slack = float(scenario.get("slack", 0.5))
    m_box = float(scenario.get("m_box", 2.0))
    u = ch.lq_discretized_candidate(support, lq, slack=slack, m_box=m_box)
    v = ch.lq_discretized_candidate(support, lq, slack=0.0, m_box=m_box)
    keys = ("seed", "n_starts", "max_iters")
    cfg = ch.DoublingConfig(
        horizon=lq.horizon, m_box=m_box, **{k: int(scenario[k]) for k in keys if k in scenario}
    )
    delta = float(scenario.get("delta", 0.01))
    eps_sequence = scenario["eps_sequence"]
    reports = ch.doubling_maximize(u, v, eps_sequence, delta, cfg)
    rows = [[eps, r.value, r.penalty, r.d_F, r.converged] for eps, r in zip(eps_sequence, reports)]
    _write_csv(
        out / "comparison_doubling.csv",
        ["eps", "value", "penalty", "d_F", "converged"],
        rows,
        meta,
    )
    return EXIT_OK


# each target's runner and the top-level keys it reads besides "target" and
# "schema"
DISPATCH = {
    "metric": (_run_metric, "dim config cases"),
    "sobolev-check": (_run_sobolev_check, "seed count tol length n band"),
    "commutator-check": (_run_commutator_check, "seed count k length n band"),
    "dissipation-check": (_run_dissipation_check, "seed count length n lambda delta eps_factor"),
    "hamiltonian": (
        _run_hamiltonian,
        "kind problem control_lo control_hi control_points cases K samples constant_scale seed",
    ),
    "filter-sim": (_run_filter_sim, "coeffs coeffs_params sim lq policy mu t"),
    "game-sim": (_run_game_sim, "K T runs seed m0 forecaster adversary"),
    "dp-value": (_run_dp_value, "K T m0 grid"),
    "comparison-doubling": (
        _run_comparison_doubling,
        "support lq slack m_box seed n_starts max_iters delta eps_sequence",
    ),
}


def run(
    scenario_file,
    overrides=(),
    out_dir=None,
    dump=False,
    expected_target=None,
) -> int:
    """Load a scenario, dispatch to its target, write outputs; returns exit code."""
    try:
        raw = Path(scenario_file).read_text()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        scenario = _loads(raw)
    except (json.JSONDecodeError, ScenarioError) as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        for ov in overrides:
            key, sep, val = ov.partition("=")
            if not sep:
                raise ScenarioError(f"override {ov!r} is not key=value")
            _apply_override(scenario, key, val)
        target = scenario.get("target")
        if target not in DISPATCH:
            raise ScenarioError(f"unknown target {target!r}; known: {', '.join(DISPATCH)}")
        if expected_target is not None and target != expected_target:
            raise ScenarioError(
                f"scenario targets {target!r} but the {expected_target!r} subcommand was invoked"
            )
        if scenario.get("schema", 1) != 1:
            raise ScenarioError(f"scenario schema {scenario['schema']!r} is not 1")
        _check_keys(scenario, target)
        if dump and target != "dp-value":
            raise ScenarioError(f"only dp-value writes a dump, not {target}")
        meta = {
            "fwlab_version": __version__,
            "config_hash": _config_hash(scenario),
            "seed": int(scenario.get("seed", scenario.get("sim", {}).get("seed", 0))),
        }
        out = Path(out_dir) if out_dir else Path.cwd()
        created = list(itertools.takewhile(lambda p: not p.exists(), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
        try:
            return DISPATCH[target][0](scenario, out, meta, *((dump,) if dump else ()))
        finally:
            # a run that wrote nothing leaves no directory it made; rmdir
            # refuses one that is not empty, and that ends the walk up
            for path in created:
                try:
                    path.rmdir()
                except OSError:
                    break
    except (ScenarioError, KeyError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (RecursionError, NotImplementedError):
        raise
    except (FloatingPointError, RuntimeError) as exc:
        print(f"error: numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAULT


def main(argv=None) -> int:
    parser = _Parser(prog="fwlab", description="Scenario runner for the numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DISPATCH:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="K=V",
            help="override a scenario key (dotted paths allowed, repeatable)",
        )
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        if name == "dp-value":
            p.add_argument("--dump", action="store_true", help="also write the value table")
    args = parser.parse_args(argv)
    code = run(args.scenario, args.overrides, args.out, getattr(args, "dump", False), args.command)
    if code == EXIT_CHECK_FAILED:
        print("one or more checks failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
