"""Scenario-driven command line front end.

Every subcommand reads one JSON scenario file (``schema`` 1, one per
subcommand), applies ``--set`` overrides, and writes CSV rows into the output
directory (``filter-sim`` adds a JSON summary, ``dp-value --dump`` its value
table).  Outputs embed the tool version, the hash of the resolved scenario,
and the seed, and are byte-identical for identical (scenario, seed, version).

Each target's runner declares the keys it reads as keyword-only parameters
with their types and defaults, and ``_bind`` checks every key, at every level
of the scenario, against them before any numerics run.

Exit codes: 0 success, 1 input or usage error (a key the target never reads,
a missing key, a value of the wrong type or a run too large for memory), 2 a
numerical check failed, 3 an internal numerical fault (a diverging simulation,
a non-finite stage-game value, a singular linear solve or any other exception
the run raises).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import sys
import types
import typing
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


def _require_finite(path: Path, columns: list, rows: list) -> None:
    """Raise FloatingPointError, a numerical fault, at the first non-finite
    float of the rows, naming the file and the column."""
    for row in rows:
        for column, value in zip(columns, row):
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise FloatingPointError(f"{path.name} column {column!r} holds {value}")


def _write_csv(path: Path, header: list, rows: list, meta: dict) -> None:
    _require_finite(path, header, rows)
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    _require_finite(path, list(payload), [list(payload.values())])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {text} is not allowed")
    return value


def _float_int(text: str) -> int:
    """An integer literal that ``int()`` reads and a float can hold."""
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError):
        raise ScenarioError(f"integer of {len(text)} characters is beyond the float range") from None
    return value


def _loads(raw: str):
    """Parse JSON, rejecting NaN, Infinity and numbers that overflow to them."""
    return json.loads(raw, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_float_int)


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


def _bind(fn, doc, where: str = "") -> dict:
    """Keyword arguments for ``fn`` from the JSON object ``doc``: ``fn``'s signature is its schema.

    Each key names a parameter that is not positional-only (``lambda`` names
    ``lam``), each such parameter without a default is given, and each value
    has the annotated type: ``int`` takes a JSON integer only (not ``true``
    or ``3.5``), ``float`` also an integer, ``X | None`` also ``null``,
    ``list[X]`` checks each item and a dataclass binds the object in turn.
    A ``**`` parameter takes the other keys unchecked, for a runner that
    binds them itself.  Errors name the dotted key, prefixed by ``where``.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario key {where[:-1]!r} needs an object, got {json.dumps(doc)}")
    sig = inspect.signature(fn, eval_str=True).parameters.values()
    keyword = (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    params = {"lambda" if p.name == "lam" else p.name: p for p in sig if p.kind in keyword}
    rest = {k: v for k, v in doc.items() if k not in params}
    if rest and not any(p.kind is p.VAR_KEYWORD for p in sig):
        raise ScenarioError(f"scenario key {where + next(iter(rest))!r} is not read by this target")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in doc]
    if missing:
        raise ScenarioError(f"scenario key {where + missing[0]!r} is missing")
    typed = {p.name: _typed(doc[k], p.annotation, where + k) for k, p in params.items() if k in doc}
    return {**rest, **typed}


def _typed(value, annotation, key: str):
    """``value`` read as ``annotation`` asks, or a ScenarioError naming ``key``."""
    kinds = typing.get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
    if value is None and type(None) in kinds:
        return None
    kind, item = typing.get_origin(kinds[0]) or kinds[0], typing.get_args(kinds[0])
    if dataclasses.is_dataclass(kind):
        return kind(**_bind(kind, value, key + "."))
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and isinstance(value, bool) is (kind is bool):
        return [_typed(v, *item, f"{key}[{i}]") for i, v in enumerate(value)] if item else kind(value)
    raise ScenarioError(f"scenario key {key!r} must be of type {kind.__name__}, got {json.dumps(value)}")


def _lookup(registry: dict, name: str, what: str):
    if name not in registry:
        raise ScenarioError(f"unknown {what} {name!r}")
    return registry[name]


def _cases(case, entries: list) -> list:
    """Each ``cases`` entry bound against, and read by, the function ``case``."""
    if not entries:
        raise ScenarioError("scenario key 'cases' must list at least one case")
    return [case(**_bind(case, entry, "cases.")) for entry in entries]


# subcommand runners: out and meta, then the scenario's keys as keyword-only
# parameters, which are its schema; each returns an exit code


def _fourier_config(dim: int, /, *, lam: int | None = None) -> fm.FourierConfig:
    """The default spectral weight of dimension ``dim``, with exponent ``lam`` when given."""
    return fm.default_config(dim) if lam is None else fm.FourierConfig(dim, lam)


def _theta(measure, /, *, t: float, m: list[float]) -> Theta:
    return Theta(t, measure, np.asarray(m, float))


def _metric_case(
    *, mu: dict, nu: dict, name: str = "case", theta: dict | None = None, iota: dict | None = None
) -> tuple:
    """The case's name, its two measures of one dimension and its (theta, iota) pair or None."""
    if (theta is None) != (iota is None):
        raise ScenarioError("scenario keys 'cases.theta' and 'cases.iota' must be given together")
    mu, nu = measure_from_json(mu), measure_from_json(nu)
    if nu.dim != mu.dim:
        raise ScenarioError(f"scenario key 'cases.nu' has dimension {nu.dim}, not mu's {mu.dim}")
    if theta is None:
        return name, mu, nu, None
    theta = _theta(mu, **_bind(_theta, theta, "cases.theta."))
    return name, mu, nu, (theta, _theta(nu, **_bind(_theta, iota, "cases.iota.")))


def _run_metric(out: Path, meta: dict, /, *, cases: list, config: dict = {}) -> int:
    weight = _bind(_fourier_config, config, "config.")
    rows = []
    for name, mu, nu, pair in _cases(_metric_case, cases):
        cfg = _fourier_config(mu.dim, **weight)
        inputs = (measure_to_json(mu) + measure_to_json(nu)).encode()
        inputs_hash = hashlib.sha256(inputs).hexdigest()[:12]
        rows.append([name, "rho_F", inputs_hash, fm.rho_F(mu, nu, cfg), meta["config_hash"]])
        if pair is not None:
            rows.append([name, "d_F", inputs_hash, fm.d_F(*pair, cfg), meta["config_hash"]])
    _write_csv(out / "metric.csv", ["case", "kind", "inputs_hash", "value", "config_id"], rows, meta)
    return EXIT_OK


def _random_grid_pairs(seed: int, count: int, length: float, n: int, band: int | None):
    """``count`` pairs of random functions on the centred box of ``n`` nodes,
    band-limited to ``band`` (n // 4 when None), drawn from substream (seed, 0)."""
    if count < 1:
        raise ScenarioError(f"scenario key 'count' must be at least 1, got {count}")
    rng = substream(seed, 0)
    box = sb.box1d(length, n)
    band = box.nodes[0] // 4 if band is None else band
    for _ in range(count):
        yield sb.random_band_limited(box, band, rng), sb.random_band_limited(box, band, rng)


def _run_sobolev_check(
    out: Path, meta: dict, /, *, seed: int = 0, count: int = 10, tol: float = 1e-11,
    length: float = 32.0, n: int = 512, band: int | None = None,
) -> int:
    rows = []
    passed = True
    for case, (f, h) in enumerate(_random_grid_pairs(seed, count, length, n, band)):
        rep = sb.leibniz_identity_check(f, h, tol)
        resid, bound = rep.stats["max_residual"], rep.stats["bound"]
        passed = passed and rep.passed
        rows.append([f"case{case}", resid, bound, resid / bound])
    _write_csv(out / "sobolev_check.csv", ["case", "residual", "bound", "ratio"], rows, meta)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _run_commutator_check(
    out: Path, meta: dict, /, *, seed: int = 0, count: int = 20, k: int = 2,
    length: float = 32.0, n: int = 512, band: int | None = None,
) -> int:
    rows = []
    for case, (f, g) in enumerate(_random_grid_pairs(seed, count, length, n, band)):
        residual, bound = sb.commutator_residual(f, g, k)
        ratio = residual / bound if bound > 0 else 0.0
        rows.append([f"case{case}", residual, bound, ratio])
    _write_csv(out / "commutator_check.csv", ["case", "residual", "bound", "ratio"], rows, meta)
    return EXIT_OK


def _run_dissipation_check(
    out: Path, meta: dict, /, *, seed: int = 0, count: int = 20, length: float = 32.0, n: int = 1024,
    lam: int = 4, delta: float = 1.2, eps_factor: float = 4.0,
) -> int:
    box = sb.box1d(length, n)
    dipoles = sb.random_dipoles(count, substream(seed, 0))
    report = sb.dissipation_constant_check(dipoles, box, lam, delta, eps_factor * box.spacings()[0])
    rows = [
        [f"case{i}", rec.lhs, rec.norm_sq_loss, rec.norm_sq_weak, ratio]
        for i, (rec, ratio) in enumerate(zip(report.stats["records"], report.stats["ratios"]))
    ]
    fitted_c = repr(float(report.stats["fitted_c"]))
    header = ["case", "lhs", "norm_sq_loss", "norm_sq_weak", "ratio"]
    _write_csv(out / "dissipation_check.csv", header, rows, dict(meta, fitted_c=fitted_c))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _filtering_case(
    *, mu: dict, name: str = "case", p_slope: float = 1.0, q_const: float = 1.0, M: float = 1.0
) -> tuple:
    """The case's name, its measure and the jet (p = p_slope x, q = q_const, M)."""
    q = lambda X: np.full((X.shape[0], 1, 1), q_const)
    return name, measure_from_json(mu), ham.JetArgs(lambda X: p_slope * X, q, np.atleast_2d(M))


def _filtering_rows(
    *, cases: list, problem: str = "lq1d", control_lo: float = -2.0, control_hi: float = 2.0,
    control_points: int = 101,
) -> tuple:
    cases = _cases(_filtering_case, cases)
    coeffs = _lookup(ham.COEFFS_REGISTRY, problem, "problem")()
    grid = np.linspace(control_lo, control_hi, control_points)
    rows = [[name, "G_filtering", ham.G_filtering(mu, jet, coeffs, grid)] for name, mu, jet in cases]
    return rows, EXIT_OK


def _regret_case(
    *, mu: dict, M: list[list[float]], name: str = "case", q_const: list[list[float]] | None = None
) -> tuple:
    """The case's name, its measure, the constant field q (zero by default) and M."""
    M = np.asarray(M, dtype=float)
    qc = np.zeros_like(M) if q_const is None else np.asarray(q_const, dtype=float)
    return name, measure_from_json(mu), lambda X: np.broadcast_to(qc, (X.shape[0],) + qc.shape), M


def _regret_rows(*, cases: list) -> tuple:
    rows = [[name, "G_regret", ham.G_regret(mu, q, M)] for name, mu, q, M in _cases(_regret_case, cases)]
    return rows, EXIT_OK


def _regret_check_rows(
    *, K: int = 2, samples: int = 25, constant_scale: float = 1.0, seed: int = 0
) -> tuple:
    family = ham.regret_samples(K, samples, substream(seed, 1))
    report = ham.check_assumptions_regret(family, {K: fm.default_config(K)})
    # engineered tightening of the constant for failure-path tests
    max_ratio = report.stats["max_lipschitz_ratio"]
    passed = report.passed and max_ratio <= constant_scale
    gap = report.stats["max_sign_gap"]
    rows = [["max_lipschitz_ratio", "regret-check", max_ratio], ["max_sign_gap", "regret-check", gap]]
    return rows, EXIT_OK if passed else EXIT_CHECK_FAILED


# each hamiltonian kind reads only its own keys and returns (rows, exit code)
_KINDS = {"filtering": _filtering_rows, "regret": _regret_rows, "regret-check": _regret_check_rows}


def _run_hamiltonian(out: Path, meta: dict, /, *, kind: str = "filtering", **keys) -> int:
    rows_of = _lookup(_KINDS, kind, "hamiltonian kind")
    rows, status = rows_of(**_bind(rows_of, keys))
    _write_csv(out / "hamiltonian.csv", ["case", "kind", "value"], rows, meta)
    return status


def _run_filter_sim(
    out: Path, meta: dict, /, *, sim: fs.SimConfig, mu: dict, coeffs: str = "lq1d",
    coeffs_params: dict = {}, policy: str = "zero", policy_params: dict = {}, t: float = 0.0,
) -> int:
    factory = _lookup(ham.COEFFS_REGISTRY, coeffs, "coefficient set")
    coefficients = factory(**_bind(factory, coeffs_params, "coeffs_params."))
    make_policy = _lookup(fs.POLICY_REGISTRY, policy, "policy")
    control = make_policy(sim.horizon, **_bind(make_policy, policy_params, "policy_params."))
    costs, rows = fs.sample_costs(t, measure_from_json(mu), control, coefficients, sim)
    _write_csv(out / "filter_sim.csv", ["time", "mean", "variance", "cost_to_date"], rows, meta)
    est, stderr = mean_stderr(costs)
    _write_json(out / "filter_sim_summary.json", {"estimate": est, "std_error": stderr, **meta})
    return EXIT_OK


def _run_game_sim(
    out: Path, meta: dict, /, *, T: int, m0: dict, runs: int = 1000, seed: int = 0,
    forecaster: str = "uniform", adversary: str = "full-set",
) -> int:
    m0 = measure_from_json(m0)
    play = _lookup(pg.FORECASTER_REGISTRY, forecaster, "forecaster")(m0.dim)
    respond = _lookup(pg.ADVERSARY_REGISTRY, adversary, "adversary")(m0.dim)
    est, stderr = pg.monte_carlo_regret(T, m0, play, respond, runs, seed)
    _write_csv(out / "game_sim.csv", ["T", "estimate", "std_error"], [[T, est, stderr]], meta)
    return EXIT_OK


def _run_dp_value(out: Path, meta: dict, dump: bool = False, /, *, T: int, m0: dict) -> int:
    m0 = measure_from_json(m0)
    try:
        grid = pg.vertex_grid(m0.dim)
    except ValueError as exc:
        raise ScenarioError(f"scenario key 'm0' has dimension {m0.dim}: {exc}") from None
    table = {} if dump else None
    value = pg.exact_value_small(T, m0, grid, table)
    if dump:
        _write_json(out / "dp_value_table.json", {"value": value, "n_nodes": len(table)})
    _write_csv(out / "dp_value.csv", ["T", "value"], [[T, value]], meta)
    return EXIT_OK


def _run_comparison_doubling(
    out: Path, meta: dict, /, *, support: list, eps_sequence: list[float], lq: fs.LQParams = fs.LQParams(),
    slack: float = 0.5, delta: float = 0.01, m_box: float = ch.DoublingConfig.m_box,
    seed: int = ch.DoublingConfig.seed, n_starts: int = ch.DoublingConfig.n_starts,
    max_iters: int = ch.DoublingConfig.max_iters,
) -> int:
    cfg = ch.DoublingConfig(
        horizon=lq.horizon, m_box=m_box, n_starts=n_starts, max_iters=max_iters, seed=seed
    )
    support = np.asarray(support, dtype=float)
    if support.ndim == 1:
        support = support[:, None]
    u = ch.lq_discretized_candidate(support, lq, slack=slack, m_box=m_box)
    v = ch.lq_discretized_candidate(support, lq, slack=0.0, m_box=m_box)
    reports = ch.doubling_maximize(u, v, eps_sequence, delta, cfg)
    rows = [[eps, r.value, r.penalty, r.d_F, r.converged] for eps, r in zip(eps_sequence, reports)]
    _write_csv(out / "comparison_doubling.csv", ["eps", "value", "penalty", "d_F", "converged"], rows, meta)
    return EXIT_OK


DISPATCH = {
    "metric": _run_metric,
    "sobolev-check": _run_sobolev_check,
    "commutator-check": _run_commutator_check,
    "dissipation-check": _run_dissipation_check,
    "hamiltonian": _run_hamiltonian,
    "filter-sim": _run_filter_sim,
    "game-sim": _run_game_sim,
    "dp-value": _run_dp_value,
    "comparison-doubling": _run_comparison_doubling,
}


@np.errstate(all="ignore")  # a float fault is reported by the run's one error line, not by warnings
def run(scenario_file, overrides=(), out_dir=None, dump=False, expected_target=None) -> int:
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
        if not isinstance(scenario, dict):
            raise ScenarioError("the scenario is not a JSON object")
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
        if _typed(scenario.get("schema", 1), int, "schema") != 1:
            raise ScenarioError(f"scenario schema {scenario['schema']!r} is not 1")
        if dump and target != "dp-value":
            raise ScenarioError(f"only dp-value writes a dump, not {target}")
        runner = DISPATCH[target]
        kwargs = _bind(runner, {k: v for k, v in scenario.items() if k not in ("target", "schema")})
        meta = {
            "fwlab_version": __version__,
            "config_hash": _config_hash(scenario),
            "seed": getattr(kwargs.get("sim"), "seed", kwargs.get("seed", 0)),
        }
        # the writers make the output directory, so a run that fails before
        # it writes leaves none
        out = Path(out_dir) if out_dir else Path.cwd()
        return runner(out, meta, *((dump,) if dump else ()), **kwargs)
    except np.linalg.LinAlgError as exc:  # a ValueError, but raised by the numerics
        print(f"error: numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAULT
    except (ScenarioError, KeyError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"error: numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAULT


def main(argv=None) -> int:
    parser = _Parser(prog="fwlab", description="Scenario runner for the numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DISPATCH:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V",
                       help="override a scenario key (dotted paths allowed, repeatable)")
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
