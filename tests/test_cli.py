import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import matern_kv
from fwlab import cli
from fwlab import comparison_harness as ch
from fwlab import fourier_metric as fm
from fwlab import prediction_game as pg
from fwlab import sobolev as sb

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RHO_D0_D1 = 0.17007722980167875


def _header_index(lines):
    return next(i for i, l in enumerate(lines) if not l.startswith("#"))


def read_csv_meta(path: Path) -> dict:
    """Parse the key=value preamble back out of an emitted CSV file."""
    meta = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("# "):
            break
        k, _, v = line[2:].partition("=")
        meta[k] = v
    return meta


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_metric_scenario_pinned_value(tmp_path):
    code = cli.run(SCENARIOS / "metric.json", out_dir=tmp_path)
    assert code == cli.EXIT_OK
    text = (tmp_path / "metric.csv").read_text()
    rho_row = [l for l in text.splitlines() if ",rho_F," in l][0]
    value = float(rho_row.split(",")[3])
    assert value == pytest.approx(RHO_D0_D1, abs=1e-8)
    assert text.endswith("\n") and "\r" not in text


@pytest.mark.parametrize("lam, code", [(1, cli.EXIT_INPUT_ERROR), (2, cli.EXIT_OK)])
def test_metric_in_two_dimensions_needs_an_integrable_weight(tmp_path, capsys, lam, code):
    # (1 + |k|^2)^-1 is not integrable on R^2: unchecked, its truncated
    # integral gave finite distances; lambda = 2 is the smallest that is
    point = {"dim": 2, "atoms": [[0.0, 0.0, 1.0]], "probability": True}
    other = {"dim": 2, "atoms": [[1.0, 0.0, 1.0]], "probability": True}
    overrides = [f"config.lambda={lam}", _cases(mu=point, nu=other)]
    assert cli.run(SCENARIOS / "metric.json", overrides, out_dir=tmp_path / "out") == code
    err = capsys.readouterr().err
    if code == cli.EXIT_OK:
        assert (tmp_path / "out" / "metric.csv").exists()
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and "diverges" in err
        assert not (tmp_path / "out").exists()


# the numeric rows of the shipped comparison_doubling.csv (eps, value,
# penalty, d_F, converged), pinned bit for bit: a change that only makes the
# doubling check faster must leave every one of them in place
DOUBLING_ROWS = [
    (0.5, 0.7039237043477398, 0.10155774317344239, 0.3186812563886405, "true"),
    (0.02, 0.22941762274663105, 0.019417492502763114, 0.027869332609707836, "true"),
]


def test_comparison_doubling_pinned_values(tmp_path):
    assert cli.run(SCENARIOS / "comparison_doubling.json", out_dir=tmp_path) == cli.EXIT_OK
    lines = (tmp_path / "comparison_doubling.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[_header_index(lines) + 1 :]]
    assert [(*map(float, row[:4]), row[4]) for row in rows] == DOUBLING_ROWS
    # the Gram form behind the penalties is SciPy's Bessel kernel on the support
    support = np.array(json.loads((SCENARIOS / "comparison_doubling.json").read_text())["support"])
    gram = ch.FixedSupportMetric(support[:, None], fm.default_config(1)).gram
    oracle = matern_kv(np.abs(support[:, None] - support[None, :]), 1, 4)
    assert gram == pytest.approx(oracle, rel=1e-14)


SMALL_OVERRIDES = {
    "filter_sim.json": ["sim.runs=3", "sim.n_particles=60", "sim.dt=0.1"],
    "comparison_doubling.json": ["n_starts=4", "max_iters=10"],
}

# SHA-256 of every file each scenario writes under SMALL_OVERRIDES: a change
# meant to leave the numbers alone must leave every byte of these in place
OUTPUT_DIGESTS = {
    "commutator_check.json": {
        "commutator_check.csv": "807f9ed2534c51034d55b82604964e0eb7aeee8d9925dcfb08978c5fd1288aaa",
    },
    "comparison_doubling.json": {
        "comparison_doubling.csv": "ab4fce84e781d8c19708f27eab4404e15c67fb49f35b16831a8d57f9f31a256c",
    },
    "dissipation_check.json": {
        "dissipation_check.csv": "26075927471d695bb5e989f9a3325d44cd175bf1fb82db58e377b27af747fabf",
    },
    "dp_value.json": {
        "dp_value.csv": "006b196a3e21cec0ffeccf0d4049b97ba73d1da086ad199dbe134063e18145d3",
    },
    "filter_sim.json": {
        "filter_sim.csv": "8a4b3973e76898ec728eeba2608b5ff6449952fe11789c8fe513ba6f077b36f6",
        "filter_sim_summary.json": "961daa1590a4352cbc7f504ea0cf0adc57f792caf7d4d5ba2554486e9269af04",
    },
    "game_sim.json": {
        "game_sim.csv": "715a2e726346ecd8b4327e670df6d4e85fdf58b1495b413f88391947ce9bbdcf",
    },
    "hamiltonian_lq.json": {
        "hamiltonian.csv": "2499f313afe67966d6e053e5cc91787d5c59f6f67d12d540a49a53585ff75983",
    },
    "hamiltonian_regret_check.json": {
        "hamiltonian.csv": "c1d4dfe8e3841b279086e0308b51586cff9d53fefee9a20c1937c7d449c31504",
    },
    "metric.json": {
        "metric.csv": "f73a02ae6b5d94e27c068ff73b6b766e5b6b5a099df705eb93c5a0729b459bd5",
    },
    "sobolev_check.json": {
        "sobolev_check.csv": "f3f139a03a33c33373e288c759f44c2025c18a3f99cf2fe68a3992542c1233c7",
    },
}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_outputs_byte_identical(tmp_path, name):
    overrides = SMALL_OVERRIDES.get(name, [])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(SCENARIOS / name, overrides, out_dir=out1) == 0
    assert cli.run(SCENARIOS / name, overrides, out_dir=out2) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files and files == sorted(p.name for p in out2.iterdir())
    for f in files:
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()
    digests = {f: hashlib.sha256((out1 / f).read_bytes()).hexdigest() for f in files}
    assert digests == OUTPUT_DIGESTS[name]


# each shipped scenario run under SMALL_OVERRIDES in a fresh process, by the
# scenario's name: the script reads the output root and the jobs as JSON
_RUN_EVERY_SCENARIO = """
import json, sys
from fwlab import cli
for name, (path, overrides) in json.loads(sys.argv[2]).items():
    if cli.run(path, overrides, out_dir=f"{sys.argv[1]}/{name}") != 0:
        sys.exit(f"{name} did not exit 0")
"""


@pytest.fixture(scope="module")
def outputs_by_blas_threads(tmp_path_factory):
    """Output roots of one process with OpenBLAS capped at one thread and one at two."""
    jobs = {p.name: [str(p), SMALL_OVERRIDES.get(p.name, [])] for p in sorted(SCENARIOS.glob("*.json"))}
    path = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]))
    roots = {}
    for threads in (1, 2):
        roots[threads] = tmp_path_factory.mktemp(f"blas{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        argv = [sys.executable, "-c", _RUN_EVERY_SCENARIO, str(roots[threads]), json.dumps(jobs)]
        subprocess.run(argv, env=env, check=True, timeout=300)
    return roots


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_outputs_do_not_depend_on_the_blas_thread_count(outputs_by_blas_threads, name):
    one, two = (outputs_by_blas_threads[threads] / name for threads in (1, 2))
    files = sorted(p.name for p in one.iterdir())
    assert files and files == sorted(p.name for p in two.iterdir())
    for f in files:
        assert (one / f).read_bytes() == (two / f).read_bytes(), f


# the scipy modules loaded by importing fwlab and by then running one scenario
# under SMALL_OVERRIDES, printed as two JSON lists by a fresh process
_SCIPY_LOADED = """
import json, sys
import fwlab, fwlab.cli
imported = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if fwlab.cli.run(sys.argv[1], json.loads(sys.argv[2]), out_dir=sys.argv[3]) != 0:
    sys.exit("the scenario did not exit 0")
print(json.dumps([imported, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# the scipy subpackages each shipped scenario's computation calls into
SCIPY_BY_SCENARIO = {
    "commutator_check.json": set(),
    "comparison_doubling.json": set(),
    "dissipation_check.json": set(),
    "dp_value.json": set(),
    "filter_sim.json": set(),
    "game_sim.json": set(),
    "hamiltonian_lq.json": set(),
    "hamiltonian_regret_check.json": set(),
    "metric.json": set(),
    "sobolev_check.json": set(),
}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_scipy_loads_only_where_a_target_calls_it(tmp_path, name):
    path = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]))
    overrides = json.dumps(SMALL_OVERRIDES.get(name, []))
    argv = [sys.executable, "-c", _SCIPY_LOADED, str(SCENARIOS / name), overrides, str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert imported == []
    expected = SCIPY_BY_SCENARIO[name]
    assert {m for m in after_run if m in ("scipy.optimize", "scipy.special")} == expected
    assert bool(after_run) == bool(expected)


# builds every default Fourier configuration and its constants, then
# prints the scipy modules loaded
_SPECTRAL_SETUP = """
import json, sys
import fwlab
from fwlab import fourier_metric as fm
for d in (1, 2, 3):
    cfg = fm.default_config(d)
    fm.weight_mass(cfg)
    fm.moment_constant(cfg, 2)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_spectral_setup_loads_no_scipy():
    path = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-c", _SPECTRAL_SETUP]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_config_hash_round_trip(tmp_path):
    assert cli.run(SCENARIOS / "metric.json", out_dir=tmp_path) == 0
    meta = read_csv_meta(tmp_path / "metric.csv")
    scenario = json.loads((SCENARIOS / "metric.json").read_text())
    assert meta["config_hash"] == cli._config_hash(scenario)
    assert meta["fwlab_version"] == "0.1.0"
    assert "seed" in meta


def test_malformed_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(bad, out_dir=tmp_path) == cli.EXIT_INPUT_ERROR


def test_unknown_target_exits_1(tmp_path):
    path = _write(tmp_path, "unk.json", {"target": "mystery"})
    assert cli.run(path, out_dir=tmp_path) == cli.EXIT_INPUT_ERROR


def test_missing_file_exits_1(tmp_path):
    assert cli.run(tmp_path / "nope.json", out_dir=tmp_path) == cli.EXIT_INPUT_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--scenario", str(SCENARIOS / "metric.json"), "--bogus"],
        ["metric"],
        ["metric", "--scenario", str(SCENARIOS / "metric.json"), "--dump"],
    ],
    ids=["unknown-flag", "no-scenario", "dump-off-dp-value"],
)
def test_usage_error_exits_1(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_dump_outside_dp_value_exits_1(tmp_path, capsys):
    assert cli.run(SCENARIOS / "metric.json", out_dir=tmp_path, dump=True) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("schema", [0, 2, "1"])
def test_unknown_schema_exits_1(tmp_path, capsys, schema):
    code = cli.run(SCENARIOS / "metric.json", [f"schema={json.dumps(schema)}"], out_dir=tmp_path / "out")
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "schema" in err
    assert not (tmp_path / "out").exists()


_POINT = {"dim": 1, "atoms": [[0.0, 1.0]], "probability": True}
_SHIFT = {"t": 0.0, "m": [0.0]}


def _cases(**case) -> str:
    """A ``--set cases=...`` override holding the one case ``case``."""
    return "cases=" + json.dumps([case])


@pytest.mark.parametrize(
    "command,scenario,override,key",
    [
        ("sobolev-check", "sobolev_check.json", "cout=2", "cout"),
        ("filter-sim", "filter_sim.json", "seed=5", "seed"),
        ("metric", "metric.json", "config.quadrature_rule=tensor-trapezoid", "config.quadrature_rule"),
        ("metric", "metric.json", "seed=5", "seed"),
        ("hamiltonian", "hamiltonian_lq.json", "constant_scale=0.0", "constant_scale"),
        ("hamiltonian", "hamiltonian_regret_check.json", "control_points=5", "control_points"),
        ("hamiltonian", "hamiltonian_lq.json", _cases(mu=_POINT, p_slop=1.0), "cases.p_slop"),
        (
            "metric",
            "metric.json",
            _cases(mu=_POINT, nu=_POINT, theta=_SHIFT, iota={**_SHIFT, "s": 1.0}),
            "cases.iota.s",
        ),
        ("filter-sim", "filter_sim.json", "coeffs_params.sigmaa=1.0", "coeffs_params.sigmaa"),
    ],
    ids=[
        "misspelt-count",
        "seed-beside-sim-seed",
        "nested-config-key",
        "seed-the-metric-never-draws",
        "regret-check-key-on-the-filtering-kind",
        "filtering-key-on-the-regret-check-kind",
        "misspelt-case-key",
        "extra-iota-key",
        "misspelt-coefficient-parameter",
    ],
)
def test_key_the_target_never_reads_exits_1(tmp_path, capsys, command, scenario, override, key):
    argv = [command, "--scenario", str(SCENARIOS / scenario), "--set", override]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,scenario,overrides,key",
    [
        ("dp-value", "dp_value.json", ["K=2"], "K"),
        ("game-sim", "game_sim.json", ["K=2"], "K"),
        ("metric", "metric.json", ["dim=1"], "dim"),
        ("filter-sim", "filter_sim.json", ["lq.sigma=1"], "lq"),
        ("comparison-doubling", "comparison_doubling.json", ["lq.control_bound=4"], "lq.control_bound"),
        (
            "filter-sim",
            "filter_sim.json",
            ["policy=zero", "policy_params.control_weight=2"],
            "policy_params.control_weight",
        ),
    ],
    ids=["dp-value-K", "game-sim-K", "metric-dim", "filter-sim-lq", "control-bound", "zero-policy-weight"],
)
def test_key_that_repeats_a_measure_or_changes_nothing_exits_1(
    tmp_path, capsys, command, scenario, overrides, key
):
    # K is m0's dimension and dim each case's own; the lq noise loadings and
    # the control bound left every output row in place; and the zero policy
    # reads no key.  Before, each was read, or silently ignored
    argv = [command, "--scenario", str(SCENARIOS / scenario)]
    for override in overrides:
        argv += ["--set", override]
    _exits_1_naming(tmp_path, capsys, argv, f"scenario key {key!r} is not read by this target")


@pytest.mark.parametrize(
    "command,scenario,override,key",
    [
        ("comparison-doubling", "comparison_doubling.json", "n_starts=3.5", "n_starts"),
        ("comparison-doubling", "comparison_doubling.json", "n_starts=true", "n_starts"),
        ("game-sim", "game_sim.json", "T=2.5", "T"),
        ("filter-sim", "filter_sim.json", "sim.runs=2.7", "sim.runs"),
        ("dissipation-check", "dissipation_check.json", "lambda=4.0", "lambda"),
        ("filter-sim", "filter_sim.json", "coeffs_params.sigma=true", "coeffs_params.sigma"),
        ("metric", "metric.json", "schema=true", "schema"),
        ("comparison-doubling", "comparison_doubling.json", "eps_sequence=[true]", "eps_sequence[0]"),
    ],
    ids=[
        "fractional-int",
        "bool-for-int",
        "fractional-horizon",
        "nested-fractional-int",
        "float-for-int",
        "bool-for-float",
        "bool-for-schema",
        "bool-in-a-float-list",
    ],
)
def test_key_of_the_wrong_type_exits_1(tmp_path, capsys, command, scenario, override, key):
    # unchecked, n_starts=3.5 ran 3 starts, true ran 1, T=2.5 played 2 rounds,
    # sim.runs=2.7 ran 2 runs and eps true ran at eps 1, each exiting 0
    argv = [command, "--scenario", str(SCENARIOS / scenario), "--set", override]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("drop", ["T", "sim.dt"])
def test_missing_key_exits_1(tmp_path, capsys, drop):
    name = "game_sim.json" if drop == "T" else "filter_sim.json"
    scenario = json.loads((SCENARIOS / name).read_text())
    node = scenario if drop == "T" else scenario["sim"]
    del node[drop.split(".")[-1]]
    assert cli.run(_write(tmp_path, name, scenario), out_dir=tmp_path / "out") == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{drop!r} is missing" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", ["[1, 2]", '"metric"'])
def test_scenario_that_is_not_an_object_exits_1(tmp_path, capsys, payload):
    path = tmp_path / "list.json"
    path.write_text(payload)
    assert cli.run(path, out_dir=tmp_path / "out") == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given", ["theta", "iota"])
def test_metric_case_with_one_of_theta_and_iota_exits_1(tmp_path, capsys, given):
    # unchecked, such a case wrote its rho_F row and silently no d_F row
    override = _cases(mu=_POINT, nu=_POINT, **{given: _SHIFT})
    code = cli.run(SCENARIOS / "metric.json", [override], out_dir=tmp_path / "out")
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'cases.theta'" in err and "'cases.iota'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", ["n_starts=0", "max_iters=-1", "m_box=-1", "support=[]"])
def test_degenerate_doubling_config_exits_1(tmp_path, capsys, override):
    argv = ["comparison-doubling", "--scenario", str(SCENARIOS / "comparison_doubling.json")]
    assert cli.main(argv + ["--set", override, "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and override.split("=")[0] in err
    assert not (tmp_path / "out").exists()


def test_filter_sim_preamble_seed_is_the_simulation_seed(tmp_path):
    small = ["sim.runs=2", "sim.n_particles=20", "sim.dt=0.25"]
    assert cli.run(SCENARIOS / "filter_sim.json", small + ["sim.seed=5"], out_dir=tmp_path) == 0
    assert read_csv_meta(tmp_path / "filter_sim.csv")["seed"] == "5"


@pytest.mark.parametrize(
    "override",
    ["sim.dt=0.3", "t=0.33", "t=1.5"],
    ids=["dt-does-not-divide-the-horizon", "start-off-the-step-grid", "start-past-the-horizon"],
)
def test_filter_sim_off_the_horizon_grid_exits_1(tmp_path, capsys, override):
    # unchecked, these would end at t = 0.9 or 0.99, or charge the terminal
    # cost at t = 1.5, past the horizon
    argv = ["filter-sim", "--scenario", str(SCENARIOS / "filter_sim.json"), "--set", override]
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("dt", ["1e-300", "2e-19"])
def test_filter_sim_with_more_steps_than_an_array_holds_exits_1(tmp_path, capsys, dt):
    # 1e300 steps overflow the index, 5e18 the byte count of the normals;
    # both are rejected before any array is allocated
    argv = ["filter-sim", "--scenario", str(SCENARIOS / "filter_sim.json"), "--set", f"sim.dt={dt}"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: dt ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_filter_sim_with_an_infinite_step_count_exits_1(tmp_path, capsys):
    # before, round() met (horizon - t) / dt = inf and the run exited 3
    argv = ["filter-sim", "--scenario", str(SCENARIOS / "filter_sim.json"), "--set", "sim.horizon=1e308"]
    _exits_1_naming(tmp_path, capsys, argv, "gives inf steps, more than an array can hold")


@pytest.mark.parametrize(
    "command, scenario, override",
    [("filter-sim", "filter_sim.json", "sim.seed=-1"), ("game-sim", "game_sim.json", "seed=-1")],
)
def test_negative_seed_exits_1_naming_the_seed(tmp_path, capsys, command, scenario, override):
    # before, NumPy's bare "expected non-negative integer" named no key
    argv = [command, "--scenario", str(SCENARIOS / scenario), "--set", override]
    _exits_1_naming(tmp_path, capsys, argv, "seed -1 is negative")


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # stands in for an allocation the machine cannot hold, without making it
    def exhausted(M):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(pg, "_stage_values", exhausted)
    code = cli.run(SCENARIOS / "dp_value.json", out_dir=tmp_path / "out")
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 7.28 TiB\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("existing", [None, "empty", "with-a-file"])
def test_failed_run_removes_only_the_directories_it_made(tmp_path, existing):
    # an input error raised by the target after the output directory was
    # made: directories this run made go, a directory that was there stays
    out = tmp_path / "made" / "out"
    if existing:
        out.mkdir(parents=True)
    if existing == "with-a-file":
        (out / "keep.txt").write_text("kept")
    argv = ["filter-sim", "--scenario", str(SCENARIOS / "filter_sim.json"), "--set", "t=0.33"]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_INPUT_ERROR
    if existing is None:
        assert not list(tmp_path.iterdir())
    else:
        assert [p.name for p in out.iterdir()] == (["keep.txt"] if existing == "with-a-file" else [])


def test_subcommand_target_mismatch(tmp_path):
    code = cli.main(
        ["game-sim", "--scenario", str(SCENARIOS / "metric.json"), "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_INPUT_ERROR


def test_engineered_check_failure_exits_2(tmp_path):
    scenario = json.loads((SCENARIOS / "hamiltonian_regret_check.json").read_text())
    path = _write(tmp_path, "rc.json", scenario)
    assert cli.run(path, out_dir=tmp_path) == cli.EXIT_OK
    code = cli.run(path, overrides=["constant_scale=1e-6"], out_dir=tmp_path)
    assert code == cli.EXIT_CHECK_FAILED


def test_diverging_simulation_exits_3(tmp_path, capsys):
    code = cli.run(
        SCENARIOS / "filter_sim.json",
        overrides=["coeffs_params.sigma=1e8"],
        out_dir=tmp_path,
    )
    assert code == cli.EXIT_NUMERICAL_FAULT
    err = capsys.readouterr().err
    assert err.startswith("error: numerical fault: ") and err.count("\n") == 1


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_override_exits_1(tmp_path, capsys, literal):
    code = cli.main(
        [
            "filter-sim",
            "--scenario",
            str(SCENARIOS / "filter_sim.json"),
            "--set",
            f"coeffs_params.sigma={literal}",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_non_finite_scenario_literal_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text((SCENARIOS / "filter_sim.json").read_text().replace('"sigma": 1.0', '"sigma": NaN', 1))
    assert cli.run(path, out_dir=tmp_path / "out") == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lam", [160, 100000])
def test_metric_exponent_beyond_the_float_range_exits_1(tmp_path, capsys, lam):
    # before, lambda = 160 wrote nan distances and exited 0, and 100000 exited 3
    argv = ["metric", "--scenario", str(SCENARIOS / "metric.json"), "--set", f"config.lambda={lam}"]
    _exits_1_naming(tmp_path, capsys, argv, "beyond the float range")


def test_non_finite_output_exits_3(tmp_path, capsys):
    # before, this wrote origin,G_filtering,nan and exited 0
    bounds = ["--set", "control_lo=1e308", "--set", "control_hi=-1e308"]
    argv = ["hamiltonian", "--scenario", str(SCENARIOS / "hamiltonian_lq.json"), *bounds]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_NUMERICAL_FAULT
    err = capsys.readouterr().err
    assert err == "error: numerical fault: hamiltonian.csv column 'value' holds nan\n"
    assert not (tmp_path / "out").exists()


def test_non_finite_output_prints_one_error_line_and_no_warnings(tmp_path):
    # before, three numpy RuntimeWarning lines with source paths came first
    path = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]))
    scenario = str(SCENARIOS / "hamiltonian_lq.json")
    argv = [sys.executable, "-m", "fwlab", "hamiltonian", "--scenario", scenario]
    argv += ["--set", "control_lo=1e308", "--set", "control_hi=-1e308", "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == cli.EXIT_NUMERICAL_FAULT
    assert proc.stderr == "error: numerical fault: hamiltonian.csv column 'value' holds nan\n"


def test_non_finite_stage_value_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pg, "_stage_values", lambda M: np.full(len(M), np.nan))
    code = cli.run(SCENARIOS / "dp_value.json", out_dir=tmp_path)
    assert code == cli.EXIT_NUMERICAL_FAULT
    err = capsys.readouterr().err
    assert err == "error: numerical fault: stage game after history ((0, -1),) has value nan\n"


def test_dp_value_at_three_actions_over_five_rounds_exits_0(tmp_path):
    # T = 5 on the eight-vertex grid at K = 3: 555 stage games, where beliefs
    # that kept offsets of zero mass needed 6 760 and were refused
    scenario = json.loads((SCENARIOS / "dp_value.json").read_text())
    scenario.update(T=5, m0={"dim": 3, "atoms": [[0.0, 0.0, 0.0, 1.0]], "probability": True})
    assert cli.run(_write(tmp_path, "dp3.json", scenario), out_dir=tmp_path / "out") == cli.EXIT_OK
    assert (tmp_path / "out" / "dp_value.csv").read_text().splitlines()[-1] == "5,1.25"


def _point(K):
    return "m0=" + json.dumps({"dim": K, "atoms": [[0.0] * K + [1.0]], "probability": True})


def test_dp_value_at_four_actions_exits_0(tmp_path):
    argv = ["dp-value", "--scenario", str(SCENARIOS / "dp_value.json"), "--set", _point(4)]
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "dp_value.csv").read_text().splitlines()[-1] == "2,1.0"


def test_dp_value_at_two_actions_over_seven_rounds_exits_0(tmp_path):
    # refused by a fixed T <= 6 before the budget alone bounded the horizon
    argv = ["dp-value", "--scenario", str(SCENARIOS / "dp_value.json"), "--set", "T=7"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    T, value = (tmp_path / "dp_value.csv").read_text().splitlines()[-1].split(",")
    assert T == "7" and float(value) == pytest.approx(35 / 32, abs=1e-15)  # Cover's value


def test_dp_value_refuses_a_large_m0_before_building_its_grid(tmp_path, capsys):
    # unchecked, the 4 096 vertex actions of 4 096 weights each took 162 MB
    # before the exact value refused K = 12; the 32 at K = 5 make 435 896
    # candidate vertex systems per stage game
    for K in (5, 12):
        argv = ["dp-value", "--scenario", str(SCENARIOS / "dp_value.json"), "--set", _point(K)]
        tracemalloc.start()
        try:
            _exits_1_naming(tmp_path, capsys, argv, "'m0'")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


def test_dp_value_charges_each_round_at_least_one_batch(tmp_path, capsys, monkeypatch):
    # K = 1 keeps one state and one 2-system game a round, but each round is
    # charged _BATCH // 4 = 16 384 systems: 27 rounds are admitted, 28 refused
    argv = ["dp-value", "--scenario", str(SCENARIOS / "dp_value.json"), "--set", _point(1)]
    assert cli.main(argv + ["--set", "T=27", "--out", str(tmp_path / "ok")]) == cli.EXIT_OK
    assert (tmp_path / "ok" / "dp_value.csv").read_text().splitlines()[-1] == "27,0.0"
    solved = []
    monkeypatch.setattr(pg, "_stage_values", lambda M: solved.append(len(M)))
    _exits_1_naming(tmp_path, capsys, argv + ["--set", "T=28"], "16384 per level")
    assert solved == []


def test_game_sim_refuses_more_base_actions_than_subset_actions_allow(tmp_path, capsys):
    # before, 17 dimensions exited 0 with 2^17 subset weights per action
    m0 = {"dim": 17, "atoms": [[0.0] * 17 + [1.0]], "probability": True}
    argv = ["game-sim", "--scenario", str(SCENARIOS / "game_sim.json"), "--set", "m0=" + json.dumps(m0)]
    _exits_1_naming(tmp_path, capsys, argv + ["--set", "runs=1", "--set", "T=1"], "K <= 16")


def test_set_override_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.run(SCENARIOS / "game_sim.json", out_dir=out1)
    cli.run(SCENARIOS / "game_sim.json", overrides=["seed=99"], out_dir=out2)
    row1 = (out1 / "game_sim.csv").read_text().splitlines()[-1]
    row2 = (out2 / "game_sim.csv").read_text().splitlines()[-1]
    assert row1 != row2
    # dotted override path
    code = cli.run(
        SCENARIOS / "filter_sim.json",
        overrides=["sim.runs=2", "sim.n_particles=50", "sim.dt=0.1"],
        out_dir=tmp_path,
    )
    assert code == cli.EXIT_OK


def test_filter_sim_outputs(tmp_path):
    code = cli.run(
        SCENARIOS / "filter_sim.json",
        overrides=["sim.runs=2", "sim.n_particles=80", "sim.dt=0.05"],
        out_dir=tmp_path,
    )
    assert code == cli.EXIT_OK
    lines = (tmp_path / "filter_sim.csv").read_text().splitlines()
    header_idx = _header_index(lines)
    assert lines[header_idx] == "time,mean,variance,cost_to_date"
    assert len(lines) > header_idx + 5
    summary = json.loads((tmp_path / "filter_sim_summary.json").read_text())
    assert {"estimate", "std_error", "config_hash"} <= set(summary)


def test_filter_sim_policy_reads_its_control_weight(tmp_path):
    small = ["sim.runs=2", "sim.n_particles=50", "sim.dt=0.1"]
    runs = {}
    for weight in (None, 1, 2):
        override = [] if weight is None else [f"policy_params.control_weight={weight}"]
        assert cli.run(SCENARIOS / "filter_sim.json", small + override, out_dir=tmp_path / str(weight)) == 0
        lines = (tmp_path / str(weight) / "filter_sim.csv").read_text().splitlines()
        runs[weight] = lines[_header_index(lines) :]
    # the default weight is 1, and a weight of 2 changes the feedback gain
    assert runs[1] == runs[None] and runs[2] != runs[None]


_POINT2 = {"dim": 2, "atoms": [[1.0, 2.0, 1.0]], "probability": True}


def test_hamiltonian_of_one_dimensional_coefficients_on_a_plane_measure_exits_1(tmp_path, capsys):
    # before, numpy broadcast the lq1d closures over the 2-d atoms and wrote G = -1.2496
    argv = ["hamiltonian", "--scenario", str(SCENARIOS / "hamiltonian_lq.json"), "--set", _cases(mu=_POINT2)]
    _exits_1_naming(tmp_path, capsys, argv, "dimension 1 got atoms of dimension 2")


def test_filter_sim_of_one_dimensional_coefficients_on_a_plane_measure_exits_1(tmp_path, capsys):
    # before, the run failed on "cannot reshape array of size 8000 into shape (4000,1)"
    argv = ["filter-sim", "--scenario", str(SCENARIOS / "filter_sim.json")]
    argv += ["--set", "mu=" + json.dumps(_POINT2)]
    _exits_1_naming(tmp_path, capsys, argv, "dimension 2 for coefficients of dimension 1")


def test_metric_case_of_two_dimensions_exits_1(tmp_path, capsys):
    # each case's weight comes from its own measures, so they must agree
    other = {"dim": 2, "atoms": [[1.0, 0.0, 1.0]], "probability": True}
    argv = ["metric", "--scenario", str(SCENARIOS / "metric.json"), "--set", _cases(mu=_POINT, nu=other)]
    _exits_1_naming(tmp_path, capsys, argv, "'cases.nu'")


@pytest.mark.parametrize("T", [-1, -3])
def test_dp_value_with_a_negative_horizon_exits_1(tmp_path, capsys, T):
    # before, T = -1 wrote -1,1.5 and T = -3 wrote -3,0.5, each exiting 0
    argv = ["dp-value", "--scenario", str(SCENARIOS / "dp_value.json"), "--set", f"T={T}"]
    _exits_1_naming(tmp_path, capsys, argv, "0 <= T")


@pytest.mark.parametrize(
    "error",
    [
        IndexError("index 4 is out of bounds"),
        RecursionError("maximum recursion depth exceeded"),
        np.linalg.LinAlgError("Singular matrix"),
    ],
)
def test_any_exception_of_a_run_exits_3(tmp_path, capsys, monkeypatch, error):
    # before, the IndexError escaped and the RecursionError was re-raised,
    # each printing a traceback; numpy's LinAlgError is a ValueError, but it
    # comes from the numerics and names no scenario key
    def runner(out, meta, /, **keys):
        raise error

    monkeypatch.setitem(cli.DISPATCH, "dp-value", runner)
    assert cli.run(SCENARIOS / "dp_value.json", out_dir=tmp_path / "out") == cli.EXIT_NUMERICAL_FAULT
    assert capsys.readouterr().err == f"error: numerical fault: {error}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "override, n_rows", [("eps_sequence=[1e-200]", 1), ("slack=1e50", 2)], ids=["tiny-eps", "huge-slack"]
)
def test_singular_polish_face_reports_unconverged_rows(tmp_path, capsys, override, n_rows):
    # before, one singular KKT system in the polish raised LinAlgError for
    # every run and the check exited 3 with no rows
    code = cli.run(SCENARIOS / "comparison_doubling.json", [override], out_dir=tmp_path)
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "comparison_doubling.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[_header_index(lines) + 1 :]]
    assert len(rows) == n_rows
    assert all(row[4] == "false" for row in rows)


def test_dissipation_check_failure_exits_2(tmp_path, monkeypatch):
    first = sb._dissipation_design()[0]
    monkeypatch.setattr(sb, "_dissipation_design", lambda: [first])
    assert cli.run(SCENARIOS / "dissipation_check.json", out_dir=tmp_path) == cli.EXIT_CHECK_FAILED
    assert (tmp_path / "dissipation_check.csv").exists()


def test_dp_value_has_no_grid_key(tmp_path, capsys):
    # dp-value always plays the 2^K vertex grid
    code = cli.run(SCENARIOS / "dp_value.json", ["grid=vertices"], out_dir=tmp_path / "out")
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'grid'" in err
    assert not list(tmp_path.iterdir())


def test_dp_value_and_dump(tmp_path):
    assert cli.run(SCENARIOS / "dp_value.json", out_dir=tmp_path) == 0
    assert not (tmp_path / "dp_value_table.json").exists()
    assert cli.run(SCENARIOS / "dp_value.json", out_dir=tmp_path, dump=True) == 0
    table = json.loads((tmp_path / "dp_value_table.json").read_text())
    assert table == {"n_nodes": 6, "value": 0.5}


def _sobolev_rows(out):
    lines = (out / "sobolev_check.csv").read_text().splitlines()
    return [[float(v) for v in line.split(",")[1:]] for line in lines[_header_index(lines) + 1 :]]


def test_sobolev_check_verdict_is_the_reports(tmp_path):
    # the CSV carries each report's own bound tol * max(|lhs|, 1), and the
    # exit code follows those reports
    argv = ["sobolev-check", "--scenario", str(SCENARIOS / "sobolev_check.json"), "--out"]
    assert cli.main(argv + [str(tmp_path / "a"), "--set", "tol=1e-13"]) == cli.EXIT_OK
    rows = _sobolev_rows(tmp_path / "a")
    assert rows and all(bound > 1e-13 and ratio <= 1.0 for _, bound, ratio in rows)
    for resid, bound, ratio in rows:
        assert ratio == resid / bound
    assert cli.main(argv + [str(tmp_path / "b"), "--set", "tol=1e-16"]) == cli.EXIT_CHECK_FAILED
    assert max(ratio for *_, ratio in _sobolev_rows(tmp_path / "b")) > 1.0


def test_sobolev_and_commutator_checks(tmp_path):
    assert cli.run(SCENARIOS / "sobolev_check.json", out_dir=tmp_path) == 0
    assert cli.run(SCENARIOS / "commutator_check.json", out_dir=tmp_path) == 0
    lines = (tmp_path / "commutator_check.csv").read_text().splitlines()
    assert lines[_header_index(lines)] == "case,residual,bound,ratio"


def test_dissipation_check_cli(tmp_path):
    code = cli.run(
        SCENARIOS / "dissipation_check.json", overrides=["count=6"], out_dir=tmp_path
    )
    assert code == cli.EXIT_OK
    meta = read_csv_meta(tmp_path / "dissipation_check.csv")
    assert float(meta["fitted_c"]) > 0


@pytest.mark.parametrize("delta", ["0", "-1"])
def test_dissipation_check_with_a_non_positive_delta_exits_1(tmp_path, capsys, delta):
    argv = ["dissipation-check", "--scenario", str(SCENARIOS / "dissipation_check.json")]
    assert cli.main(argv + ["--set", f"delta={delta}", "--out", str(tmp_path)]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: delta must be positive") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_dissipation_check_held_out_near_the_weakest_diffusion(tmp_path):
    # seed 449 draws a held-out pair whose ratio (0.4985194) exceeds every
    # lattice member (0.4983319); the fit design must reach the family's sup
    code = cli.run(SCENARIOS / "dissipation_check.json", overrides=["seed=449"], out_dir=tmp_path)
    assert code == cli.EXIT_OK
    lines = (tmp_path / "dissipation_check.csv").read_text().splitlines()
    ratios = [float(line.split(",")[-1]) for line in lines[_header_index(lines) + 1 :]]
    fitted_c = float(read_csv_meta(tmp_path / "dissipation_check.csv")["fitted_c"])
    assert 0.4983319 < max(ratios) <= fitted_c


def test_comparison_doubling_cli(tmp_path):
    code = cli.run(
        SCENARIOS / "comparison_doubling.json",
        overrides=['eps_sequence=[0.5]', "n_starts=6", "max_iters=40"],
        out_dir=tmp_path,
    )
    assert code == cli.EXIT_OK
    lines = (tmp_path / "comparison_doubling.csv").read_text().splitlines()
    header_idx = _header_index(lines)
    assert lines[header_idx] == "eps,value,penalty,d_F,converged"
    assert len(lines) == header_idx + 2


def test_hamiltonian_filtering_cli(tmp_path):
    assert cli.run(SCENARIOS / "hamiltonian_lq.json", out_dir=tmp_path) == 0
    rows = (tmp_path / "hamiltonian.csv").read_text().splitlines()
    assert rows[-1].startswith("origin,G_filtering,")
    assert float(rows[-1].split(",")[2]) == pytest.approx(1.0)


def _regret_scenario(tmp_path, mu_dim, M, q_const=None):
    mu = {"dim": mu_dim, "atoms": [[0.3] * mu_dim + [0.5], [-0.2] * mu_dim + [0.5]], "probability": True}
    if q_const is None:
        q_const = np.zeros_like(np.asarray(M)).tolist()
    cases = [{"name": "psd", "mu": mu, "M": M, "q_const": q_const}]
    return _write(
        tmp_path, "regret.json", {"target": "hamiltonian", "schema": 1, "kind": "regret", "cases": cases}
    )


@pytest.mark.parametrize("K", [2, 3])
def test_hamiltonian_regret_cli_with_zero_q(tmp_path, K):
    # q = 0 and PSD M: the sup is half the largest 1_S^T M 1_S over proper subsets S
    A = np.random.default_rng(K).standard_normal((K, K))
    M = A @ A.T
    assert cli.run(_regret_scenario(tmp_path, K, M.tolist()), out_dir=tmp_path) == cli.EXIT_OK
    row = (tmp_path / "hamiltonian.csv").read_text().splitlines()[-1].split(",")
    assert row[:2] == ["psd", "G_regret"]
    subsets = [np.array([(mask >> j) & 1 for j in range(K)], dtype=float) for mask in range(2**K - 1)]
    assert float(row[2]) == pytest.approx(max(0.5 * e @ M @ e for e in subsets), abs=1e-9)


def test_hamiltonian_regret_cli_takes_no_seed(tmp_path, capsys):
    # a nonzero q and an indefinite M - q; G_regret draws nothing, so a seed
    # is a key the regret kind never reads
    M = [[1.0, 0.9, -0.3], [0.9, 0.2, 0.55], [-0.3, 0.55, 0.0]]
    q = [[1.6, -0.65, -0.1], [-0.65, -1.0, -0.3], [-0.1, -0.3, 1.0]]
    path = _regret_scenario(tmp_path, 3, M, q)
    argv = ["hamiltonian", "--scenario", str(path), "--out"]
    assert cli.main(argv + [str(tmp_path / "a")]) == cli.EXIT_OK
    assert (tmp_path / "a" / "hamiltonian.csv").read_text().splitlines()[-1].startswith("psd,G_regret,")
    assert cli.main(argv + [str(tmp_path / "b"), "--set", "seed=7"]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'seed'" in err
    assert not (tmp_path / "b").exists()


def test_hamiltonian_regret_cli_rejects_M_of_the_wrong_shape(tmp_path, capsys):
    path = _regret_scenario(tmp_path, 2, np.eye(3).tolist())
    assert cli.run(path, out_dir=tmp_path) == cli.EXIT_INPUT_ERROR
    assert "(3, 3)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mu,key",
    [
        ({"dim": 1.9, "atoms": [[0.0, 1.0]], "probability": True}, "dim"),
        ({"dim": 1, "atoms": [[0.0, 1.0]], "probability": "no"}, "probability"),
        ({"dim": 1, "atoms": [[0.0, 1.0]], "probabilty": True}, "probabilty"),
        ({"dim": 1, "atoms": [[0.0, True]], "probability": True}, "atoms"),
    ],
    ids=["fractional-dim", "string-probability", "misspelt-probability", "bool-in-atoms"],
)
def test_measure_of_the_wrong_form_exits_1(tmp_path, capsys, mu, key):
    argv = ["hamiltonian", "--scenario", str(SCENARIOS / "hamiltonian_lq.json")]
    argv += ["--set", _cases(name="x", mu=mu), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"measure key {key!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,scenario,m0",
    [
        ("dp-value", "dp_value.json", {"dim": 2, "atoms": [[0.0, 0.0, -3.0]]}),
        ("game-sim", "game_sim.json", {"dim": 2, "atoms": [[0.0, 0.0, -1.0], [1.0, 1.0, 2.0]]}),
    ],
)
def test_game_from_a_signed_initial_law_exits_1(tmp_path, capsys, command, scenario, m0):
    argv = [command, "--scenario", str(SCENARIOS / scenario), "--set", "m0=" + json.dumps(m0)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "probability" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,scenario,override",
    [
        ("hamiltonian", "hamiltonian_regret_check.json", "samples=0"),
        ("dissipation-check", "dissipation_check.json", "count=0"),
        ("sobolev-check", "sobolev_check.json", "count=0"),
        ("commutator-check", "commutator_check.json", "count=0"),
    ],
)
def test_check_over_no_samples_exits_1(tmp_path, capsys, command, scenario, override):
    # before, each exited 0 with no rows, or regret-check with max_sign_gap -inf
    argv = [command, "--scenario", str(SCENARIOS / scenario), "--set", override]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "at least" in err
    assert not (tmp_path / "out").exists()


def _exits_1_naming(tmp_path, capsys, argv, name):
    """``argv`` exits 1 with one ``error:`` line that names ``name``, leaving no output directory."""
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("digits", [400, 5000], ids=["beyond-the-float-range", "beyond-int-digit-limit"])
def test_oversized_integer_in_a_scenario_exits_1(tmp_path, capsys, digits):
    # before, each printed a traceback: OverflowError from float(), or ValueError from int()
    path = tmp_path / "huge.json"
    text = (SCENARIOS / "sobolev_check.json").read_text()
    path.write_text(text.replace('"count":5', '"count":5,"tol":1' + "0" * digits, 1))
    _exits_1_naming(tmp_path, capsys, ["sobolev-check", "--scenario", str(path)], "integer")


def test_oversized_integer_atom_exits_1(tmp_path, capsys):
    mu = '{"dim": 1, "atoms": [[1' + "0" * 400 + ', 1.0]], "probability": true}'
    override = f'cases=[{{"name": "x", "mu": {mu}, "nu": {mu}}}]'
    argv = ["metric", "--scenario", str(SCENARIOS / "metric.json"), "--set", override]
    _exits_1_naming(tmp_path, capsys, argv, "integer")


@pytest.mark.parametrize("kind", ["metric", "filtering", "regret"])
def test_empty_cases_exit_1(tmp_path, capsys, kind):
    # before, each wrote a CSV with a header and no rows
    scenario = {
        "metric": SCENARIOS / "metric.json",
        "filtering": SCENARIOS / "hamiltonian_lq.json",
        "regret": _write(tmp_path, "regret.json", {"target": "hamiltonian", "schema": 1, "kind": "regret"}),
    }[kind]
    argv = ["metric" if kind == "metric" else "hamiltonian", "--scenario", str(scenario), "--set", "cases=[]"]
    _exits_1_naming(tmp_path, capsys, argv, "'cases'")


@pytest.mark.parametrize("command", ["sobolev-check", "commutator-check"])
def test_negative_band_exits_1(tmp_path, capsys, command):
    # before, both exited 0 over zero functions, every residual 0.0
    scenario = SCENARIOS / f"{command.replace('-', '_')}.json"
    _exits_1_naming(tmp_path, capsys, [command, "--scenario", str(scenario), "--set", "band=-1"], "band")
