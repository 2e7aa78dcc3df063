import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from effectlab import cli
from effectlab.cli import main
from effectlab.effects import ShrinkageSpec, bootstrap_replicates
from effectlab.objective import ObjectiveSpec, PairwiseObjective, objective
from effectlab.optimize import verify_1swap
from effectlab.sim import estimate_from_log
from effectlab.space import ReferenceDistribution, ingest_log, load_space


@pytest.fixture
def workspace(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "factors": [
            {"name": "a", "levels": ["a0", "a1"]},
            {"name": "b", "levels": ["b0", "b1"]},
        ]
    }))
    log = tmp_path / "runs.csv"
    rows = ["a,b,response"]
    for xa in (0, 1):
        for xb in (0, 1):
            for _ in range(3):
                rows.append(f"a{xa},b{xb},{float(xa ^ xb)}")
    log.write_text("\n".join(rows) + "\n")
    return tmp_path, space, log


def read_csv(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def test_estimate_cm_xor(workspace):
    tmp, space, log = workspace
    out = tmp / "est"
    rc = main(["estimate", "--space", str(space), "--log", str(log),
               "--out", str(out), "--tau", "1e-12"])
    assert rc == 0
    effects = json.loads((out / "effects.json").read_text())
    assert effects["mu"] == pytest.approx(0.5)
    for factor in ("a", "b"):
        for v in effects["mains"][factor].values():
            assert abs(v) < 1e-9
    pair = effects["pairs"]["a|b"]
    assert pair["a0|b0"] == pytest.approx(-0.5, abs=1e-9)
    assert pair["a0|b1"] == pytest.approx(0.5, abs=1e-9)
    rows = read_csv(out / "main_effects.csv")
    assert len(rows) == 4
    by_key = {(r["factor"], r["level"]): float(r["mean"]) for r in rows}
    assert by_key[("a", "a0")] == pytest.approx(0.5)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "estimate"
    assert str(space) in manifest["inputs"]
    assert sorted(manifest["outputs"]) == manifest["outputs"]
    # header comment declares units and estimator
    first = (out / "main_effects.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "estimator" in first


def test_estimate_paths_agree_on_full_grid(workspace):
    tmp, space, log = workspace
    out_cm = tmp / "cm"
    out_sf = tmp / "sf"
    assert main(["estimate", "--space", str(space), "--log", str(log),
                 "--out", str(out_cm), "--tau", "1e-12"]) == 0
    assert main(["estimate", "--space", str(space), "--log", str(log),
                 "--out", str(out_sf), "--path", "sf", "--tau", "1e-12"]) == 0
    cm = json.loads((out_cm / "effects.json").read_text())
    sf = json.loads((out_sf / "effects.json").read_text())
    for factor in ("a", "b"):
        for level, v in cm["mains"][factor].items():
            assert abs(v - sf["mains"][factor][level]) < 1e-6
    for key, v in cm["pairs"]["a|b"].items():
        assert abs(v - sf["pairs"]["a|b"][key]) < 1e-6
    diag = json.loads((out_sf / "diagnostics.json").read_text())
    assert diag["sigma_min"] > 1e-8
    assert (out_sf / "shapley.csv").exists()


def write_inputs(tmp, levels, configs, responses, weights):
    """space.json and runs.csv for factors f0, f1, ... with ``levels[j]``
    levels each; returns their paths."""
    space = tmp / "space.json"
    space.write_text(json.dumps({"factors": [
        {"name": f"f{j}", "levels": [f"l{t}" for t in range(L)]}
        for j, L in enumerate(levels)
    ]}))
    log = tmp / "runs.csv"
    rows = [",".join([f"f{j}" for j in range(len(levels))] + ["response", "weight"])]
    for x, y, w in zip(configs, responses, weights):
        rows.append(",".join([f"l{v}" for v in x] + [repr(float(y)), repr(float(w))]))
    log.write_text("\n".join(rows) + "\n")
    return space, log


def library_table(space_path, log_path, background, **kw):
    log = ingest_log(log_path, load_space(space_path))
    ref = (ReferenceDistribution.uniform(log.space) if background == "uniform"
           else ReferenceDistribution.empirical(log))
    return estimate_from_log(log, "SF", ref, **kw)


def as_json(payload):
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("background", ["uniform", "empirical"])
def test_estimate_sf_matches_library_entry_point(tmp_path, background):
    rng = np.random.default_rng(5)
    levels = (2, 3, 3)
    X = rng.integers(0, levels, size=(40, 3))
    y = X @ np.array([1.0, -0.5, 0.25]) + 0.3 * (X[:, 0] == X[:, 1]) + rng.normal(0, 0.1, 40)
    w = rng.choice([0.5, 1.0, 2.0], size=40)
    space, log = write_inputs(tmp_path, levels, X.tolist(), y, w)
    out = tmp_path / "sf"
    assert main(["estimate", "--path", "sf", "--background", background, "--seed", "4",
                 "--space", str(space), "--log", str(log), "--out", str(out)]) == 0
    table = library_table(space, log, background)
    assert json.loads((out / "effects.json").read_text()) == as_json(table.to_dict())
    assert json.loads((out / "diagnostics.json").read_text()) == as_json(table.diagnostics)


def test_estimate_sf_wide_space_is_exact_and_seed_free(tmp_path):
    # Thirteen binary factors, and the 8,192-cell grid exceeds EVAL_GRID_CAP,
    # so the evaluation points are the logged configurations. Attribution is
    # exact there too, so --seed does not reach any SF data file.
    rng = np.random.default_rng(2)
    base = np.unique(rng.integers(0, 2, size=(16, 12)), axis=0)
    X = np.array([list(x) + [t] for x in base.tolist() for t in (0, 1)])
    y = np.repeat(rng.normal(size=len(base)), 2)
    space, log = write_inputs(tmp_path, (2,) * 13, X.tolist(), y, np.ones(len(X)))
    names = ["effects.json", "main_effects.csv", "interactions.csv", "diagnostics.json",
             "shapley.csv"]
    files = {}
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        assert main(["estimate", "--path", "sf", "--seed", str(seed),
                     "--space", str(space), "--log", str(log), "--out", str(out)]) == 0
        files[seed] = [(out / name).read_bytes() for name in names]
    assert files[0] == files[1]
    rows = read_csv(out / "shapley.csv")
    assert len(rows) == len(X) * 13 and {r["M"] for r in rows} == {str(1 << 12)}
    table = library_table(space, log, "uniform")
    assert json.loads((out / "effects.json").read_text()) == as_json(table.to_dict())
    assert json.loads((out / "diagnostics.json").read_text()) == as_json(table.diagnostics)


def test_mc_samples_option_is_gone(workspace):
    tmp, space, log = workspace
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--path", "sf", "--mc-samples", "50", "--space", str(space),
              "--log", str(log), "--out", str(tmp / "sf")])
    assert exc.value.code == 2


def test_bootstrap_rejected_on_sf_path(workspace):
    tmp, space, log = workspace
    out = tmp / "sfboot"
    rc = main(["estimate", "--path", "sf", "--bootstrap", "100", "--space", str(space),
               "--log", str(log), "--out", str(out)])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert "--bootstrap" in err["message"] and "--path sf" in err["message"]
    assert not (out / "effects.json").exists()


def test_estimate_reproducible_byte_identical(workspace):
    tmp, space, log = workspace
    out1, out2 = tmp / "r1", tmp / "r2"
    argv = ["estimate", "--space", str(space), "--log", str(log),
            "--bootstrap", "120", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for name in ("effects.json", "main_effects.csv", "interactions.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    m1.pop("config"), m2.pop("config")  # differ in --out by construction
    assert m1["inputs"] == m2["inputs"] and m1["outputs"] == m2["outputs"]
    assert m1["diagnostics"] == m2["diagnostics"] == {
        "bootstrap": {"replicates": 120, "fallback_draws": 0}}


def test_estimate_error_json_and_exit_code(workspace, tmp_path):
    tmp, space, log = workspace
    bad_log = tmp / "bad.csv"
    bad_log.write_text("a,b,response\na9,b0,1.0\n")
    out = tmp / "err"
    rc = main(["estimate", "--space", str(space), "--log", str(bad_log),
               "--out", str(out)])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert "a9" in err["message"]
    assert not (out / "effects.json").exists()
    assert not (out / "manifest.json").exists()


def test_optimize_xor_lexicographic(workspace):
    tmp, space, log = workspace
    out = tmp / "opt"
    rc = main(["optimize", "--space", str(space), "--log", str(log),
               "--out", str(out), "--tau", "1e-12",
               "--lambda-risk", "0", "--restarts", "4", "--seed", "0"])
    assert rc == 0
    chosen = json.loads((out / "chosen.json").read_text())
    config = (chosen["config"]["a"], chosen["config"]["b"])
    assert config in {("a0", "b1"), ("a1", "b0")}
    assert chosen["objective"] == pytest.approx(1.0, abs=1e-9)
    # deterministic rerun picks the same configuration
    out2 = tmp / "opt2"
    main(["optimize", "--space", str(space), "--log", str(log),
          "--out", str(out2), "--tau", "1e-12",
          "--lambda-risk", "0", "--restarts", "4", "--seed", "0"])
    chosen2 = json.loads((out2 / "chosen.json").read_text())
    assert chosen2["config"] == chosen["config"]

    top = read_csv(out / "topk.csv")
    assert len(top) == 4
    assert float(top[0]["objective"]) >= float(top[-1]["objective"])
    dom = json.loads((out / "dominance.json").read_text())
    assert dom["holds"] is False  # pure interaction cannot be dominant
    trace = read_csv(out / "trace.csv")
    assert all("objective" in row for row in trace)


def test_optimize_rejects_bad_gamma_key_at_load(workspace):
    tmp, space, log = workspace
    objective_file = tmp / "objective.json"
    objective_file.write_text(json.dumps({"gamma": {"typo|zz": 2}}))
    out = tmp / "optg"
    rc = main(["optimize", "--space", str(space), "--log", str(log),
               "--out", str(out), "--objective", str(objective_file)])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert "'typo|zz'" in err["message"]
    assert not (out / "chosen.json").exists()


@pytest.mark.parametrize("document, key", [
    ({"lambda-risk": 0.0}, "lambda-risk"),
    ({"costs": {"typo": {"a0": 5.0}}}, "typo"),
    ({"costs": {"a": {"A1": 3.0}}}, "A1"),
    ({"banned_levels": {"typo": ["a0"]}}, "typo"),
    ({"banned_configs": [["a0"]]}, ["a0"]),
    ({"banned_configs": [["a0", "b0", "b1"]]}, ["a0", "b0", "b1"]),
])
def test_optimize_rejects_unknown_objective_keys(workspace, document, key):
    tmp, space, log = workspace
    objective_file = tmp / "objective.json"
    objective_file.write_text(json.dumps(document))
    out = tmp / "optk"
    rc = main(["optimize", "--space", str(space), "--log", str(log),
               "--out", str(out), "--objective", str(objective_file)])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert repr(key) in err["message"]
    assert not (out / "chosen.json").exists()


def test_optimize_topk_with_bootstrap(workspace):
    tmp, space, log = workspace
    out = tmp / "optb"
    rc = main(["optimize", "--space", str(space), "--log", str(log),
               "--out", str(out), "--bootstrap", "120", "--seed", "3"])
    assert rc == 0
    top = read_csv(out / "topk.csv")
    for row in top:
        assert float(row["ci_lo"]) <= float(row["objective"]) + 1e-9
        assert float(row["objective"]) <= float(row["ci_hi"]) + 1e-9


def test_optimize_above_topk_cap_builds_no_grid(workspace, monkeypatch):
    # 17 binary factors: 131,072 cells, above the top-k cap. The search and
    # the certificate need no grid, so a grid build is an error here.
    def no_grid(*args, **kwargs):
        raise AssertionError("objective_grid called above the top-k cap")

    # Below the cap the patched grid build fails the command, which shows
    # that the patch is on the name cmd_optimize looks up.
    monkeypatch.setattr(cli, "objective_grid", no_grid)
    tmp, space, log = workspace
    assert main(["optimize", "--space", str(space), "--log", str(log),
                 "--out", str(tmp / "small")]) == 1
    assert "above the top-k cap" in (tmp / "small" / "error.json").read_text()
    rng = np.random.default_rng(8)
    X = rng.integers(0, 2, size=(30, 17))
    y = X @ rng.normal(size=17)
    (tmp / "wide").mkdir()
    space, log = write_inputs(tmp / "wide", (2,) * 17, X.tolist(), y, np.ones(len(X)))
    out = tmp / "opt"
    assert main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out)]) == 0
    assert not (out / "topk.csv").exists()
    chosen = json.loads((out / "chosen.json").read_text())
    loaded = load_space(space)
    table = estimate_from_log(ingest_log(log, loaded), "cm", ReferenceDistribution.uniform(loaded),
                              ShrinkageSpec(tau_main=1.0, tau_pair=1.0))
    best = tuple(loaded.level_index(j, chosen["config"][name])
                 for j, name in enumerate(loaded.names))
    assert chosen["objective"] == objective(table, best, table.support, ObjectiveSpec())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["objective_grid_cells"] == 0


def test_optimize_builds_objective_model_once_per_use(workspace, monkeypatch):
    # One model each for the search, the dominance certificate and the
    # top-k grid; chosen.json reads its objective from the winning trace.
    tmp, space, log = workspace
    calls = []
    build = PairwiseObjective.build.__func__

    def counting(klass, *args, **kwargs):
        calls.append(klass)
        return build(klass, *args, **kwargs)

    monkeypatch.setattr(PairwiseObjective, "build", classmethod(counting))
    assert main(["optimize", "--space", str(space), "--log", str(log),
                 "--out", str(tmp / "opt")]) == 0
    assert len(calls) == 3


def test_top_configs_break_ties_lexicographically():
    rng = np.random.default_rng(1)
    J = rng.integers(0, 3, size=(3, 2, 4)).astype(float)
    J[0, 0, 0] = -0.0
    J[2, 1, 3] = 0.0
    feasible = rng.random(J.shape) > 0.2
    grid = [tuple(int(v) for v in x) for x in np.ndindex(J.shape)]
    ranked = sorted(((float(J[x]), x) for x in grid if feasible[x]),
                    key=lambda item: (-item[0], item[1]))
    for k in (1, 5, len(grid)):
        assert cli._top_configs(J, feasible, k) == ranked[:k]


def test_optimize_manifest_reports_search_termination(workspace):
    tmp, space, log = workspace
    runs = {}
    for sweeps in ("1", "100"):
        out = tmp / f"opt{sweeps}"
        assert main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out),
                     "--lambda-risk", "0", "--max-sweeps", sweeps]) == 0
        runs[sweeps] = out
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["objective_grid_cells"] == 4
        trace = read_csv(out / "trace.csv")
        assert len(diag["restarts"]) == json.loads((out / "chosen.json").read_text())["restarts"]
        for r, restart in enumerate(diag["restarts"]):
            steps = [row for row in trace if int(row["restart"]) == r]
            assert restart["sweeps"] == int(steps[-1]["sweep"])
            moved = [steps[-1][f] for f in "ab"] != [steps[-2][f] for f in "ab"]
            assert restart["termination"] == ("max_sweeps" if moved else "converged")
    # The greedy start of the XOR table is not optimal: one sweep cannot converge.
    first = json.loads((runs["1"] / "manifest.json").read_text())["diagnostics"]["restarts"][0]
    assert first == {"termination": "max_sweeps", "sweeps": 1}
    converged = json.loads((runs["100"] / "manifest.json").read_text())["diagnostics"]
    assert all(r["termination"] == "converged" for r in converged["restarts"])
    for name in ("chosen.json", "dominance.json", "trace.csv", "topk.csv"):
        assert "termination" not in (runs["1"] / name).read_text()


@pytest.fixture
def sparse_weight_workspace(tmp_path):
    """A 2x2 space and 40 records of which only two carry weight, both at
    a=a0; about one bootstrap draw in eight picks no weighted record."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "factors": [
            {"name": "a", "levels": ["a0", "a1"]},
            {"name": "b", "levels": ["b0", "b1"]},
        ]
    }))
    log = tmp_path / "runs.csv"
    rows = ["a,b,response,weight"]
    for i in range(40):
        xa, xb = (i // 2) % 2, i % 2
        weight = 1.0 if i < 2 else 0.0
        rows.append(f"a{xa},b{xb},{float(i % 3)},{weight}")
    log.write_text("\n".join(rows) + "\n")
    return tmp_path, space, log


@pytest.mark.parametrize("command", ["estimate", "optimize"])
def test_bootstrap_survives_zero_weight_draws(sparse_weight_workspace, command):
    tmp, space, log = sparse_weight_workspace
    out = tmp / command
    rc = main([command, "--space", str(space), "--log", str(log), "--out", str(out),
               "--bootstrap", "100", "--seed", "0"])
    assert rc == 0
    assert not (out / "error.json").exists()
    loaded = load_space(space)
    reps = bootstrap_replicates(ingest_log(log, loaded), B=100, seed=0)
    assert reps.fallback_draws > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["bootstrap"] == {"replicates": 100,
                                                    "fallback_draws": reps.fallback_draws}
    if command == "optimize":
        for row in read_csv(out / "topk.csv"):
            assert float(row["ci_lo"]) <= float(row["ci_hi"])


def test_pci_command(workspace):
    tmp, space, log = workspace
    out = tmp / "pci"
    rc = main(["pci", "--space", str(space), "--log", str(log),
               "--out", str(out), "--tau", "1e-12"])
    assert rc == 0
    rows = read_csv(out / "pci.csv")
    assert len(rows) == 4
    vals = sorted(abs(float(r["pci"])) for r in rows)
    assert vals[0] == pytest.approx(1.0, abs=1e-9)


def test_plan_prints_planner_value(capsys):
    rc = main(["plan", "--B", "1", "--eps", "0.1", "--delta", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "738"


def test_plan_variants(capsys, tmp_path):
    rc = main(["plan", "--B", "1", "--eps", "0.1", "--delta", "0.05",
               "--levels", "3,3", "--out", str(tmp_path / "plan")])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "1178"
    payload = json.loads((tmp_path / "plan" / "plan.json").read_text())
    assert payload["n"] == 1178

    rc = main(["plan", "--B", "1", "--eps", "0.1", "--delta", "0.05", "--mc"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "2952"

    rc = main(["plan", "--B", "1", "--eps", "0.1", "--delta", "0.05", "--mc",
               "--union", "--factors", "5", "--eval-points", "20"])
    assert rc == 0
    expected = math.ceil(800 * math.log(2 * 100 / 0.05))
    assert capsys.readouterr().out.splitlines()[0] == str(expected)


def test_simulate_smoke(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--suite", "cm-vs-sf", "--trials", "3",
               "--design-n", "48", "--out", str(out), "--seed", "1"])
    assert rc == 0
    rows = read_csv(out / "results.csv")
    metrics = {(r["estimator"], r["metric"]) for r in rows}
    assert ("CM", "recon") in metrics and ("SF", "rho") in metrics
    by = {(r["estimator"], r["metric"]): float(r["mean"]) for r in rows}
    assert by[("SF", "recon")] <= by[("CM", "recon")]


def test_ablate_smoke(tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate", "--axis", "seed-budget", "--trials", "2",
               "--out", str(out), "--seed", "2"])
    assert rc == 0
    rows = read_csv(out / "ablation.csv")
    assert {r["cell"] for r in rows} == {"2", "4", "8", "16"}


@pytest.mark.parametrize("command, extra, field", [
    ("optimize", ["--gamma", "nan"], "gamma"),
    ("optimize", ["--gamma", "inf"], "gamma"),
    ("optimize", ["--lambda-risk", "nan"], "lambda_risk"),
    ("optimize", ["--lambda-cost", "inf"], "lambda_cost"),
    ("optimize", ["--objective", "{objective}"], "offset"),
    ("estimate", ["--tau", "nan"], "tau_main"),
])
def test_non_finite_parameters_rejected(workspace, command, extra, field):
    tmp, space, log = workspace
    objective_file = tmp / "nan_offset.json"
    objective_file.write_text(json.dumps({"cost_offset": float("nan")}))
    out = tmp / "nonfinite"
    extra = [a.format(objective=objective_file) for a in extra]
    rc = main([command, "--space", str(space), "--log", str(log), "--out", str(out), *extra])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert field in err["message"] and "finite" in err["message"]
    assert not (out / "chosen.json").exists() and not (out / "effects.json").exists()


def test_optimize_one_swap_flag_describes_the_chosen_config(tmp_path):
    """With one sweep no restart converges; the flag must still say whether
    the chosen configuration admits an improving single-factor swap."""
    rng = np.random.default_rng(2)
    X = rng.integers(0, 3, size=(200, 6))
    y = rng.normal(size=200) + X @ rng.normal(size=6) + (X[:, 0] * X[:, 1] % 3)
    space, log = write_inputs(tmp_path, (3,) * 6, X.tolist(), y, np.ones(len(X)))
    out = tmp_path / "opt"
    assert main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out),
                 "--lambda-risk", "0", "--restarts", "2", "--max-sweeps", "1"]) == 0
    chosen = json.loads((out / "chosen.json").read_text())
    restarts = json.loads((out / "manifest.json").read_text())["diagnostics"]["restarts"]
    assert all(r["termination"] == "max_sweeps" for r in restarts)
    loaded = load_space(space)
    table = estimate_from_log(ingest_log(log, loaded), "cm", ReferenceDistribution.uniform(loaded),
                              ShrinkageSpec(tau_main=1.0, tau_pair=1.0))
    best = tuple(loaded.level_index(j, chosen["config"][name])
                 for j, name in enumerate(loaded.names))
    ok, _ = verify_1swap(table, table.support, ObjectiveSpec(lambda_risk=0.0), None, best)
    assert chosen["one_swap_optimal"] is ok
    assert not ok


def test_optimize_manifest_counts_dropped_restarts(tmp_path):
    """Every configuration but one is banned, so the greedy start and some
    restarts' 100 draws find no feasible start; the manifest counts them."""
    rng = np.random.default_rng(4)
    X = rng.integers(0, 2, size=(40, 6))
    space, log = write_inputs(tmp_path, (2,) * 6, X.tolist(), X @ rng.normal(size=6),
                              np.ones(len(X)))
    grid = [[f"l{(i >> (5 - j)) & 1}" for j in range(6)] for i in range(64)]
    objective_file = tmp_path / "objective.json"
    objective_file.write_text(json.dumps({"banned_configs": grid[1:]}))
    out = tmp_path / "opt"
    assert main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out),
                 "--objective", str(objective_file), "--restarts", "20"]) == 0
    chosen = json.loads((out / "chosen.json").read_text())
    assert chosen["config"] == {f"f{j}": "l0" for j in range(6)}
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["restarts_dropped"] == 20 - chosen["restarts"]
    assert 0 < diagnostics["restarts_dropped"] < 20
