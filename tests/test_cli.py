import ast
import atexit
import csv
import gc
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from effectlab import __version__, cli
from effectlab.cli import main
from effectlab.effects import ShrinkageSpec, bootstrap_replicates, estimate_from_log
from effectlab.objective import CostModel, ObjectiveSpec, PairwiseObjective, objective
from effectlab.optimize import verify_1swap
from effectlab.sim import TeacherSpec, default_space, gen_teacher, run_trial
from effectlab.space import (DesignPlan, ReferenceDistribution, ingest_log, load_space,
                             support_counts)
from conftest import count_centerer_builds
from oracles import percentile_interval_eager

ROOT = Path(__file__).resolve().parents[1]


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


def test_estimate_sf_empirical_background_without_a_first_level(tmp_path):
    # The log never sets f1's first level, so the empirical background gives
    # it no mass. The tables equal those of the same log with f1's levels
    # declared in reverse order, where the massless level comes last.
    rng = np.random.default_rng(7)
    X = np.stack([rng.integers(0, 2, size=30), rng.integers(1, 3, size=30)], axis=1)
    y = X @ np.array([1.0, -0.5]) + 0.3 * (X[:, 0] == X[:, 1] - 1) + rng.normal(0, 0.1, 30)
    w = rng.choice([0.5, 1.0, 2.0], size=30)
    tables = []
    for name in ("declared", "reversed"):
        (tmp_path / name).mkdir()
        space, log = write_inputs(tmp_path / name, (2, 3), X.tolist(), y, w)
        if name == "reversed":
            doc = json.loads(space.read_text())
            doc["factors"][1]["levels"].reverse()
            space.write_text(json.dumps(doc))
        out = tmp_path / name / "sf"
        assert main(["estimate", "--path", "sf", "--background", "empirical",
                     "--space", str(space), "--log", str(log), "--out", str(out)]) == 0
        tables.append(json.loads((out / "effects.json").read_text()))
    declared, reversed_order = tables
    assert declared["mu"] == reversed_order["mu"]
    for key in ("mains", "pairs"):
        assert declared[key].keys() == reversed_order[key].keys()
        for block, cells in declared[key].items():
            assert cells.keys() == reversed_order[key][block].keys()
            for label, value in cells.items():
                assert abs(value - reversed_order[key][block][label]) <= 1e-12


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


@pytest.mark.parametrize("command, flag", [
    ("pci", ["--bootstrap", "200"]),
    ("pci", ["--ci-level", "0.9"]),
    ("plan", ["--seed", "3"]),
    ("pci", ["--seed", "1"]),
])
def test_dead_flags_are_gone(workspace, command, flag):
    # pci computed bootstrap replicates and wrote none of them; pci and plan
    # never read their seed.
    tmp, space, log = workspace
    args = {"pci": ["--space", str(space), "--log", str(log), "--out", str(tmp / "dead")],
            "plan": ["--B", "1", "--eps", "0.1", "--delta", "0.05"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *flag])
    assert exc.value.code == 2
    assert not (tmp / "dead").exists()


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


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
def test_outputs_get_the_umask_default_mode(workspace, umask):
    # Every output has the mode open() gives a new file, 0o666 less the umask,
    # though it is written to a temp file first and moved in place.
    tmp, space, log = workspace
    io = ["--space", str(space), "--log", str(log)]
    old = os.umask(umask)
    try:
        for name, argv in [("sf", ["estimate", "--path", "sf", *io]),
                           ("opt", ["optimize", *io])]:
            out = tmp / f"{name}{umask:o}"
            assert main(argv + ["--out", str(out)]) == 0
            modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
            assert set(json.loads((out / "manifest.json").read_text())["outputs"]) | {
                "manifest.json"} == set(modes)
            assert modes == dict.fromkeys(modes, 0o666 & ~umask)
    finally:
        os.umask(old)


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


def test_estimate_refuses_to_write_non_finite_json(workspace):
    # Sums of 1e308 overflow: mu is inf, which JSON (RFC 8259) cannot hold.
    tmp, space, _ = workspace
    log = tmp / "huge.csv"
    log.write_text("a,b,response,weight\n" + "".join(
        f"a{xa},b{xb},{1e308 if xa else 0.0!r},2\n" for xa in (0, 1) for xb in (0, 1)))
    out = tmp / "err"
    rc = main(["estimate", "--space", str(space), "--log", str(log), "--out", str(out)])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "CommandError"
    assert "effects.json" in err["message"] and "not finite" in err["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_write_json_names_the_non_finite_key(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(cli.CommandError, match=r"x\.json: the value at a/b/1 \(nan\) is not finite"):
        cli._write_json(path, {"a": {"b": [1.0, float("nan")]}, "c": 1.0})
    with pytest.raises(cli.CommandError, match=r"x\.json: the value at mu \(-inf\)"):
        cli._write_json(path, {"mu": -np.inf})
    assert not path.exists()


@pytest.mark.parametrize("background", ["uniform", "empirical"])
@pytest.mark.parametrize("flags", [["--path", "cm"], ["--path", "cm", "--bootstrap", "100"],
                                   ["--path", "sf"]])
def test_estimate_reduces_the_log_once(workspace, monkeypatch, flags, background):
    # The empirical reference and the estimator read one support_counts pass.
    from effectlab import effects, shapley
    from effectlab import space as space_module
    tmp, space, log = workspace
    calls = []
    count = space_module.support_counts
    for module in (space_module, effects, shapley):
        if hasattr(module, "support_counts"):
            monkeypatch.setattr(module, "support_counts",
                                lambda log: calls.append(log) or count(log))
    rc = main(["estimate", "--space", str(space), "--log", str(log), "--out", str(tmp / "est"),
               "--background", background, *flags])
    assert rc == 0 and len(calls) == 1


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


@pytest.mark.parametrize("document", [[], {"gamma": "1"}, {"costs": []}, {"cost_offset": None},
                                      {"lambda_risk": "0.5"}, {"lambda_risk": 10**400},
                                      {"costs": {"a": {"a0": 10**400}}}])
def test_optimize_rejects_objective_documents_of_the_wrong_type(workspace, document):
    tmp, space, log = workspace
    objective_file = tmp / "objective.json"
    objective_file.write_text(json.dumps(document))
    out = tmp / "optt"
    rc = main(["optimize", "--space", str(space), "--log", str(log),
               "--out", str(out), "--objective", str(objective_file)])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert err["message"].startswith("objective document: ")
    assert not (out / "chosen.json").exists()


@pytest.mark.parametrize("command", ["estimate", "optimize"])
@pytest.mark.parametrize("level", ["2", "-1", "0", "1", "nan"])
@pytest.mark.parametrize("bootstrap", ["0", "20"])
def test_ci_level_outside_the_unit_interval_is_rejected(workspace, command, level, bootstrap):
    tmp, space, log = workspace
    out = tmp / "ci"
    rc = main([command, "--space", str(space), "--log", str(log), "--out", str(out),
               "--bootstrap", bootstrap, "--ci-level", level])
    assert rc == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "CommandError"
    assert err["message"] == f"--ci-level must be in (0, 1), got {float(level)}"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_optimize_writes_a_null_margin_for_a_single_allowed_level(workspace):
    # With a0 banned, factor a has one allowed level and no second best: its
    # margin is infinite, which dominance.json writes as null.
    tmp, space, log = workspace
    objective_file = tmp / "objective.json"
    objective_file.write_text(json.dumps({"banned_levels": {"a": ["a0"]}}))
    out = tmp / "opt1"
    rc = main(["optimize", "--space", str(space), "--log", str(log),
               "--out", str(out), "--objective", str(objective_file)])
    assert rc == 0
    dom = json.loads((out / "dominance.json").read_text())
    assert dom["margins"]["a"] is None and math.isfinite(dom["margins"]["b"])
    assert json.loads((out / "chosen.json").read_text())["config"]["a"] == "a1"


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


def test_optimize_bootstrap_topk_intervals_are_the_percentiles_of_replicate_j(tmp_path):
    """Each top-k row's ci_lo and ci_hi are the percentile interval of J at
    that configuration over the bootstrap replicates, digit for digit."""
    rng = np.random.default_rng(6)
    X = rng.integers(0, 3, size=(150, 3))
    y = X @ rng.normal(size=3) + (X[:, 0] == X[:, 2]) + rng.normal(size=150)
    space, log = write_inputs(tmp_path, (3, 3, 3), X.tolist(), y, rng.uniform(0.5, 2, 150))
    out = tmp_path / "opt"
    assert main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out),
                 "--bootstrap", "100", "--ci-level", "0.9", "--seed", "5", "--topk", "7"]) == 0
    top = read_csv(out / "topk.csv")
    assert len(top) == 7
    loaded = ingest_log(log, load_space(space))
    spec, cost = ObjectiveSpec.from_dict(loaded.space, {}), CostModel.from_dict(loaded.space, {})
    model = PairwiseObjective.build(bootstrap_replicates(loaded, B=100, seed=5),
                                   support_counts(loaded), spec, cost)
    configs = [[loaded.space.level_index(j, row[f"f{j}"]) for j in range(3)] for row in top]
    want = percentile_interval_eager(model.at(configs), 0.9)
    assert [[row["ci_lo"], row["ci_hi"]] for row in top] == [[repr(lo), repr(hi)]
                                                              for lo, hi in want.tolist()]


@pytest.mark.parametrize("k", ["0", "-1"])
def test_optimize_rejects_topk_below_one(workspace, k):
    tmp, space, log = workspace
    out = tmp / "optk"
    rc = main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out),
               "--topk", k])
    assert rc == 1
    assert "--topk" in json.loads((out / "error.json").read_text())["message"]
    assert not (out / "topk.csv").exists() and not (out / "chosen.json").exists()


@pytest.mark.parametrize("flag", ["--restarts", "--beam", "--max-sweeps"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_optimize_rejects_search_counts_below_one_before_estimating(workspace, monkeypatch,
                                                                     flag, value):
    tmp, space, log = workspace
    out = tmp / "opt-search"
    estimated = []
    monkeypatch.setattr(cli, "_estimate_table", lambda *args: estimated.append(args))
    rc = main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out),
               "--bootstrap", "100", flag, value])
    assert rc == 1
    message = json.loads((out / "error.json").read_text())["message"]
    assert message == f"{flag} must be at least 1, got {value}"
    assert estimated == []
    assert not (out / "chosen.json").exists()


def test_optimize_bootstrap_builds_each_pair_centerer_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    X = rng.integers(0, 3, size=(60, 4))
    space, log = write_inputs(tmp_path, (3, 2, 3, 2), X % [3, 2, 3, 2], rng.normal(size=60),
                              np.ones(60))
    built = count_centerer_builds(monkeypatch)
    assert main(["optimize", "--space", str(space), "--log", str(log),
                 "--out", str(tmp_path / "opt"), "--bootstrap", "100"]) == 0
    assert len(built) == 6  # one per pair of the four factors


def test_product_references_center_without_linalg(tmp_path, monkeypatch):
    """Uniform references center in closed form: the CM estimate, the
    bootstrap and a suite make no np.linalg call. An empirical background
    still builds one double_centerer, with its solve, per pair."""
    from effectlab import space as space_module

    calls = []

    def spy(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):  # not LinAlgError
            monkeypatch.setattr(np.linalg, name, spy(name, fn))
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(60, 4))
    space, log = write_inputs(tmp_path, (3, 2, 3, 2), X % [3, 2, 3, 2], rng.normal(size=60),
                              np.ones(60))
    io = ["--space", str(space), "--log", str(log)]
    assert main(["estimate", *io, "--out", str(tmp_path / "est"), "--path", "cm"]) == 0
    assert main(["optimize", *io, "--out", str(tmp_path / "opt"), "--bootstrap", "100"]) == 0
    assert main(["ablate", "--axis", "seed-budget", "--trials", "2",
                 "--out", str(tmp_path / "abl")]) == 0
    assert calls == []

    joints = []
    build = space_module.double_centerer
    monkeypatch.setattr(space_module, "double_centerer",
                        lambda joint: joints.append(joint) or build(joint))
    assert main(["estimate", *io, "--out", str(tmp_path / "emp"), "--path", "cm",
                 "--background", "empirical"]) == 0
    assert len(joints) == 6 and calls  # one per pair of the four factors


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--trials", "0"], "trials"),
    (["ablate", "--axis", "seed-budget", "--trials", "-2"], "trials"),
    (["simulate", "--seeds-per-point", "0"], "seeds_per_point"),
    (["simulate", "--seeds-per-point", "-1"], "seeds_per_point"),
    (["simulate", "--design-n", "0"], "design_n"),
])
def test_suites_reject_counts_below_one(tmp_path, argv, field):
    out = tmp_path / "suite"
    assert main([*argv, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and field in err["message"]
    assert not (out / "suite_config.json").exists()


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
                              ShrinkageSpec(1.0))
    best = tuple(loaded.level_index(j, chosen["config"][name])
                 for j, name in enumerate(loaded.names))
    model = PairwiseObjective.build(table, table.support, ObjectiveSpec())
    assert chosen["objective"] == objective(model, best)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["objective_grid_cells"] == 0


def test_optimize_refuses_bootstrap_above_topk_cap_before_reading_the_log(tmp_path,
                                                                            monkeypatch):
    # 17 binary factors: 131,072 cells, above the top-k cap. Only topk.csv
    # reads the bootstrap replicates, and it is not written there.
    rng = np.random.default_rng(8)
    X = rng.integers(0, 2, size=(30, 17))
    space, log = write_inputs(tmp_path, (2,) * 17, X.tolist(), X @ rng.normal(size=17),
                              np.ones(len(X)))
    read = []
    monkeypatch.setattr(cli, "ingest_log", lambda *args: read.append(args))
    out = tmp_path / "opt"
    assert main(["optimize", "--space", str(space), "--log", str(log), "--out", str(out),
                 "--bootstrap", "100"]) == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "CommandError"
    assert "--bootstrap" in error["message"] and f"{cli.TOPK_GRID_CAP} cells" in error["message"]
    assert read == []
    assert not (out / "chosen.json").exists()


def test_optimize_builds_objective_model_once_per_use(workspace, monkeypatch):
    # optimize builds one model, which the search, the dominance certificate,
    # the 1-swap check and the top-k grid all read; --bootstrap adds one
    # more from the replicates for the top-k intervals. A simulation trial
    # builds one model for its search.
    tmp, space, log = workspace
    calls = []
    build = PairwiseObjective.build.__func__

    def counting(klass, *args, **kwargs):
        calls.append(klass)
        return build(klass, *args, **kwargs)

    monkeypatch.setattr(PairwiseObjective, "build", classmethod(counting))
    assert load_space(space).grid_size <= cli.TOPK_GRID_CAP
    assert main(["optimize", "--space", str(space), "--log", str(log),
                 "--out", str(tmp / "opt")]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["optimize", "--space", str(space), "--log", str(log),
                 "--out", str(tmp / "optb"), "--bootstrap", "100"]) == 0
    assert (tmp / "optb" / "topk.csv").exists()
    assert len(calls) == 2
    teacher = gen_teacher(TeacherSpec(default_space(3), seed=1))
    for estimator in ("CM", "SF"):
        calls.clear()
        run_trial(teacher, DesignPlan.balanced(24), 1, estimator, trial_seed=2)
        assert len(calls) == 1


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


@pytest.mark.parametrize("levels", ["3", "3,3,3", "a,b", ""])
def test_plan_levels_parse_error_names_the_flag(capsys, levels):
    rc = main(["plan", "--B", "1", "--eps", "0.1", "--delta", "0.05", "--levels", levels])
    assert rc == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "CommandError"
    assert "--levels" in error["message"] and "Lj,Lk" in error["message"]
    assert repr(levels) in error["message"]


def test_plan_takes_eps_in_response_units(capsys):
    rc = main(["plan", "--B", "100", "--eps", "5", "--delta", "0.05"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "2952"


@pytest.mark.parametrize("extra, flag", [
    (["--union", "--factors", "5", "--eval-points", "20"], "--union"),
    (["--factors", "5"], "--factors"),
    (["--mc", "--eval-points", "20"], "--eval-points"),
    (["--mc", "--levels", "3,3"], "--levels"),
    (["--levels", "3,0"], "--levels"),
    (["--mc", "--union", "--factors", "0", "--eval-points", "20"], "--factors"),
    (["--mc", "--union", "--factors", "5"], "--eval-points"),
])
def test_plan_rejects_flags_its_mode_ignores(capsys, tmp_path, extra, flag):
    out = tmp_path / "plan"
    rc = main(["plan", "--B", "1", "--eps", "0.1", "--delta", "0.05", *extra,
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "CommandError"
    assert flag in error["message"]
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("path", ["cm", "sf"])
def test_byte_order_mark_leaves_the_data_files_unchanged(workspace, path):
    # Excel starts a UTF-8 CSV with a byte-order mark; editors may do the same to JSON.
    tmp, space, log = workspace
    marked = []
    for src in (space, log):
        copy = tmp / f"bom-{src.name}"
        copy.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        marked.append(copy)
    outs = []
    for s, l, name in ((space, log, "plain"), (*marked, "bom")):
        outs.append(tmp / f"{name}-{path}")
        assert main(["estimate", "--path", path, "--space", str(s), "--log", str(l),
                     "--out", str(outs[-1])]) == 0
    files = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert files == sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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


def _perfbench_check():
    """perfbench/check.py, the benchmark's output checks, loaded by path."""
    path = ROOT / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 3])
def test_suite_commands_match_the_benchmark_references(tmp_path, seed):
    """The sim-suite workload's commands, checked against its stored
    references as the benchmark checks them; the manifest counts the trial
    batches: per estimator, one per chunk holding every cell's trials."""
    check = _perfbench_check()
    reference = check.load_reference("sim-suite", seed)
    for command, argv, largest in (
            ("simulate_s", ["simulate", "--suite", "cm-vs-sf", "--trials", "6"], 6),
            ("ablate_s", ["ablate", "--axis", "seed-budget", "--trials", "2"], 8)):
        out = tmp_path / command
        assert main([*argv, "--seed", str(seed), "--out", str(out)]) == 0
        assert check.compare_reference(command, out, reference) == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"] == {"trial_batches": {"count": 2, "largest": largest}}


def test_simulate_table2_alias_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--suite", "table2", "--trials", "1", "--out", str(tmp_path / "sim")])
    assert exc.value.code == 2
    assert not (tmp_path / "sim").exists()


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
    ("estimate", ["--tau", "nan"], "tau"),
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
                              ShrinkageSpec(1.0))
    best = tuple(loaded.level_index(j, chosen["config"][name])
                 for j, name in enumerate(loaded.names))
    ok, _ = verify_1swap(PairwiseObjective.build(table, table.support,
                                                 ObjectiveSpec(lambda_risk=0.0)), best)
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


# ---------------------------------------------------------------------------
# Process entry: cli.run, the target of ``python -m`` and the console script
# ---------------------------------------------------------------------------

def run_process(*argv: str, code: str | None = None) -> subprocess.CompletedProcess:
    """``python -m effectlab.cli argv``, or ``python -c code argv``, in a new
    interpreter on ``src/``."""
    head = ["-m", "effectlab.cli"] if code is None else ["-c", code]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *head, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def test_process_prints_the_version():
    done = run_process("--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, __version__ + "\n", "")


def test_process_usage_error_exits_2(workspace):
    tmp, space, _ = workspace
    done = run_process("estimate", "--space", str(space), "--out", str(tmp / "usage"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: ") and "--log" in done.stderr
    assert not (tmp / "usage").exists()


def test_process_failing_command_exits_1_with_error_json(workspace):
    tmp, space, _ = workspace
    bad_log = tmp / "bad.csv"
    bad_log.write_text("a,b,response\na9,b0,1.0\n")
    out = tmp / "err"
    done = run_process("estimate", "--space", str(space), "--log", str(bad_log),
                       "--out", str(out))
    assert done.returncode == 1 and done.stdout == ""
    error = json.loads(done.stderr.splitlines()[-1])
    assert error["error"] == "LogSchemaError" and "a9" in error["message"]
    assert json.loads((out / "error.json").read_text()) == error
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_process_estimate_writes_the_in_process_data_files(workspace):
    tmp, space, log = workspace
    argv = ["estimate", "--space", str(space), "--log", str(log),
            "--bootstrap", "120", "--seed", "7"]
    done = run_process(*argv, "--out", str(tmp / "process"))
    assert (done.returncode, done.stderr) == (0, "")
    assert main(argv + ["--out", str(tmp / "inline")]) == 0
    names = sorted(p.name for p in (tmp / "process").iterdir() if p.name != "manifest.json")
    assert names == ["effects.json", "interactions.csv", "main_effects.csv"]
    assert names == sorted(p.name for p in (tmp / "inline").iterdir()
                           if p.name != "manifest.json")
    for name in names:
        assert (tmp / "process" / name).read_bytes() == (tmp / "inline" / name).read_bytes()


# Registers an exit hook, then runs the process entry on the arguments; the
# hook runs after the entry's own (atexit is last in, first out).
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from effectlab import cli
sys.exit(cli.run())
"""


@pytest.mark.parametrize("argv", [["--version"], ["plan", "--B", "1", "--eps", "0.1",
                                                   "--delta", "0.05"]],
                         ids=["system-exit", "return"])
def test_process_entry_freezes_the_heap_at_exit(argv):
    done = run_process(*argv, code=FREEZE_PROBE)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) >= 2 and lines[-1] == "frozen at exit: True"


def test_main_leaves_the_collector_alone(workspace, monkeypatch):
    tmp, space, log = workspace
    registered = []
    monkeypatch.setattr(atexit, "register", lambda func, *a, **k: registered.append(func))
    assert main(["estimate", "--space", str(space), "--log", str(log),
                 "--out", str(tmp / "est")]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    assert gc.freeze not in registered


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_and_module_run_the_same_entry():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = project["project"]["scripts"]["effectlab"].partition(":")
    assert module == "effectlab.cli" and getattr(cli, name) is cli.run
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = {node.func.id for node in ast.walk(block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {name}
