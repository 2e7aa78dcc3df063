import collections
import csv
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from effectlab import space as space_module
from effectlab import (
    DesignPlan,
    LogSchemaError,
    ReferenceDistribution,
    build_space,
    effective_sample_size,
    enumerate_grid,
    ingest_log,
    log_from_arrays,
    sample_design,
    support_counts,
    write_log,
)
from effectlab.space import cell_reducer, distinct_configs
from oracles import (
    cell_sums,
    empirical_joint_loop,
    ingest_log_loop,
    log_columns_loop,
    reference_marginal_loop,
    reference_pair_loop,
    sample_design_loop,
    support_counts_loop,
)

COLUMNS = ("configs_array", "responses", "weights", "seeds")


def test_build_space_smallest():
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1"])])
    assert space.grid_size == 4
    assert space.num_factors == 2


def test_space_shape_tuples_built_once():
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"])])
    assert space.level_counts is space.level_counts
    assert space.names is space.names
    assert space.level_counts == (2, 3) and space.names == ("a", "b")
    twin = build_space(space.to_dict())
    assert twin == space and hash(twin) == hash(space)
    assert twin.to_dict() == space.to_dict()
    assert {space: 1}[twin] == 1


def test_build_space_benchmark_grid():
    space = build_space([
        ("optimizer", ["adam", "sgd"]),
        ("lr", ["low", "mid", "high"]),
        ("batch", ["64", "128", "256"]),
        ("l2", ["1e-4", "1e-3"]),
        ("epochs", ["10", "30"]),
    ])
    assert space.grid_size == 2 * 3 * 3 * 2 * 2 == 72


def test_build_space_rejects_degenerate():
    with pytest.raises(ValueError):
        build_space([("a", ["only"])])
    with pytest.raises(ValueError):
        build_space([("a", ["0", "1"]), ("a", ["0", "1"])])
    with pytest.raises(ValueError):
        build_space([("a", ["0", "0"])])
    with pytest.raises(ValueError):
        build_space([])


def test_enumerate_grid_order():
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1"])])
    assert enumerate_grid(space) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    space3 = build_space([(f"f{i}", ["0", "1"]) for i in range(3)])
    grid = enumerate_grid(space3)
    assert len(grid) == 8
    assert grid[0] == (0, 0, 0) and grid[-1] == (1, 1, 1)


def test_enumerate_grid_is_bijection():
    space = build_space([
        ("o", ["a", "b"]), ("lr", ["l", "m", "h"]), ("bs", ["s", "m", "l"]),
        ("l2", ["x", "y"]), ("ep", ["p", "q"]),
    ])
    grid = enumerate_grid(space)
    assert len(grid) == 72
    assert len(set(grid)) == 72  # no duplicates, full coverage by counting


def test_enumerate_grid_cap(monkeypatch):
    space = build_space([(f"f{i}", ["0", "1"]) for i in range(6)])
    monkeypatch.setattr(space_module, "GRID_ENUMERATION_CAP", 10)
    with pytest.raises(ValueError, match="grid size 64 exceeds enumeration cap 10"):
        enumerate_grid(space)


def test_balanced_design_exact_split():
    space = build_space([(f"f{i}", ["0", "1"]) for i in range(3)])
    design = sample_design(space, DesignPlan.balanced(8), seed=1)
    assert len(design) == 8
    for j in range(3):
        counts = collections.Counter(x[j] for x in design)
        assert counts[0] == counts[1] == 4


@given(st.integers(1, 40), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_balanced_design_marginal_balance(n, seed):
    space = build_space([("a", ["0", "1"]), ("b", ["0", "1", "2"]), ("c", ["0", "1"])])
    design = sample_design(space, DesignPlan.balanced(n), seed=seed)
    assert len(design) == n
    for j, L in enumerate(space.level_counts):
        counts = collections.Counter(x[j] for x in design)
        values = [counts.get(l, 0) for l in range(L)]
        assert max(values) - min(values) <= 1


def test_full_design_is_grid(space_2x2):
    design = sample_design(space_2x2, DesignPlan.full(), seed=0)
    assert design.dtype == np.intp
    assert design.tolist() == [list(x) for x in enumerate_grid(space_2x2)]


def test_skewed_design_frequency(space_2x2):
    # Small draw per the documented behavior, plus a tight large-sample check
    # against the multinomial expectation bias/(bias+1) = 0.75.
    design = sample_design(space_2x2, DesignPlan.skewed(24, bias=3.0), seed=0)
    freq = sum(1 for x in design if x[0] == 0) / 24
    assert 0.5 <= freq <= 0.95
    big = sample_design(space_2x2, DesignPlan.skewed(4000, bias=3.0), seed=0)
    for j in range(2):
        freq = sum(1 for x in big if x[j] == 0) / 4000
        assert abs(freq - 0.75) < 0.03


def test_design_determinism(space_2x2):
    a = sample_design(space_2x2, DesignPlan.skewed(50, bias=2.0), seed=7)
    b = sample_design(space_2x2, DesignPlan.skewed(50, bias=2.0), seed=7)
    assert a.shape == (50, 2) and np.array_equal(a, b)
    c = sample_design(space_2x2, DesignPlan.balanced(9), seed=7)
    d = sample_design(space_2x2, DesignPlan.balanced(9), seed=7)
    assert c.shape == (9, 2) and np.array_equal(c, d)


@given(st.lists(st.integers(2, 4), min_size=1, max_size=4),
       st.sampled_from(["full", "balanced", "skewed"]), st.integers(1, 40),
       st.floats(0.25, 5.0), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_design_matches_row_loop(level_counts, kind, n, bias, seed):
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)])
                         for j, L in enumerate(level_counts)])
    design = sample_design(space, DesignPlan(kind, n=n, bias=bias), seed=seed)
    want = sample_design_loop(level_counts, kind, n, bias, seed)
    assert design.dtype == np.intp
    assert design.shape == (len(want), len(level_counts))
    assert design.tolist() == [list(x) for x in want]


def test_sample_design_validation(space_2x2):
    with pytest.raises(ValueError):
        sample_design(space_2x2, DesignPlan.balanced(0), seed=0)
    with pytest.raises(ValueError):
        sample_design(space_2x2, DesignPlan.skewed(5, bias=0.0), seed=0)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_ingest_basic(tmp_path, space_2x2):
    path = tmp_path / "runs.csv"
    path.write_text(
        "a,b,response\n"
        "a0,b0,0\n"
        "a0,b1,1\n"
        "a1,b0,1\n"
        "a1,b1,0\n"
    )
    log = ingest_log(path, space_2x2)
    assert len(log) == 4
    assert log.weights.tolist() == [1.0] * 4
    assert tuple(log.configs_array[1]) == (0, 1)


def test_ingest_weight_column(tmp_path, space_2x2):
    path = tmp_path / "runs.csv"
    path.write_text("a,b,response,weight\na0,b0,1.0,0.5\na1,b1,2.0,0.5\n")
    log = ingest_log(path, space_2x2)
    total = log.weights.sum()
    assert (log.weights / total).tolist() == [0.5, 0.5]


def test_ingest_unknown_level_names_row_and_column(tmp_path, space_2x2):
    path = tmp_path / "runs.csv"
    path.write_text("a,b,response\na0,b0,1.0\na9,b0,1.0\n")
    with pytest.raises(LogSchemaError, match=r"row 3.*'a9'.*'a'"):
        ingest_log(path, space_2x2)


def test_ingest_schema_errors(tmp_path, space_2x2):
    bad_resp = tmp_path / "bad.csv"
    bad_resp.write_text("a,b,response\na0,b0,oops\n")
    with pytest.raises(LogSchemaError, match="non-numeric response"):
        ingest_log(bad_resp, space_2x2)

    missing = tmp_path / "missing.csv"
    missing.write_text("a,response\na0,1.0\n")
    with pytest.raises(LogSchemaError, match="missing factor column"):
        ingest_log(missing, space_2x2)

    stray = tmp_path / "stray.csv"
    stray.write_text("a,b,response,extra\na0,b0,1.0,x\n")
    with pytest.raises(LogSchemaError, match="unknown column"):
        ingest_log(stray, space_2x2)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_ingest_rejects_non_finite_response(tmp_path, space_2x2, text):
    path = tmp_path / "runs.csv"
    path.write_text(f"a,b,response\na0,b0,1.0\na1,b0,{text}\n")
    with pytest.raises(LogSchemaError, match=r"row 3: non-finite response"):
        ingest_log(path, space_2x2)


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_ingest_rejects_non_finite_weight(tmp_path, space_2x2, text):
    path = tmp_path / "runs.csv"
    path.write_text(f"a,b,response,weight\na0,b0,1.0,1\na1,b0,2.0,1\na1,b1,3.0,{text}\n")
    with pytest.raises(LogSchemaError, match=r"row 4: non-finite weight"):
        ingest_log(path, space_2x2)


@pytest.mark.parametrize("short, column", [("a1,b0", "response"), ("a1,b0,2.0", "weight")])
def test_ingest_short_row_names_row_and_column(tmp_path, space_2x2, short, column):
    path = tmp_path / "runs.csv"
    path.write_text(f"a,b,response,weight\na0,b0,1.0,1\n{short}\n")
    with pytest.raises(LogSchemaError, match=rf"row 3: missing value in column '{column}'"):
        ingest_log(path, space_2x2)


def test_ingest_negative_weight_names_row(tmp_path, space_2x2):
    path = tmp_path / "runs.csv"
    path.write_text("a,b,response,weight\na0,b0,1.0,1\n\na1,b0,2.0,-0.5\n")
    with pytest.raises(LogSchemaError, match=r"runs\.csv: row 4: negative weight '-0\.5'"):
        ingest_log(path, space_2x2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_log_rejects_non_finite_values(space_2x2, bad):
    configs = [(0, 0), (1, 0), (1, 1)]
    with pytest.raises(ValueError, match=r"record 2: non-finite response"):
        log_from_arrays(space_2x2, configs, [0.0, 1.0, bad])
    with pytest.raises(ValueError, match=r"record 1: non-finite weight"):
        log_from_arrays(space_2x2, configs, [0.0, 1.0, 2.0], weights=[1.0, bad, 1.0])


def test_log_roundtrip(tmp_path, space_2x2):
    rng = np.random.default_rng(3)
    configs = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(20)]
    responses = rng.normal(size=20).tolist()
    weights = (rng.random(20) + 0.1).tolist()
    seeds = rng.integers(0, 5, 20).tolist()
    log = log_from_arrays(space_2x2, configs, responses, weights, seeds)
    path = tmp_path / "out.csv"
    write_log(log, path)
    back = ingest_log(path, space_2x2)
    assert len(back) == len(log)
    for name in COLUMNS:
        a, b = getattr(log, name), getattr(back, name)
        # exact float round-trip through repr
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# Factor names and level labels drawn to hit the log's own column names,
# surrounding whitespace, a leading byte-order mark and CSV quoting.
LOG_NAMES = st.one_of(st.sampled_from(["response", "weight", "seed"]),
                      st.text(alphabet="ab \t,\"\ufeff", min_size=1, max_size=4))
LOG_LABELS = st.text(alphabet="01 \t,\"", max_size=3)


@given(st.lists(st.tuples(LOG_NAMES, st.lists(LOG_LABELS, min_size=2, max_size=3, unique=True)),
                min_size=1, max_size=3, unique_by=lambda entry: entry[0]))
@settings(max_examples=100, deadline=None)
@example([("response", ["0", "1"])])
@example([("a", [" x", "y"])])
def test_every_accepted_space_reads_back_its_own_log(tmp_path_factory, entries):
    try:
        space = build_space(entries)
    except ValueError:
        return
    grid = enumerate_grid(space)
    log = log_from_arrays(space, grid, np.arange(len(grid), dtype=float))
    path = tmp_path_factory.mktemp("roundtrip") / "runs.csv"
    write_log(log, path)
    back = ingest_log(path, space)
    assert_columns(back, [getattr(log, name) for name in COLUMNS])


@pytest.mark.parametrize("entries, entry", [
    ([("response", ["0", "1"]), ("b", ["0", "1"])], "response"),
    ([("a", ["0", "1"]), ("weight", ["0", "1"])], "weight"),
    ([("seed", ["0", "1"])], "seed"),
    ([(" a", ["0", "1"])], " a"),
    ([("\ufeffa", ["0", "1"])], "\ufeffa"),
    ([("a", ["0", "1\t"])], "1\t"),
    ([("a", ["0", "1"]), ("b", [" x", "y"])], " x"),
])
def test_space_rejects_names_and_labels_its_log_cannot_hold(entries, entry):
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        build_space(entries)


def test_log_validation(space_2x2):
    with pytest.raises(ValueError, match="positive weight"):
        log_from_arrays(space_2x2, [(0, 0)], [1.0], weights=[0.0])
    with pytest.raises(ValueError, match=r"record 0: negative weight -1\.0"):
        log_from_arrays(space_2x2, [(0, 0)], [1.0], weights=[-1.0])
    with pytest.raises(ValueError, match=r"record 1: level index 5 out of range for factor 'b'"):
        log_from_arrays(space_2x2, [(0, 0), (0, 5)], [1.0, 1.0])
    # The first bad record is named, whatever is wrong with later ones.
    with pytest.raises(ValueError, match=r"record 1: non-finite response nan"):
        log_from_arrays(space_2x2, [(0, 0), (0, 1), (2, 0)], [1.0, float("nan"), 1.0],
                        weights=[1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="run log is empty"):
        log_from_arrays(space_2x2, [], [])
    with pytest.raises(ValueError, match="columns do not line up"):
        log_from_arrays(space_2x2, [(0, 0, 0)], [1.0])
    with pytest.raises(ValueError, match="columns do not line up"):
        log_from_arrays(space_2x2, [(0, 0), (1, 1)], [1.0, 2.0], weights=[1.0])


def test_log_columns_are_copied_and_read_only(space_2x2):
    weights = np.array([1.0, 2.0])
    log = log_from_arrays(space_2x2, [(0, 0), (1, 1)], [1.0, 2.0], weights)
    weights[0] = -5.0
    assert log.weights.tolist() == [1.0, 2.0]
    for name in COLUMNS:
        with pytest.raises(ValueError):
            getattr(log, name)[0] = 0


def assert_columns(log, want):
    for name, expected in zip(COLUMNS, want):
        got = getattr(log, name)
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name


@st.composite
def records(draw):
    """A random space and records on it: (space, configs, responses, weights,
    seeds), with at least one positive weight."""
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)])
                         for j, L in enumerate(level_counts)])
    n = draw(st.integers(1, 20))
    configs = draw(st.lists(st.tuples(*[st.integers(0, L - 1) for L in level_counts]),
                            min_size=n, max_size=n))
    responses = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    assume(any(w > 0 for w in weights))
    seeds = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
    return space, configs, responses, weights, seeds


@given(records())
@settings(max_examples=60, deadline=None)
def test_log_columns_match_record_loop(recs):
    space, configs, responses, weights, seeds = recs
    log = log_from_arrays(space, configs, responses, weights, seeds)
    assert_columns(log, log_columns_loop(space.level_counts, configs, responses, weights, seeds))
    plain = log_from_arrays(space, np.array(configs), responses)
    assert_columns(plain, log_columns_loop(space.level_counts, configs, responses))


BLANK_LINES = ["", "  ", ",,", " , "]
BAD_CELLS = {"factor": ["zz", ""], "response": ["oops", "nan", "-inf", ""],
             "weight": ["heavy", "inf", "nan"], "seed": ["1.5", "x"]}


def log_csv(data, recs):
    """CSV text of the records with shuffled columns, padded cells, optional
    weight and seed columns (some cells left blank) and blank lines; returns
    (lines, column kinds, index of each record's line)."""
    space, configs, responses, weights, seeds = recs
    columns = list(space.names) + ["response"]
    columns += [c for c in ("weight", "seed") if data.draw(st.booleans())]
    columns = data.draw(st.permutations(columns))
    pad = data.draw(st.sampled_from(["", " "]))
    lines = [",".join(f"{pad}{c}" for c in columns)]
    at = []
    for x, y, w, sd in zip(configs, responses, weights, seeds):
        lines += data.draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
        cells = {name: space.factors[j].levels[x[j]] for j, name in enumerate(space.names)}
        cells["response"] = repr(y)
        cells["weight"] = "" if w == 1.0 else repr(w)
        cells["seed"] = "" if sd == 0 else str(sd)
        at.append(len(lines))
        lines.append(",".join(f"{pad}{cells[c]}{pad}" for c in columns))
    kinds = ["factor" if c in space.names else c for c in columns]
    return lines, kinds, at


@given(records(), st.data())
@settings(max_examples=60, deadline=None)
def test_ingest_matches_row_loop(tmp_path_factory, recs, data):
    space = recs[0]
    lines, _, _ = log_csv(data, recs)
    path = tmp_path_factory.mktemp("ingest") / "runs.csv"
    path.write_text("\n".join(lines) + "\n")
    want = ingest_log_loop(path, space)
    assert_columns(ingest_log(path, space), [getattr(want, name) for name in COLUMNS])


@given(records(), st.data())
@settings(max_examples=60, deadline=None)
def test_ingest_bad_cell_matches_row_loop(tmp_path_factory, recs, data):
    space = recs[0]
    lines, kinds, at = log_csv(data, recs)
    row = data.draw(st.sampled_from(at))
    col = data.draw(st.integers(0, len(kinds) - 1))
    cells = lines[row].split(",")
    cells[col] = data.draw(st.sampled_from(BAD_CELLS[kinds[col]]))
    lines[row] = ",".join(cells)
    assume("".join(cells).strip())  # a blanked row would be skipped, not rejected
    path = tmp_path_factory.mktemp("ingest") / "runs.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as want:
        ingest_log_loop(path, space)
    with pytest.raises(LogSchemaError) as got:
        ingest_log(path, space)
    assert str(got.value) == str(want.value)


def read_outcome(read, path, space):
    """The columns a reader returns (dtype, shape and bytes of each), or
    the type and message of the ValueError it raises."""
    try:
        log = read(path, space)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(col.dtype, col.shape, col.tobytes()) for col in map(log.__getattribute__, COLUMNS)]


PADS = ["", " ", "\t", "  "]
BLANK_OR_SPACE_LINES = ["", " ", "\t", ",", " , ,\t"]
# Cells that the csv path and numpy's reader take differently, if at all: a
# NUL (numpy drops trailing ones), "#", "1_0", non-ASCII digits (numpy reads
# some other letters as digits too), labels too long or too short.
FAULTS = {
    "factor": ["zz", "", "L0", "l0 l0", "l", "lllll", "l0\0", "#"],
    "response": ["oops", "nan", "inf", "-inf", "", "1,5", "1_0", "\u0661", "1#", "1\0"],
    "weight": ["heavy", "inf", "nan", "-0.5", "-1e-300", "1_0", "\u0663"],
    "seed": ["1.5", "x", str(2**63), str(-2**63 - 1), "9" * 30, "1_0", "\u0661", "\u30e7"],
}
# Level labels per index: plain, each a prefix of the next, with a "#",
# non-ASCII.
LABEL_STYLES = [lambda t: f"l{t}", lambda t: "l" * (t + 1), lambda t: f"#{t}",
                lambda t: f"\u00e9{t}"]


def render(cell, pad, style):
    """A cell written bare, quoted with the padding inside the quotes (csv
    keeps it, the reader strips it), or quoted with the padding outside (the
    quotes then stay part of the cell)."""
    quoted = cell.replace('"', '""')
    return {"bare": f"{pad}{cell}{pad}", "inside": f'"{pad}{quoted}{pad}"',
            "outside": f'{pad}"{quoted}"{pad}'}[style]


@st.composite
def generated_log(draw):
    """(space, CSV text) of a run log: shuffled columns, labels of several
    styles, padded and quoted cells, blank and whitespace-only lines, rows
    longer than the header, blank weight and seed cells, line endings of
    every kind, and a bad cell or a short row in each of up to two rows, in
    the same column or in different ones. A tidy log has no padding, quotes,
    blank lines or extra cells, so numpy's reader takes its clean blocks."""
    space, configs, responses, weights, seeds = draw(records())
    style = draw(st.sampled_from(LABEL_STYLES))
    space = build_space([(f.name, [style(t) for t in range(f.num_levels)])
                         for f in space.factors])
    columns = list(space.names) + ["response"]
    columns += [c for c in ("weight", "seed") if draw(st.booleans())]
    columns = draw(st.permutations(columns))
    kinds = ["factor" if c in space.names else c for c in columns]
    rows = []
    for x, y, w, sd in zip(configs, responses, weights, seeds):
        cells = {name: space.factors[j].levels[x[j]] for j, name in enumerate(space.names)}
        cells["response"] = repr(y)
        cells["weight"] = "" if w == 1.0 and draw(st.booleans()) else repr(w)
        cells["seed"] = "" if sd == 0 and draw(st.booleans()) else str(sd)
        rows.append([cells[c] for c in columns])
    for r in draw(st.lists(st.integers(0, len(rows) - 1), unique=True, max_size=2)):
        c = draw(st.integers(0, len(columns) - 1))
        if draw(st.integers(0, 2)) == 0:
            rows[r] = rows[r][:c]  # short row, its first missing cell at c
        else:
            rows[r][c] = draw(st.sampled_from(FAULTS[kinds[c]]))
    tidy = draw(st.booleans())
    pads = [""] if tidy else PADS
    styles = ["bare"] if tidy else ["bare", "inside"] + ["outside"] * (draw(st.integers(0, 3)) == 0)
    lines = [",".join(render(c, draw(st.sampled_from(PADS)), "bare") for c in columns)]
    for row in rows:
        if not tidy:
            lines += draw(st.lists(st.sampled_from(BLANK_OR_SPACE_LINES), max_size=2))
            row = row + draw(st.lists(st.sampled_from(["x", "", " 1 "]), max_size=2))
        lines.append(",".join(render(cell, draw(st.sampled_from(pads)),
                                     draw(st.sampled_from(styles))) for cell in row))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return space, end.join(lines) + draw(st.sampled_from([end, ""]))


@given(generated_log(), st.sampled_from([1, 2, 5, space_module.INGEST_BLOCK]))
@settings(max_examples=150, deadline=None)
def test_ingest_matches_row_loop_on_generated_csv(tmp_path_factory, log, block):
    # Small blocks put block boundaries between blank lines and bad rows.
    space, text = log
    path = tmp_path_factory.mktemp("ingest") / "runs.csv"
    path.write_text(text, newline="")
    with mock.patch.object(space_module, "INGEST_BLOCK", block):
        got = read_outcome(ingest_log, path, space)
    assert got == read_outcome(ingest_log_loop, path, space)


@pytest.mark.parametrize("block", [1, 2, 1024])
@pytest.mark.parametrize("text", [
    # A padded cell matches the label it strips to.
    "a,b,response\n a0,b0,1\n",
    "a,b,response\na0, a0 ,1\n",
    "a,b,response\nb0,b0,1\n",
    # Two faults in one column: the earlier row wins, whatever their kinds.
    "a,b,response\na0,b0,inf\na1,b0,oops\n",
    "a,b,response\na0,b0,oops\na1,b0,nan\n",
    "a,b,response,weight\na0,b0,1,-1\na1,b0,1,x\n",
    "a,b,response,seed\na0,b0,1,99999999999999999999\na1,b0,1,x\n",
    "a,b,response,seed\na0,b0,1,x\na1,b0,1,-99999999999999999999\n",
    "a,b,response\na0\n\na1,b0\n",
    # Faults in one row: the checks run in their order.
    "a,b,response\nzz,yy,oops\n",
    "b,a,response,seed,weight\nb0,a0,nan,x,-1\n",
    "a,b,response,weight,seed\na0,b0,1,inf,x\n",
    # Cells that numpy's reader takes otherwise than float, int and the csv
    # path, or not at all: the csv path reads their block.
    "a,b,response\na0,b0,1\0\n",
    "a,b,response\na0\0,b0,1\n",
    "a,b,response\na0,b0,#1\n",
    "a,b,response,seed\na0,b0,1_0,1_0\n",
    "a,b,response,weight\na0,b0,\u0661,\u0663\n",
    "a,b,response,seed\na0,b0,1,\u30e7\n",
    "a,b,response,seed\na0,b0,1,-9223372036854775808\n",
    # A non-ASCII label beside a non-ASCII numeric cell, or padded with a
    # non-ASCII space that the csv path strips.
    "a,b,response,weight\na0,b\u00e9,\u0661,1\n",
    "a,b,response,seed\na0,b\u00e9,1,\u30e7\n",
    "a,b,response,seed\na0,b0,1,1\na1,b\u00e9,2,\u0661\n",
    "a,b,response\na0,\u00a0b\u00e9,1\n",
    "a,b,response\na0,b\u00e9,1\na1,b0,2\n",
    # Lone carriage returns end lines; labels that are prefixes of others,
    # and a cell longer than any label.
    "a,b,response\ra0,b,1\ra1,b00,2\r",
    "a,b,response\na0,b,1\na1,b00,2\na0,b0,3\n",
    "a,b,response\na0,b000,1\n",
    # A bad row after clean blocks; a row count that blocks of 1 and 2 divide.
    "a,b,response\n" + "a0,b0,1\n" * 4 + "a1,b0,oops\n",
    "a,b,response\n" + "a0,b0,1\na1,b,2\n" * 2,
    # A quoted line break: one CSV row over two lines, between clean rows
    # and a bad row, which is row 5, not line 6.
    'a,b,response\na0,b0,1\na1,b0,2\na0,"b\n0",3\na1,b0,oops\n',
    'a,b,response\na0,b0,1\na1,b0,2\na0,"b\n0",3\na1\n',
    'a,b,response,seed\na0,b0,1,1\na1,b0,2,2\na1," b\n0 ",3,\na0,zz,4,4\n',
    'a,b,response\na0,b0,1\na1,b0,2\na0,"b\n0",3\na1,b0,4\n',
])
def test_ingest_examples_match_row_loop(tmp_path, monkeypatch, text, block):
    space = build_space([("a", ["a0", "a1"]),
                         ("b", ["b0", "a0", "b", "b00", "b\u00e9", "b\n0"])])
    path = tmp_path / "runs.csv"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(space_module, "INGEST_BLOCK", block)
    assert read_outcome(ingest_log, path, space) == read_outcome(ingest_log_loop, path, space)


def test_clean_blocks_skip_the_row_path(tmp_path, monkeypatch, space_2x2):
    # numpy's reader takes every block of a log that write_log wrote; from
    # the first block it declines (a padded label), one row path call reads on.
    firsts = []
    row_path = space_module._row_columns
    monkeypatch.setattr(space_module, "_row_columns",
                        lambda *args: firsts.append(args[3]) or row_path(*args))
    monkeypatch.setattr(space_module, "INGEST_BLOCK", 4)
    rng = np.random.default_rng(0)
    log = log_from_arrays(space_2x2, rng.integers(0, 2, (10, 2)), rng.normal(size=10),
                          rng.random(10), rng.integers(-5, 5, 10))
    path = tmp_path / "runs.csv"
    write_log(log, path)
    assert_columns(ingest_log(path, space_2x2), [getattr(log, name) for name in COLUMNS])
    assert firsts == []
    lines = path.read_text().splitlines(keepends=True)
    lines[6] = " " + lines[6]  # row 7, in the block of rows 6-9
    path.write_text("".join(lines))
    assert_columns(ingest_log(path, space_2x2), [getattr(log, name) for name in COLUMNS])
    assert firsts == [6]


def test_a_reader_warning_declines_the_block(tmp_path, monkeypatch, space_2x2):
    # numpy releases that deprecate reading an integer via a float only warn
    # and truncate ("1.5" reads as 1); the csv path rejects that seed.
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(space_module.np, "loadtxt", warning_loadtxt)
    path = tmp_path / "runs.csv"
    path.write_text("a,b,response,seed\na0,b0,1,1\na1,b1,2,1.5\n")
    with pytest.raises(LogSchemaError, match="row 3.*seed"):
        ingest_log(path, space_2x2)
    path.write_text("a,b,response,seed\na0,b0,1,1\na1,b1,2,3\n")
    assert ingest_log(path, space_2x2).seeds.tolist() == [1, 3]


@pytest.mark.parametrize("block", [1, 2, 1024])
@pytest.mark.parametrize("before", ["a0,b0,1\n", "a0,b0,oops\n"])
def test_ingest_unreadable_row_after_earlier_rows(tmp_path, space_2x2, monkeypatch,
                                                  before, block):
    # A field over the csv size limit: a bad row before it is still reported
    # first, and otherwise the csv error itself.
    path = tmp_path / "runs.csv"
    path.write_text("a,b,response\n" + before + "a1,b1,1\na1,b1," + "9" * 64 + "\n")
    monkeypatch.setattr(space_module, "INGEST_BLOCK", block)
    limit = csv.field_size_limit(32)
    try:
        with pytest.raises(ValueError if "oops" in before else csv.Error) as want:
            ingest_log_loop(path, space_2x2)
        with pytest.raises(type(want.value)) as got:
            ingest_log(path, space_2x2)
    finally:
        csv.field_size_limit(limit)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Support counts and effective sample size
# ---------------------------------------------------------------------------

def test_support_counts_full_grid(space_2x2):
    log = log_from_arrays(space_2x2, enumerate_grid(space_2x2), [0.0] * 4)
    sc = support_counts(log)
    assert all(int(c) == 2 for counts in sc.level_counts for c in counts)
    assert np.all(sc.pair_counts[(0, 1)] == 1)


def test_support_counts_replicates(space_2x2):
    configs = [x for x in enumerate_grid(space_2x2) for _ in range(3)]
    log = log_from_arrays(space_2x2, configs, [0.0] * 12)
    sc = support_counts(log)
    assert np.all(sc.pair_counts[(0, 1)] == 3)


def test_support_counts_recount_oracle(space_2x2):
    design = sample_design(space_2x2, DesignPlan.skewed(200, bias=4.0), seed=2)
    log = log_from_arrays(space_2x2, design, [0.0] * 200)
    sc = support_counts(log)
    for j in range(2):
        recount = collections.Counter(x[j] for x in design)
        assert sum(sc.level_counts[j]) == 200
        for l in range(2):
            assert sc.level_counts[j][l] == recount.get(l, 0)


@st.composite
def weighted_logs(draw):
    """A log on 2-6 factors of 2-10 levels whose weights include zeros."""
    level_counts = draw(st.lists(st.integers(2, 10), min_size=2, max_size=6))
    space = build_space([(f"f{j}", [f"l{t}" for t in range(L)])
                         for j, L in enumerate(level_counts)])
    n = draw(st.integers(1, 40))
    configs = draw(st.lists(st.tuples(*[st.integers(0, L - 1) for L in level_counts]),
                            min_size=n, max_size=n))
    responses = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
                            min_size=n, max_size=n))
    assume(any(w > 0 for w in weights))
    return log_from_arrays(space, configs, responses, weights)


def record_order_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


@given(weighted_logs())
@settings(max_examples=60, deadline=None)
def test_support_sums_match_per_cell_loops(log):
    space, configs, w = log.space, log.configs_array, log.weights
    wy = w * log.responses
    sc = support_counts(log)
    stats = np.stack([w, wy, (w > 0).astype(float), w * w])
    levels, pairs = cell_sums(configs, stats, space)
    assert all(np.array_equal(a, b) for a, b in zip(sc.level_sums, levels))
    assert list(sc.pair_sums) == list(pairs)
    assert all(np.array_equal(sc.pair_sums[jk], pairs[jk]) for jk in pairs)
    counts, pair_counts, pair_eff = support_counts_loop(configs, w, space.level_counts)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(sc.level_counts, counts))
    assert sc.pair_counts.keys() == pair_counts.keys() == pair_eff.keys()
    for jk in pair_counts:
        assert np.array_equal(sc.pair_counts[jk], pair_counts[jk])
        assert sc.pair_counts[jk].dtype == pair_counts[jk].dtype
        assert np.array_equal(sc.pair_eff[jk], pair_eff[jk])
    # Summed weight and weight x response of each cell, record by record.
    for j, L in enumerate(space.level_counts):
        for a in range(L):
            mask = configs[:, j] == a
            assert sc.level_sums[j][0, a] == record_order_sum(w[mask])
            assert sc.level_sums[j][1, a] == record_order_sum(wy[mask])
    for (j, k), sums in sc.pair_sums.items():
        for a, b in np.ndindex(sums.shape[1:]):
            mask = (configs[:, j] == a) & (configs[:, k] == b)
            assert sums[0, a, b] == record_order_sum(w[mask])
            assert sums[1, a, b] == record_order_sum(wy[mask])


@given(weighted_logs(), st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1), st.sampled_from([3, 16, space_module.CELL_BLOCK]))
@settings(max_examples=60, deadline=None)
def test_cell_reducer_matches_cell_sums_per_sample(log, batches, seed, block):
    # One reducer sums several batches of C samples, each record repeated
    # 0-2 times per sample as in a bootstrap draw, in blocks of ``block``
    # records: each sample's sums are its one-sample sums up to rounding,
    # and counts and empty cells exactly.
    space, configs, w = log.space, log.configs_array, log.weights
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "CELL_BLOCK", block)
        reduce = cell_reducer(configs, space)
    rng = np.random.default_rng(seed)
    for C in batches:
        repeats = rng.integers(0, 3, size=(C, len(w)))
        stats = np.stack([w, w * log.responses, (w > 0).astype(float), w * w])[:, None] * repeats
        levels, pairs = reduce(stats)
        for c in range(C):
            one_levels, one_pairs = cell_sums(configs, stats[:, c], space)
            assert list(pairs) == list(one_pairs)
            for got, want in zip((*levels, *pairs.values()),
                                 (*one_levels, *one_pairs.values())):
                got = got[:, c]
                assert got.shape == want.shape
                for g, x in zip(got, want):
                    assert np.abs(g - x).max() <= 1e-12 * (1.0 + np.abs(x).max())
                assert np.array_equal(got[2], want[2])
                assert np.all(got[:, want[0] == 0] == 0)


@st.composite
def config_matrices(draw):
    """(n, d) level matrices with repeated rows; the radices (column max + 1)
    run from 1 to 2^40, so the product of all of them may pass 2^63."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 80))
    radices = draw(st.lists(st.sampled_from([1, 2, 3, 7, 2**20, 2**40]), min_size=d,
                            max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, radices, size=(draw(st.integers(1, n)), d))
    return rows[rng.integers(0, len(rows), size=n)].astype(np.intp)


@given(config_matrices())
@settings(max_examples=150, deadline=None)
@example(np.array([[1] * 70, [0] * 69 + [1], [1] * 70, [0] * 70], dtype=np.intp))
@example(np.array([[2**40 - 1] * 4, [2**40 - 1] * 3 + [0], [0] * 4], dtype=np.intp))
def test_distinct_configs_match_unique_rows(configs):
    units, unit_of = distinct_configs(configs)
    want, inverse = np.unique(configs, axis=0, return_inverse=True)
    assert np.array_equal(units, want) and units.dtype == configs.dtype
    assert np.array_equal(unit_of, inverse.ravel())
    assert np.array_equal(units[unit_of], configs)


def test_effective_sample_size_values():
    assert effective_sample_size([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0)
    assert effective_sample_size([0.5, 0.5]) == pytest.approx(2.0)
    # direct evaluation of 1 / sum(alpha^2) with alpha = (0.9, 0.1)
    assert effective_sample_size([0.9, 0.1]) == pytest.approx(1.0 / 0.82)
    with pytest.raises(ValueError):
        effective_sample_size([0.0, 0.0])


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_effective_sample_size_bounds(weights):
    ess = effective_sample_size(weights)
    assert 1.0 - 1e-9 <= ess <= len(weights) + 1e-9


def test_eff_size_matches_cells(space_2x2):
    configs = [(0, 0), (0, 0), (0, 1), (1, 1)]
    weights = [0.9, 0.1, 2.0, 1.0]
    log = log_from_arrays(space_2x2, configs, [0.0] * 4, weights)
    sc = support_counts(log)
    eff = sc.pair_eff[(0, 1)]
    assert eff[0, 0] == pytest.approx(1.0 / 0.82)
    assert eff[0, 1] == pytest.approx(1.0)
    # equality with the raw count holds exactly when cell weights are equal
    assert eff[0, 0] < sc.pair_counts[(0, 1)][0, 0]
    assert eff[0, 1] == sc.pair_counts[(0, 1)][0, 1]


@pytest.mark.parametrize("scale", [1e200, 2.0**1000])
def test_pair_eff_is_free_of_the_weight_scale(space_2x2, scale):
    # Kish sizes do not change with a common weight scale: squared weights
    # must not overflow (NaN from inf / inf).
    configs = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1), (1, 1)]
    weights = np.array([1.0, 3.0, 2.0, 1.0, 1.0, 0.5, 0.25])
    unit = support_counts(log_from_arrays(space_2x2, configs, np.zeros(7), weights))
    scaled = support_counts(log_from_arrays(space_2x2, configs, np.zeros(7), weights * scale))
    got, want = scaled.pair_eff[(0, 1)], unit.pair_eff[(0, 1)]
    np.testing.assert_allclose(got, want, rtol=1e-15)
    if np.frexp(scale)[0] == 0.5:  # a power of two scales exactly
        assert np.array_equal(got, want)


def test_reference_distribution_validation(space_2x2):
    with pytest.raises(ValueError):
        ReferenceDistribution.from_marginals(
            space_2x2, [np.array([0.6, 0.6]), np.array([0.5, 0.5])]
        )
    ref = ReferenceDistribution.uniform(space_2x2)
    assert ref.is_product
    assert np.allclose(ref.pair(0, 1), 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reference_rejects_non_finite_marginals(space_2x2, bad):
    # NaN passes both the sign and the sum check, and would make every table
    # centered under the reference NaN.
    with pytest.raises(ValueError, match="marginal 1 \\('b'\\) must be finite"):
        ReferenceDistribution.from_marginals(
            space_2x2, [np.array([0.5, 0.5]), np.array([bad, bad])]
        )


def test_empirical_reference(space_2x2):
    log = log_from_arrays(space_2x2, [(0, 0), (0, 0), (1, 1)], [0.0] * 3)
    ref = ReferenceDistribution.empirical(log)
    assert not ref.is_product
    assert ref.pair(0, 1)[0, 0] == pytest.approx(2 / 3)
    marg = ref.marginal(0)
    assert marg[0] == pytest.approx(2 / 3)
    prod = ref.product_marginals()
    assert prod.is_product
    assert prod.marginal(0)[0] == pytest.approx(2 / 3)


@given(records())
@settings(max_examples=60, deadline=None)
def test_empirical_joint_matches_record_loop(recs):
    # Each level's and pair cell's weight, summed record by record, over the
    # log's total weight: the same floats.
    space, configs, responses, weights, seeds = recs
    log = log_from_arrays(space, configs, responses, weights)
    ref = ReferenceDistribution.empirical(log)
    total = log.weights.sum()
    d, counts = space.num_factors, space.level_counts
    for j in range(d):
        want = [record_order_sum(w for x, w in zip(configs, weights) if x[j] == a) / total
                for a in range(counts[j])]
        assert np.array_equal(ref.marginal(j), want)
        for k in range(d):
            if k != j:
                want = [[record_order_sum(w for x, w in zip(configs, weights)
                                          if x[j] == a and x[k] == b) / total
                         for b in range(counts[k])] for a in range(counts[j])]
                assert np.array_equal(ref.pair(j, k), want)


@given(records())
@settings(max_examples=60, deadline=None)
def test_empirical_marginal_and_pair_match_dict_loop(recs):
    # The marginals and pair joints of the normalized joint histogram, up to
    # the rounding of its shares and of their sums.
    space, configs, responses, weights, seeds = recs
    ref = ReferenceDistribution.empirical(log_from_arrays(space, configs, responses, weights))
    joint = empirical_joint_loop(configs, weights)
    d, counts = space.num_factors, space.level_counts
    for j in range(d):
        assert np.abs(ref.marginal(j) - reference_marginal_loop(joint, counts[j], j)).max() \
            <= 1e-15
        for k in range(d):
            if k != j:
                assert np.abs(ref.pair(j, k) - reference_pair_loop(joint, counts, j, k)).max() \
                    <= 1e-15


def test_reference_masses_match_their_kind(space_2x2):
    # The empirical kind reads its pair masses; a product kind has none.
    ref = ReferenceDistribution.empirical(log_from_arrays(space_2x2, [(0, 1), (1, 1)], [0.0] * 2))
    assert ref.pair_mass.keys() == {(0, 1)} and not ref.pair_mass[(0, 1)].flags.writeable
    with pytest.raises(ValueError, match="pair masses"):
        ReferenceDistribution(space_2x2, "empirical", ref.marginals)
    with pytest.raises(ValueError, match="pair masses"):
        ReferenceDistribution(space_2x2, "product", ref.marginals, ref.pair_mass)
