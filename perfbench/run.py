#!/usr/bin/env python3
"""Benchmark of the effectlab CLI: seeded workloads, per-command latency,
traced per-layer spans.

    python3 perfbench/run.py --workload log-cm --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; the package is used from ``src/`` and is not
installed. Load model: a closed loop with one client. Each pass runs the
workload's commands one after another, each in a fresh
``python -m effectlab.cli`` process, and waits for it to exit; passes repeat
until ``--seconds`` have elapsed. Children run with BLAS pinned to one thread.

Every timed process is preceded by the speed probe (``probe.py``), a fixed
task independent of effectlab. Each timed sample is scaled by PROBE_REF_S /
(median of the PROBE_WINDOW probes nearest to it): seconds at the machine
speed where the probe takes PROBE_REF_S. Reported times are medians of scaled
samples; raw medians are printed too.

``--trace 0`` prints the end-to-end metrics: ``pass_s`` (median time of one
pass), ``cmd_geomean_s`` (geometric mean of the per-command medians),
``setup_s`` (median time of a fresh ``--version`` start) and ``peak_rss_mb``
(highest max-RSS of any command process). ``--trace 1`` alternates untraced
passes with passes whose commands run under ``spans.py`` and prints the
per-layer metrics, the untraced per-command medians, the tracing overhead and
the ``src/`` line counts.

Every command's outputs are checked (see ``check.py``). The last stdout line
is one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list each metric with its unit and sample
count. Any failure makes the exit code 1. Everything is written under
``.perfbench_work/`` in the checkout, including the full result record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = "1"

# Typical probe time on the 2-core machine the benchmark was tuned on. The
# machine's speed swung by up to 50% within and between runs there; scaling
# by nearby probes cancels most of that. A window of five probes follows the
# drift but not the jitter of a single probe, which is larger than a long
# command's own.
PROBE_REF_S = 0.20
PROBE_WINDOW = 5

# Trial counts for the simulation workload, fixed for every seed.
SIM_TRIALS = {"simulate_s": 6, "ablate_s": 2}

# Per-command latencies, reported by the traced run (0 where a workload does
# not run the command).
COMMANDS = ("estimate_cm_s", "optimize_boot_s", "estimate_sf_s",
            "simulate_s", "ablate_s", "optimize_s")

SRC_MODULES = ("__init__", "cli", "effects", "objective", "optimize", "pci",
               "planning", "shapley", "sim", "space")

WORKLOADS = ("log-cm", "log-sf", "sim-suite", "wide-optimize")


def workload_commands(workload: str, seed: int, inp: Path) -> list[tuple[str, list[str]]]:
    """(metric name, CLI arguments without --out) for one pass."""
    io = ["--space", str(inp / "space.json"), "--log", str(inp / "log.csv"),
          "--seed", str(seed)]
    if workload == "log-cm":
        return [("estimate_cm_s", ["estimate", "--path", "cm", *io]),
                ("optimize_boot_s", ["optimize", "--path", "cm", "--bootstrap", "100", *io])]
    if workload == "log-sf":
        return [("estimate_sf_s", ["estimate", "--path", "sf", *io])]
    if workload == "sim-suite":
        return [("simulate_s", ["simulate", "--suite", "cm-vs-sf", "--seed", str(seed),
                                "--trials", str(SIM_TRIALS["simulate_s"])]),
                ("ablate_s", ["ablate", "--axis", "seed-budget", "--seed", str(seed),
                              "--trials", str(SIM_TRIALS["ablate_s"])])]
    if workload == "wide-optimize":
        return [("optimize_s", ["optimize", "--path", "cm", "--restarts", "16",
                                "--objective", str(inp / "obj.json"), *io])]
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], env: dict[str, str], log: Path) -> tuple[float, float, int]:
    """Run one process to completion, its stderr going to ``log``:
    (wall seconds, max RSS in MB, exit code)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code:
        lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        print(f"  child exit {code}: {lines[-1] if lines else '(no stderr)'}", file=sys.stderr)
    return elapsed, usage.ru_maxrss / 1024.0, code


class Run:
    """State of one benchmark run: counts, samples and failure messages."""

    def __init__(self, workload: str, seed: int, inp: Path, inputs: dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.inp = inp
        self.inputs = inputs
        self.ctx = check.parse_inputs(inputs)
        self.reference = check.load_reference(workload, seed)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss_mb: list[float] = []
        self.probes: list[float] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def timed(self, argv: list[str], log: Path) -> tuple[tuple[float, int], float, int]:
        """The probe, then ``argv``: ((seconds, index of its probe),
        max RSS in MB, exit code)."""
        probe, _, code = run_child([sys.executable, str(HERE / "probe.py")], self.env,
                                   WORK / self.workload / "probe.stderr")
        if code != 0:
            raise RuntimeError("the speed probe failed")
        self.probes.append(probe)
        self.attempted += 1
        elapsed, rss, code = run_child(argv, self.env, log)
        return (elapsed, len(self.probes) - 1), rss, code

    def command(self, name: str, args: list[str], out: Path,
                span_file: Path | None = None) -> tuple[float, int]:
        """Run one CLI command and check its outputs; return its sample."""
        shutil.rmtree(out, ignore_errors=True)
        if span_file is None:
            argv = [sys.executable, "-m", "effectlab.cli"]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), str(span_file)]
        sample, rss, code = self.timed(argv + args + ["--out", str(out)],
                                       out.parent / f"{out.name}.stderr")
        self.rss_mb.append(rss)
        if code != 0 or (out / "error.json").exists():
            self.fail(f"{name}: exit code {code}")
            return sample
        try:
            problems = check.invariant_check(name, out, self.inputs, self.ctx, SIM_TRIALS)
            if self.reference is not None:
                problems += check.compare_reference(name, out, self.reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"{name}: output unreadable ({type(exc).__name__}: {exc})"]
        if problems:
            self.fail("; ".join(problems))
        return sample

    def one_pass(self, tag: str, traced: bool = False) -> dict:
        """Run every command once. ``times`` maps each command to its
        sample; ``layers`` holds the per-layer totals of a traced pass.
        Output checks are not timed."""
        got = {"times": {}, "layers": None}
        span_files = []
        for name, args in workload_commands(self.workload, self.seed, self.inp):
            out = WORK / self.workload / "out" / name
            span_file = WORK / self.workload / f"spans-{tag}-{name}.json" if traced else None
            got["times"][name] = self.command(name, args, out, span_file)
            if traced:
                try:
                    span_files.append(json.loads(span_file.read_text())["spans"])
                except (OSError, ValueError, KeyError) as exc:
                    self.fail(f"{name}: spans unreadable ({exc})")
        if traced:
            got["layers"] = spans.layer_totals(span_files)
        return got

    def start(self) -> tuple[float, int] | None:
        """Sample of one fresh ``--version`` start, imports plus parser
        build, or None if it failed."""
        argv = [sys.executable, "-m", "effectlab.cli", "--version"]
        sample, _, code = self.timed(argv, WORK / self.workload / "setup.stderr")
        if code != 0:
            self.fail(f"--version: exit code {code}")
            return None
        return sample


def src_line_counts() -> dict[str, float]:
    counts = {}
    for module in SRC_MODULES:
        path = SRC / "effectlab" / f"{module}.py"
        counts[f"src.loc.{module}"] = (
            len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0)
    counts["src.loc.total"] = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / "effectlab").rglob("*.py"))
    return counts


def tail(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return "tail n/a (needs 20 samples)"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f}"


def environment(seed: int, inputs: dict[str, str]) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "") + " " + deps.get(k, {}).get("version", "")
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "inputs_sha256": {name: gen.sha256(text) for name, text in inputs.items()},
    }


def measure(run: Run, seconds: float, trace: bool) -> dict[str, list]:
    """Rounds until the time is up. Without ``trace`` a round is one
    ``--version`` start and one pass; with ``trace``, untraced and traced
    passes alternate. A first, untimed start compiles bytecode."""
    got = {"setup": [], "plain": [], "traced": []}
    run.start()
    start = time.perf_counter()
    while (not got["plain"] or (trace and not got["traced"])
           or time.perf_counter() - start < seconds):
        if trace and len(got["traced"]) < len(got["plain"]):
            got["traced"].append(run.one_pass(f"traced{len(got['traced'])}", traced=True))
            continue
        if not trace:
            setup = run.start()
            if setup is not None:
                got["setup"].append(setup)
        got["plain"].append(run.one_pass(f"plain{len(got['plain'])}"))
    return got


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "effectlab" / "cli.py").is_file():
        print(f"error: no effectlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    inp = WORK / args.workload / "inputs"
    inputs = gen.make_inputs(args.workload, args.seed)
    if inputs != gen.make_inputs(args.workload, args.seed):
        print("error: the same seed produced different inputs", file=sys.stderr)
        return 1
    gen.write_inputs(inputs, inp)

    run = Run(args.workload, args.seed, inp, inputs)
    got = measure(run, args.seconds, bool(args.trace))
    median = statistics.median

    def at_ref(sample: tuple[float, int]) -> float:
        seconds, i = sample
        lo = max(0, min(i - PROBE_WINDOW // 2, len(run.probes) - PROBE_WINDOW))
        return seconds * PROBE_REF_S / median(run.probes[lo:lo + PROBE_WINDOW])

    plain = got["plain"]
    names = list(plain[0]["times"])
    raw = {name: [p["times"][name][0] for p in plain] for name in names}
    per_cmd = {name: [at_ref(p["times"][name]) for p in plain] for name in names}
    pass_s = [sum(map(at_ref, p["times"].values())) for p in plain]

    rows = []  # (name, value, unit, samples, note): the result's metrics
    shown = []  # printed with the metrics but not part of the result
    if args.trace:
        for name in COMMANDS:
            samples = per_cmd.get(name, [])
            rows.append((name, median(samples) if samples else 0.0, "s", len(samples),
                         f"raw {median(raw[name]):.4f} s" if samples else "not run"))
        traced = got["traced"]
        for name, value in spans.median_totals([p["layers"] for p in traced]).items():
            rows.append((name, value, spans.LAYER_UNITS[name], len(traced), "traced, raw"))
        traced_s = [sum(map(at_ref, p["times"].values())) for p in traced]
        rows.append(("trace.overhead_pct", 100.0 * (median(traced_s) / median(pass_s) - 1.0),
                     "%", len(traced), "traced vs untraced pass"))
        rows.extend((name, float(v), "lines", 1, "") for name, v in src_line_counts().items())
    else:
        setup_s = [at_ref(s) for s in got["setup"]]
        geomean = math.exp(statistics.fmean(math.log(median(v)) for v in per_cmd.values()))
        rows.append(("pass_s", median(pass_s), "s", len(plain),
                     f"raw {median(sum(v) for v in zip(*raw.values())):.4f} s; " + tail(pass_s)))
        rows.append(("cmd_geomean_s", geomean, "s", len(plain), "of " + ", ".join(names)))
        rows.append(("setup_s", median(setup_s), "s", len(setup_s),
                     f"raw {median(s[0] for s in got['setup']):.4f} s; " + tail(setup_s)))
        rows.append(("peak_rss_mb", max(run.rss_mb), "MB", len(run.rss_mb), "max"))
        # Per-command latencies; gated through cmd_geomean_s.
        shown.extend((name, median(v), "s", len(v), f"raw {median(raw[name]):.4f} s; " + tail(v))
                     for name, v in per_cmd.items())

    print(f"  probe median {median(run.probes):.4f} s (n={len(run.probes)}); "
          f"times scaled to a probe of {PROBE_REF_S} s")
    print(f"  {'failed_ops':<34} {run.failed / run.attempted:12.4f} ratio  "
          f"n={run.attempted}  ({run.failed} failed)")
    for name, value, unit, n, note in rows + shown:
        print(f"  {name:<34} {value:12.4f} {unit:<6} n={n}  {note}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    env = environment(args.seed, inputs)
    env["reference_checked"] = run.reference is not None
    env["probe_ref_s"] = PROBE_REF_S
    print("  env: " + json.dumps(env, sort_keys=True))

    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows},
    }
    record = dict(result, env=env, problems=run.problems, workload=args.workload,
                  trace=args.trace,
                  samples={"setup": got["setup"], "probe": run.probes,
                           **{name: [p["times"][name] for p in plain] for name in names}})
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
