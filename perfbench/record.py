"""Store the reference outputs that ``check.py`` compares against.

    python3 perfbench/record.py 0 1 2 3 4 5 6 7 8 9

For each workload and seed, runs one pass of the workload's commands with the
program in the checkout, requires the invariant checks to pass, and writes
``reference/<workload>/seed-<n>.json.gz``. Run it only on the commit whose
outputs are to be the reference.
"""

from __future__ import annotations

import sys

import check
import gen
import run


def record(workload: str, seed: int) -> None:
    inp = run.WORK / workload / "inputs"
    inputs = gen.make_inputs(workload, seed)
    gen.write_inputs(inputs, inp)
    bench = run.Run(workload, seed, inp, inputs)
    bench.reference = None
    bench.one_pass("record")
    if bench.failed:
        raise SystemExit(f"{workload} seed {seed}: {bench.problems}")
    data = {name: check.canonical_outputs(run.WORK / workload / "out" / name)
            for name, _ in run.workload_commands(workload, seed, inp)}
    path = check.save_reference(workload, seed, data)
    print(f"{path.relative_to(run.ROOT)}: {path.stat().st_size} bytes")


if __name__ == "__main__":
    for s in sys.argv[1:]:
        for w in run.WORKLOADS:
            record(w, int(s))
