"""Record the trace hashes that the benchmark's correctness gate expects.

Run from the repository root, at a commit whose traces are known good:

    python3 perfbench/record.py

It runs every operation of every workload once, with every pooled sweep
trial seed, and rewrites perfbench/expected.json.  It records nothing and
exits with status 1 if any operation fails.
"""

import json
import sys

import run
import workloads


def main():
    dolab, _ = run.load_dolab()
    hashes, cells = {}, {}
    for name in workloads.WORKLOADS:
        for i, unit in enumerate(workloads.units(dolab, name, seed=0)):
            ops = unit.judge(unit.run())
            for op in ops:
                if not op.ok:
                    print(f"record: {op.label} failed: {op.detail}",
                          file=sys.stderr)
                    return 1
                hashes[op.label] = [workloads.trace_hash(ln)
                                    for ln in op.lines]
            if name == "sweep-bn":   # one unit per k, trials in seed order
                k = list(workloads.SWEEP_POOL)[i]
                cells[str(k)] = [workloads.meta_cells(op.traces[0])
                                 for op in ops]
        print(f"record: {name} done", file=sys.stderr)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"hashes": hashes, "sweep_cells": cells}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
