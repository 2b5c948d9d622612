"""dolab benchmark: time to verdict per workload, per-layer self time.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-bn --seed 1 --seconds 25 --trace 0

One process, stdlib only.  The run imports dolab from ./src, builds the
workload's inputs from --seed, and repeats passes over them until the next
pass would end after --seconds.  Every operation (verdict, sweep trial,
double-oracle run) is gated on its verdict and on the SHA-256 of its traces
recorded in perfbench/expected.json.

--trace 0 reports the end-to-end metrics, times at nominal CPU speed (see
speed.py; the raw times are printed on the line before the result):
  wall_s       median pass time, from the first to the last operation
  setup_s      median, over separate processes, of the time from process
               start to ready inputs (import dolab, build the inputs)
  peak_rss_mb  ru_maxrss of this process
--trace 1 runs one untraced pass and two traced passes and reports the
per-layer metrics (see perfbench/README.md); the spans of the last traced
pass are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without dolab under ./src the run exits
with status 2 and prints no result.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
TRACED_PASSES = 2
MODULES = ("adapters", "dynamics", "families", "harness", "lp", "traces")

# "<layer>.<field>" for every per-layer metric, in report order
PER_LAYER = [
    f"{layer}.{f}" for layer, fields in (
        ("lp.zero_sum_strategies", ("calls", "self_s", "cells")),
        ("lp.maximize", ("calls", "self_s", "cells")),
        ("lp.solve_linear_system", ("calls", "self_s", "singular_frac")),
        ("equilibrium.is_unique_zero_sum_equilibrium", ("calls", "self_s")),
        ("equilibrium.enumerate_nash_bimatrix",
         ("calls", "self_s", "support_pairs", "used_frac")),
        ("best_response.best_response", ("calls", "self_s", "multi_opt_frac")),
        ("best_response.is_best_response", ("calls", "self_s")),
        ("adapters.evaluate", ("calls", "hit_frac")),
        ("posg.evaluate_profile", ("calls", "self_s")),
        ("posg.induced_normal_form", ("self_s",)),
        ("posg.reduce_dominated", ("self_s",)),
        ("dynamics.run_double_oracle", ("calls", "self_s", "iterations")),
        ("families.make_game", ("self_s",)),
        ("families.schedule_for_theorem", ("self_s",)),
        ("harness.verify", ("self_s",)),
        ("harness.sweep_double_oracle", ("self_s",)),
        ("traces.run_trace_lines", ("self_s", "bytes")),
    ) for f in fields
]


def _ratio(num, den):
    return num / den if den else 0.0


FRACTIONS = {   # field -> f(counts, layer)
    "singular_frac": lambda c, n: _ratio(c[n, "singular"], c[n, "calls"]),
    "used_frac": lambda c, n: _ratio(c[n, "calls"], c[n, "equilibria"]),
    "multi_opt_frac": lambda c, n: _ratio(c[n, "multi_opt"], c[n, "calls"]),
    "hit_frac": lambda c, n: _ratio(c[n, "calls"] - c[n, "misses"],
                                    c[n, "calls"]),
}


def _unit(field):
    if field == "self_s":
        return "s"
    if field.endswith("_frac"):
        return "ratio"
    return "B" if field == "bytes" else "count"


class DolabMissing(Exception):
    pass


def load_dolab():
    """Import dolab from ./src in one-process mode; returns (modules, flag).

    flag tells whether the import-time workaround was needed: dolab/__init__
    binds the package attribute best_response to the function, so adapters'
    `from . import best_response as br` gets the function, not the module.
    Once that is fixed upstream the rebind does nothing.
    """
    if not (SRC / "dolab" / "__init__.py").is_file():
        raise DolabMissing(f"no dolab package under {SRC}")
    os.environ["DOLAB_PARALLEL"] = "1"
    sys.path.insert(0, str(SRC))
    dolab = importlib.import_module("dolab")
    if Path(dolab.__file__).resolve().parent != SRC / "dolab":
        raise DolabMissing(f"dolab was imported from {dolab.__file__}")
    mods = {name: importlib.import_module(f"dolab.{name}") for name in MODULES}
    br = getattr(mods["adapters"], "br", None)
    workaround = br is not None and not isinstance(br, types.ModuleType)
    if workaround:
        mods["adapters"].br = sys.modules["dolab.best_response"]
    return types.SimpleNamespace(**mods), workaround


def prepare(name, seed):
    dolab, workaround = load_dolab()
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    units = workloads.units(dolab, name, seed, expected)
    return dolab, workaround, units, expected["hashes"]


def measure_setup(args):
    """Medians of the raw and nominal time from process start to ready
    inputs over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        start = speed.clock()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            ready = speed.clock()
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, scale = line.decode().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        raw.append(ready - start)
        nominal.append((ready - start) * float(scale))
    return statistics.median(raw), statistics.median(nominal)


class Pass:
    """One pass over the units: raw and nominal wall time, judged
    operations, counters."""

    def __init__(self, units, expected, sampler, trace=None):
        raws = []
        start = speed.clock()
        for unit in units:
            try:
                raws.append((unit, unit.run(), None))
            except Exception as err:  # an operation failure, not a crash
                raws.append((unit, None, err))
        end = speed.clock()
        self.wall = end - start
        self.nominal = sampler.nominal(start, end)
        ops = []
        for unit, raw, err in raws:
            ops += self._judge(unit, raw, err, expected)
        trs = [tr for op in ops for tr in op.traces]
        self.counters = {
            "runs": len(trs),
            "iterations": sum(len(tr.iterations) for tr in trs),
            "bytes": sum(tracer.trace_bytes(ln) for op in ops
                         for ln in op.lines),
        }
        # keep no traces, so later passes do not add to peak_rss_mb
        self.attempted = len(ops)
        self.failed = [(op.label, op.detail) for op in ops if not op.ok]
        self.trace = trace

    @staticmethod
    def _judge(unit, raw, err, expected):
        if err is None:
            try:
                ops = unit.judge(raw)
                for op in ops:
                    if op.ok and [workloads.trace_hash(ln) for ln in op.lines] \
                            != expected.get(op.label):
                        op.ok, op.detail = False, "trace hash mismatch"
                return ops
            except Exception as judge_err:
                err = judge_err
        detail = f"{type(err).__name__}: {err}"
        return [workloads.Op(label, False, detail) for label in unit.labels]


def traced_pass(units, expected, sampler):
    tr = tracer.Tracer()
    with tr.installed():
        return Pass(units, expected, sampler, tr)


def counter_mismatches(passes, summaries):
    """Deterministic counters must repeat across passes, traced or not."""
    bad = []
    first = passes[0].counters
    for i, p in enumerate(passes[1:], 2):
        if p.counters != first:
            bad.append(f"pass {i} counters {p.counters} != pass 1 {first}")
    sums = [counts for _, counts in summaries]
    for i, counts in enumerate(sums[1:], 2):
        if counts != sums[0]:
            bad.append(f"traced pass {i} layer counters differ from the first")
    if sums:
        counts = sums[0]
        seen = {
            "runs": counts["dynamics.run_double_oracle", "calls"],
            "iterations": counts["dynamics.run_double_oracle", "iterations"],
            "bytes": counts["traces.run_trace_lines", "bytes"],
        }
        if seen != first or \
                counts["traces.run_trace_lines", "calls"] != first["runs"]:
            bad.append(f"traced layer counters {seen} != untraced {first}")
    return bad


def layer_metrics(untraced, traced, summaries):
    counts = summaries[0][1]
    self_s = {name: statistics.median(s[name] for s, _ in summaries)
              for name in tracer.LAYERS}
    metrics = {}
    for metric in PER_LAYER:
        layer, field = metric.rsplit(".", 1)
        if field == "self_s":
            value = self_s[layer]
        elif field in FRACTIONS:
            value = FRACTIONS[field](counts, layer)
        else:
            value = counts[layer, field]
        metrics[metric] = {"value": value, "unit": _unit(field)}
    overhead = statistics.median(p.nominal for p in traced) \
        / untraced.nominal - 1
    metrics["bench.tracing_overhead_frac"] = {"value": overhead,
                                             "unit": "ratio"}
    return metrics, self_s


def environment(dolab, workaround, args):
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "lp_Q": dolab.lp._Q.__name__,
        "nproc": len(os.sched_getaffinity(0)),
        "import_workaround": workaround,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        with speed.Sampler() as sampler:
            dolab, workaround, units, expected = prepare(args.workload,
                                                         args.seed)
    except DolabMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"ready {sampler.scale()!r}", flush=True)
        return 0
    setup = None if args.trace else measure_setup(args)
    print(json.dumps({"environment": environment(dolab, workaround, args)}),
          flush=True)

    passes = []
    with speed.Sampler() as sampler:
        if args.trace:
            passes.append(Pass(units, expected, sampler))
            passes += [traced_pass(units, expected, sampler)
                       for _ in range(TRACED_PASSES)]
        else:
            start = speed.clock()
            while True:
                begun = speed.clock()
                passes.append(Pass(units, expected, sampler))
                now = speed.clock()
                if now - start + (now - begun) > args.seconds:
                    break
    for i, p in enumerate(passes, 1):
        kind = "traced" if p.trace else "untraced"
        print(f"pass {i} ({kind}): {p.wall:.3f} s raw, {p.nominal:.3f} s "
              f"nominal, {p.attempted} ops, {len(p.failed)} failed",
              file=sys.stderr)
        for label, detail in p.failed[:5]:
            print(f"  FAILED {label}: {detail}", file=sys.stderr)
    traced = [p for p in passes if p.trace]
    summaries = [p.trace.summary(sampler.at) for p in traced]
    mismatches = counter_mismatches(passes, summaries)
    for line in mismatches:
        print(f"  NONDETERMINISTIC {line}", file=sys.stderr)

    if args.trace:
        metrics, self_s = layer_metrics(passes[0], traced, summaries)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced[-1].trace.write(spans)
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
        print(json.dumps({"trace": {
            "dominant_self_time_layer": ranked[0][0],
            "self_s": dict(ranked),
            "counters": passes[0].counters,
            "spans": str(spans.relative_to(HERE.parent)),
        }}), flush=True)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"raw": {
            "wall_s": statistics.median(p.wall for p in passes),
            "setup_s": setup[0],
        }}), flush=True)
        metrics = {
            "wall_s": {"value": statistics.median(p.nominal for p in passes),
                       "unit": "s"},
            "setup_s": {"value": setup[1], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    failed = sum(len(p.failed) for p in passes)
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
