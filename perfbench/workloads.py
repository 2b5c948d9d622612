"""The four workloads: inputs from the seed, timed units, and their gate.

A unit is one call into dolab plus the serialization of the traces it
produced; it yields one or more operations (a verdict, a sweep trial or a
double-oracle run).  Judging a unit happens outside the timed region.

Why these four (each stresses a different layer):
  sweep-bn          many small slack-basis LPs (lp.zero_sum_strategies) and
                    the best-response DP; the only seeded workload.
  verify-unique     optimal-face probing: lp.maximize two-phase solves.
  verify-scripted   scripted meta-Nash, almost no LP: certification in
                    dynamics and profile evaluation; bypasses LP changes.
  nonzero-sum-meta  support enumeration: lp.solve_linear_system, a layer no
                    other workload reaches.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sweep-bn", "verify-unique", "verify-scripted", "nonzero-sum-meta")

SWEEP_FAMILY = "BiggerNumber"
# k -> pool size: trial seeds are drawn from range(pool), whose traces
# (hash, and meta-game cells solved) are recorded in expected.json
SWEEP_POOL = {2: 100, 3: 100, 4: 80, 5: 40}
# Trial cost is heavy-tailed in the meta-game cells a run solves, so a plain
# sample would let the seed swing the pass time by a third.  Instead the
# SWEEP_FIXED costliest trials run in every pass, and the seed picks one of
# each SWEEP_STRATUM neighbours in cost order from the rest.
SWEEP_FIXED = 10
SWEEP_STRATUM = 2

# Trace fields as of the commit that recorded expected.json.  Hashing only
# these keeps the gate stable when a later version adds fields (counters)
# or bumps the trace version, while any change to these values fails it.
TRACE_FIELDS = {
    "header": ("type", "algorithm", "config"),
    "iteration": ("type", "t", "set_sizes", "sets", "meta_nash",
                  "meta_values", "responses", "improvements", "gap",
                  "br_counts", "meta_unique", "meta_mode",
                  "responses_scripted", "added", "gated", "m_stat"),
    "result": ("type", "status", "iterations", "final_gap",
               "final_meta_nash", "final_sets"),
}
CONFIG_FIELDS = ("algorithm", "eps", "alpha", "meta_nash_mode",
                 "best_response_mode", "init_mode", "seed", "max_iters",
                 "init_keys")


def trace_hash(lines):
    """SHA-256 of the trace records restricted to TRACE_FIELDS."""
    out = []
    for line in lines:
        rec = json.loads(line)
        kept = {key: rec[key] for key in TRACE_FIELDS[rec["type"]]}
        if rec["type"] == "header":
            kept["config"] = {key: rec["config"][key] for key in CONFIG_FIELDS}
        out.append(json.dumps(kept, sort_keys=True, separators=(",", ":")))
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


@dataclass
class Op:
    label: str
    ok: bool
    detail: str = None
    traces: list = field(default_factory=list)   # RunTrace objects
    lines: list = field(default_factory=list)    # their run_trace_lines


@dataclass
class Unit:
    labels: list      # operation labels, known before the call
    run: object       # () -> raw result; the timed part
    judge: object     # raw result -> [Op]


def meta_cells(tr):
    """Meta-game cells a double-oracle run solved, summed over iterations."""
    return sum(r.set_sizes[0] * r.set_sizes[1] for r in tr.iterations)


def sweep_seeds(seed, k, cells):
    """The trial seeds of one pass at k; cells[s] is meta_cells of trial s."""
    order = sorted(range(SWEEP_POOL[k]), key=lambda s: (-cells[s], s))
    rest = order[SWEEP_FIXED:]
    rng = random.Random(f"perfbench:{seed}:{k}")
    return sorted(order[:SWEEP_FIXED] + [
        rng.choice(rest[i:i + SWEEP_STRATUM])
        for i in range(0, len(rest), SWEEP_STRATUM)])


def sweep_label(k, trial):
    return f"{SWEEP_FAMILY} k={k} trial={trial}"


def _sweep_unit(dolab, k, seeds):
    harness, traces = dolab.harness, dolab.traces

    def run():
        stats, summaries, trs = harness.sweep_double_oracle(
            SWEEP_FAMILY, k, seeds, parallel=1, keep_traces=True)
        return stats, summaries, trs, [
            traces.run_trace_lines(tr) if tr is not None else None
            for tr in trs]

    def judge(raw):
        stats, summaries, trs, lines = raw
        bad_stats = _sweep_stats_mismatch(stats, seeds, trs)
        ops = []
        for trial, summary, tr, ln in zip(seeds, summaries, trs, lines):
            if tr is None or summary["status"] != "converged":
                ops.append(Op(sweep_label(k, trial), False,
                              f"status {summary['status']}"))
            elif bad_stats:
                ops.append(Op(sweep_label(k, trial), False, bad_stats))
            else:
                ops.append(Op(sweep_label(k, trial), True, None, [tr], [ln]))
        return ops

    return Unit([sweep_label(k, s) for s in seeds], run, judge)


def _sweep_stats_mismatch(stats, seeds, trs):
    """Detail of the first sweep statistic that disagrees with the traces."""
    counts = [tr.iteration_count for tr in trs if tr is not None]
    m0 = {}
    for tr in trs:
        if tr is not None:
            top = max(tr.config["init_keys"])
            m0[top] = m0.get(top, 0) + 1
    want = {
        "trials": len(seeds),
        "mean_iterations": Fraction(sum(counts), len(counts)) if counts else None,
        "min_iterations": min(counts, default=None),
        "max_iterations": max(counts, default=None),
        "m0_distribution": dict(sorted(m0.items())),
        "failed": [],
    }
    for key, value in want.items():
        if stats[key] != value:
            return f"sweep stat {key} is {stats[key]!r}, traces give {value!r}"
    return None


def _verify_unit(dolab, theorem, k):
    harness, traces = dolab.harness, dolab.traces
    attr = f"verify_{theorem.lower()}"
    label = f"{theorem} k={k}"

    def run():
        # looked up per call, so a traced pass reaches the wrapped function
        verdict, trs = getattr(harness, attr)(k)
        return verdict, trs, [traces.run_trace_lines(tr) for tr in trs]

    def judge(raw):
        verdict, trs, lines = raw
        return [Op(label, verdict.passed, verdict.first_violation, trs, lines)]

    return Unit([label], run, judge)


def _meta_unit(dolab, game, t):
    dynamics, traces = dolab.dynamics, dolab.traces
    label = f"Incrementing n=8 k=3 init=({t},{t})"

    def run():
        tr = dynamics.run_double_oracle(
            game, Fraction(0), dynamics.TiebreakPolicy(), init=(t, t))
        return tr, traces.run_trace_lines(tr)

    def judge(raw):
        tr, lines = raw
        return [Op(label, tr.status == "converged", f"status {tr.status}",
                   [tr], [lines])]

    return Unit([label], run, judge)


def units(dolab, name, seed, expected=None):
    """The units of one pass, built from the seed (only sweep-bn reads it).

    Without expected (as recorded by record.py) sweep-bn runs every pooled
    trial seed.
    """
    if name == "sweep-bn":
        return [_sweep_unit(dolab, k, list(range(pool)) if expected is None
                            else sweep_seeds(seed, k,
                                             expected["sweep_cells"][str(k)]))
                for k, pool in SWEEP_POOL.items()]
    if name == "verify-unique":
        return [_verify_unit(dolab, "T2", k) for k in (2, 3, 4)]
    if name == "verify-scripted":
        return [_verify_unit(dolab, "T5", k) for k in range(2, 9)] \
            + [_verify_unit(dolab, "T4", 3)]
    if name == "nonzero-sum-meta":
        game = dolab.families.incrementing_matrix(8, 3)
        return [_meta_unit(dolab, game, t) for t in range(8)]
    raise ValueError(f"unknown workload {name!r}")
