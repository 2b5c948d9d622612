"""Trace files and report generation.

A trace file is line-oriented JSON: a header record carrying the resolved
configuration, one record per iteration/round, and one result record.
Rationals are serialized as "num/den" strings, never as decimals, and
records are dumped canonically, so identical configurations and seeds
produce byte-identical files.  Reports are rebuilt purely from persisted
traces (plus the family generators for structural flags).
"""

import json
import os
from dataclasses import fields
from fractions import Fraction
from functools import cache

from .errors import DolabError, MissingTraces
from .rationals import fmt, parse

TRACE_VERSION = 1


def _enc(value):
    if isinstance(value, Fraction):
        return fmt(value)
    if isinstance(value, dict):
        return {k: _enc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_enc(v) for v in value]
    return value


def _line(obj):
    return json.dumps(_enc(obj), sort_keys=True, separators=(",", ":"))


@cache
def _field_names(cls):
    return tuple([f.name for f in fields(cls)])


def _record(kind, record):
    """One trace line holding every field of an iteration/round dataclass
    (read shallowly: asdict would deep-copy each field)."""
    return _line({"type": kind, **{name: getattr(record, name)
                                   for name in _field_names(type(record))}})


def run_trace_lines(trace, header_extra=None):
    """Serialize a double-oracle RunTrace (or the fp/brd traces)."""
    header = {
        "type": "header",
        "version": TRACE_VERSION,
        "algorithm": trace.algorithm,
        "config": dict(trace.config),
    }
    if header_extra:
        header.update(header_extra)
    lines = [_line(header)]
    if trace.algorithm in ("do", "alpha-do"):
        lines += [_record("iteration", r) for r in trace.iterations]
        lines.append(_line({
            "type": "result",
            "status": trace.status,
            "iterations": trace.iteration_count,
            "final_gap": trace.final_gap,
            "final_meta_nash": trace.final_meta_nash,
            "final_sets": trace.final_sets,
        }))
    elif trace.algorithm == "fp":
        lines += [_record("round", r) for r in trace.rounds]
        lines.append(_line({
            "type": "result",
            "status": "done",
            "rounds": len(trace.rounds),
            "first_zero_round": trace.first_zero_round,
            "final_exploitability":
                trace.rounds[-1].exploitability if trace.rounds else None,
        }))
    elif trace.algorithm == "brd":
        lines += [_record("round", r) for r in trace.rounds]
        lines.append(_line({
            "type": "result",
            "status": trace.status,
            "rounds": len(trace.rounds),
            "cycle": trace.cycle,
        }))
    else:
        raise ValueError(f"unknown trace algorithm {trace.algorithm!r}")
    return lines


def write_trace(path, trace, header_extra=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(run_trace_lines(trace, header_extra)) + "\n")


def read_trace(path):
    """Parse a trace file back into plain records (rationals as strings)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records or records[0].get("type") != "header":
        raise MissingTraces(f"{path} is not a trace file")
    return records


def _gap_stats(records):
    gaps = [parse(r["gap"]) for r in records if r["type"] == "iteration"]
    if not gaps:
        return None
    return {"first": fmt(gaps[0]), "last": fmt(gaps[-1]),
            "max": fmt(max(gaps)), "min": fmt(min(gaps))}


def build_report(trace_dir, structure_fn=None, support_fn=None):
    """Aggregate a directory of trace files into per-(family, k) rows.

    structure_fn(family, k) -> (zs, fo, tf) and
    support_fn(family, k) -> int supply the structural flags and the
    measured minimum Nash support; both are optional and resolved by the
    CLI so reports stay reconstructible from traces alone.
    """
    paths = sorted(
        os.path.join(trace_dir, p) for p in os.listdir(trace_dir)
        if p.endswith(".trace"))
    if not paths:
        raise MissingTraces(f"no .trace files under {trace_dir}")
    groups = {}
    for path in paths:
        records = read_trace(path)
        header = records[0]
        game = header.get("game", {})
        key = (game.get("family", header.get("algorithm", "?")),
               game.get("k"), header["algorithm"])
        groups.setdefault(key, []).append((path, records))
    rows = []
    for (family, k, algorithm) in sorted(groups,
                                         key=lambda kk: (str(kk[0]),
                                                         kk[1] or 0, kk[2])):
        runs = groups[(family, k, algorithm)]
        counts = []
        statuses = {}
        for _, records in runs:
            result = records[-1]
            statuses[result["status"]] = statuses.get(result["status"], 0) + 1
            if "iterations" in result:
                counts.append(result["iterations"])
            elif "rounds" in result:
                counts.append(result["rounds"])
        row = {
            "family": family,
            "k": k,
            "algorithm": algorithm,
            "runs": len(runs),
            "iterations_mean": sum(counts) / len(counts) if counts else None,
            "iterations_min": min(counts) if counts else None,
            "iterations_max": max(counts) if counts else None,
            "statuses": statuses,
            "gap_summary": _gap_stats(runs[0][1]) if len(runs) == 1 else None,
        }
        if structure_fn is not None and k is not None:
            try:
                zs, fo, tf = structure_fn(family, k)
                row["zero_sum"] = zs
                row["fully_observable"] = fo
                row["tree_form"] = tf
            except DolabError:
                pass
        if support_fn is not None and k is not None:
            try:
                row["nash_support"] = support_fn(family, k)
            except DolabError:
                row["nash_support"] = None
        rows.append(row)
    return rows


def format_report(rows):
    """Human-readable table; one row per (family, k, algorithm)."""
    cols = ["family", "k", "algo", "runs", "iters(mean/min/max)",
            "ZS", "FO", "TF", "support", "statuses"]
    table = [cols]
    for row in rows:
        if row["iterations_mean"] is None:
            iters = "-"
        else:
            iters = (f"{row['iterations_mean']:.2f}/"
                     f"{row['iterations_min']}/{row['iterations_max']}")
        flag = lambda key: {True: "y", False: "n"}.get(row.get(key), "-")
        table.append([
            str(row["family"]), str(row["k"]), row["algorithm"],
            str(row["runs"]), iters,
            flag("zero_sum"), flag("fully_observable"), flag("tree_form"),
            str(row.get("nash_support", "-")),
            ",".join(f"{s}:{c}" for s, c in sorted(row["statuses"].items())),
        ])
    widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
    out = []
    for r in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"
