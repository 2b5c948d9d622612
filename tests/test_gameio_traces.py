import json
import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolab import gameio, traces
from dolab.dynamics import TiebreakPolicy, run_double_oracle
from dolab.errors import GameValidationError, InvalidFamily, MissingTraces
from dolab.families import FAMILIES, encode_policy_for, make_game
from dolab.posg import evaluate_profile, policy_from_index
from dolab.rationals import fmt, parse


def test_rational_round_trip():
    for q in (F(0), F(1, 3), F(-7, 2), F(5)):
        assert parse(fmt(q)) == q
    assert fmt(F(3)) == "3/1"
    with pytest.raises(ValueError):
        parse("0.5")


@settings(max_examples=40, deadline=None)
@given(st.fractions())
def test_rational_round_trip_property(q):
    assert parse(fmt(q)) == q


@pytest.mark.parametrize("family", FAMILIES)
def test_game_round_trip_byte_identical(family, tmp_path):
    g = make_game(family, 3)
    path = tmp_path / "game.json"
    gameio.write_game(path, g)
    loaded = gameio.read_game(path)
    assert gameio.dumps_game(loaded) == path.read_text()
    # and the loaded game evaluates identically
    p1 = policy_from_index(loaded, 1, 1)
    p2 = policy_from_index(loaded, 2, 2)
    q1 = policy_from_index(g, 1, 1)
    q2 = policy_from_index(g, 2, 2)
    assert evaluate_profile(loaded, p1, p2) == evaluate_profile(g, q1, q2)


def test_load_rejects_unknown_format():
    with pytest.raises(GameValidationError):
        gameio.loads_game(json.dumps({"format": "nope"}))


def test_load_validates_distributions(tmp_path):
    g = make_game("WeakBiggerNumber", 2)
    data = gameio.game_to_dict(g)
    data["transitions"][0][3] = [[1, "1/2"]]
    from dolab.errors import NonStochasticTransition
    with pytest.raises(NonStochasticTransition):
        gameio.game_from_dict(data)


def _small_trace():
    g = make_game("WeakBiggerNumber", 2)
    init = (encode_policy_for("WeakBiggerNumber", 2, 1, 0, game=g),
            encode_policy_for("WeakBiggerNumber", 2, 2, 0, game=g))
    return run_double_oracle(g, F(0), TiebreakPolicy(), init=init)


def test_trace_write_read(tmp_path):
    tr = _small_trace()
    path = tmp_path / "run.trace"
    traces.write_trace(path, tr, header_extra={
        "game": {"family": "WeakBiggerNumber", "k": 2}})
    records = traces.read_trace(path)
    assert records[0]["type"] == "header"
    assert records[0]["game"]["family"] == "WeakBiggerNumber"
    assert records[-1]["type"] == "result"
    assert records[-1]["iterations"] == tr.iteration_count
    iters = [r for r in records if r["type"] == "iteration"]
    assert len(iters) == len(tr.iterations)
    assert parse(iters[0]["gap"]) == tr.iterations[0].gap


def test_trace_rationals_are_num_den(tmp_path):
    tr = _small_trace()
    path = tmp_path / "run.trace"
    traces.write_trace(path, tr)
    body = path.read_text()
    assert '"gap":"' in body
    for rec in traces.read_trace(path):
        if rec["type"] == "iteration":
            assert "/" in rec["gap"]


def test_trace_determinism(tmp_path):
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    traces.write_trace(a, _small_trace())
    traces.write_trace(b, _small_trace())
    assert a.read_bytes() == b.read_bytes()


def test_report_build_and_determinism(tmp_path):
    d = tmp_path / "traces"
    d.mkdir()
    for seed in (1, 2):
        g = make_game("WeakBiggerNumber", 2)
        tb = TiebreakPolicy(init_mode="seeded-random-pure", seed=seed)
        tr = run_double_oracle(g, F(0), tb)
        traces.write_trace(d / f"s{seed}.trace", tr, header_extra={
            "game": {"family": "WeakBiggerNumber", "k": 2}})
    rows = traces.build_report(str(d))
    assert len(rows) == 1
    assert rows[0]["family"] == "WeakBiggerNumber"
    assert rows[0]["runs"] == 2
    again = traces.build_report(str(d))
    assert traces.format_report(rows) == traces.format_report(again)


def _one_trace_dir(tmp_path):
    traces.write_trace(tmp_path / "run.trace", _small_trace(), header_extra={
        "game": {"family": "WeakBiggerNumber", "k": 2}})
    return str(tmp_path)


def test_report_leaves_out_flags_of_invalid_families(tmp_path):
    def invalid(family, k):
        raise InvalidFamily(family)

    rows = traces.build_report(_one_trace_dir(tmp_path),
                               structure_fn=invalid, support_fn=invalid)
    assert "zero_sum" not in rows[0] and "tree_form" not in rows[0]
    assert rows[0]["nash_support"] is None
    assert "certificate_failures" not in rows[0]


@pytest.mark.parametrize("hook", ["structure_fn", "support_fn"])
def test_report_propagates_bugs_in_hooks(tmp_path, hook):
    def buggy(family, k):
        raise TypeError("bug in a report hook")

    with pytest.raises(TypeError):
        traces.build_report(_one_trace_dir(tmp_path), **{hook: buggy})


def test_report_missing_traces(tmp_path):
    with pytest.raises(MissingTraces):
        traces.build_report(str(tmp_path))


def test_read_trace_rejects_non_trace(tmp_path):
    p = tmp_path / "x.trace"
    p.write_text('{"type":"iteration"}\n')
    with pytest.raises(MissingTraces):
        traces.read_trace(p)
