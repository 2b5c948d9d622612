from fractions import Fraction as F

import pytest

from dolab import equilibrium, lp
from dolab.adapters import as_adapter
from dolab.dynamics import (
    ExplicitSchedule,
    LastAddedMetaNash,
    MetaState,
    TiebreakPolicy,
    run_alpha_double_oracle,
    run_best_response_dynamics,
    run_double_oracle,
    run_fictitious_play,
)
from dolab.errors import (
    IllegalScriptedBestResponse,
    IllegalScriptedMetaNash,
    MaxItersExceeded,
    UniquenessViolation,
)
from dolab.families import (
    bigger_number_posg,
    encode_policy_for,
    guess_the_string,
    incrementing_matrix,
    init_for_theorem,
    matching_pennies_chain,
    schedule_for_theorem,
    weak_bigger_number_posg,
)
from dolab.harness import sweep_double_oracle, verify_t2, verify_t3
from dolab.posg import (
    induced_normal_form,
    normal_form,
    policy_from_index,
    policy_index,
    posg_from_normal_form,
)
from dolab.traces import run_trace_lines

LEX = TiebreakPolicy()


def enc(fam, k, player, x, g):
    return encode_policy_for(fam, k, player, x, game=g)


def pair(fam, k, g, i, j):
    return (enc(fam, k, 1, i, g), enc(fam, k, 2, j, g))


def test_t3_exact_iteration_count():
    k = 3
    g = weak_bigger_number_posg(k)
    tb = TiebreakPolicy(best_response_mode="scripted",
                        schedule=schedule_for_theorem("T3", k, g))
    tr = run_double_oracle(g, F(1), tb, init=init_for_theorem("T3", k, g))
    assert tr.status == "converged"
    assert tr.iteration_count == 2 ** k - 1
    assert all(r.gap == 2 for r in tr.iterations[:-1])
    assert tr.iterations[-1].gap == 0


def test_t5_schedule_certified_and_exhausted():
    k = 3
    g = matching_pennies_chain(k)
    tb = TiebreakPolicy(meta_nash_mode="scripted",
                        best_response_mode="scripted",
                        schedule=schedule_for_theorem("T5", k, g))
    tr = run_double_oracle(g, F(1, 2), tb, init=init_for_theorem("T5", k, g))
    assert tr.status == "schedule_exhausted"
    assert tr.iteration_count == 2 ** (k - 1)
    assert all(r.gap == F(2, k) for r in tr.iterations)
    assert all(r.meta_mode == "scripted-certified" for r in tr.iterations)


def test_bigger_number_unique_run_set_growth():
    k = 2
    g = bigger_number_posg(k)
    tb = TiebreakPolicy(meta_nash_mode="unique-or-fail",
                        best_response_mode="unique-or-fail")
    tr = run_double_oracle(g, F(0), tb, init=pair("BiggerNumber", k, g, 0, 0))
    assert tr.status == "converged"
    # adds 1, 2, then 3 to both supports
    assert [r.responses for r in tr.iterations[:-1]] == [(1, 1), (2, 2), (3, 3)]
    assert tr.final_sets == ((0, 1, 2, 3), (0, 1, 2, 3))
    assert all(r.br_counts == (1, 1) for r in tr.iterations)


def test_every_nonfinal_iteration_adds():
    g = guess_the_string(3)
    tr = run_double_oracle(g, F(0), LEX,
                           init=pair("GuessTheString", 3, g, 0, 0))
    for r in tr.iterations[:-1]:
        assert any(r.added)
    assert tr.iterations[-1].added == (False, False)


def test_m_stat_growth_bound_on_bigger_number_runs():
    for fam, g in (("BiggerNumber", bigger_number_posg(3)),
                   ("WeakBiggerNumber", weak_bigger_number_posg(3))):
        tb = LEX if fam == "BiggerNumber" else TiebreakPolicy(
            best_response_mode="scripted",
            schedule=schedule_for_theorem("T3", 3, g))
        tr = run_double_oracle(g, F(0) if fam == "BiggerNumber" else F(1),
                               tb, init=pair(fam, 3, g, 0, 0))
        stats = [r.m_stat for r in tr.iterations]
        assert all(b <= a + 1 for a, b in zip(stats, stats[1:]))


def test_max_iters_exceeded():
    g = guess_the_string(3)
    with pytest.raises(MaxItersExceeded):
        run_double_oracle(g, F(0), LEX, max_iters=2,
                          init=pair("GuessTheString", 3, g, 0, 0))


def test_unique_or_fail_solves_each_meta_game_once(monkeypatch):
    # the certificate reads the pair already solved: no second solve, and
    # no optimal-face probe while the answer is "unique"
    def probe(*args, **kwargs):
        raise AssertionError("optimal-face probe on the unique path")

    monkeypatch.setattr(lp, "maximize", probe)
    verdict, _ = verify_t2(3)
    assert verdict.passed, verdict.first_violation
    solves = []
    solve = lp.zero_sum_strategies
    monkeypatch.setattr(lp, "zero_sum_strategies",
                        lambda v: solves.append(v) or solve(v))
    k = 3
    g = bigger_number_posg(k)
    tb = TiebreakPolicy(meta_nash_mode="unique-or-fail",
                        best_response_mode="unique-or-fail")
    tr = run_double_oracle(g, F(0), tb, init=pair("BiggerNumber", k, g, 0, 0))
    assert tr.status == "converged"
    assert all(r.meta_unique for r in tr.iterations)
    assert len(solves) == len(tr.iterations) == 2 ** k


def test_unique_or_fail_trips_on_degenerate_meta():
    # off-canonical init in the bigger-number game reaches a meta-game with
    # a fat optimal face, so unique-or-fail must trip (see decisions ledger)
    k = 3
    g = bigger_number_posg(k)
    tb = TiebreakPolicy(meta_nash_mode="unique-or-fail",
                        best_response_mode="unique-or-fail")
    with pytest.raises(UniquenessViolation):
        run_double_oracle(g, F(0), tb, init=pair("BiggerNumber", k, g, 5, 0))


def test_unique_or_fail_trip_solves_each_meta_game_once(monkeypatch):
    # the witness is probed on the pair already solved, so the tripping
    # iteration solves its meta-game once, like every iteration before it
    solves = []
    solve = lp.zero_sum_strategies
    monkeypatch.setattr(lp, "zero_sum_strategies",
                        lambda v: solves.append(v) or solve(v))
    k = 3
    g = bigger_number_posg(k)
    tb = TiebreakPolicy(meta_nash_mode="unique-or-fail",
                        best_response_mode="seeded-random", seed=0)
    with pytest.raises(UniquenessViolation) as err:
        run_double_oracle(g, F(0), tb, init=pair("BiggerNumber", k, g, 5, 0))
    assert str(err.value) == ("iteration 3: meta-Nash strategies are not "
                              "unique (witness for player 1)")
    assert len(solves) == 3


def test_illegal_scripted_meta_nash():
    k = 2
    g = matching_pennies_chain(k)
    bad = ExplicitSchedule([
        {"meta_nash": ([(enc("MatchingPenniesChain", k, 1, 0, g), F(1))],
                       [(enc("MatchingPenniesChain", k, 2, 0, g), F(1))])},
    ])
    tb = TiebreakPolicy(meta_nash_mode="scripted", schedule=bad)
    with pytest.raises(IllegalScriptedMetaNash):
        # profile (0, 0) references a policy outside P1's singleton set {3}
        run_double_oracle(g, F(0), tb,
                          init=pair("MatchingPenniesChain", k, g, 3, 0))


def test_illegal_scripted_meta_nash_not_equilibrium():
    k = 2
    g = weak_bigger_number_posg(k)
    both = pair("WeakBiggerNumber", k, g, 0, 0)
    sched = ExplicitSchedule([
        {"responses": (enc("WeakBiggerNumber", k, 1, 1, g),
                       enc("WeakBiggerNumber", k, 2, 1, g))},
        {"meta_nash": ([(enc("WeakBiggerNumber", k, 1, 0, g), F(1))],
                       [(enc("WeakBiggerNumber", k, 2, 1, g), F(1))])},
    ])
    tb = TiebreakPolicy(meta_nash_mode="scripted",
                        best_response_mode="scripted", schedule=sched)
    with pytest.raises(IllegalScriptedMetaNash):
        # (0, 1) is not an equilibrium of the 2x2 meta-game
        run_double_oracle(g, F(0), tb, init=both)


def test_scripted_meta_nash_deviation_to_zero_weight_row():
    # Iteration 1 adds row 1; at iteration 2 the scripted profile keeps all
    # weight on row 0, and the unplayed row 1 is the only profitable move.
    g = normal_form([[0, 0], [1, 0]])
    sched = ExplicitSchedule([{}, {"meta_nash": ([(0, F(1))], [(0, F(1))])}])
    tb = TiebreakPolicy(meta_nash_mode="scripted", schedule=sched)
    with pytest.raises(IllegalScriptedMetaNash,
                       match=r"iteration 2: .*improvements \(1, 0\)"):
        run_double_oracle(g, F(0), tb, init=(0, 0))


def test_illegal_scripted_best_response():
    k = 2
    g = weak_bigger_number_posg(k)
    sched = ExplicitSchedule([
        {"responses": (enc("WeakBiggerNumber", k, 1, 0, g), None)},
    ])
    tb = TiebreakPolicy(best_response_mode="scripted", schedule=sched)
    with pytest.raises(IllegalScriptedBestResponse):
        # playing 0 against 0 scores 0 < 1, not a best response
        run_double_oracle(g, F(0), tb, init=pair("WeakBiggerNumber", k, g, 0, 0))


def test_alpha_gates_t5_first_addition():
    k = 3
    g = matching_pennies_chain(k)
    for alpha in (F(1, 100), F(1, 10)):
        tb = TiebreakPolicy(meta_nash_mode="scripted",
                            best_response_mode="scripted",
                            schedule=schedule_for_theorem("T5", k, g))
        tr = run_alpha_double_oracle(g, F(1, k), alpha, tb,
                                     init=init_for_theorem("T5", k, g))
        assert tr.status == "schedule_blocked"
        assert tr.iterations[0].gated == (False, True)
        assert tr.iterations[0].improvements[1] == 0


def test_alpha_identical_to_plain_on_t3():
    k = 3
    g = weak_bigger_number_posg(k)
    tb = TiebreakPolicy(best_response_mode="scripted",
                        schedule=schedule_for_theorem("T3", k, g))
    init = init_for_theorem("T3", k, g)
    plain = run_double_oracle(g, F(1), tb, init=init)
    alpha = run_alpha_double_oracle(g, F(1), F(1, 100), tb, init=init)
    assert plain.iteration_count == alpha.iteration_count
    for a, b in zip(plain.iterations, alpha.iterations):
        assert (a.sets, a.meta_nash, a.responses, a.gap, a.added) == \
            (b.sets, b.meta_nash, b.responses, b.gap, b.added)


def test_alpha_above_range_stalls_immediately():
    g = weak_bigger_number_posg(2)
    tb = LEX
    tr = run_alpha_double_oracle(g, F(10), F(5), tb,
                                 init=pair("WeakBiggerNumber", 2, g, 0, 0))
    assert tr.status in ("stalled", "converged")
    assert tr.iteration_count == 0


def test_representation_independence_small():
    for fam, k in (("MatchingPenniesChain", 2), ("MatchingPenniesChain", 4),
                   ("WeakBiggerNumber", 2), ("GuessTheString", 2)):
        g = {"MatchingPenniesChain": matching_pennies_chain,
             "WeakBiggerNumber": weak_bigger_number_posg,
             "GuessTheString": guess_the_string}[fam](k)
        tr_posg = run_double_oracle(g, F(0), LEX, init=pair(fam, k, g, 0, 0))
        tr_matrix = run_double_oracle(induced_normal_form(g), F(0), LEX,
                                      init=(0, 0))
        assert tr_posg.iteration_count == tr_matrix.iteration_count
        for a, b in zip(tr_posg.iterations, tr_matrix.iterations):
            assert a.sets == b.sets and a.responses == b.responses
            assert a.gap == b.gap


def test_incrementing_matrix_run():
    k = 3
    n = 2 ** k
    im = incrementing_matrix(n, k)
    tb = TiebreakPolicy(meta_nash_mode="scripted", schedule=LastAddedMetaNash())
    tr = run_double_oracle(im, F(1, 2 * k), tb, init=(0, 0))
    assert tr.status == "converged"
    assert tr.iteration_count == n - 1
    assert [r.responses for r in tr.iterations[:-1]] == \
        [(t, t) for t in range(1, n)]


def test_nonzero_sum_meta_solve_stops_at_first_equilibrium(monkeypatch):
    found = []
    real = equilibrium._support_candidate

    def counted(nfg, rows, cols):
        eq = real(nfg, rows, cols)
        found.append(eq is not None)
        return eq

    monkeypatch.setattr(equilibrium, "_support_candidate", counted)
    tr = run_double_oracle(incrementing_matrix(8, 3), 0, LEX, init=(3, 3))
    assert tr.status == "converged"
    # one equilibrium per meta solve: enumeration stops at the first
    assert found.count(True) == len(tr.iterations)
    assert found[-1]


def test_seeded_runs_deterministic():
    g = bigger_number_posg(3)
    tb = TiebreakPolicy(best_response_mode="seeded-random",
                        init_mode="seeded-random-pure", seed=11)
    a = run_double_oracle(g, F(0), tb)
    b = run_double_oracle(g, F(0), tb)
    assert a.config == b.config
    assert [r.responses for r in a.iterations] == \
        [r.responses for r in b.iterations]


def test_tiebreak_validation():
    with pytest.raises(ValueError):
        TiebreakPolicy(meta_nash_mode="nope")
    with pytest.raises(ValueError):
        TiebreakPolicy(best_response_mode="scripted")
    with pytest.raises(ValueError):
        TiebreakPolicy(best_response_mode="seeded-random")
    with pytest.raises(ValueError):
        run_alpha_double_oracle(normal_form([[0]]), F(0), F(1, 2), LEX,
                                init=(0, 0))


def test_fictitious_play_matching_pennies():
    mp = normal_form([[1, -1], [-1, 1]])
    tr = run_fictitious_play(mp, 1000, LEX, init=(0, 0))
    avg1 = dict(tr.final_averages[0])
    avg2 = dict(tr.final_averages[1])
    for i in (0, 1):
        assert abs(avg1.get(i, F(0)) - F(1, 2)) <= F(1, 10)
        assert abs(avg2.get(i, F(0)) - F(1, 2)) <= F(1, 10)


def test_fictitious_play_one_by_one():
    g = normal_form([[5]], [[3]], zero_sum=False)
    tr = run_fictitious_play(g, 3, LEX, init=(0, 0))
    assert tr.first_zero_round == 1
    assert tr.rounds[0].exploitability == 0


def test_fictitious_play_diagonal():
    # zero-sum diagonal: exploitability decays polynomially under consistent
    # tiebreaking (frozen thresholds from direct simulation) but never hits
    # an exact zero; the common-interest diagonal converges at round one
    diag = normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    tr = run_fictitious_play(diag, 600, LEX, init=(0, 0))
    assert tr.first_zero_round is None
    assert min(r.exploitability for r in tr.rounds) <= F(1, 20)
    assert tr.rounds[-1].exploitability <= F(1, 10)
    common = normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]], zero_sum=False)
    tr = run_fictitious_play(common, 5, LEX, init=(0, 0))
    assert tr.first_zero_round == 1


def test_fictitious_play_on_posg():
    g = matching_pennies_chain(2)
    tr = run_fictitious_play(g, 60, LEX,
                             init=pair("MatchingPenniesChain", 2, g, 0, 0))
    assert len(tr.rounds) == 60
    assert tr.rounds[-1].exploitability <= F(1, 2)


def test_brd_matching_pennies_cycles():
    mp = normal_form([[1, -1], [-1, 1]])
    tr = run_best_response_dynamics(mp, 50, LEX, init=(0, 0))
    assert tr.status == "cycle"
    assert tr.cycle is not None


def test_brd_dominant_profile_converges():
    g = normal_form([[3, 3], [0, 0]], [[2, 0], [2, 0]], zero_sum=False)
    tr = run_best_response_dynamics(g, 10, LEX, init=(1, 1))
    assert tr.status == "converged"
    assert len(tr.rounds) <= 2


def test_brd_weak_bigger_number_ladder():
    g = weak_bigger_number_posg(3)
    tb = TiebreakPolicy(best_response_mode="scripted",
                        schedule=schedule_for_theorem("T3", 3, g))
    tr = run_best_response_dynamics(g, 20, tb,
                                    init=pair("WeakBiggerNumber", 3, g, 0, 0))
    assert tr.rounds[6].profile == (7, 7)
    assert tr.status == "converged"


def test_thm1_followup_gap_decay():
    for k in (2, 3):
        g = guess_the_string(k)
        tr = run_double_oracle(g, F(0), LEX,
                               init=pair("GuessTheString", k, g, 0, 0))
        for t in range(1, (len(tr.iterations) - 1) // 2 + 1):
            assert tr.iterations[2 * t].gap <= F(2, t)


# Denominators 1, 2, 3 and 7, met in an order that raises the scale twice
# after rows are stored (see test_meta_state_rescales_int_rows).
FRACTIONAL = [[1, F(1, 2), F(2, 7)],
              [F(1, 3), -1, F(5, 7)],
              [F(-3, 2), F(2, 3), 0]]
FRACTIONAL_V2 = [[2, F(-1, 2), F(3, 7)],
                 [F(2, 3), 1, F(-1, 7)],
                 [F(1, 6), F(-5, 2), F(1, 3)]]


@pytest.mark.parametrize("zero_sum", [True, False])
def test_meta_state_rescales_int_rows(zero_sum):
    v2 = None if zero_sum else FRACTIONAL_V2
    g = posg_from_normal_form(normal_form(FRACTIONAL, v2))
    adapter = as_adapter(g)
    state = MetaState(adapter)
    scales = []
    for player, index in ((1, 0), (2, 0), (2, 1), (1, 1), (2, 2), (1, 2)):
        state.add(player, policy_from_index(g, player, index))
        scales.append(state.scale)
        for i, p in enumerate(state.sets[0]):
            for j, q in enumerate(state.sets[1]):
                assert (F(state.v1[i][j], state.scale),
                        F(state.v2[i][j], state.scale)) == adapter.evaluate(p, q)
    assert scales == [1, 1, 2, 6, 42, 42]


@pytest.mark.parametrize("zero_sum", [True, False])
def test_fractional_meta_game_traces_match_matrix_adapter(zero_sum):
    v2 = None if zero_sum else FRACTIONAL_V2
    nfg = normal_form(FRACTIONAL, v2)
    g = posg_from_normal_form(nfg)
    for i in range(3):
        for j in range(3):
            runs = [run_double_oracle(
                game, F(0), LEX,
                init=(policy_from_index(g, 1, i), policy_from_index(g, 2, j))
                if game is g else (i, j)) for game in (g, nfg)]
            assert run_trace_lines(runs[0]) == run_trace_lines(runs[1])


def test_scripted_meta_nash_message_on_a_fractional_game():
    # the improvements are read on the int scale and printed as Fractions
    g = normal_form(FRACTIONAL)
    half = F(1, 2)
    sched = ExplicitSchedule(
        [{}, {}, {"meta_nash": ([(0, half), (1, half)], [(0, F(1))])}])
    tb = TiebreakPolicy(meta_nash_mode="scripted", schedule=sched)
    with pytest.raises(IllegalScriptedMetaNash,
                       match=r"iteration 3: .*improvements \(1/3, 1/6\)"):
        run_double_oracle(g, F(0), tb, init=(0, 0))


def test_saddle_first_meta_solves_skip_the_simplex(monkeypatch):
    # every meta-game of the T2 and T3 runs has a strict pure saddle, so
    # these verdicts never reach the LP
    def no_simplex(*args):
        raise AssertionError("lp._simplex reached")

    monkeypatch.setattr(lp, "_simplex", no_simplex)
    for verdict, _ in (verify_t2(4), verify_t3(5)):
        assert verdict.passed, verdict.first_violation


def test_bigger_number_sweep_pivot_count(monkeypatch):
    # a machine-independent perf guard: the meta solves of this fixed
    # sweep pivot exactly this often
    pivots = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot",
                        lambda *args: pivots.append(1) or pivot(*args))
    stats, _, _ = sweep_double_oracle("BiggerNumber", 4, range(20), parallel=1)
    assert not stats["failed"]
    assert len(pivots) == 342
