import importlib
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_best_responses,
    mixed_denominator_mixtures,
    random_mixture,
    small_posgs,
)
from dolab.best_response import (
    _Solver,
    best_response,
    count_best_responses,
    is_best_response,
)
from dolab.errors import (
    DomainMismatch,
    EnumerationCapExceeded,
    ScriptedCandidateSuboptimal,
)
from dolab.families import (
    FAMILIES,
    bigger_number_posg,
    encode_policy_for,
    make_game,
    matching_pennies_chain,
    weak_bigger_number_posg,
)
from dolab.posg import (
    delta,
    evaluate_mixed,
    mixed,
    policy_count,
    policy_from_index,
    policy_index,
)


def enc(fam, k, player, x, g):
    return encode_policy_for(fam, k, player, x, game=g)


def test_weak_bigger_number_count_seven():
    g = weak_bigger_number_posg(3)
    res = best_response(g, 2, delta(enc("WeakBiggerNumber", 3, 1, 0, g)))
    assert res.value == 1
    assert res.count == 7


def test_bigger_number_unique_response():
    g = bigger_number_posg(3)
    res = best_response(g, 2, delta(enc("BiggerNumber", 3, 1, 0, g)))
    assert res.value == 2
    assert res.count == 1
    assert policy_index(g, res.witness) == 1


def test_matching_pennies_chain_winning_range():
    for k in (2, 3, 4):
        g = matching_pennies_chain(k)
        opp = delta(enc("MatchingPenniesChain", k, 1, 2 ** k - 1, g))
        res = best_response(g, 2, opp)
        assert res.count == 2 ** (k - 1)
        _, opt = brute_force_best_responses(g, 2, opp)
        assert opt == set(range(2 ** (k - 1)))
        assert policy_index(g, res.witness) in opt


def test_free_subtree_counting():
    g = weak_bigger_number_posg(2)
    assert count_best_responses(
        g, 2, delta(enc("WeakBiggerNumber", 2, 1, 0, g))) == 3


def test_all_policies_optimal_when_indifferent():
    # Uniform mixture over everything in guess-the-string makes P2's
    # matching probability equal for every pure policy.
    from dolab.families import guess_the_string
    from dolab.posg import policy_count
    g = guess_the_string(2)
    n = policy_count(g, 1)
    opp = mixed(1, [(policy_from_index(g, 1, i), F(1, n)) for i in range(n)])
    assert count_best_responses(g, 2, opp) == policy_count(g, 2)


@pytest.mark.parametrize("family,k", [
    ("GuessTheString", 3), ("BiggerNumber", 3), ("WeakBiggerNumber", 3),
    ("MatchingPenniesChain", 3), ("Incrementing", 3),
])
def test_matches_brute_force(family, k, rng):
    g = make_game(family, k)
    for player in (1, 2):
        for _ in range(6):
            opp = random_mixture(g, 3 - player, rng)
            res = best_response(g, player, opp)
            value, opt = brute_force_best_responses(g, player, opp)
            assert res.value == value
            assert res.count == len(opt)
            assert policy_index(g, res.witness) in opt
            assert policy_index(g, res.witness) == min(opt)  # lexicographic


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matches_brute_force_mixed_denominators(data):
    g = data.draw(st.one_of(
        small_posgs(max_layers=2),
        st.sampled_from([("MatchingPenniesChain", 4), ("Incrementing", 4),
                         ("GuessTheString", 3)]).map(lambda fk: make_game(*fk))))
    player = data.draw(st.sampled_from((1, 2)))
    assume(policy_count(g, player) <= 600)
    opp = data.draw(mixed_denominator_mixtures(g, 3 - player))
    res = best_response(g, player, opp)
    value, opt = brute_force_best_responses(g, player, opp)
    assert type(res.value) is F and res.value == value
    assert res.count == len(opt)
    assert policy_index(g, res.witness) == min(opt)


def test_is_best_response_examples():
    g = weak_bigger_number_posg(3)
    # max supp + 1 is always a best response to a mixture supported below
    opp = mixed(1, [(enc("WeakBiggerNumber", 3, 1, 0, g), F(1, 3)),
                    (enc("WeakBiggerNumber", 3, 1, 2, g), F(2, 3))])
    assert is_best_response(g, 2, enc("WeakBiggerNumber", 3, 2, 3, g), opp)
    # a strictly dominated candidate is not
    g2 = bigger_number_posg(2)
    opp = delta(enc("BiggerNumber", 2, 1, 3, g2))
    assert not is_best_response(g2, 2, enc("BiggerNumber", 2, 2, 0, g2), opp)


def test_is_best_response_t5_point_one():
    k = 3
    g = matching_pennies_chain(k)
    for t in range(1, 2 ** (k - 1)):
        assert is_best_response(
            g, 1, enc("MatchingPenniesChain", k, 1, t - 1, g),
            delta(enc("MatchingPenniesChain", k, 2, t - 1, g)))


def test_scripted_candidate_certified():
    g = weak_bigger_number_posg(2)
    opp = delta(enc("WeakBiggerNumber", 2, 1, 0, g))
    good = enc("WeakBiggerNumber", 2, 2, 1, g)
    res = best_response(g, 2, opp, select="scripted", candidate=good)
    assert res.witness == good and res.value == 1
    bad = enc("WeakBiggerNumber", 2, 2, 0, g)
    with pytest.raises(ScriptedCandidateSuboptimal):
        best_response(g, 2, opp, select="scripted", candidate=bad)


def test_seeded_uniform_frequencies():
    # 10,000 draws over the 7 best responses: each within 5 sigma of 1/7.
    g = weak_bigger_number_posg(3)
    opp = delta(enc("WeakBiggerNumber", 3, 1, 0, g))
    counts = {}
    draws = 10_000
    for seed in range(draws):
        res = best_response(g, 2, opp, select="seeded-random", seed=seed)
        idx = policy_index(g, res.witness)
        counts[idx] = counts.get(idx, 0) + 1
    assert set(counts) == set(range(1, 8))
    mean = draws / 7
    sigma = (draws * (1 / 7) * (6 / 7)) ** 0.5
    for idx, c in counts.items():
        assert abs(c - mean) <= 5 * sigma, (idx, c)


def test_value_bounded_by_support_components():
    g = bigger_number_posg(3)
    supp = [(enc("BiggerNumber", 3, 1, 1, g), F(1, 2)),
            (enc("BiggerNumber", 3, 1, 4, g), F(1, 2))]
    opp = mixed(1, supp)
    v_mix = best_response(g, 2, opp).value
    v_parts = [best_response(g, 2, delta(pol)).value for pol, _ in supp]
    assert v_mix <= max(v_parts)


def test_wrong_player_mixture():
    g = bigger_number_posg(2)
    own = delta(enc("BiggerNumber", 2, 2, 0, g))
    with pytest.raises(DomainMismatch):
        best_response(g, 2, own)


def test_node_cap(monkeypatch):
    # the package binds the name best_response to the function, so the
    # module is fetched by its full name
    module = importlib.import_module("dolab.best_response")
    g = matching_pennies_chain(3)
    opp = delta(enc("MatchingPenniesChain", 3, 1, 0, g))
    monkeypatch.setattr(module, "DEFAULT_NODE_CAP", 1)
    with pytest.raises(EnumerationCapExceeded, match="node cap"):
        best_response(g, 2, opp)
    with pytest.raises(EnumerationCapExceeded):
        count_best_responses(g, 2, opp)


def _recount(solver, i, ctx, opt):
    """Each optimal action's best-response count, recomputed by pushing
    the action again and re-solving its children: the oracle for the
    counts solve memoizes."""
    counts = []
    for a in opt:
        _, kids = solver.push(i, ctx, a)
        count = 1
        for c, cctx in kids.items():
            count *= solver.solve(c, cctx)[3]
        for c in solver.children[i]:
            if c not in kids:
                count *= solver.free_factor[c]
        counts.append(count)
    return tuple(counts)


@pytest.mark.parametrize("family", FAMILIES)
def test_memoized_counts_match_recount(family, rng):
    for k in (2, 3):
        g = make_game(family, k)
        for player in (1, 2):
            for _ in range(4):
                solver = _Solver(g, player, random_mixture(g, 3 - player, rng))
                value, _ = solver.value_and_count()
                reached = []

                def check(i, ctx):
                    if ctx is None:
                        return rng.randrange(solver.n_actions)
                    _, opt, counts, total = solver.solve(i, ctx)
                    assert counts == _recount(solver, i, ctx, opt)
                    assert total == sum(counts)
                    reached.append(i)
                    return rng.choice(opt)

                # any optimal action at every reached node is optimal
                assert solver.walk(check)[1] == value
                assert reached


def _assert_walk_scores_like_evaluate_mixed(g, player, opp, cand):
    solver = _Solver(g, player, opp)
    _, value = solver.walk(lambda i, ctx: cand.actions[i])
    pair = (delta(cand), opp) if player == 1 else (opp, delta(cand))
    assert F(value, solver.scale) == evaluate_mixed(g, *pair)[player - 1]


@pytest.mark.parametrize("family", FAMILIES)
def test_walk_scores_candidates_like_evaluate_mixed(family, rng):
    for k in (2, 3):
        g = make_game(family, k)
        for player in (1, 2):
            for _ in range(6):
                cand = policy_from_index(
                    g, player, rng.randrange(policy_count(g, player)))
                _assert_walk_scores_like_evaluate_mixed(
                    g, player, random_mixture(g, 3 - player, rng), cand)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_walk_scores_candidates_on_random_games(data):
    # small_posgs may start in a terminal state and mixes denominators
    g = data.draw(small_posgs(max_layers=2))
    player = data.draw(st.sampled_from((1, 2)))
    cand = policy_from_index(
        g, player, data.draw(st.integers(0, policy_count(g, player) - 1)))
    _assert_walk_scores_like_evaluate_mixed(
        g, player, data.draw(mixed_denominator_mixtures(g, 3 - player)), cand)


def test_scripted_failure_and_domain_messages():
    g = bigger_number_posg(2)
    opp = delta(enc("BiggerNumber", 2, 1, 3, g))
    bad = enc("BiggerNumber", 2, 2, 0, g)
    with pytest.raises(ScriptedCandidateSuboptimal,
                       match="^scripted candidate scores -1, "
                             "best response scores 0$"):
        best_response(g, 2, opp, select="scripted", candidate=bad)
    with pytest.raises(ScriptedCandidateSuboptimal,
                       match="no scripted candidate supplied"):
        best_response(g, 2, opp, select="scripted")
    with pytest.raises(ValueError, match="unknown best-response selection"):
        best_response(g, 2, opp, select="bogus")
    # is_best_response checks the candidate, then the opponent's policies
    own = delta(bad)
    with pytest.raises(DomainMismatch, match="expected a policy for player 1"):
        is_best_response(g, 2, bad, own)
    with pytest.raises(DomainMismatch, match="expected a policy for player 2"):
        is_best_response(g, 2, enc("BiggerNumber", 2, 1, 0, g), own)
