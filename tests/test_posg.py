import functools
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mixed_denominator_mixtures,
    oracle_evaluate_profile,
    oracle_forward_masses,
    oracle_mixed_values,
    small_posgs,
)
import dolab.posg
from dolab.best_response import best_response
from dolab.errors import (
    CyclicTransitionGraph,
    DanglingState,
    DomainMismatch,
    EnumerationCapExceeded,
    GameValidationError,
    NonStochasticTransition,
    RewardOnNonterminal,
)
from dolab.families import (
    bigger_number_posg,
    encode_policy_for,
    guess_the_string,
    make_game,
    matching_pennies_chain,
    weak_bigger_number_posg,
)
from dolab.posg import (
    build_posg,
    delta,
    evaluate_mixed,
    evaluate_profile,
    forward_masses,
    induced_normal_form,
    mixed,
    normal_form,
    policy_count,
    policy_from_index,
    policy_index,
    posg_from_normal_form,
    reachable_observation_sequences,
    reduce_dominated,
    reduce_strictly_dominated,
)


def tiny_game(**overrides):
    """One decision state, two terminals."""
    spec = dict(
        states=[("root", None), ("w", (F(1), F(-1))), ("l", (F(-1), F(1)))],
        start={0: F(1)},
        action_counts=(2, 2),
        transitions={
            (0, 0, 0): {1: F(1)}, (0, 0, 1): {2: F(1)},
            (0, 1, 0): {2: F(1)}, (0, 1, 1): {1: F(1)},
        },
        observations=({0: 0}, {0: 0}),
        zero_sum=True,
    )
    spec.update(overrides)
    return build_posg(**spec)


def test_build_guess_the_string_shape():
    g = guess_the_string(4)
    chain = sum(1 for s in range(g.num_states) if g.rewards[s] is None)
    wins = sum(1 for s in range(g.num_states) if g.rewards[s] == (1, -1))
    losses = sum(1 for s in range(g.num_states) if g.rewards[s] == (-1, 1))
    assert (chain, wins, losses) == (4, 4, 1)
    assert g.depth == 4


def test_non_stochastic_transition():
    with pytest.raises(NonStochasticTransition):
        tiny_game(transitions={
            (0, 0, 0): {1: F(1, 2)}, (0, 0, 1): {2: F(1)},
            (0, 1, 0): {2: F(1)}, (0, 1, 1): {1: F(1)},
        })


def test_self_loop_is_cyclic():
    with pytest.raises(CyclicTransitionGraph):
        tiny_game(transitions={
            (0, 0, 0): {0: F(1)}, (0, 0, 1): {2: F(1)},
            (0, 1, 0): {2: F(1)}, (0, 1, 1): {1: F(1)},
        })


def test_reward_on_nonterminal():
    with pytest.raises(RewardOnNonterminal):
        tiny_game(
            states=[("root", (F(0), F(0))), ("w", (F(1), F(-1))),
                    ("l", (F(-1), F(1)))],
            observations=({}, {}),
        )


def test_dangling_state():
    with pytest.raises(DanglingState):
        tiny_game(
            states=[("root", None), ("w", (F(1), F(-1))), ("l", None)],
            observations=({0: 0, 2: 1}, {0: 0, 2: 1}),
        )


def test_missing_transition_row():
    with pytest.raises(DanglingState):
        tiny_game(transitions={
            (0, 0, 0): {1: F(1)}, (0, 0, 1): {2: F(1)},
            (0, 1, 0): {2: F(1)},
        })


def test_bad_start_distribution():
    with pytest.raises(NonStochasticTransition):
        tiny_game(start={0: F(1, 2)})


def test_zero_sum_flag_checked():
    with pytest.raises(GameValidationError):
        tiny_game(states=[("root", None), ("w", (F(1), F(0))),
                          ("l", (F(-1), F(1)))])


def test_reachable_sequences_examples():
    assert len(reachable_observation_sequences(bigger_number_posg(4), 1)) == 4
    assert len(reachable_observation_sequences(matching_pennies_chain(4), 2)) == 4
    g = tiny_game()
    assert reachable_observation_sequences(g, 1) == ((0,),)


def test_reachable_sequences_cap():
    g = guess_the_string(4)
    with pytest.raises(EnumerationCapExceeded):
        reachable_observation_sequences(
            bigger_number_posg(5), 1, cap=2)
    assert len(reachable_observation_sequences(g, 1, cap=100)) == 4


@pytest.mark.parametrize("family, k, player", [
    ("BiggerNumber", 5, 1),
    ("MatchingPenniesChain", 3, 2),
    ("GuessTheString", 3, 1),
])
def test_reachable_sequences_cap_checked_on_every_call(family, k, player):
    # A cached domain answers a smaller cap exactly as a fresh game does.
    pairs = None
    for cap in range(0, 40):
        try:
            reachable_observation_sequences(make_game(family, k), player,
                                            cap=cap)
        except EnumerationCapExceeded:
            continue
        pairs = cap
        break
    assert pairs is not None
    g = make_game(family, k)
    domain = reachable_observation_sequences(g, player)
    for cap in range(pairs):
        with pytest.raises(EnumerationCapExceeded):
            reachable_observation_sequences(g, player, cap=cap)
    assert reachable_observation_sequences(g, player, cap=pairs) == domain
    assert reachable_observation_sequences(g, player) == domain


def test_large_cap_call_lets_evaluation_use_the_game(monkeypatch):
    # A game over the default cap works once a caller with a larger cap
    # has enumerated its domains.
    ref = bigger_number_posg(5)
    p1, p2 = policy_from_index(ref, 1, 3), policy_from_index(ref, 2, 5)
    value = evaluate_profile(ref, p1, p2)
    monkeypatch.setattr(dolab.posg, "DEFAULT_ENUMERATION_CAP", 2)
    with pytest.raises(EnumerationCapExceeded):
        evaluate_profile(bigger_number_posg(5), p1, p2)
    g = bigger_number_posg(5)
    assert len(reachable_observation_sequences(g, 1, cap=100)) == 5
    assert len(reachable_observation_sequences(g, 2, cap=100)) == 5
    assert evaluate_profile(g, p1, p2) == value
    assert best_response(g, 1, mixed(2, [(p2, 1)])).witness.player == 1
    assert policy_from_index(g, 1, 3) == p1
    with pytest.raises(EnumerationCapExceeded):
        reachable_observation_sequences(g, 1, cap=2)


def test_evaluate_profile_examples():
    g = guess_the_string(2)
    p = lambda pl, x: encode_policy_for("GuessTheString", 2, pl, x, game=g)
    assert evaluate_profile(g, p(1, 2), p(2, 2)) == (F(-1), F(1))
    assert evaluate_profile(g, p(1, 0), p(2, 2)) == (F(1), F(-1))


def test_evaluate_domain_mismatch():
    g1 = guess_the_string(2)
    g2 = guess_the_string(3)
    pol = policy_from_index(g2, 1, 0)
    with pytest.raises(DomainMismatch):
        evaluate_profile(g1, pol, policy_from_index(g1, 2, 0))
    with pytest.raises(DomainMismatch):
        evaluate_profile(g1, policy_from_index(g1, 2, 0),
                         policy_from_index(g1, 2, 0))


def test_forward_masses_domain_mismatch():
    g1 = guess_the_string(2)
    with pytest.raises(DomainMismatch):
        forward_masses(g1, policy_from_index(guess_the_string(3), 1, 0),
                       policy_from_index(g1, 2, 0))
    with pytest.raises(DomainMismatch):
        forward_masses(g1, policy_from_index(g1, 2, 0),
                       policy_from_index(g1, 2, 0))


def test_mass_conservation():
    g = bigger_number_posg(3)
    p1 = policy_from_index(g, 1, 5)
    p2 = policy_from_index(g, 2, 2)
    for live, absorbed in forward_masses(g, p1, p2):
        assert live + absorbed == 1


def test_mass_conservation_uniform_start():
    g = matching_pennies_chain(4)
    p1 = policy_from_index(g, 1, 9)
    p2 = policy_from_index(g, 2, 6)
    for live, absorbed in forward_masses(g, p1, p2):
        assert live + absorbed == 1


def test_evaluate_mixed_degenerate():
    g = weak_bigger_number_posg(2)
    p1 = policy_from_index(g, 1, 2)
    p2 = policy_from_index(g, 2, 1)
    assert evaluate_mixed(g, delta(p1), delta(p2)) == evaluate_profile(g, p1, p2)


def test_evaluate_mixed_matching_pennies_symmetry():
    mp = posg_from_normal_form(normal_form([[1, -1], [-1, 1]]))
    m1 = mixed(1, [(policy_from_index(mp, 1, 0), F(1, 2)),
                   (policy_from_index(mp, 1, 1), F(1, 2))])
    m2 = delta(policy_from_index(mp, 2, 0))
    assert evaluate_mixed(mp, m1, m2) == (F(0), F(0))


def test_evaluate_mixed_brute_force_example():
    g = matching_pennies_chain(3)
    e = lambda pl, x: encode_policy_for("MatchingPenniesChain", 3, pl, x, game=g)
    m1 = delta(e(1, 7))
    m2 = mixed(2, [(e(2, 0), F(1, 2)), (e(2, 1), F(1, 2))])
    expect = tuple(
        (evaluate_profile(g, e(1, 7), e(2, 0))[i]
         + evaluate_profile(g, e(1, 7), e(2, 1))[i]) / 2
        for i in (0, 1))
    assert evaluate_mixed(g, m1, m2) == expect


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2), st.fractions(0, 1).filter(
    lambda q: 0 < q < 1))
def test_evaluate_mixed_bilinear(i, j, a):
    g = posg_from_normal_form(normal_form(
        [[1, -2, 3], [0, 1, -1], [2, 0, 1], [-1, 1, 0]]))
    m1 = delta(policy_from_index(g, 1, i))
    q1 = delta(policy_from_index(g, 2, j))
    q2 = delta(policy_from_index(g, 2, (j + 1) % 3))
    blend = mixed(2, [(q1.support[0][0], a), (q2.support[0][0], 1 - a)])
    lhs = evaluate_mixed(g, m1, blend)
    r1 = evaluate_mixed(g, m1, q1)
    r2 = evaluate_mixed(g, m1, q2)
    assert lhs == (a * r1[0] + (1 - a) * r2[0], a * r1[1] + (1 - a) * r2[1])


def test_zero_sum_profiles_sum_to_zero(rng):
    for g in (guess_the_string(3), bigger_number_posg(3),
              matching_pennies_chain(3)):
        for _ in range(10):
            p1 = policy_from_index(g, 1, rng.randrange(policy_count(g, 1)))
            p2 = policy_from_index(g, 2, rng.randrange(policy_count(g, 2)))
            v1, v2 = evaluate_profile(g, p1, p2)
            assert v1 + v2 == 0


def test_policy_index_bijection():
    g = bigger_number_posg(3)
    for i in range(policy_count(g, 1)):
        assert policy_index(g, policy_from_index(g, 1, i)) == i


def test_induced_normal_form_single_action():
    g = build_posg(
        states=[("root", None), ("end", (F(1, 3), F(-1, 3)))],
        start={0: F(1)}, action_counts=(1, 1),
        transitions={(0, 0, 0): {1: F(1)}},
        observations=({0: 0}, {0: 0}), zero_sum=True)
    nf = induced_normal_form(g)
    assert nf.shape == (1, 1)
    assert nf.payoff(0, 0) == (F(1, 3), F(-1, 3))


def test_induced_normal_form_cap():
    with pytest.raises(EnumerationCapExceeded):
        induced_normal_form(bigger_number_posg(4), cap=10)


def test_reduce_dominated_row_removed():
    nfg = normal_form([[0, 0], [1, 1]])
    red, (rows, cols) = reduce_strictly_dominated(nfg)
    assert rows == (1,)


def test_reduce_dominated_matching_pennies_unchanged():
    mp = normal_form([[1, -1], [-1, 1]])
    red, (rows, cols) = reduce_strictly_dominated(mp)
    assert red.shape == (2, 2) and rows == (0, 1) and cols == (0, 1)


def test_weak_dominance_removes_ties():
    nfg = normal_form([[1, 0], [1, 1]], [[0, 0], [0, 0]], zero_sum=False)
    strict, _ = reduce_dominated(nfg, weak=False)
    weak, (rows, _) = reduce_dominated(nfg, weak=True)
    assert strict.shape == (2, 2)
    assert weak.shape == (1, 2) and rows == (1,)


def test_weak_dominance_keeps_duplicates():
    nfg = normal_form([[1, 1], [1, 1]], [[0, 1], [0, 1]], zero_sum=False)
    red, (rows, _) = reduce_dominated(nfg, weak=True)
    assert rows == (0, 1)


def test_thread_safety_smoke():
    # The threads make their first calls on a fresh game together, so the
    # lazily built domain tables are built concurrently; a short switch
    # interval makes the builds interleave.
    template = bigger_number_posg(3)
    profiles = [(policy_from_index(template, 1, i),
                 policy_from_index(template, 2, 7 - i)) for i in range(8)]
    expect = [oracle_evaluate_profile(template, p1, p2) for p1, p2 in profiles]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            g = bigger_number_posg(3)
            barrier = threading.Barrier(4, timeout=30)
            errors = []
            results = []

            def work():
                try:
                    barrier.wait()
                    results.append([evaluate_profile(g, p1, p2)
                                    for p1, p2 in profiles])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors
            assert results == [expect] * 4
    finally:
        sys.setswitchinterval(interval)


@functools.cache
def family_game(family, k):
    return make_game(family, k)


# Incrementing k = 5 has probability denominator 6 and reward denominator
# 10; MatchingPenniesChain k = 4 has probability denominator 4.
KERNEL_FAMILIES = [("GuessTheString", 4), ("BiggerNumber", 4),
                   ("WeakBiggerNumber", 4), ("MatchingPenniesChain", 4),
                   ("Incrementing", 5)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FAMILIES), st.randoms(use_true_random=False))
def test_kernel_matches_oracle_on_families(fk, rnd):
    g = family_game(*fk)
    p1 = policy_from_index(g, 1, rnd.randrange(policy_count(g, 1)))
    p2 = policy_from_index(g, 2, rnd.randrange(policy_count(g, 2)))
    assert evaluate_profile(g, p1, p2) == oracle_evaluate_profile(g, p1, p2)
    assert forward_masses(g, p1, p2) == oracle_forward_masses(g, p1, p2)


@settings(max_examples=150, deadline=None)
@given(small_posgs(), st.randoms(use_true_random=False))
def test_kernel_matches_oracle_on_small_games(g, rnd):
    p1 = policy_from_index(g, 1, rnd.randrange(policy_count(g, 1)))
    p2 = policy_from_index(g, 2, rnd.randrange(policy_count(g, 2)))
    got = evaluate_profile(g, p1, p2)
    assert got == oracle_evaluate_profile(g, p1, p2)
    assert all(type(v) is F for v in got)
    masses = forward_masses(g, p1, p2)
    assert masses == oracle_forward_masses(g, p1, p2)
    assert all(live + absorbed == 1 for live, absorbed in masses)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_mixed_matches_oracle(data):
    g = data.draw(st.one_of(small_posgs(max_layers=2),
                            st.sampled_from(KERNEL_FAMILIES).map(
                                lambda fk: family_game(*fk))))
    m1 = data.draw(mixed_denominator_mixtures(g, 1))
    m2 = data.draw(mixed_denominator_mixtures(g, 2))
    assert evaluate_mixed(g, m1, m2) == \
        oracle_mixed_values(g, m1.support, m2.support)
