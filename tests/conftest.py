"""Shared test helpers: brute-force oracles kept independent of the
implementation paths they check."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dolab import lp
from dolab.errors import LpError
from dolab.posg import (
    build_posg,
    check_policy,
    mixed,
    policy_count,
    policy_from_index,
)


def oracle_evaluate_profile(g, p1, p2):
    """Exact expected terminal rewards of a pure profile: a Fraction
    forward pass over observation-sequence contexts, kept apart from the
    int kernel that dolab.posg runs."""
    check_policy(g, p1, 1)
    check_policy(g, p2, 2)
    act1 = p1.as_mapping()
    act2 = p2.as_mapping()
    o1, o2 = g.obs
    r1 = Fraction(0)
    r2 = Fraction(0)
    contexts = {}
    for s, p in g.start:
        if g.is_terminal(s):
            r1 += p * g.rewards[s][0]
            r2 += p * g.rewards[s][1]
        else:
            key = (s, (o1[s],), (o2[s],))
            contexts[key] = contexts.get(key, Fraction(0)) + p
    while contexts:
        nxt = {}
        for (s, seq1, seq2), w in contexts.items():
            dist = g.transition(s, act1[seq1], act2[seq2])
            for sp, q in dist:
                wq = w * q
                if g.is_terminal(sp):
                    r1 += wq * g.rewards[sp][0]
                    r2 += wq * g.rewards[sp][1]
                else:
                    key = (sp, seq1 + (o1[sp],), seq2 + (o2[sp],))
                    nxt[key] = nxt.get(key, Fraction(0)) + wq
        contexts = nxt
    return r1, r2


def oracle_forward_masses(g, p1, p2):
    """Per-depth (live, absorbed) Fraction masses of a pure profile."""
    act1 = p1.as_mapping()
    act2 = p2.as_mapping()
    o1, o2 = g.obs
    absorbed = Fraction(0)
    contexts = {}
    for s, p in g.start:
        if g.is_terminal(s):
            absorbed += p
        else:
            key = (s, (o1[s],), (o2[s],))
            contexts[key] = contexts.get(key, Fraction(0)) + p
    out = [(sum(contexts.values(), Fraction(0)), absorbed)]
    while contexts:
        nxt = {}
        for (s, seq1, seq2), w in contexts.items():
            for sp, q in g.transition(s, act1[seq1], act2[seq2]):
                if g.is_terminal(sp):
                    absorbed += w * q
                else:
                    key = (sp, seq1 + (o1[sp],), seq2 + (o2[sp],))
                    nxt[key] = nxt.get(key, Fraction(0)) + w * q
        contexts = nxt
        out.append((sum(contexts.values(), Fraction(0)), absorbed))
    return out


def oracle_mixed_values(g, s1, s2):
    """Bilinear double sum of oracle_evaluate_profile over two supports."""
    r1 = Fraction(0)
    r2 = Fraction(0)
    for p1, w1 in s1:
        for p2, w2 in s2:
            v1, v2 = oracle_evaluate_profile(g, p1, p2)
            r1 += w1 * w2 * v1
            r2 += w1 * w2 * v2
    return r1, r2


def oracle_payoffs(v1, v2, x, y):
    """lp.payoffs as Fraction sums: every sum starts at Fraction(0) and
    adds one entry-times-weight product at a time."""
    zero = Fraction(0)
    xs = [(i, w) for i, w in enumerate(x) if w != 0]
    ys = [(j, w) for j, w in enumerate(y) if w != 0]
    rows = [sum((row[j] * w for j, w in ys), zero) for row in v1]
    cols = [sum((v2[i][j] * w for i, w in xs), zero) for j in range(len(y))]
    values = (sum((w * rows[i] for i, w in xs), zero),
              sum((w * cols[j] for j, w in ys), zero))
    return rows, cols, values


def oracle_zero_sum_strategies(matrix):
    """lp.zero_sum_strategies on Fractions, with no saddle shortcut: the
    matrix shifted by a Fraction so every entry is >= 1, one slack-basis
    simplex solve, certified by Fraction sums."""
    m = len(matrix)
    n = len(matrix[0])
    lo = min(min(row) for row in matrix)
    shift = Fraction(1) - Fraction(lo) if lo < 1 else Fraction(0)
    shifted = [[Fraction(v) + shift for v in row] for row in matrix]
    one = Fraction(1)
    u, total, duals = lp._simplex(*lp._tableau([one] * n, shifted, [one] * m))
    if total <= 0:
        raise LpError("degenerate shifted game")
    game_value = one / total
    y = [ui * game_value for ui in u]
    x = [di * game_value for di in duals]
    value = game_value - shift
    if sum(x) != 1 or sum(y) != 1 or any(v < 0 for v in x) or any(v < 0 for v in y):
        raise LpError("zero-sum solve produced a non-distribution")
    rows, cols, _ = oracle_payoffs(matrix, matrix, x, y)
    if not max(rows) == value == min(cols):
        raise LpError("zero-sum solve failed its exactness certificate")
    return x, y, value


def brute_force_best_responses(g, player, opp):
    """Enumerate all pure policies; returns (value, argmax index set)."""
    n = policy_count(g, player)
    values = []
    for i in range(n):
        p = policy_from_index(g, player, i)
        v = Fraction(0)
        for q, w in opp.support:
            pair = oracle_evaluate_profile(g, p, q) if player == 1 \
                else oracle_evaluate_profile(g, q, p)
            v += w * pair[player - 1]
        values.append(v)
    best = max(values)
    return best, {i for i, v in enumerate(values) if v == best}


def random_mixture(g, player, rng, max_support=3):
    """Random rational mixture over pure policies of the given player."""
    n = policy_count(g, player)
    size = rng.randint(1, min(max_support, n))
    support = rng.sample(range(n), size)
    weights = [Fraction(rng.randint(1, 6)) for _ in support]
    total = sum(weights)
    return mixed(player, [(policy_from_index(g, player, i), w / total)
                          for i, w in zip(support, weights)])


@pytest.fixture
def rng():
    return random.Random(20240811)


PRIME_DENS = (2, 3, 5, 7)


def _distribution(draw, targets):
    """Positive weights with denominators in PRIME_DENS, normalized, so
    the probabilities mix those denominators."""
    weights = [Fraction(draw(st.integers(1, 4)), draw(st.sampled_from(PRIME_DENS)))
               for _ in targets]
    total = sum(weights)
    return {t: w / total for t, w in zip(targets, weights)}


@st.composite
def small_posgs(draw, max_layers=3):
    """Random small layered games: mixed probability denominators,
    terminals at several depths (a start state may be terminal),
    partial observations and non-zero-sum fractional rewards."""
    n1 = draw(st.integers(1, 2))
    n2 = draw(st.integers(1, 3))
    layers = draw(st.integers(1, max_layers))
    states = []
    reward = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))

    def terminal():
        states.append((f"t{len(states)}", (draw(reward), draw(reward))))
        return len(states) - 1

    ids = []
    for d in range(layers):
        width = draw(st.integers(1, 2))
        ids.append(list(range(len(states), len(states) + width)))
        states.extend((f"s{d}_{i}", None) for i in range(width))
    observations = ({}, {})
    for layer in ids:
        for s in layer:
            observations[0][s] = draw(st.integers(0, 1))
            observations[1][s] = draw(st.integers(0, 1))
    transitions = {}
    for d, layer in enumerate(ids):
        pool = [terminal() for _ in range(draw(st.integers(1, 2)))]
        if d + 1 < layers:
            pool += ids[d + 1]
        for s in layer:
            for a1 in range(n1):
                for a2 in range(n2):
                    targets = draw(st.lists(st.sampled_from(pool), min_size=1,
                                            max_size=3, unique=True))
                    dist = _distribution(draw, targets)
                    if draw(st.booleans()):
                        dist[pool[0]] = dist.get(pool[0], Fraction(0))
                    transitions[(s, a1, a2)] = dist
    roots = list(ids[0])
    if draw(st.booleans()):
        roots.append(terminal())
    return build_posg(states=states, start=_distribution(draw, roots),
                      action_counts=(n1, n2), transitions=transitions,
                      observations=observations, zero_sum=False)


@st.composite
def mixed_denominator_mixtures(draw, g, player, max_support=3):
    """A mixture over up to max_support pure policies whose weights have
    denominators from PRIME_DENS before normalization."""
    n = policy_count(g, player)
    support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                            max_size=min(max_support, n), unique=True))
    return mixed(player, _distribution(draw, [
        policy_from_index(g, player, i) for i in support]).items())
