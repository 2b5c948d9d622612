from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dolab import equilibrium, lp
from dolab.equilibrium import (
    _face_witness,
    enumerate_nash_bimatrix,
    is_unique_pair,
    is_unique_zero_sum_equilibrium,
    iter_nash_bimatrix,
    nash_gap,
    solve_zero_sum,
    verify_equilibrium,
)
from dolab.errors import EnumerationCapExceeded, LpError, NotZeroSum
from dolab.families import (
    bigger_number_matrix,
    encode_policy_for,
    incrementing_matrix,
    matching_pennies_chain,
    weak_bigger_number_matrix,
    weak_bigger_number_posg,
)
from dolab.posg import delta, induced_normal_form, mixed, normal_form

MP = normal_form([[1, -1], [-1, 1]])


def enc(fam, k, player, x, g):
    return encode_policy_for(fam, k, player, x, game=g)


def test_solve_matching_pennies():
    res = solve_zero_sum(MP)
    assert res.row_strategy == (F(1, 2), F(1, 2))
    assert res.col_strategy == (F(1, 2), F(1, 2))
    assert res.value == 0
    assert res.certificate == (F(0), F(0))


def test_solve_bigger_number_pure():
    res = solve_zero_sum(bigger_number_matrix(4))
    assert res.row_strategy[3] == 1 and res.col_strategy[3] == 1
    assert res.value == 0


def test_solve_matching_pennies_chain_value():
    nf = induced_normal_form(matching_pennies_chain(3))
    assert solve_zero_sum(nf).value == F(2, 3)


def test_solve_requires_zero_sum():
    gs = normal_form([[1, 0], [0, 1]], [[1, 0], [0, 1]], zero_sum=False)
    with pytest.raises(NotZeroSum):
        solve_zero_sum(gs)


def test_solutions_verify_against_pure_deviations():
    for nfg in (MP, bigger_number_matrix(8), weak_bigger_number_matrix(8),
                normal_form([[2, -1, 0], [-1, 1, 3]])):
        res = solve_zero_sum(nfg)
        chk = verify_equilibrium(nfg, res.row_strategy, res.col_strategy, 0)
        assert chk.passed


def test_minimax_duality():
    for nfg in (bigger_number_matrix(4), weak_bigger_number_matrix(8),
                normal_form([[2, -1, 0], [-1, 1, 3]])):
        res = solve_zero_sum(nfg)
        m, n = nfg.shape
        flipped = normal_form(
            [[-nfg.v1[i][j] for i in range(m)] for j in range(n)])
        assert res.value == -solve_zero_sum(flipped).value


def test_enumerate_matching_pennies():
    eqs = enumerate_nash_bimatrix(MP, 2)
    assert len(eqs) == 1
    assert eqs[0].row_strategy == (F(1, 2), F(1, 2))


def test_enumerate_bigger_number_pure_profiles():
    eqs = enumerate_nash_bimatrix(bigger_number_matrix(4), 1)
    assert len(eqs) == 1
    assert eqs[0].row_strategy[3] == 1 and eqs[0].col_strategy[3] == 1


def test_enumerate_incrementing_restrictions():
    k = 3
    full = incrementing_matrix(8, k)
    for t in range(3):
        sub = normal_form(
            [row[:t + 1] for row in full.v1[:t + 1]],
            [row[:t + 1] for row in full.v2[:t + 1]], zero_sum=False)
        eqs = enumerate_nash_bimatrix(sub, 1)
        pure = [(eq.row_strategy, eq.col_strategy) for eq in eqs]
        target = tuple(F(1) if i == t else F(0) for i in range(t + 1))
        assert (target, target) in pure


def test_enumerate_zero_sum_values_match_lp():
    for nfg in (MP, weak_bigger_number_matrix(4)):
        value = solve_zero_sum(nfg).value
        for eq in enumerate_nash_bimatrix(nfg, min(nfg.shape)):
            assert eq.values[0] == value


def test_enumerate_bigger_number_all_supports():
    # support enumeration over every 4x4 support finds only (3, 3)
    eqs = enumerate_nash_bimatrix(bigger_number_matrix(4), 4)
    assert len(eqs) == 1
    assert eqs[0].row_strategy == (F(0), F(0), F(0), F(1))
    assert eqs[0].values == (F(0), F(0))


def test_enumerate_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_nash_bimatrix(bigger_number_matrix(16), 16, cap=10)
    with pytest.raises(EnumerationCapExceeded):  # raised before any solve
        iter_nash_bimatrix(bigger_number_matrix(16), 16, cap=10)


def test_nash_gap_chain_example():
    g = matching_pennies_chain(4)
    m1 = delta(enc("MatchingPenniesChain", 4, 1, 15, g))
    m2 = delta(enc("MatchingPenniesChain", 4, 2, 0, g))
    rep = nash_gap(g, m1, m2)
    assert rep.improvements == (F(1, 2), F(0))
    assert rep.gap == F(1, 2)
    assert not verify_equilibrium(g, m1, m2, F(1, 4)).passed


def test_nash_gap_weak_bigger_number_origin():
    g = weak_bigger_number_posg(3)
    m1 = delta(enc("WeakBiggerNumber", 3, 1, 0, g))
    m2 = delta(enc("WeakBiggerNumber", 3, 2, 0, g))
    rep = nash_gap(g, m1, m2)
    assert rep.improvements == (F(1), F(1))
    assert rep.gap == 2


def test_gap_zero_at_equilibrium():
    res = solve_zero_sum(MP)
    rep = nash_gap(MP, res.row_strategy, res.col_strategy)
    assert rep.gap == 0


def test_eps_two_accepts_anything_in_unit_range():
    g = weak_bigger_number_posg(2)
    m1 = delta(enc("WeakBiggerNumber", 2, 1, 0, g))
    m2 = delta(enc("WeakBiggerNumber", 2, 2, 0, g))
    assert verify_equilibrium(g, m1, m2, F(2)).passed


def test_support_two_chain_equilibrium():
    k = 3
    g = matching_pennies_chain(k)
    hi, lo = 2 ** k - 1, 2 ** (k - 1) - 1
    m1 = mixed(1, [(enc("MatchingPenniesChain", k, 1, hi, g), F(1, 2)),
                   (enc("MatchingPenniesChain", k, 1, lo, g), F(1, 2))])
    m2 = mixed(2, [(enc("MatchingPenniesChain", k, 2, hi, g), F(1, 2)),
                   (enc("MatchingPenniesChain", k, 2, lo, g), F(1, 2))])
    chk = verify_equilibrium(g, m1, m2, 0)
    assert chk.passed
    assert chk.values[0] == 1 - F(1, k)


def test_gap_monotone_in_comparison_set():
    # the improvement term against a fixed profile can only grow when the
    # comparison set grows: restricted best responses never beat the full one
    nfg = bigger_number_matrix(8)
    y = tuple(F(1, 8) for _ in range(8))
    full = max(sum(nfg.v1[i][j] * y[j] for j in range(8)) for i in range(8))
    for size in range(1, 8):
        restricted = max(
            sum(nfg.v1[i][j] * y[j] for j in range(8)) for i in range(size))
        assert restricted <= full


def test_uniqueness_matching_pennies():
    assert is_unique_zero_sum_equilibrium(MP).unique


def test_uniqueness_all_zero_matrix():
    cert = is_unique_zero_sum_equilibrium(normal_form([[0, 0], [0, 0]]))
    assert not cert.unique
    player, witness = cert.witness
    assert sum(witness) == 1


def test_uniqueness_one_by_three_meta_game():
    wm = weak_bigger_number_matrix(4)
    sub = normal_form([[wm.v1[0][j] for j in (0, 1, 2)]])
    cert = is_unique_zero_sum_equilibrium(sub)
    assert not cert.unique
    player, witness = cert.witness
    assert player == 2
    assert witness[0] == 0  # any optimal column strategy avoids column 0


def test_uniqueness_witness_is_optimal():
    nfg = normal_form([[0, 0], [0, 0]])
    cert = is_unique_zero_sum_equilibrium(nfg)
    res = solve_zero_sum(nfg)
    player, witness = cert.witness
    base = res.row_strategy if player == 1 else res.col_strategy
    assert witness != base
    if player == 1:
        chk = verify_equilibrium(nfg, witness, res.col_strategy, 0)
    else:
        chk = verify_equilibrium(nfg, res.row_strategy, witness, 0)
    assert chk.passed


def test_uniqueness_requires_zero_sum():
    gs = normal_form([[1, 0], [0, 1]], [[1, 0], [0, 1]], zero_sum=False)
    with pytest.raises(NotZeroSum):
        is_unique_zero_sum_equilibrium(gs)


def test_uniqueness_disagreement_raises(monkeypatch):
    # a "not unique" certificate that no face probe confirms is a solver
    # fault, never a certificate without a witness
    monkeypatch.setattr(equilibrium, "is_unique_pair", lambda v, x, y: False)
    with pytest.raises(LpError):
        is_unique_zero_sum_equilibrium(MP)


@st.composite
def small_zero_sum(draw):
    """Small integer matrices; few distinct entries make ties, and so fat
    optimal faces, common."""
    entries = draw(st.sampled_from((st.integers(-1, 1), st.integers(-2, 2))))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


@settings(max_examples=600, deadline=None)
@given(small_zero_sum())
@example([[1, -1], [-1, 1]])          # unique, mixed
@example([[0, 0], [0, 0]])            # every pair optimal
@example([[0, 0, 1]])                 # two optimal columns
@example([[1, 0], [0, 0]])            # the zero row ties the saddle
@example([[1, -1], [-1, 1], [0, 0]])  # the unplayed row ties the value
@example([[1, 1], [1, 1], [0, 2]])    # duplicate rows
def test_certificate_matches_face_probes(v):
    # the coordinate probes of both optimal faces are the oracle
    x, y, value = lp.zero_sum_strategies(v)
    neg_t = [[-a for a in col] for col in zip(*v)]
    probed = (_face_witness(v, value, x) is None
              and _face_witness(neg_t, -value, y) is None)
    assert is_unique_pair(v, x, y) == probed


def test_certificate_on_pairs_off_the_simplex_vertex():
    # a simplex pair that is strictly complementary is already unique, so
    # only optimal pairs inside a face reach the support-size and kernel
    # conditions
    h = F(1, 2)
    assert not is_unique_pair([[1, 1]], [F(1)], [h, h])  # |I| != |J|
    assert not is_unique_pair([[0, 0], [0, 0]], [h, h], [h, h])  # singular
    assert is_unique_pair([[1, -1], [-1, 1]], [h, h], [h, h])


@st.composite
def small_bimatrix(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-2, 2),
                      st.fractions(min_value=-2, max_value=2,
                                   max_denominator=3))
    v1, v2 = ([[draw(entry) for _ in range(n)] for _ in range(m)]
              for _ in range(2))
    return normal_form(v1, v2, zero_sum=False)


@settings(max_examples=300, deadline=None)
@given(small_bimatrix(), st.integers(1, 4))
@example(normal_form([[1, 0], [0, 1]], [[1, 0], [0, 1]], zero_sum=False), 2)
@example(normal_form([[0, 0], [0, 0]], [[0, 0], [0, 0]], zero_sum=False), 2)
def test_first_lazy_equilibrium_is_the_first_enumerated(nfg, max_support):
    # the oracle: the eager loop over support pairs, in enumeration order
    m, n = nfg.shape
    eager = [eq for s in range(1, min(max_support, m, n) + 1)
             for rows in combinations(range(m), s)
             for cols in combinations(range(n), s)
             for eq in [equilibrium._support_candidate(nfg, rows, cols)]
             if eq is not None]
    assert enumerate_nash_bimatrix(nfg, max_support) == eager
    first = next(iter_nash_bimatrix(nfg, max_support), None)
    assert first == (eager[0] if eager else None)
