from fractions import Fraction as F
from unittest.mock import patch

import pytest
from conftest import oracle_payoffs, oracle_zero_sum_strategies
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dolab import lp
from dolab.equilibrium import _face_witness
from dolab.errors import LpError
from dolab.lp import (
    _simplex,
    _strict_saddle,
    _tableau,
    maximize,
    payoffs,
    solve_linear_system,
    zero_sum_strategies,
)


def test_matching_pennies():
    x, y, v = zero_sum_strategies([[F(1), F(-1)], [F(-1), F(1)]])
    assert x == [F(1, 2), F(1, 2)]
    assert y == [F(1, 2), F(1, 2)]
    assert v == 0


def test_rock_paper_scissors():
    a = [[F(0), F(-1), F(1)], [F(1), F(0), F(-1)], [F(-1), F(1), F(0)]]
    x, y, v = zero_sum_strategies(a)
    assert v == 0
    assert x == [F(1, 3)] * 3
    assert y == [F(1, 3)] * 3


def test_known_two_by_two():
    x, y, v = zero_sum_strategies([[F(2), F(-1)], [F(-1), F(1)]])
    assert v == F(1, 5)
    assert x == [F(2, 5), F(3, 5)]
    assert y == [F(2, 5), F(3, 5)]


def test_saddle_point_and_exactness():
    a = [[F(3), F(1)], [F(0), F(2)]]
    x, y, v = zero_sum_strategies(a)
    # both guarantees meet the value exactly (certified inside the solver)
    assert min(sum(x[i] * a[i][j] for i in range(2)) for j in range(2)) == v
    assert max(sum(a[i][j] * y[j] for j in range(2)) for i in range(2)) == v


def test_pure_saddle():
    x, y, v = zero_sum_strategies([[F(1), F(2)], [F(-3), F(0)]])
    assert x == [F(1), F(0)]
    assert v == 1


def test_results_are_fractions():
    x, y, v = zero_sum_strategies([[F(1), F(-1)], [F(-1), F(1)]])
    assert all(type(q) is F for q in x + y + [v])


def test_maximize_inequalities():
    x, v = maximize([F(1), F(1)],
                    a_ub=[[F(1), F(2)], [F(1), F(0)]], b_ub=[F(4), F(3)])
    assert v == F(7, 2)
    assert x == [F(3), F(1, 2)]


def test_negative_rhs_raises():
    # the slack basis is the one start, so it must be feasible
    for b_ub in ([F(-2)], [F(1), F(-1, 3)]):
        with pytest.raises(LpError, match="negative rhs"):
            maximize([F(-1)], a_ub=[[F(-1)]] * len(b_ub), b_ub=b_ub)


def test_unbounded():
    with pytest.raises(LpError):
        maximize([F(1)], a_ub=[[F(-1)]], b_ub=[F(0)])


def test_determinism():
    a = [[F(0), F(-1), F(2)], [F(1), F(0), F(-1)], [F(-2), F(1), F(0)]]
    assert zero_sum_strategies(a) == zero_sum_strategies(a)


def test_linear_system():
    sol = solve_linear_system([[F(1), F(1, 3)], [F(2), F(1)]], [F(1), F(2)])
    assert sol == [F(1), F(0)]


def test_linear_system_singular():
    assert solve_linear_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)]) is None


def double_sums(v1, v2, x, y):
    """The literal definitions payoffs must reproduce (the test oracle)."""
    m, n = len(x), len(y)
    rows = [sum(v1[i][j] * y[j] for j in range(n)) for i in range(m)]
    cols = [sum(x[i] * v2[i][j] for i in range(m)) for j in range(n)]
    values = tuple(sum(x[i] * v[i][j] * y[j]
                       for i in range(m) for j in range(n)) for v in (v1, v2))
    return rows, cols, values


ENTRIES = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=5))
WEIGHTS = st.one_of(st.just(0), st.just(F(0)),
                    st.fractions(min_value=0, max_value=1, max_denominator=7))


@st.composite
def bimatrix_profiles(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    v1, v2 = ([[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
              for _ in range(2))
    x = [draw(WEIGHTS) for _ in range(m)]
    y = [draw(WEIGHTS) for _ in range(n)]
    return v1, v2, x, y


@settings(max_examples=300, deadline=None)
@given(bimatrix_profiles())
@example(([[1, F(-2), 3]], [[0, 1, F(-1, 2)]], [F(1)], [0, F(1, 2), F(1, 2)]))
@example(([[1], [F(-2)], [3]], [[0], [1], [F(-1, 2)]], [F(1, 3), 0, F(2, 3)],
          [F(1)]))
@example(([[1, 2], [3, 4]], [[4, 3], [2, 1]], [0, 0], [0, 0]))
# the unplayed row 1 and column 1 are the profitable deviations
@example(([[0, 0], [1, 0]], [[0, 2], [0, 0]], [1, 0], [1, 0]))
def test_payoffs_match_double_sums(game):
    rows, cols, values = payoffs(*game)
    assert (rows, cols, values) == double_sums(*game)
    assert all(type(q) is F for q in rows + cols + list(values))



# Test oracles: the slack-basis simplex and the Gauss-Jordan loop that
# lp.py ran before its one driver, kept self-contained on Fractions.

def oracle_pivot(rows, pr, pc):
    inv = 1 / rows[pr][pc]
    rows[pr] = prow = [v * inv for v in rows[pr]]
    for r, row in enumerate(rows):
        if r != pr and row[pc] != 0:
            factor = row[pc]
            rows[r] = [v - factor * p for v, p in zip(row, prow)]


def oracle_solve_max_leq(c, a_ub, b_ub):
    """Maximize c'x s.t. a_ub x <= b_ub >= 0, x >= 0 from the slack basis."""
    m, n = len(a_ub), len(c)
    rows = [[F(v) for v in a_ub[i]] + [F(int(j == i)) for j in range(m)]
            + [F(b_ub[i])] for i in range(m)]
    rows.append([-F(v) for v in c] + [F(0)] * (m + 1))
    basis = [n + i for i in range(m)]
    while True:
        pc = next((j for j in range(n + m) if rows[-1][j] < 0), None)
        if pc is None:
            break
        pr, best = None, None
        for r in range(m):
            if rows[r][pc] > 0:
                key = (rows[r][-1] / rows[r][pc], basis[r])
                if best is None or key < best:
                    pr, best = r, key
        if pr is None:
            raise LpError("unbounded linear program")
        oracle_pivot(rows, pr, pc)
        basis[pr] = pc
    x = [F(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = rows[r][-1]
    value = sum((F(ci) * xi for ci, xi in zip(c, x)), F(0))
    return x, value, [rows[-1][n + i] for i in range(m)]


def oracle_gauss_jordan(a, b):
    n = len(a)
    rows = [[F(v) for v in a[r]] + [F(b[r])] for r in range(n)]
    for col in range(n):
        pr = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pr is None:
            return None
        rows[col], rows[pr] = rows[pr], rows[col]
        oracle_pivot(rows, col, col)
    return [rows[r][-1] for r in range(n)]


def oracle_bland(rows, basis, width):
    obj = len(rows) - 1
    for r, b in enumerate(basis):
        if rows[obj][b] != 0:
            oracle_pivot(rows, r, b)
    while True:
        pc = next((j for j in range(width) if rows[obj][j] < 0), None)
        if pc is None:
            return
        pr, best = None, None
        for r in range(obj):
            if rows[r][pc] > 0:
                key = (rows[r][-1] / rows[r][pc], basis[r])
                if best is None or key < best:
                    pr, best = r, key
        if pr is None:
            raise LpError("unbounded linear program")
        oracle_pivot(rows, pr, pc)
        basis[pr] = pc


def oracle_simplex(c, a_ub, b_ub, a_eq=(), b_eq=()):
    """The two-phase Fraction-tableau simplex lp._simplex ran before its
    integer rows and its one slack-basis start: on <= rows with b >= 0 it
    makes the same Bland pivots, and it still solves the equality-row
    face probes that equilibrium._face_witness replaced."""
    n, k = len(c), len(a_ub)
    width = n + k
    rows, basis, art_rows = [], [], []
    for r, (coeffs, b) in enumerate(zip([*a_ub, *a_eq], [*b_ub, *b_eq])):
        row = [F(v) for v in coeffs] + [F(0)] * k + [F(b)]
        if r < k:
            row[n + r] = F(1)
        if row[-1] < 0:
            row = [-v for v in row]
        if r >= k or row[n + r] < 0:
            basis.append(width + len(art_rows))
            art_rows.append(r)
        else:
            basis.append(n + r)
        rows.append(row)
    if art_rows:
        for r, row in enumerate(rows):
            rows[r] = row[:-1] + [F(int(a == r)) for a in art_rows] + row[-1:]
        rows.append([F(0)] * width + [F(1)] * len(art_rows) + [F(0)])
        oracle_bland(rows, basis, width + len(art_rows))
        if rows[-1][-1] != 0:
            raise LpError("infeasible linear program")
        rows.pop()
        for r, b in enumerate(basis):
            if b >= width:
                pc = next((j for j in range(width) if rows[r][j] != 0), None)
                if pc is not None:
                    oracle_pivot(rows, r, pc)
                    basis[r] = pc
        rows = [row[:width] + [row[-1]]
                for row, b in zip(rows, basis) if b < width]
        basis = [b for b in basis if b < width]
    rows.append([-F(v) for v in c] + [F(0)] * (k + 1))
    oracle_bland(rows, basis, width)
    x = [F(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = rows[r][-1]
    value = sum((F(ci) * xi for ci, xi in zip(c, x)), F(0))
    return x, value, rows[-1][n:width]


def simplex(c, a_ub, b_ub):
    """lp._simplex on the slack-basis tableau of an explicit LP."""
    return _simplex(*_tableau(c, a_ub, b_ub))


def outcome(fn, *args):
    try:
        return fn(*args)
    except LpError as err:
        return str(err)


SMALL = st.one_of(st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def leq_lps(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    a = [[draw(SMALL) for _ in range(n)] for _ in range(m)]
    b = [abs(draw(SMALL)) for _ in range(m)]
    return [draw(SMALL) for _ in range(n)], a, b


@settings(max_examples=300, deadline=None)
@given(leq_lps())
@example(([1, 1], [[1, 2], [1, 0]], [4, 3]))
@example(([1], [[-1]], [0]))       # unbounded
@example(([1, 1], [[1, 1], [1, 1], [2, 2]], [1, 1, 2]))  # degenerate
def test_simplex_matches_slack_basis_oracle(lp):
    assert outcome(simplex, *lp) == outcome(oracle_solve_max_leq, *lp)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-2, 2), SMALL)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        a[-1] = [draw(st.integers(-2, 2)) * v for v in a[0]]
    return a, [draw(SMALL) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_systems())
@example(([[0, 1], [1, 0]], [2, 3]))    # needs a row swap
def test_linear_system_matches_gauss_jordan(system):
    got = solve_linear_system(*system)
    assert got == oracle_gauss_jordan(*system)
    assert got is None or all(type(v) is F for v in got)


@st.composite
def feasible_leq_lps(draw):
    """Bounded <=-only LPs around a feasible point x0, with b >= 0."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    x0 = [abs(draw(SMALL)) for _ in range(n)]
    a = [[draw(SMALL) for _ in range(n)] for _ in range(m)] + [[1] * n]
    b = [abs(sum(v * w for v, w in zip(row, x0))) + abs(draw(SMALL))
         for row in a]
    return [draw(SMALL) for _ in range(n)], a, b


@settings(max_examples=300, deadline=None)
@given(feasible_leq_lps())
@example(([-1], [[-1], [1]], [0, 5]))
@example(([1, -1], [[-1, -1], [1, 0], [1, 1]], [0, 2, 3]))
def test_simplex_duals_certify_optimality(lp):
    c, a, b = lp
    x, value, duals = simplex(c, a, b)
    assert all(v >= 0 for v in x)
    assert all(sum(v * w for v, w in zip(row, x)) <= bi
               for row, bi in zip(a, b))
    assert all(d >= 0 for d in duals)
    assert sum(bi * d for bi, d in zip(b, duals)) == value
    assert all(sum(a[i][j] * duals[i] for i in range(len(a))) >= c[j]
               for j in range(len(c)))


# entries with denominators in {1, 2, 3, 5}, both signs, zeros included
RATIONAL = st.builds(lambda num, den: F(num, den),
                     st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))


@st.composite
def fractional_leq_lps(draw):
    """<=-only LPs on mixed denominators with b >= 0, rows sometimes
    repeated (a degenerate vertex)."""
    n = draw(st.integers(1, 4))
    row = st.lists(RATIONAL, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = [abs(draw(RATIONAL)) for _ in a_ub]
    if a_ub and draw(st.booleans()):
        a_ub.append(a_ub[0])
        b_ub.append(b_ub[0])
    if draw(st.booleans()):  # bounded: sum(x) <= b
        a_ub.append([1] * n)
        b_ub.append(abs(draw(RATIONAL)))
    return [draw(RATIONAL) for _ in range(n)], a_ub, b_ub


@settings(max_examples=400, deadline=None)
@given(fractional_leq_lps())
@example(([1], [[-1]], [F(1, 5)]))                # unbounded
@example(([2, -2], [[2, -2], [2, 0]], [2, 2]))    # the ratio test ties
def test_simplex_matches_fraction_oracle(lp):
    assert outcome(simplex, *lp) == outcome(oracle_simplex, *lp)


def two_phase_probe(matrix, value, base):
    """(row, optimum) of the first coordinate probe of the optimal face
    {x >= 0 : x' matrix >= value, 1'x = 1} that beats base, or None: the
    face probe as the two-phase oracle solves it."""
    m = len(matrix)
    a_ub = [[-a for a in col] for col in zip(*matrix)]
    for i in range(m):
        c = [int(j == i) for j in range(m)]
        _, best, _ = oracle_simplex(c, a_ub, [-value] * len(a_ub),
                                    [[1] * m], [1])
        if best > base[i]:
            return i, best
    return None


@st.composite
def small_games(draw):
    """Small integer matrices; few distinct entries make ties, and so fat
    optimal faces, common."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    return [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(small_games())
@example([[0, 0], [0, 0]])            # every pair optimal
@example([[0, 0, 1]])                 # two optimal columns
@example([[1, -1], [-1, 1], [0, 0]])  # the unplayed row ties the value
@example([[1, 1], [1, 1], [0, 2]])    # duplicate rows
def test_face_witness_matches_two_phase_probe(v):
    x, y, value = zero_sum_strategies(v)
    neg_t = [[-a for a in col] for col in zip(*v)]
    for matrix, val, base in ((v, value, x), (neg_t, -value, y)):
        witness = _face_witness(matrix, val, base)
        expected = two_phase_probe(matrix, val, base)
        assert (witness is None) == (expected is None)
        if witness is None:
            continue
        # no earlier probe beat base, so the first row where the witness
        # does is the probed row, and its weight there is the optimum
        row = next(i for i, (w, b) in enumerate(zip(witness, base)) if w > b)
        assert (row, witness[row]) == expected
        assert witness != tuple(base)
        assert all(w >= 0 for w in witness) and sum(witness) == 1
        _, cols, _ = payoffs(matrix, matrix, witness, [0] * len(matrix[0]))
        assert min(cols) == val


# entries of the saddle-kind games: ints, or rationals over 2, 3 and 7
GAME_ENTRY = st.one_of(st.integers(-4, 4),
                       st.builds(F, st.integers(-8, 8), st.sampled_from([2, 3, 7])))
GAP = st.one_of(st.integers(1, 3),
                st.builds(F, st.integers(1, 6), st.sampled_from([2, 3, 7])))


@st.composite
def saddle_games(draw):
    """(matrix, kind), 1-6 x 1-6: kind "strict" plants a strict pure saddle,
    "weak" plants a pure saddle with a tie in its row or column, and
    "none" has no pure saddle at all."""
    kind = draw(st.sampled_from(["strict", "weak", "none"]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    a = [[draw(GAME_ENTRY) for _ in range(n)] for _ in range(m)]
    if kind == "none":
        assume(max(min(row) for row in a) < min(max(col) for col in zip(*a)))
        return a, kind
    i = draw(st.integers(0, m - 1))
    j = draw(st.integers(0, n - 1))
    v = a[i][j]
    for q in range(n):
        if q != j:
            a[i][q] = v + draw(GAP)
    for r in range(m):
        if r != i:
            a[r][j] = v - draw(GAP)
    if kind == "weak":
        ties = [(i, q) for q in range(n) if q != j] + \
            [(r, j) for r in range(m) if r != i]
        assume(ties)
        r, q = draw(st.sampled_from(ties))
        a[r][q] = v
    return a, kind


@settings(max_examples=400, deadline=None)
@given(saddle_games())
@example(([[0, 0], [0, 0]], "weak"))
@example(([[F(1, 2)]], "strict"))
@example(([[1, -1], [-1, 1]], "none"))
@example(([[3, F(7, 2)], [F(-1, 7), 2]], "strict"))
def test_zero_sum_strategies_match_fraction_oracle(game):
    # the saddle shortcut returns the simplex's pair, and only a strict
    # saddle skips the simplex: any tie goes to the LP
    matrix, kind = game
    assert (_strict_saddle(matrix) is not None) == (kind == "strict")
    with patch.object(lp, "_simplex", wraps=lp._simplex) as spy:
        got = zero_sum_strategies(matrix)
    assert spy.called == (kind != "strict")
    assert got == oracle_zero_sum_strategies(matrix)
    x, y, value = got
    assert all(type(q) is F for q in x + y + [value])


WEIGHT = st.one_of(st.just(0), st.builds(F, st.integers(0, 9),
                                         st.sampled_from([1, 2, 3, 7, 12])))


@st.composite
def int_matrix_profiles(draw):
    """Int payoff matrices, as MetaState holds them, under weights with
    mixed denominators (zeros included)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    v1, v2 = ([[draw(st.integers(-50, 50)) for _ in range(n)] for _ in range(m)]
              for _ in range(2))
    return v1, v2, [draw(WEIGHT) for _ in range(m)], [draw(WEIGHT) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(int_matrix_profiles())
@example(([[1, 2]], [[3, 4]], [0], [0, 0]))
def test_int_payoffs_match_fraction_sums(game):
    rows, cols, values = payoffs(*game)
    assert (rows, cols, values) == oracle_payoffs(*game)
    assert all(type(q) is F for q in rows + cols + list(values))
