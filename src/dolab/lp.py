"""Exact linear programming on a fraction-free integer tableau.

Dense tableau simplex with Bland's anti-cycling pivot rule, so every
solve is deterministic and exact.  Every tableau row is a list of Python
ints plus one positive int denominator (the row is ints / den), kept in
lowest terms: a pivot scales the other rows to integers, subtracts only
over the nonzero columns of the pivot row and divides each touched row by
the gcd of its entries and its denominator (Edmonds 1967; Bareiss 1968).
Signs and ratios read from the ints are those of the rational tableau, so
Bland's rule makes the same pivots as on Fractions.  Inputs are ints or
Fractions, every result is a Fraction, and no Fraction arithmetic runs
inside a pivot.  One driver (_simplex) runs every solve: <= rows with a
nonnegative rhs, started from the slack basis, so no phase 1.  Two entry
points:

  * zero_sum_strategies: puts the matrix on ints over one denominator.  A
    strict pure saddle is the game's only optimal pair (Shapley & Snow
    1950), so it is returned in closed form, without the simplex; any tie
    goes to the LP.  Otherwise one shifted primal solve on a tableau built
    straight from the int rows, strategies for both players read from the
    final tableau (primal solution + duals) and certified by payoffs.
  * maximize: probes the optimal face, scaled by [0, 1], for a witness
    once uniqueness has been refuted.

solve_linear_system is Gauss-Jordan elimination on the simplex's row
operation (_pivot); it backs support enumeration and the uniqueness
kernel check.  payoffs is the one place that computes a bimatrix
profile's values and every pure strategy's payoff against it (the
meta-Nash, equilibrium and uniqueness certificates): each weight vector
is put on ints once, so an int matrix is summed on ints alone.
"""

from fractions import Fraction
from math import gcd

from .errors import LpError
from .rationals import as_ints

_Q = Fraction  # the number type of every result; perfbench prints its name


def _reduced(ints, den):
    """ints / den in lowest terms (the gcd loop stops as soon as it is 1)."""
    g = den
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            return ints, den
    return [v // g for v in ints], den // g


def _pivot(rows, dens, pr, pc):
    """Pivot the tableau rows[r] / dens[r] in place on (pr, pc)."""
    prow = rows[pr]
    pp = prow[pc]
    if pp < 0:
        prow, pp = [-v for v in prow], -pp
    prow, pp = _reduced(prow, pp)
    rows[pr], dens[pr] = prow, pp
    nonzero = [(j, p) for j, p in enumerate(prow) if p]
    for r, row in enumerate(rows):
        factor = row[pc]
        if r == pr or not factor:
            continue
        # row - factor * prow / pp, over the common denominator
        g = gcd(factor, pp)
        scale, factor = pp // g, factor // g
        if scale != 1:
            row = [v * scale for v in row]
        for j, p in nonzero:
            row[j] -= factor * p
        rows[r], dens[r] = _reduced(row, dens[r] * scale)


def _bland_iterate(rows, dens, basis, width):
    """Run simplex to optimality on a feasible tableau whose objective row
    (last) is zero on every basic column.

    Minimization convention: optimal when every reduced cost is >= 0.
    Every denominator is positive, so signs are read from the ints, and a
    row's ratio rhs / entry does not depend on its denominator.
    """
    obj = len(rows) - 1
    while True:
        objrow = rows[obj]
        pc = -1
        for j in range(width):
            if objrow[j] < 0:
                pc = j
                break
        if pc < 0:
            return
        # ratio b / a < best_b / best_a, by cross-multiplication (a > 0)
        pr, best_b, best_a = -1, 0, 1
        for r in range(obj):
            a = rows[r][pc]
            if a > 0:
                b = rows[r][-1]
                if pr < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[r] < basis[pr]):
                    pr, best_b, best_a = r, b, a
        if pr < 0:
            raise LpError("unbounded linear program")
        _pivot(rows, dens, pr, pc)
        basis[pr] = pc


def _tableau(c, a_ub, b_ub):
    """The slack-basis tableau of max c'x s.t. a_ub x <= b_ub, x >= 0, as
    (rows, dens, n); b_ub >= 0, or LpError (a negative rhs has no slack
    basis).  Columns: n structural, then one slack per row, basic in row
    order; the objective row is last.
    """
    n, k = len(c), len(a_ub)
    rows, dens = [], []
    for r, (coeffs, b) in enumerate(zip(a_ub, b_ub)):
        row, den = as_ints([*coeffs, b])
        if row[-1] < 0:
            raise LpError(f"row {r} has a negative rhs {b}: no slack basis")
        row[n:n] = [0] * k
        row[n + r] = den
        rows.append(row)
        dens.append(den)
    obj, den = as_ints(c)
    rows.append([-v for v in obj] + [0] * (k + 1))
    dens.append(den)
    return rows, dens, n


def _simplex(rows, dens, n):
    """Maximize from the slack basis of a tableau laid out as _tableau
    builds it (n structural columns).  Returns (x, value, duals), where
    duals[i] is the exact dual multiplier of row i: the objective-row
    entry of its slack column.
    """
    width = n + len(rows) - 1
    basis = list(range(n, width))
    _bland_iterate(rows, dens, basis, width)

    # A row holds its denominator in its basic column (1 as a rational),
    # so the basic variable is rhs / den; the objective row's rhs is c'x.
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(rows[r][-1], dens[r])
    objrow, den = rows[-1], dens[-1]
    duals = [Fraction(v, den) for v in objrow[n:width]]
    return x, Fraction(objrow[-1], den), duals


def maximize(c, a_ub, b_ub):
    """Maximize c'x over {x >= 0 : a_ub x <= b_ub}, where b_ub >= 0."""
    return _simplex(*_tableau(c, a_ub, b_ub))[:2]


def payoffs(v1, v2, x, y):
    """Exact payoffs of the bimatrix profile (x, y), skipping zero weights.

    Returns (rows, cols, values): rows[i] = (v1 y)_i is row i's payoff
    against y, cols[j] = (x' v2)_j is column j's payoff against x, and
    values = (x' v1 y, x' v2 y).  Every row and column is scored, whatever
    its own weight, so max(rows) - values[0] and max(cols) - values[1] are
    the players' best pure-deviation improvements.  Each weight vector is
    put on ints once, so an int matrix is summed on ints alone; every
    output is one Fraction over the weights' denominators.
    """
    xs, xden = as_ints(x)
    ys, yden = as_ints(y)
    xs = [(i, w) for i, w in enumerate(xs) if w]
    ys = [(j, w) for j, w in enumerate(ys) if w]
    rows = [sum([row[j] * w for j, w in ys]) for row in v1]
    cols = [sum([v2[i][j] * w for i, w in xs]) for j in range(len(y))]
    both = xden * yden
    values = (Fraction(sum([rows[i] * w for i, w in xs]), both),
              Fraction(sum([cols[j] * w for j, w in ys]), both))
    return ([Fraction(r, yden) for r in rows],
            [Fraction(c, xden) for c in cols], values)


def _strict_saddle(a):
    """(i, j) where a[i][j] is the strict minimum of row i and the strict
    maximum of column j, or None.  Such a cell is the game's only optimal
    pair (Shapley & Snow 1950 with one-element supports), so it is the
    pair the simplex would return; any tie leaves it to the simplex."""
    for i, row in enumerate(a):
        lo = min(row)
        if row.count(lo) == 1:
            j = row.index(lo)
            col = [r[j] for r in a]
            if max(col) == lo and col.count(lo) == 1:
                return i, j
    return None


def zero_sum_strategies(matrix):
    """Exact maximin solution of a zero-sum matrix game.

    matrix[i][j] is the row player's payoff (ints or Fractions).  Returns
    (x, y, value): the row strategy, the column strategy, and the game
    value, all exact Fractions.  The matrix is put on ints over one
    denominator first; a strict pure saddle closes the solve, otherwise
    the tableau is built from the shifted int rows and the simplex's
    pair is certified by payoffs.
    """
    m = len(matrix)
    n = len(matrix[0])
    flat, den = as_ints([v for row in matrix for v in row])
    a = [flat[i * n:(i + 1) * n] for i in range(m)]
    saddle = _strict_saddle(a)
    if saddle is not None:
        i, j = saddle
        x = [Fraction(0)] * m
        y = [Fraction(0)] * n
        x[i] = y[j] = Fraction(1)
        return x, y, Fraction(a[i][j], den)

    # Shift the game so every entry is >= 1: rationally (a + shift) / den.
    lo = min([min(row) for row in a])
    shift = den - lo if lo < den else 0
    # Column player: max 1'u  s.t.  B u <= 1; duals recover the row player.
    rows = []
    for r, row in enumerate(a):
        t = [v + shift for v in row] + [0] * m + [den]
        t[n + r] = den
        rows.append(t)
    rows.append([-1] * n + [0] * (m + 1))
    u, total, duals = _simplex(rows, [den] * m + [1], n)
    if total <= 0:
        raise LpError("degenerate shifted game")
    game_value = 1 / total
    y = [ui * game_value for ui in u]
    x = [di * game_value for di in duals]
    value = game_value - Fraction(shift, den)

    # Certify: exact feasibility and equal guarantees on both sides.
    if sum(x) != 1 or sum(y) != 1 or any(v < 0 for v in x) or any(v < 0 for v in y):
        raise LpError("zero-sum solve produced a non-distribution")
    rows, cols, _ = payoffs(a, a, x, y)
    if not max(rows) == value * den == min(cols):
        raise LpError("zero-sum solve failed its exactness certificate")
    return x, y, value


def solve_linear_system(a, b):
    """Solve a square system a x = b exactly; returns None when singular."""
    n = len(a)
    rows, dens = [], []
    for r in range(n):
        row, den = as_ints([*a[r], b[r]])
        rows.append(row)
        dens.append(den)
    for col in range(n):
        pr = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pr is None:
            return None
        rows[col], rows[pr] = rows[pr], rows[col]
        dens[col], dens[pr] = dens[pr], dens[col]
        _pivot(rows, dens, col, col)
    return [Fraction(row[-1], den) for row, den in zip(rows, dens)]
