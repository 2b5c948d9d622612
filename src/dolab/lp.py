"""Exact-rational linear programming.

Dense tableau simplex with Bland's anti-cycling pivot rule, so every
solve is deterministic and exact.  One driver (_simplex) builds every
tableau; it runs phase 1 only when a row needs an artificial variable.
Two entry points:

  * zero_sum_strategies: one shifted primal solve per game, strategies for
    both players read from the final tableau (primal solution + duals).
  * maximize: the general two-phase solve; it probes the optimal face for
    a witness once uniqueness has been refuted.

The kernel runs on gmpy2.mpq when available (same exact rational
semantics, much faster) and falls back to fractions.Fraction; inputs and
outputs are always Fractions.  solve_linear_system is Gauss-Jordan
elimination on the simplex's row operation (_pivot); it backs support
enumeration and the uniqueness kernel check.  payoffs is the one place
that computes a bimatrix profile's values and every pure strategy's
payoff against it (the meta-Nash, equilibrium and uniqueness
certificates).
"""

from fractions import Fraction

from .errors import LpError

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover - gmpy2 is optional
    _Q = Fraction

_ZERO = _Q(0)
_ONE = _Q(1)


def _fr(value):
    return Fraction(int(value.numerator), int(value.denominator))


def _pivot(rows, pr, pc):
    """Pivot the tableau in place on (pr, pc)."""
    prow = rows[pr]
    inv = _ONE / prow[pc]
    if inv != 1:
        rows[pr] = prow = [v * inv for v in prow]
    for r, row in enumerate(rows):
        if r == pr:
            continue
        factor = row[pc]
        if factor == 0:
            continue
        rows[r] = [v - factor * p for v, p in zip(row, prow)]


def _bland_iterate(rows, basis, width):
    """Price out the basic columns, then run simplex to optimality on a
    feasible tableau (objective row last).

    Minimization convention: optimal when every reduced cost is >= 0.
    """
    obj = len(rows) - 1
    for r, b in enumerate(basis):
        if rows[obj][b] != 0:
            _pivot(rows, r, b)
    while True:
        objrow = rows[obj]
        pc = -1
        for j in range(width):
            if objrow[j] < 0:
                pc = j
                break
        if pc < 0:
            return
        pr, best, best_basis = -1, None, None
        for r in range(obj):
            a = rows[r][pc]
            if a > 0:
                ratio = rows[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < best_basis):
                    pr, best, best_basis = r, ratio, basis[r]
        if pr < 0:
            raise LpError("unbounded linear program")
        _pivot(rows, pr, pc)
        basis[pr] = pc


def _simplex(c, a_ub, b_ub, a_eq=(), b_eq=()):
    """Maximize c'x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Returns (x, value, duals), where duals[i] is the exact dual multiplier
    of the i-th <= constraint: the objective-row entry of its slack column.
    With b_ub >= 0 and no equalities the slack basis is feasible and
    phase 1 is skipped.
    """
    n, k = len(c), len(a_ub)
    width = n + k
    # Columns: n structural, one slack per inequality, then an artificial
    # for each equality and each row whose rhs is negative.  Such rows are
    # negated to a nonnegative rhs, slack included, so the slack's reduced
    # cost is still the row's dual.  The initial basis, in row order, is
    # the row's artificial where it has one, else its slack.
    rows, basis, art_rows = [], [], []
    for r, (coeffs, b) in enumerate(zip([*a_ub, *a_eq], [*b_ub, *b_eq])):
        row = [_Q(v) for v in coeffs] + [_ZERO] * k + [_Q(b)]
        if r < k:
            row[n + r] = _ONE
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
            art = [_ONE if a == r else _ZERO for a in art_rows]
            rows[r] = row[:-1] + art + row[-1:]
        rows.append([_ZERO] * width + [_ONE] * len(art_rows) + [_ZERO])
        _bland_iterate(rows, basis, width + len(art_rows))
        if rows[-1][-1] != 0:
            raise LpError("infeasible linear program")
        rows.pop()
        # Drive remaining artificials out of the basis.  A row none can
        # leave reads 0 = 0 (a redundant equality): drop it, then drop the
        # artificial columns.
        for r, b in enumerate(basis):
            if b >= width:
                pc = next((j for j in range(width) if rows[r][j] != 0), None)
                if pc is not None:
                    _pivot(rows, r, pc)
                    basis[r] = pc
        rows = [row[:width] + [row[-1]]
                for row, b in zip(rows, basis) if b < width]
        basis = [b for b in basis if b < width]

    rows.append([-_Q(v) for v in c] + [_ZERO] * (k + 1))
    _bland_iterate(rows, basis, width)

    x = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = rows[r][-1]
    value = sum((_Q(ci) * xi for ci, xi in zip(c, x)), _ZERO)
    duals = [_fr(v) for v in rows[-1][n:width]]
    return [_fr(v) for v in x], _fr(value), duals


def maximize(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Maximize c'x over {x >= 0 : a_ub x <= b_ub, a_eq x = b_eq}."""
    return _simplex(c, a_ub, b_ub, a_eq, b_eq)[:2]


def payoffs(v1, v2, x, y):
    """Exact payoffs of the bimatrix profile (x, y), skipping zero weights.

    Returns (rows, cols, values): rows[i] = (v1 y)_i is row i's payoff
    against y, cols[j] = (x' v2)_j is column j's payoff against x, and
    values = (x' v1 y, x' v2 y).  Every row and column is scored, whatever
    its own weight, so max(rows) - values[0] and max(cols) - values[1] are
    the players' best pure-deviation improvements.  Every sum starts at
    Fraction(0), so no output is an int.
    """
    zero = Fraction(0)
    xs = [(i, w) for i, w in enumerate(x) if w != 0]
    ys = [(j, w) for j, w in enumerate(y) if w != 0]
    rows = [sum((row[j] * w for j, w in ys), zero) for row in v1]
    cols = [sum((v2[i][j] * w for i, w in xs), zero) for j in range(len(y))]
    values = (sum((w * rows[i] for i, w in xs), zero),
              sum((w * cols[j] for j, w in ys), zero))
    return rows, cols, values


def zero_sum_strategies(matrix):
    """Exact maximin solution of a zero-sum matrix game.

    matrix[i][j] is the row player's payoff.  Returns (x, y, value): the
    row strategy, the column strategy, and the game value, all exact.
    """
    m = len(matrix)
    n = len(matrix[0])
    lo = min(min(row) for row in matrix)
    shift = Fraction(1) - Fraction(lo) if lo < 1 else Fraction(0)
    shifted = [[Fraction(v) + shift for v in row] for row in matrix]
    # Column player: max 1'u  s.t.  B u <= 1; duals recover the row player.
    one = Fraction(1)
    u, total, duals = _simplex([one] * n, shifted, [one] * m)
    if total <= 0:
        raise LpError("degenerate shifted game")
    game_value = one / total
    y = [ui * game_value for ui in u]
    x = [di * game_value for di in duals]
    value = game_value - shift

    # Certify: exact feasibility and equal guarantees on both sides.
    if sum(x) != 1 or sum(y) != 1 or any(v < 0 for v in x) or any(v < 0 for v in y):
        raise LpError("zero-sum solve produced a non-distribution")
    rows, cols, _ = payoffs(matrix, matrix, x, y)
    if not max(rows) == value == min(cols):
        raise LpError("zero-sum solve failed its exactness certificate")
    return x, y, value


def solve_linear_system(a, b):
    """Solve a square system a x = b exactly; returns None when singular."""
    n = len(a)
    rows = [[_Q(v) for v in a[r]] + [_Q(b[r])] for r in range(n)]
    for col in range(n):
        pr = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pr is None:
            return None
        rows[col], rows[pr] = rows[pr], rows[col]
        _pivot(rows, col, col)
    return [_fr(rows[r][-1]) for r in range(n)]
