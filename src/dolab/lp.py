"""Exact-rational linear programming.

Dense tableau simplex with Bland's anti-cycling pivot rule, so every
solve is deterministic and exact.  Two entry points:

  * zero_sum_strategies: one shifted primal solve per game, strategies for
    both players read from the final tableau (primal solution + duals).
  * maximize: small general-purpose two-phase solver; it probes the
    optimal face for a witness once uniqueness has been refuted.

The kernel runs on gmpy2.mpq when available (same exact rational
semantics, much faster) and falls back to fractions.Fraction; inputs and
outputs are always Fractions.  A separate exact Gaussian elimination
(solve_linear_system) backs support enumeration and the uniqueness
kernel check, and payoffs is the one place that computes a bimatrix
profile's values and every pure strategy's payoff against it (the
meta-Nash, equilibrium and uniqueness certificates).
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
    """Run simplex to optimality on a feasible tableau (objective row last).

    Minimization convention: optimal when every reduced cost is >= 0.
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


def solve_max_leq(c, a_ub, b_ub):
    """Maximize c'x subject to a_ub x <= b_ub, x >= 0, with b_ub >= 0.

    Returns (x, value, duals) where duals are the exact dual multipliers
    of the <= constraints.  The nonnegative rhs makes the slack basis
    feasible, so no phase-1 is needed.
    """
    m, n = len(a_ub), len(c)
    if any(b < 0 for b in b_ub):
        raise LpError("solve_max_leq requires b >= 0")
    rows = []
    for i in range(m):
        row = [_Q(v) for v in a_ub[i]]
        row += [_ONE if j == i else _ZERO for j in range(m)]
        row.append(_Q(b_ub[i]))
        rows.append(row)
    objrow = [-_Q(v) for v in c] + [_ZERO] * m + [_ZERO]
    rows.append(objrow)
    basis = [n + i for i in range(m)]
    _bland_iterate(rows, basis, n + m)
    x = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = rows[r][-1]
    value = sum((_Q(ci) * xi for ci, xi in zip(c, x)), _ZERO)
    duals = [_fr(rows[-1][n + i]) for i in range(m)]
    return [_fr(v) for v in x], _fr(value), duals


def _two_phase(c, a_ub, b_ub, a_eq, b_eq):
    """Minimize c'x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0."""
    n, k = len(c), len(a_ub)
    width = n + k
    # Columns: n structural, one slack per inequality, then an artificial
    # for each equality and each row whose rhs is negative.  Such rows are
    # negated to a nonnegative rhs.  The initial basis, in row order, is
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
    m = len(rows)
    total = width + len(art_rows)
    for r in range(m):
        art = [_ONE if a == r else _ZERO for a in art_rows]
        rows[r] = rows[r][:-1] + art + rows[r][-1:]

    if art_rows:
        rows.append([_ZERO] * width + [_ONE] * len(art_rows) + [_ZERO])
        # Price out basic artificials.
        for r, b in enumerate(basis):
            if b >= width:
                rows[-1] = [v - p for v, p in zip(rows[-1], rows[r])]
        _bland_iterate(rows, basis, total)
        if rows[-1][-1] != 0:
            raise LpError("infeasible linear program")
        rows.pop()
        # Drive remaining artificials out of the basis.  A row none can
        # leave reads 0 = 0 (a redundant equality): drop it, then drop the
        # artificial columns.
        for r in range(m):
            if basis[r] >= width:
                pc = next((j for j in range(width) if rows[r][j] != 0), None)
                if pc is not None:
                    _pivot(rows, r, pc)
                    basis[r] = pc
        rows = [row[:width] + [row[-1]]
                for row, b in zip(rows, basis) if b < width]
        basis = [b for b in basis if b < width]
        total = width

    obj = [_Q(v) for v in c] + [_ZERO] * (total - n) + [_ZERO]
    rows.append(obj)
    for r, b in enumerate(basis):
        if rows[-1][b] != 0:
            factor = rows[-1][b]
            rows[-1] = [v - factor * p for v, p in zip(rows[-1], rows[r])]
    _bland_iterate(rows, basis, total)

    x = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = rows[r][-1]
    value = sum((_Q(ci) * xi for ci, xi in zip(c, x)), _ZERO)
    return [_fr(v) for v in x], _fr(value)


def maximize(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Maximize c'x over {x >= 0 : a_ub x <= b_ub, a_eq x = b_eq}."""
    x, value = _two_phase([-Fraction(v) for v in c], a_ub, b_ub, a_eq, b_eq)
    return x, -value


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
    u, total, duals = solve_max_leq([one] * n, shifted, [one] * m)
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
        inv = _ONE / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[col])]
    return [_fr(rows[r][-1]) for r in range(n)]
