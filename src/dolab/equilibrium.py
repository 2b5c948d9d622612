"""Exact equilibrium computation and certification for normal-form games.

Zero-sum games are solved by exact-rational linear programming; small
bimatrix games by support enumeration with exact feasibility checks.
Nash gaps and eps-equilibrium certificates are computed against exact
best-response oracles.  Zero-sum strategy uniqueness is decided in closed
form from one optimal pair (is_unique_pair); the optimal face is probed
only to name a witness when the answer is "not unique".
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import lp
from .adapters import as_adapter, as_support
from .errors import EnumerationCapExceeded, LpError, NotZeroSum

DEFAULT_SUPPORT_CAP = 200_000


@dataclass(frozen=True)
class EquilibriumResult:
    """Strategy pair with exact values and per-player improvement bounds.

    certificate holds (impr1, impr2): how much each player could gain by
    deviating to a best pure strategy; exactly (0, 0) for an equilibrium.
    """

    row_strategy: tuple
    col_strategy: tuple
    values: tuple
    certificate: tuple

    @property
    def value(self):
        return self.values[0]


@dataclass(frozen=True)
class UniquenessCertificate:
    unique: bool
    witness: tuple = None  # (player, alternative optimal strategy)


@dataclass(frozen=True)
class GapReport:
    improvements: tuple
    gap: Fraction
    values: tuple


@dataclass(frozen=True)
class EquilibriumCheck:
    passed: bool
    eps: Fraction
    improvements: tuple
    values: tuple


def _certified(nfg, x, y):
    """EquilibriumResult for (x, y) with its exact pure-deviation certificate."""
    rows, cols, values = lp.payoffs(nfg.v1, nfg.v2, x, y)
    cert = (max(rows) - values[0], max(cols) - values[1])
    return EquilibriumResult(tuple(x), tuple(y), values, cert)


def solve_zero_sum(nfg):
    """Exact maximin/minimax strategies and value via rational LP."""
    if not nfg.zero_sum:
        raise NotZeroSum("solve_zero_sum needs a zero-sum game")
    x, y, _ = lp.zero_sum_strategies(nfg.v1)
    return _certified(nfg, x, y)


def enumerate_nash_bimatrix(nfg, max_support, cap=DEFAULT_SUPPORT_CAP):
    """All equilibria with square supports of size <= max_support.

    Support enumeration: for each candidate support pair solve the two
    indifference systems exactly, keep solutions that are strictly positive
    on their support and survive the best-response inequalities.  Singular
    (degenerate) systems are skipped, so the result enumerates the isolated
    equilibria of that support size.
    """
    return list(iter_nash_bimatrix(nfg, max_support, cap))


def iter_nash_bimatrix(nfg, max_support, cap=DEFAULT_SUPPORT_CAP):
    """enumerate_nash_bimatrix's equilibria, yielded lazily in the same
    order (support size, then row support, then column support).  The
    support-pair cap is checked when this is called, before any solve."""
    m, n = nfg.shape
    smax = min(max_support, m, n)
    total = sum(comb(m, s) * comb(n, s) for s in range(1, smax + 1))
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} support pairs exceed cap {cap}")
    candidates = (_support_candidate(nfg, rows, cols)
                  for s in range(1, smax + 1)
                  for rows in combinations(range(m), s)
                  for cols in combinations(range(n), s))
    return (eq for eq in candidates if eq is not None)


def _indifferent(sub):
    """Weights w on the columns of the square matrix sub that make every
    row indifferent (sub w = u 1, 1'w = 1), or None when this bordered
    system [[sub, -1], [1', 0]] is singular."""
    s = len(sub)
    a = [[*row, Fraction(-1)] for row in sub]
    a.append([Fraction(1)] * s + [Fraction(0)])
    sol = lp.solve_linear_system(a, [Fraction(0)] * s + [Fraction(1)])
    return None if sol is None else sol[:s]


def _support_candidate(nfg, rows, cols):
    # y makes the rows indifferent under v1, x the columns under v2.
    yj = _indifferent([[nfg.v1[i][j] for j in cols] for i in rows])
    if yj is None or any(w <= 0 for w in yj):
        return None
    xi = _indifferent([[nfg.v2[i][j] for i in rows] for j in cols])
    if xi is None or any(w <= 0 for w in xi):
        return None
    m, n = nfg.shape
    x = [Fraction(0)] * m
    y = [Fraction(0)] * n
    for k, i in enumerate(rows):
        x[i] = xi[k]
    for k, j in enumerate(cols):
        y[j] = yj[k]
    # Positive weights on indifferent supports make the profile values
    # equal v1 and v2, so a zero certificate is the best-response test.
    eq = _certified(nfg, x, y)
    return eq if eq.certificate == (0, 0) else None


def nash_gap(game, m1, m2):
    """Per-player best-response improvements and their sum (the Nash gap)."""
    ad = as_adapter(game)
    s1 = as_support(ad, 1, m1)
    s2 = as_support(ad, 2, m2)
    v1, v2 = ad.profile_values(s1, s2)
    b1 = ad.best_response(1, s2).value
    b2 = ad.best_response(2, s1).value
    return GapReport((b1 - v1, b2 - v2), (b1 - v1) + (b2 - v2), (v1, v2))


def verify_equilibrium(game, m1, m2, eps):
    """Per-player eps-equilibrium check: max improvement <= eps."""
    report = nash_gap(game, m1, m2)
    eps = Fraction(eps)
    return EquilibriumCheck(
        passed=max(report.improvements) <= eps,
        eps=eps,
        improvements=report.improvements,
        values=report.values,
    )


def is_unique_pair(v, x, y):
    """Whether (x, y), an optimal pair of the zero-sum matrix game v, is
    its only optimal pair (Shapley & Snow 1950).  With supports I and J,
    exactly when every row outside I earns less than the value against y
    and every column outside J concedes more than it against x (a unique
    pair is strictly complementary: Goldman & Tucker 1956), |I| = |J|, and
    the bordered kernel [[v_IJ, 1], [1', 0]] is nonsingular.
    """
    rows, cols, (value, _) = lp.payoffs(v, v, x, y)
    played = [i for i, w in enumerate(x) if w]
    used = [j for j, w in enumerate(y) if w]
    return (all(w or r < value for w, r in zip(x, rows))
            and all(w or c > value for w, c in zip(y, cols))
            and len(played) == len(used)
            and _indifferent([[v[i][j] for j in used] for i in played])
            is not None)


def _face_witness(matrix, value, base):
    """The first coordinate probe that finds a row strategy on the optimal
    face {x : x' matrix >= value} with more weight than base on that row,
    or None when the face is {base}.  Probe i maximizes x_i over the face
    scaled by [0, 1], {x >= 0 : x'(value - matrix) <= 0, 1'x <= 1}, whose
    points are s f with f optimal and 0 <= s <= 1: its optimum is the
    face's max f_i, and one above base[i] >= 0 has 1'x = 1, so is optimal.
    """
    m = len(matrix)
    a_ub = [[value - a for a in col] for col in zip(*matrix)] + [[1] * m]
    b_ub = [0] * (len(a_ub) - 1) + [1]
    for i in range(m):
        probe, best = lp.maximize([int(j == i) for j in range(m)], a_ub, b_ub)
        if best > base[i]:
            return tuple(probe)
    return None


def uniqueness_witness(v, x, y, value):
    """(player, differing optimal strategy) for the zero-sum matrix game v,
    given its optimal pair (x, y) and value when is_unique_pair says "not
    unique": player 1's optimal face is probed first, then player 2's as
    the row player of -v'."""
    neg_t = [[-a for a in col] for col in zip(*v)]
    for player, face in ((1, (v, value, x)), (2, (neg_t, -value, y))):
        probe = _face_witness(*face)
        if probe is not None:
            return player, probe
    raise LpError("uniqueness certificate says not unique, but no optimal "
                  "face probe found a second optimal strategy")


def is_unique_zero_sum_equilibrium(nfg):
    """Decide whether each player's optimal-strategy polytope is a point.

    Solves the game once and applies is_unique_pair.  Only if that says
    "not unique" are the optimal faces searched for a witness
    (uniqueness_witness).
    """
    if not nfg.zero_sum:
        raise NotZeroSum("uniqueness test needs a zero-sum game")
    x, y, value = lp.zero_sum_strategies(nfg.v1)
    if is_unique_pair(nfg.v1, x, y):
        return UniquenessCertificate(True, None)
    return UniquenessCertificate(False, uniqueness_witness(nfg.v1, x, y, value))
