"""Exact equilibrium computation and certification for normal-form games.

Zero-sum games are solved by exact-rational linear programming; small
bimatrix games by support enumeration with exact feasibility checks.
Nash gaps and eps-equilibrium certificates are computed against exact
best-response oracles, and zero-sum strategy uniqueness is decided by
probing every coordinate of the optimal face.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import lp
from .adapters import as_adapter, as_support, profile_values
from .errors import EnumerationCapExceeded, NotZeroSum

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

    @property
    def impr1(self):
        return self.improvements[0]

    @property
    def impr2(self):
        return self.improvements[1]


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
    m, n = nfg.shape
    smax = min(max_support, m, n)
    total = sum(comb(m, s) * comb(n, s) for s in range(1, smax + 1))
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} support pairs exceed cap {cap}")
    out = []
    for s in range(1, smax + 1):
        for rows in combinations(range(m), s):
            for cols in combinations(range(n), s):
                eq = _support_candidate(nfg, rows, cols)
                if eq is not None:
                    out.append(eq)
    return out


def _support_candidate(nfg, rows, cols):
    s = len(rows)
    # Column mixture y and value v1: rows indifferent, weights sum to 1.
    a = [[nfg.v1[i][j] for j in cols] + [Fraction(-1)] for i in rows]
    a.append([Fraction(1)] * s + [Fraction(0)])
    b = [Fraction(0)] * s + [Fraction(1)]
    sol = lp.solve_linear_system(a, b)
    if sol is None:
        return None
    yj = sol[:s]
    if any(w <= 0 for w in yj):
        return None
    # Row mixture x and value v2: columns indifferent.
    a = [[nfg.v2[i][j] for i in rows] + [Fraction(-1)] for j in cols]
    a.append([Fraction(1)] * s + [Fraction(0)])
    sol = lp.solve_linear_system(a, b)
    if sol is None:
        return None
    xi = sol[:s]
    if any(w <= 0 for w in xi):
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
    v1, v2 = profile_values(ad, s1, s2)
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


def is_unique_zero_sum_equilibrium(nfg):
    """Decide whether each player's optimal-strategy polytope is a point.

    After the LP solve, for every strategy coordinate maximize it over the
    optimal face; the polytope is {x*} iff no coordinate can exceed its
    value at x*.  Returns a differing optimal strategy as witness when a
    probe escapes.
    """
    if not nfg.zero_sum:
        raise NotZeroSum("uniqueness test needs a zero-sum game")
    res = solve_zero_sum(nfg)
    m, n = nfg.shape
    value = res.value
    # Row player's optimal face: x in simplex with x' V1 >= value columnwise.
    a_ub = [[-nfg.v1[i][j] for i in range(m)] for j in range(n)]
    b_ub = [-value] * n
    a_eq = [[Fraction(1)] * m]
    b_eq = [Fraction(1)]
    for i in range(m):
        c = [Fraction(0)] * m
        c[i] = Fraction(1)
        probe, best = lp.maximize(c, a_ub, b_ub, a_eq, b_eq)
        if best > res.row_strategy[i]:
            return UniquenessCertificate(False, (1, tuple(probe)))
    # Column player's optimal face: V1 y <= value rowwise.
    a_ub = [[nfg.v1[i][j] for j in range(n)] for i in range(m)]
    b_ub = [value] * m
    a_eq = [[Fraction(1)] * n]
    b_eq = [Fraction(1)]
    for j in range(n):
        c = [Fraction(0)] * n
        c[j] = Fraction(1)
        probe, best = lp.maximize(c, a_ub, b_ub, a_eq, b_eq)
        if best > res.col_strategy[j]:
            return UniquenessCertificate(False, (2, tuple(probe)))
    return UniquenessCertificate(True, None)
