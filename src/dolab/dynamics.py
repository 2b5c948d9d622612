"""Iterative game dynamics with pluggable initialization and tiebreaking.

The double oracle loop keeps one policy set per player, solves the induced
meta-game exactly, computes both best responses against the meta-Nash
profile, stops once the Nash gap (sum of the players' exact improvement
terms) is within eps, and otherwise adds both responses.  Variants share
the loop: alpha-double oracle gates additions by improvement, fictitious
play swaps the meta-Nash for the empirical average, best-response dynamics
responds to the opponent's previous pure policy.

Scripted ("adversarial") choices never bypass certification: a scripted
meta-Nash must have exact zero improvement for both players inside the
meta-game, and a scripted response must attain the exact best-response
value, otherwise the run aborts with a legality error.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import lp
from .adapters import as_adapter
from .equilibrium import (
    is_unique_pair,
    iter_nash_bimatrix,
    uniqueness_witness,
)
from .errors import (
    DolabError,
    IllegalScriptedBestResponse,
    IllegalScriptedMetaNash,
    MaxItersExceeded,
    ScriptedCandidateSuboptimal,
    UniquenessViolation,
)
from .posg import NormalFormGame
from .rationals import as_ints

META_MODES = ("lexicographic", "unique-or-fail", "scripted")
RESPONSE_MODES = ("lexicographic", "unique-or-fail", "seeded-random", "scripted")
INIT_MODES = ("given", "seeded-random-pure")


@dataclass(frozen=True)
class TiebreakPolicy:
    """How a run resolves the algorithm's unspecified choices."""

    meta_nash_mode: str = "lexicographic"
    best_response_mode: str = "lexicographic"
    init_mode: str = "given"
    seed: int = None
    schedule: object = None

    def __post_init__(self):
        if self.meta_nash_mode not in META_MODES:
            raise ValueError(f"unknown meta-Nash mode {self.meta_nash_mode!r}")
        if self.best_response_mode not in RESPONSE_MODES:
            raise ValueError(f"unknown response mode {self.best_response_mode!r}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init_mode!r}")
        if "scripted" in (self.meta_nash_mode, self.best_response_mode) \
                and self.schedule is None:
            raise ValueError("scripted modes need a schedule")
        if (self.best_response_mode == "seeded-random"
                or self.init_mode == "seeded-random-pure") and self.seed is None:
            raise ValueError("seeded modes need a seed")


class Schedule:
    """Per-iteration scripted choices; rule-based schedules override the
    hooks, explicit ones carry a finite entry list."""

    length = None

    def covers(self, t):
        return self.length is None or t <= self.length

    def meta_nash(self, t, state):
        """Scripted meta profile for iteration t as a pair of
        [(policy, weight)] lists, or None to fall back."""
        return None

    def response(self, t, player, opp_support, state):
        """Scripted response candidate, or None to fall back."""
        return None


class ExplicitSchedule(Schedule):
    """entries[t-1] is a dict with optional keys "meta_nash" (pair of
    [(policy, weight)] lists) and "responses" (pair, entries may be None).
    """

    def __init__(self, entries):
        self.entries = list(entries)
        self.length = len(self.entries)

    def meta_nash(self, t, state):
        if t > self.length:
            return None
        return self.entries[t - 1].get("meta_nash")

    def response(self, t, player, opp_support, state):
        if t > self.length:
            return None
        pair = self.entries[t - 1].get("responses")
        if pair is None:
            return None
        return pair[player - 1]


class LastAddedMetaNash(Schedule):
    """Scripts the pure profile of the most recently added policies.

    On the incrementing game from init (0, 0) this realizes the adversarial
    welfare-maximizing meta-Nash choice (t-1, t-1) every iteration.
    """

    def meta_nash(self, t, state):
        one = Fraction(1)
        return ([(state.sets[0][-1], one)], [(state.sets[1][-1], one)])


@dataclass
class IterationRecord:
    t: int
    set_sizes: tuple
    sets: tuple                 # (keys1, keys2) before additions
    meta_nash: tuple            # ([(key, w)], [(key, w)])
    meta_values: tuple          # full-game value pair of the meta profile
    responses: tuple            # (key1, key2)
    improvements: tuple
    gap: Fraction
    br_counts: tuple
    meta_unique: bool = None
    meta_mode: str = "lexicographic"
    responses_scripted: tuple = (False, False)
    added: tuple = (False, False)
    gated: tuple = (False, False)
    m_stat: int = None          # max key across both sets after additions


@dataclass
class RunTrace:
    algorithm: str
    config: dict
    iterations: list = field(default_factory=list)
    status: str = None
    iteration_count: int = 0
    final_gap: Fraction = None
    final_meta_nash: tuple = None
    final_sets: tuple = None


class MetaState:
    """Growing meta-game shared with schedules for rule-based choices.

    v1 and v2 hold the meta payoffs as int rows over one scale, the lcm of
    every entry's denominator: v1[i][j] / scale is player 1's payoff.
    """

    def __init__(self, adapter):
        self.adapter = adapter
        self.sets = ([], [])
        self.keys = ([], [])
        self.v1 = []
        self.v2 = []
        self.scale = 1

    def add(self, player, policy):
        key = self.adapter.policy_key(player, policy)
        i = player - 1
        if key in self.keys[i]:
            return False
        self.sets[i].append(policy)
        self.keys[i].append(key)
        if player == 1:
            pairs = [self.adapter.evaluate(policy, q) for q in self.sets[1]]
        else:
            pairs = [self.adapter.evaluate(p, policy) for p in self.sets[0]]
        ints = self._scaled([v for pair in pairs for v in pair])
        if player == 1:
            self.v1.append(ints[0::2])
            self.v2.append(ints[1::2])
        else:
            for r, (a, b) in enumerate(zip(ints[0::2], ints[1::2])):
                self.v1[r].append(a)
                self.v2[r].append(b)
        return True

    def _scaled(self, values):
        """values as ints over self.scale, raising the scale (and
        rescaling the stored rows) when a denominator does not divide it."""
        ints, den = as_ints(values)
        scale = self.scale
        if scale % den:
            new = scale // gcd(scale, den) * den
            factor = new // scale
            for rows in (self.v1, self.v2):
                rows[:] = [[v * factor for v in row] for row in rows]
            self.scale = scale = new
        if scale != den:
            factor = scale // den
            ints = [v * factor for v in ints]
        return ints

    def value(self, v):
        """v, a payoff on the int rows' scale (an int, or a Fraction such
        as a solved value), as a Fraction on the game's own scale."""
        return Fraction(v, self.scale)

    def meta_nfg(self):
        """The meta-game as a NormalFormGame of ints over scale."""
        return NormalFormGame(tuple([tuple(row) for row in self.v1]),
                              tuple([tuple(row) for row in self.v2]),
                              self.adapter.zero_sum)

    def support(self, player, weights):
        return [(self.sets[player - 1][i], w)
                for i, w in enumerate(weights) if w != 0]

    def key_vector(self, player, weights):
        return tuple([(self.keys[player - 1][i], w)
                      for i, w in enumerate(weights) if w != 0])


def _scripted_vector(state, player, pairs, t):
    weights = [Fraction(0)] * len(state.sets[player - 1])
    for policy, w in pairs:
        key = state.adapter.policy_key(player, policy)
        try:
            idx = state.keys[player - 1].index(key)
        except ValueError:
            raise IllegalScriptedMetaNash(
                f"iteration {t}: scripted profile uses policy {key} "
                f"outside player {player}'s meta set") from None
        weights[idx] += Fraction(w)
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise IllegalScriptedMetaNash(
            f"iteration {t}: scripted weights are not a distribution")
    return weights


def _solve_meta(state, tiebreak, t):
    """Meta-Nash profile as weight vectors, with its exact meta values;
    returns (x, y, values, unique, mode).  Each profile is certified once:
    the LP and support enumeration certify their own solutions, and the
    payoffs call that values a scripted profile certifies it.
    """
    mode = tiebreak.meta_nash_mode
    if mode == "scripted":
        scripted = tiebreak.schedule.meta_nash(t, state)
        if scripted is not None:
            x = _scripted_vector(state, 1, scripted[0], t)
            y = _scripted_vector(state, 2, scripted[1], t)
            rows, cols, values = lp.payoffs(state.v1, state.v2, x, y)
            if max(rows) != values[0] or max(cols) != values[1]:
                raise IllegalScriptedMetaNash(
                    f"iteration {t}: scripted profile has meta improvements "
                    f"({state.value(max(rows) - values[0])}, "
                    f"{state.value(max(cols) - values[1])})")
            values = (state.value(values[0]), state.value(values[1]))
            return x, y, values, None, "scripted-certified"
        mode = "lexicographic"
    if not state.adapter.zero_sum:
        if mode == "unique-or-fail":
            raise ValueError("unique-or-fail meta-Nash needs a zero-sum game")
        nfg = state.meta_nfg()
        eq = next(iter_nash_bimatrix(nfg, max_support=min(nfg.shape)), None)
        if eq is None:
            raise DolabError("support enumeration found no meta equilibrium")
        values = (state.value(eq.values[0]), state.value(eq.values[1]))
        return (list(eq.row_strategy), list(eq.col_strategy), values,
                None, "enumerated")
    x, y, value = lp.zero_sum_strategies(state.v1)
    unique = None
    if mode == "unique-or-fail":
        if not is_unique_pair(state.v1, x, y):
            player, _ = uniqueness_witness(state.v1, x, y, value)
            raise UniquenessViolation(
                f"iteration {t}: meta-Nash strategies are not unique "
                f"(witness for player {player})")
        unique = True
    value = state.value(value)
    return x, y, (value, -value), unique, mode  # zero-sum: v2 == -v1


def _respond(state, player, opp_support, tiebreak, t):
    """Best response per the tiebreak mode; returns (result, scripted?)."""
    mode = tiebreak.best_response_mode
    if mode == "scripted":
        cand = tiebreak.schedule.response(t, player, opp_support, state)
        if cand is not None:
            try:
                res = state.adapter.best_response(
                    player, opp_support, "scripted", candidate=cand)
            except ScriptedCandidateSuboptimal as err:
                raise IllegalScriptedBestResponse(
                    f"iteration {t}, player {player}: {err}") from None
            return res, True
        mode = "lexicographic"
    if mode == "unique-or-fail":
        res = state.adapter.best_response(player, opp_support, "lexicographic")
        if res.count != 1:
            raise UniquenessViolation(
                f"iteration {t}: player {player} has {res.count} best responses")
        return res, False
    if mode == "seeded-random":
        res = state.adapter.best_response(
            player, opp_support, "seeded-random",
            seed=f"{tiebreak.seed}:{t}:{player}")
        return res, False
    return state.adapter.best_response(player, opp_support, "lexicographic"), False


def _initial_policies(adapter, tiebreak, init):
    if init is not None:
        return init
    if tiebreak.init_mode != "seeded-random-pure":
        raise ValueError("init policies required unless init_mode is seeded")
    rng = random.Random(f"init:{tiebreak.seed}")
    return (adapter.random_policy(1, rng), adapter.random_policy(2, rng))


def _default_max_iters(adapter):
    return 4 * max(adapter.policy_count(1), adapter.policy_count(2))


def run_double_oracle(game, eps, tiebreak, max_iters=None, init=None):
    """The double oracle loop; returns a certified RunTrace.

    Policy sets start as singletons; every iteration solves the meta-game
    exactly and both players' responses are computed against the same
    meta-Nash profile and added together.
    """
    return _oracle_loop(game, eps, tiebreak, max_iters, init,
                        alpha=None, algorithm="do")


def run_alpha_double_oracle(game, eps, alpha, tiebreak, max_iters=None,
                            init=None):
    """Double oracle variant gating each addition on improvement >= alpha;
    halts as stalled when neither response clears the gate."""
    alpha = Fraction(alpha)
    eps = Fraction(eps)
    if not (eps >= alpha > 0):
        raise ValueError("alpha-double oracle needs eps >= alpha > 0")
    return _oracle_loop(game, eps, tiebreak, max_iters, init,
                        alpha=alpha, algorithm="alpha-do")


def _oracle_loop(game, eps, tiebreak, max_iters, init, alpha, algorithm):
    adapter = as_adapter(game)
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    p0 = _initial_policies(adapter, tiebreak, init)
    state = MetaState(adapter)
    state.add(1, p0[0])
    state.add(2, p0[1])
    if max_iters is None:
        max_iters = _default_max_iters(adapter)
    trace = RunTrace(algorithm=algorithm, config={
        "algorithm": algorithm,
        "eps": eps,
        "alpha": alpha,
        "meta_nash_mode": tiebreak.meta_nash_mode,
        "best_response_mode": tiebreak.best_response_mode,
        "init_mode": tiebreak.init_mode,
        "seed": tiebreak.seed,
        "max_iters": max_iters,
        "init_keys": (adapter.policy_key(1, p0[0]), adapter.policy_key(2, p0[1])),
    })
    uses_schedule = tiebreak.schedule is not None and \
        "scripted" in (tiebreak.meta_nash_mode, tiebreak.best_response_mode)

    t = 0
    while True:
        t += 1
        if t > max_iters:
            raise MaxItersExceeded(
                f"{algorithm} did not terminate within {max_iters} iterations")
        if uses_schedule and not tiebreak.schedule.covers(t):
            trace.status = "schedule_exhausted"
            break
        x, y, mv, meta_unique, meta_mode = _solve_meta(state, tiebreak, t)
        supp1 = state.support(1, x)
        supp2 = state.support(2, y)
        r1, scripted1 = _respond(state, 1, supp2, tiebreak, t)
        r2, scripted2 = _respond(state, 2, supp1, tiebreak, t)
        impr = (r1.value - mv[0], r2.value - mv[1])
        gap = impr[0] + impr[1]
        record = IterationRecord(
            t=t,
            set_sizes=(len(state.sets[0]), len(state.sets[1])),
            sets=(tuple(state.keys[0]), tuple(state.keys[1])),
            meta_nash=(state.key_vector(1, x), state.key_vector(2, y)),
            meta_values=mv,
            responses=(adapter.policy_key(1, r1.witness),
                       adapter.policy_key(2, r2.witness)),
            improvements=impr,
            gap=gap,
            br_counts=(r1.count, r2.count),
            meta_unique=meta_unique,
            meta_mode=meta_mode,
            responses_scripted=(scripted1, scripted2),
        )
        trace.iterations.append(record)
        if gap <= eps:
            record.m_stat = _m_stat(state)
            trace.status = "converged"
            trace.final_meta_nash = record.meta_nash
            break
        added = [False, False]
        gated = [False, False]
        blocked = False
        for player, res, scripted in ((1, r1, scripted1), (2, r2, scripted2)):
            if alpha is not None and impr[player - 1] < alpha:
                gated[player - 1] = True
                if scripted:
                    blocked = True
                continue
            added[player - 1] = state.add(player, res.witness)
        record.added = tuple(added)
        record.gated = tuple(gated)
        record.m_stat = _m_stat(state)
        if blocked:
            trace.status = "schedule_blocked"
            break
        if alpha is not None and not any(added):
            trace.status = "stalled"
            break
        if alpha is None and not any(added):
            raise DolabError(
                f"iteration {t}: gap {gap} > eps but no policy was added")
    trace.iteration_count = sum(1 for r in trace.iterations if any(r.added))
    last = trace.iterations[-1] if trace.iterations else None
    trace.final_gap = last.gap if last else None
    if trace.final_meta_nash is None and last is not None:
        trace.final_meta_nash = last.meta_nash
    trace.final_sets = (tuple(state.keys[0]), tuple(state.keys[1]))
    return trace


def _m_stat(state):
    return max(max(state.keys[0]), max(state.keys[1]))


@dataclass
class FpRound:
    t: int
    responses: tuple
    exploitability: Fraction
    averages: tuple  # ([(key, w)], [(key, w)])


@dataclass
class FpTrace:
    algorithm: str
    config: dict
    rounds: list = field(default_factory=list)
    first_zero_round: int = None
    final_averages: tuple = None


def run_fictitious_play(game, rounds, tiebreak, init=None):
    """Simultaneous fictitious play: each round both players best-respond
    to the uniform average of the opponent's past pure policies."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    adapter = as_adapter(game)
    p0 = _initial_policies(adapter, tiebreak, init)
    if tiebreak.best_response_mode not in ("lexicographic", "seeded-random"):
        raise ValueError("fictitious play supports lexicographic or "
                         "seeded-random tiebreaking")
    state = MetaState(adapter)  # _respond reads the adapter from it
    plays = ([p0[0]], [p0[1]])
    keys = ([adapter.policy_key(1, p0[0])], [adapter.policy_key(2, p0[1])])
    trace = FpTrace(algorithm="fp", config={
        "algorithm": "fp",
        "rounds": rounds,
        "best_response_mode": tiebreak.best_response_mode,
        "seed": tiebreak.seed,
        "init_keys": (keys[0][0], keys[1][0]),
    })
    for t in range(1, rounds + 1):
        avgs = []
        for i in (0, 1):
            acc = {}
            for pol, key in zip(plays[i], keys[i]):
                acc[key] = (pol, acc.get(key, (pol, 0))[1] + 1)
            avgs.append([(pol, Fraction(cnt, t)) for pol, cnt in acc.values()])
        r1, _ = _respond(state, 1, avgs[1], tiebreak, t)
        r2, _ = _respond(state, 2, avgs[0], tiebreak, t)
        v1, v2 = adapter.profile_values(avgs[0], avgs[1])
        expl = (r1.value - v1) + (r2.value - v2)
        key_avgs = (
            tuple(sorted((adapter.policy_key(1, p), w) for p, w in avgs[0])),
            tuple(sorted((adapter.policy_key(2, p), w) for p, w in avgs[1])),
        )
        trace.rounds.append(FpRound(
            t=t,
            responses=(adapter.policy_key(1, r1.witness),
                       adapter.policy_key(2, r2.witness)),
            exploitability=expl,
            averages=key_avgs,
        ))
        if expl == 0 and trace.first_zero_round is None:
            trace.first_zero_round = t
        plays[0].append(r1.witness)
        plays[1].append(r2.witness)
        keys[0].append(adapter.policy_key(1, r1.witness))
        keys[1].append(adapter.policy_key(2, r2.witness))
        trace.final_averages = key_avgs
    return trace


@dataclass
class BrdRound:
    t: int
    profile: tuple


@dataclass
class BrdTrace:
    algorithm: str
    config: dict
    rounds: list = field(default_factory=list)
    status: str = "exhausted"
    cycle: tuple = None  # (start round, length)


def run_best_response_dynamics(game, rounds, tiebreak, init=None):
    """Pure best-response iteration against the opponent's previous policy;
    detects convergence to a pure equilibrium and profile cycles."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    adapter = as_adapter(game)
    p0 = _initial_policies(adapter, tiebreak, init)
    state = MetaState(adapter)  # gives schedules the same view as DO runs
    current = p0
    cur_keys = (adapter.policy_key(1, p0[0]), adapter.policy_key(2, p0[1]))
    seen = {cur_keys: 0}
    trace = BrdTrace(algorithm="brd", config={
        "algorithm": "brd",
        "rounds": rounds,
        "best_response_mode": tiebreak.best_response_mode,
        "seed": tiebreak.seed,
        "init_keys": cur_keys,
    })
    one = Fraction(1)
    for t in range(1, rounds + 1):
        r1, _ = _respond(state, 1, [(current[1], one)], tiebreak, t)
        r2, _ = _respond(state, 2, [(current[0], one)], tiebreak, t)
        new = (r1.witness, r2.witness)
        new_keys = (adapter.policy_key(1, new[0]), adapter.policy_key(2, new[1]))
        trace.rounds.append(BrdRound(t=t, profile=new_keys))
        if new_keys == cur_keys:
            trace.status = "converged"
            break
        if new_keys in seen:
            trace.status = "cycle"
            trace.cycle = (seen[new_keys], t - seen[new_keys])
            break
        seen[new_keys] = t
        current = new
        cur_keys = new_keys
    return trace
