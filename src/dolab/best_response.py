"""Exact best responses against mixed opponent policies.

The solver walks the responding player's information tree: nodes are the
player's observation sequences, and each node carries the exact joint
distribution over (state, opponent observation sequence, opponent support
index) that is consistent with the actions chosen at the node's prefixes.
Own past actions never key a node; they are marginalized into the carried
distribution, matching policies that see only observations.

All optimal actions are retained per node with their counts, so the
oracle reports the exact number of pure best responses (subtrees that
become unreachable contribute a free factor of |A|^nodes).  One walk over
the nodes in domain order reads every policy out of the DP: it picks the
lexicographic witness, draws a uniform one from the memoized counts, or
follows a candidate's own actions to score it exactly on the DP's scale,
which certifies scripted candidates and decides is_best_response.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate

from .errors import (
    DomainMismatch,
    EnumerationCapExceeded,
    ScriptedCandidateSuboptimal,
)
from .posg import PurePolicy, check_policy, indexed_domain
from .rationals import as_ints

DEFAULT_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class BestResponseResult:
    """Best-response value, one witness policy, and the exact count of
    pure policies attaining the value."""

    value: Fraction
    witness: PurePolicy
    count: int


class _Solver:
    """The information-tree DP on the game's int tables.

    Nodes are own domain indices; contexts are sorted ((state, opponent
    domain index, support index), int mass) tuples with masses over
    lcm(opponent weight denominators) * den ** len(sequence).  Every value
    is an int over one common scale, so values compare exactly.
    """

    def __init__(self, g, player, opp):
        if opp.player == player:
            raise DomainMismatch("opponent mixture is for the wrong player")
        for pol, _ in opp.support:
            check_policy(g, pol, opp.player)
        self.pi = player - 1
        self.n_actions = g.action_counts[self.pi]
        self.n2 = g.action_counts[1]
        ints = g.ints
        self.trans = ints.trans
        self.rewards = ints.rewards
        own = indexed_domain(g, player)
        other = indexed_domain(g, 3 - player)
        self.domain = own.seqs
        self.child = own.child
        self.children = own.children
        self.lift = own.lift
        self.opp_child = other.child
        self.free_factor = [self.n_actions ** n for n in own.sizes]
        self.memo = {}
        self.cap = DEFAULT_NODE_CAP
        self.opp_actions = [pol.actions for pol, _ in opp.support]
        weights, wden = as_ints([w for _, w in opp.support])
        self.scale = wden * ints.scale

        my_obs = g.obs[self.pi]
        opp_obs = g.obs[1 - self.pi]
        self.my_obs = my_obs
        self.opp_obs = opp_obs

        init = {}
        start_reward = 0
        for s, p in ints.start:
            r = self.rewards[s]
            if r is not None:
                start_reward += p * r[self.pi]
                continue
            mi = own.roots[my_obs[s]]
            oi = other.roots[opp_obs[s]]
            node = init.setdefault(mi, {})
            for m, w in enumerate(weights):
                key = (s, oi, m)
                node[key] = node.get(key, 0) + p * w
        self.root_contexts = {i: _freeze(ctx) for i, ctx in init.items()}
        self.start_reward = start_reward * wden * ints.den ** g.depth

    def push(self, i, contexts, action):
        """Terminal reward and child contexts of taking `action` at node i."""
        trans = self.trans
        rewards = self.rewards
        pi = self.pi
        n2 = self.n2
        child = self.child[i]
        opp_child = self.opp_child
        opp_actions = self.opp_actions
        my_obs = self.my_obs
        opp_obs = self.opp_obs
        reward = 0
        kids = {}
        for (s, oi, m), w in contexts:
            a_opp = opp_actions[m][oi]
            if pi == 0:
                dist = trans[s][action * n2 + a_opp]
            else:
                dist = trans[s][a_opp * n2 + action]
            for sp, q in dist:
                wq = w * q
                r = rewards[sp]
                if r is not None:
                    reward += wq * r[pi]
                else:
                    c = child[my_obs[sp]]
                    ckey = (sp, opp_child[oi][opp_obs[sp]], m)
                    node = kids.get(c)
                    if node is None:
                        kids[c] = {ckey: wq}
                    else:
                        node[ckey] = node.get(ckey, 0) + wq
        return reward * self.lift[i], {c: _freeze(ctx)
                                       for c, ctx in kids.items()}

    def solve(self, i, contexts):
        """(value, optimal actions, their counts, total count) at a node."""
        key = (i, contexts)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if len(self.memo) > self.cap:
            raise EnumerationCapExceeded("best-response tree exceeds the node cap")
        values = []
        counts = []
        for a in range(self.n_actions):
            reward, kids = self.push(i, contexts, a)
            value = reward
            count = 1
            for c, cctx in kids.items():
                cval, _, _, ccount = self.solve(c, cctx)
                value += cval
                count *= ccount
            for c in self.children[i]:
                if c not in kids:
                    count *= self.free_factor[c]
            values.append(value)
            counts.append(count)
        best = max(values)
        opt = tuple([a for a in range(self.n_actions) if values[a] == best])
        opt_counts = tuple([counts[a] for a in opt])
        out = (best, opt, opt_counts, sum(opt_counts))
        self.memo[key] = out
        return out

    def value_and_count(self):
        """The best-response value (an int over self.scale) and count."""
        value = self.start_reward
        count = 1
        for i, seq in enumerate(self.domain):
            if len(seq) > 1:
                continue
            ctx = self.root_contexts.get(i)
            if ctx is None:
                count *= self.free_factor[i]
            else:
                v, _, _, c = self.solve(i, ctx)
                value += v
                count *= c
        return value, count

    def walk(self, choose):
        """One pass over the domain, prefixes before extensions: the action
        at node i is choose(i, ctx), where ctx is the node's context under
        the actions already chosen, or None when they never reach it.
        Only the chosen action is pushed.  Returns the actions and their
        exact value as an int over self.scale."""
        actions = []
        value = self.start_reward
        reached = dict(self.root_contexts)
        for i in range(len(self.domain)):
            ctx = reached.get(i)
            a = choose(i, ctx)
            actions.append(a)
            if ctx is not None:
                reward, kids = self.push(i, ctx, a)
                value += reward
                reached.update(kids)
        return tuple(actions), value


def _freeze(ctx):
    items = list(ctx.items())
    items.sort()
    return tuple(items)


def best_response(g, player, opp, select="lexicographic", seed=None,
                  candidate=None):
    """Optimal value, witness, and count against a mixed opponent policy.

    select: "lexicographic" (canonically smallest optimal policy),
    "seeded-random" (exactly uniform over the optimal set via counting),
    or "scripted" (certify `candidate` attains the optimum and return it).
    """
    solver = _Solver(g, player, opp)
    value, count = solver.value_and_count()
    best = Fraction(value, solver.scale)
    if select == "scripted":
        if candidate is None:
            raise ScriptedCandidateSuboptimal("no scripted candidate supplied")
        check_policy(g, candidate, player)
        got = solver.walk(lambda i, ctx: candidate.actions[i])[1]
        if got != value:
            raise ScriptedCandidateSuboptimal(
                f"scripted candidate scores {Fraction(got, solver.scale)}, "
                f"best response scores {best}")
        return BestResponseResult(best, candidate, count)
    if select == "seeded-random":
        choose = partial(_draw, solver, random.Random(seed))
    elif select == "lexicographic":
        def choose(i, ctx):
            return 0 if ctx is None else solver.solve(i, ctx)[1][0]
    else:
        raise ValueError(f"unknown best-response selection mode {select!r}")
    witness = PurePolicy(player, solver.domain, solver.walk(choose)[0])
    return BestResponseResult(best, witness, count)


def _draw(solver, rng, i, ctx):
    """Uniform over the optimal policies, one node at a time: an optimal
    action with probability proportional to its count, any action at a
    node the walk does not reach."""
    if ctx is None:
        return rng.randrange(solver.n_actions)
    _, opt, counts, total = solver.solve(i, ctx)
    return opt[bisect_right(list(accumulate(counts)), rng.randrange(total))]


def count_best_responses(g, player, opp):
    """Exact number of pure best responses to the opponent mixture."""
    solver = _Solver(g, player, opp)
    return solver.value_and_count()[1]


def is_best_response(g, player, candidate, opp):
    """True iff the candidate attains the best-response value exactly."""
    check_policy(g, candidate, player)
    for pol, _ in opp.support:
        check_policy(g, pol, 3 - player)
    solver = _Solver(g, player, opp)
    got = solver.walk(lambda i, ctx: candidate.actions[i])[1]
    return got == solver.value_and_count()[0]
