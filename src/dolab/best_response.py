"""Exact best responses against mixed opponent policies.

The solver walks the responding player's information tree: nodes are the
player's observation sequences, and each node carries the exact joint
distribution over (state, opponent observation sequence, opponent support
index) that is consistent with the actions chosen at the node's prefixes.
Own past actions never key a node; they are marginalized into the carried
distribution, matching policies that see only observations.

All optimal actions are retained per node, so the oracle reports the exact
number of pure best responses (subtrees that become unreachable contribute
a free factor of |A|^nodes) and can sample uniformly among them by integer
counting.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DomainMismatch,
    EnumerationCapExceeded,
    ScriptedCandidateSuboptimal,
)
from .posg import (
    PurePolicy,
    check_policy,
    delta,
    domain_tree,
    evaluate_mixed,
    reachable_observation_sequences,
)

DEFAULT_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class BestResponseResult:
    """Best-response value, one witness policy, and the exact count of
    pure policies attaining the value."""

    value: Fraction
    witness: PurePolicy
    count: int


class _Solver:
    def __init__(self, g, player, opp, cap=DEFAULT_NODE_CAP):
        if opp.player == player:
            raise DomainMismatch("opponent mixture is for the wrong player")
        for pol, _ in opp.support:
            check_policy(g, pol, opp.player)
        self.g = g
        self.player = player
        self.pi = player - 1
        self.oi = 1 - self.pi
        self.n_actions = g.action_counts[self.pi]
        self.opp_actions = [pol.as_mapping() for pol, _ in opp.support]
        self.domain = reachable_observation_sequences(g, player)
        roots, children, sizes = domain_tree(g, player)
        self.roots = roots
        self.children = children
        self.free_factor = {seq: self.n_actions ** sizes[seq] for seq in sizes}
        self.memo = {}
        self.cap = cap
        self.opp_weights = [w for _, w in opp.support]

        my_obs = g.obs[self.pi]
        opp_obs = g.obs[self.oi]
        self.my_obs = my_obs
        self.opp_obs = opp_obs

        init = {}
        for s, p in g.start:
            if g.is_terminal(s):
                continue
            mseq = (my_obs[s],)
            oseq = (opp_obs[s],)
            for m, w in enumerate(self.opp_weights):
                if w == 0:
                    continue
                key = (s, oseq, m)
                node = init.setdefault(mseq, {})
                node[key] = node.get(key, Fraction(0)) + p * w
        self.root_contexts = {seq: _freeze(ctx) for seq, ctx in init.items()}
        self.start_reward = sum(
            (p * g.rewards[s][self.pi] for s, p in g.start if g.is_terminal(s)),
            Fraction(0),
        )

    def push(self, seq, contexts, action):
        """Terminal reward and child contexts of taking `action` at `seq`."""
        g = self.g
        reward = Fraction(0)
        kids = {}
        for (s, oseq, m), w in contexts:
            a_opp = self.opp_actions[m][oseq]
            if self.pi == 0:
                dist = g.transition(s, action, a_opp)
            else:
                dist = g.transition(s, a_opp, action)
            for sp, q in dist:
                wq = w * q
                if g.is_terminal(sp):
                    reward += wq * g.rewards[sp][self.pi]
                else:
                    cseq = seq + (self.my_obs[sp],)
                    ckey = (sp, oseq + (self.opp_obs[sp],), m)
                    node = kids.setdefault(cseq, {})
                    node[ckey] = node.get(ckey, Fraction(0)) + wq
        return reward, {cseq: _freeze(ctx) for cseq, ctx in kids.items()}

    def solve(self, seq, contexts):
        """(value, per-action values, optimal actions, count) at a node."""
        key = (seq, contexts)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if len(self.memo) > self.cap:
            raise EnumerationCapExceeded("best-response tree exceeds the node cap")
        values = []
        counts = []
        for a in range(self.n_actions):
            reward, kids = self.push(seq, contexts, a)
            value = reward
            count = 1
            for cseq, cctx in kids.items():
                cval, _, _, ccount = self.solve(cseq, cctx)
                value += cval
                count *= ccount
            for cseq in self.children[seq]:
                if cseq not in kids:
                    count *= self.free_factor[cseq]
            values.append(value)
            counts.append(count)
        best = max(values)
        opt = [a for a in range(self.n_actions) if values[a] == best]
        total = sum(counts[a] for a in opt)
        out = (best, tuple(values), tuple(opt), total)
        self.memo[key] = out
        return out

    def value_and_count(self):
        value = self.start_reward
        count = 1
        for seq in self.roots:
            v, _, _, c = self.solve(seq, self.root_contexts[seq])
            value += v
            count *= c
        for seq in self.domain:
            if len(seq) == 1 and seq not in self.root_contexts:
                count *= self.free_factor[seq]
        return value, count

    def select(self, mode, rng):
        """Assign an action to every domain node: optimal choices at
        reached nodes, mode-dependent fill elsewhere."""
        assignment = {}
        reached = dict(self.root_contexts)
        for seq in self.domain:  # sorted order; prefixes precede extensions
            ctx = reached.get(seq)
            if ctx is None:
                if mode == "seeded-random":
                    assignment[seq] = rng.randrange(self.n_actions)
                else:
                    assignment[seq] = 0
                continue
            _, values, opt, _ = self.solve(seq, ctx)
            if mode == "seeded-random":
                weights = []
                for a in opt:
                    _, kids = self.push(seq, ctx, a)
                    w = 1
                    for cseq, cctx in kids.items():
                        w *= self.solve(cseq, cctx)[3]
                    for cseq in self.children[seq]:
                        if cseq not in kids:
                            w *= self.free_factor[cseq]
                    weights.append(w)
                r = rng.randrange(sum(weights))
                for a, w in zip(opt, weights):
                    if r < w:
                        chosen = a
                        break
                    r -= w
            else:
                chosen = opt[0]
            assignment[seq] = chosen
            _, kids = self.push(seq, ctx, chosen)
            reached.update(kids)
        actions = tuple(assignment[seq] for seq in self.domain)
        return PurePolicy(self.player, self.domain, actions)


def _freeze(ctx):
    return tuple(sorted(ctx.items()))


def best_response(g, player, opp, select="lexicographic", seed=None,
                  candidate=None, cap=DEFAULT_NODE_CAP):
    """Optimal value, witness, and count against a mixed opponent policy.

    select: "lexicographic" (canonically smallest optimal policy),
    "seeded-random" (exactly uniform over the optimal set via counting),
    or "scripted" (certify `candidate` attains the optimum and return it).
    """
    solver = _Solver(g, player, opp, cap=cap)
    value, count = solver.value_and_count()
    if select == "scripted":
        if candidate is None:
            raise ScriptedCandidateSuboptimal("no scripted candidate supplied")
        check_policy(g, candidate, player)
        got = _value_against(g, player, candidate, opp)
        if got != value:
            raise ScriptedCandidateSuboptimal(
                f"scripted candidate scores {got}, best response scores {value}")
        return BestResponseResult(value, candidate, count)
    if select == "seeded-random":
        rng = random.Random(seed)
    elif select == "lexicographic":
        rng = None
    else:
        raise ValueError(f"unknown best-response selection mode {select!r}")
    witness = solver.select(select, rng)
    return BestResponseResult(value, witness, count)


def _value_against(g, player, policy, opp):
    pair = (delta(policy), opp) if player == 1 else (opp, delta(policy))
    return evaluate_mixed(g, *pair)[player - 1]


def best_response_value(g, player, opp, cap=DEFAULT_NODE_CAP):
    solver = _Solver(g, player, opp, cap=cap)
    return solver.value_and_count()[0]


def count_best_responses(g, player, opp, cap=DEFAULT_NODE_CAP):
    """Exact number of pure best responses to the opponent mixture."""
    solver = _Solver(g, player, opp, cap=cap)
    return solver.value_and_count()[1]


def is_best_response(g, player, candidate, opp):
    """True iff the candidate attains the best-response value exactly."""
    check_policy(g, candidate, player)
    return _value_against(g, player, candidate, opp) == \
        best_response_value(g, player, opp)
