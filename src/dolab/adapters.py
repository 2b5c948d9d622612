"""Uniform view over the two game representations.

Dynamics and gap computations run unchanged on a Posg (policies are
PurePolicy values, best responses come from the information-tree DP) or on
a NormalFormGame (policies are strategy indices).  Policy keys are the
canonical integer encodings, which makes traces comparable across the two
representations of the same game.
"""

import random
from fractions import Fraction

from .best_response import BestResponseResult, best_response
from .errors import ScriptedCandidateSuboptimal
from .lp import payoffs
from .posg import (
    MixedPolicy,
    NormalFormGame,
    Posg,
    evaluate_profile,
    mixed,
    policy_count,
    policy_from_index,
    policy_index,
)


class PosgAdapter:
    kind = "posg"

    def __init__(self, game):
        self.game = game
        self.zero_sum = game.zero_sum
        self._pair_cache = {}

    def policy_count(self, player):
        return policy_count(self.game, player)

    def policy_key(self, player, policy):
        return policy_index(self.game, policy)

    def random_policy(self, player, rng):
        return policy_from_index(
            self.game, player, rng.randrange(self.policy_count(player)))

    def evaluate(self, p1, p2):
        key = (p1.actions, p2.actions)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = evaluate_profile(self.game, p1, p2)
            self._pair_cache[key] = hit
        return hit

    def best_response(self, player, opp_support, mode="lexicographic",
                      seed=None, candidate=None):
        opp = mixed(3 - player, opp_support)
        if mode == "unique-or-fail":
            return best_response(self.game, player, opp, "lexicographic")
        return best_response(self.game, player, opp, mode,
                             seed=seed, candidate=candidate)


class MatrixAdapter:
    kind = "matrix"

    def __init__(self, nfg):
        self.nfg = nfg
        self.zero_sum = nfg.zero_sum

    def policy_count(self, player):
        return self.nfg.shape[player - 1]

    def policy_key(self, player, policy):
        return policy

    def random_policy(self, player, rng):
        return rng.randrange(self.policy_count(player))

    def evaluate(self, p1, p2):
        return self.nfg.payoff(p1, p2)

    def best_response(self, player, opp_support, mode="lexicographic",
                      seed=None, candidate=None):
        # Zero weights on the responder's side: only its payoff vector
        # against the opponent mixture is read.
        own = [Fraction(0)] * self.policy_count(player)
        opp = [Fraction(0)] * self.policy_count(3 - player)
        for q, w in opp_support:
            opp[q] += w
        x, y = (own, opp) if player == 1 else (opp, own)
        values = payoffs(self.nfg.v1, self.nfg.v2, x, y)[player - 1]
        best = max(values)
        opt = [a for a, v in enumerate(values) if v == best]
        if mode == "scripted":
            if candidate is None or values[candidate] != best:
                raise ScriptedCandidateSuboptimal(
                    f"scripted strategy scores "
                    f"{values[candidate] if candidate is not None else None}, "
                    f"best response scores {best}")
            witness = candidate
        elif mode == "seeded-random":
            witness = opt[random.Random(seed).randrange(len(opt))]
        else:
            witness = opt[0]
        return BestResponseResult(best, witness, len(opt))


def as_adapter(game):
    if isinstance(game, (PosgAdapter, MatrixAdapter)):
        return game
    if isinstance(game, Posg):
        return PosgAdapter(game)
    if isinstance(game, NormalFormGame):
        return MatrixAdapter(game)
    raise TypeError(f"not a game: {game!r}")


def profile_values(adapter, s1, s2):
    """Exact value pair of the mixed profile given by two [(policy, weight)]
    supports, from the adapter's pure-profile evaluations."""
    v1 = Fraction(0)
    v2 = Fraction(0)
    for p, wp in s1:
        for q, wq in s2:
            a, b = adapter.evaluate(p, q)
            v1 += wp * wq * a
            v2 += wp * wq * b
    return v1, v2


def as_support(adapter, player, mixture):
    """Normalize a mixture argument to a [(policy, weight)] list."""
    if isinstance(mixture, MixedPolicy):
        return list(mixture.support)
    pairs = list(mixture)
    if pairs and not isinstance(pairs[0], tuple):
        # plain weight vector over strategy indices
        return [(i, Fraction(w)) for i, w in enumerate(pairs) if w != 0]
    return [(p, Fraction(w)) for p, w in pairs]
