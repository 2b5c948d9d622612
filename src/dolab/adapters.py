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
    mixed_values,
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
        return evaluate_profile(self.game, p1, p2)

    def profile_values(self, s1, s2):
        """Exact value pair of the mixed profile given by two
        [(policy, weight)] supports.  Fictitious play asks for nearly the
        same pairs every round, so their forward passes are cached."""
        return mixed_values(self.game, s1, s2, cache=self._pair_cache)

    def best_response(self, player, opp_support, mode="lexicographic",
                      seed=None, candidate=None):
        opp = mixed(3 - player, opp_support)
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

    def _weights(self, player, support):
        out = [Fraction(0)] * self.policy_count(player)
        for i, w in support:
            out[i] += w
        return out

    def profile_values(self, s1, s2):
        """Exact value pair of the mixed profile given by two
        [(strategy index, weight)] supports."""
        return payoffs(self.nfg.v1, self.nfg.v2, self._weights(1, s1),
                       self._weights(2, s2))[2]

    def best_response(self, player, opp_support, mode="lexicographic",
                      seed=None, candidate=None):
        # Zero weights on the responder's side: only its payoff vector
        # against the opponent mixture is read.
        own = [Fraction(0)] * self.policy_count(player)
        opp = self._weights(3 - player, opp_support)
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


def as_support(adapter, player, mixture):
    """Normalize a mixture argument to a [(policy, weight)] list."""
    if isinstance(mixture, MixedPolicy):
        return list(mixture.support)
    pairs = list(mixture)
    if pairs and not isinstance(pairs[0], tuple):
        # plain weight vector over strategy indices
        return [(i, Fraction(w)) for i, w in enumerate(pairs) if w != 0]
    return [(p, Fraction(w)) for p, w in pairs]
