from fractions import Fraction as F

import pytest

from dolab.adapters import MatrixAdapter, PosgAdapter
from dolab.errors import ScriptedCandidateSuboptimal
from dolab.families import FAMILIES, family_matrix, make_game
from dolab.posg import induced_normal_form, policy_from_index, posg_from_normal_form


def _matrix(family, k):
    if family == "MatchingPenniesChain":
        return induced_normal_form(make_game(family, k))
    return family_matrix(family, k)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [2, 3])
def test_matrix_adapter_agrees_with_posg_adapter(family, k, rng):
    # posg_from_normal_form gives each player one decision node, so a
    # policy's key is its action and both oracles see the same game
    nfg = _matrix(family, k)
    mat = MatrixAdapter(nfg)
    g = posg_from_normal_form(nfg)
    pos = PosgAdapter(g)
    certified = set()
    for player in (1, 2):
        opp = 3 - player
        for _ in range(6):
            n = nfg.shape[opp - 1]
            picks = rng.sample(range(n), rng.randint(1, min(3, n)))
            weights = [rng.randint(1, 5) for _ in picks]
            m_supp = [(i, F(w, sum(weights))) for i, w in zip(picks, weights)]
            p_supp = [(policy_from_index(g, opp, i), w) for i, w in m_supp]
            seed = rng.randrange(1000)
            for mode in ("lexicographic", "seeded-random"):
                a = mat.best_response(player, m_supp, mode, seed=seed)
                b = pos.best_response(player, p_supp, mode, seed=seed)
                assert (a.value, a.witness, a.count) == \
                    (b.value, pos.policy_key(player, b.witness), b.count)
            for cand in range(nfg.shape[player - 1]):
                policy = policy_from_index(g, player, cand)
                try:
                    a = mat.best_response(player, m_supp, "scripted",
                                          candidate=cand)
                except ScriptedCandidateSuboptimal:
                    with pytest.raises(ScriptedCandidateSuboptimal):
                        pos.best_response(player, p_supp, "scripted",
                                          candidate=policy)
                    certified.add(False)
                    continue
                b = pos.best_response(player, p_supp, "scripted",
                                      candidate=policy)
                assert (a.value, a.witness, a.count) == \
                    (b.value, pos.policy_key(player, b.witness), b.count)
                certified.add(True)
    assert certified == {True, False}
