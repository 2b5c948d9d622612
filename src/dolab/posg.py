"""Two-player partially observable stochastic game model.

Games are finite DAGs over states: nonterminal states carry one transition
distribution per joint action, terminal states carry an exact-rational
reward pair.  Each player observes states through its own observation map;
a pure policy assigns an action to every reachable observation sequence.
All probabilities, rewards, and values are fractions.Fraction.

The module also houses the normal-form view: exact payoff matrices, the
normal-form induced by full policy enumeration, iterated dominance
reduction, and the reverse embedding of a matrix game as a one-step game.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    CyclicTransitionGraph,
    DanglingState,
    DomainMismatch,
    EnumerationCapExceeded,
    GameValidationError,
    NonStochasticTransition,
    RewardOnNonterminal,
)

ObsSeq = tuple  # tuple of observation ids

DEFAULT_ENUMERATION_CAP = 100_000


class Posg:
    """Immutable game instance; build through build_posg or a generator.

    Attributes:
      names: state name per id.
      rewards: (r1, r2) pair per terminal id, None for nonterminals.
      start: tuple of (state, probability), probabilities summing to 1.
      action_counts: (|A1|, |A2|).
      transitions: per state, None or a tuple indexed by a1 * |A2| + a2 of
        sparse distributions ((next_state, prob), ...).
      obs: pair of per-state observation-id tuples (None on terminals).
      depth: length of the longest path in the transition multigraph.
      zero_sum: declared zero-sum flag (validated against rewards).
      notes: generator metadata as (key, value) string pairs.
    """

    def __init__(self, names, rewards, start, action_counts, transitions,
                 obs, depth, zero_sum, name="game", notes=()):
        self.names = names
        self.rewards = rewards
        self.start = start
        self.action_counts = action_counts
        self.transitions = transitions
        self.obs = obs
        self.depth = depth
        self.zero_sum = zero_sum
        self.name = name
        self.notes = tuple(notes)
        self._domains = {}
        self._domain_trees = {}

    @property
    def num_states(self):
        return len(self.names)

    def is_terminal(self, s):
        return self.rewards[s] is not None

    def transition(self, s, a1, a2):
        return self.transitions[s][a1 * self.action_counts[1] + a2]

    def __repr__(self):
        return f"Posg({self.name!r}, states={self.num_states}, depth={self.depth})"


def build_posg(*, states, start, action_counts, transitions, observations,
               zero_sum=False, name="game", notes=()):
    """Validate a raw description and return a Posg.

    states: list of (name, None) for nonterminals or (name, (r1, r2)).
    start: mapping state index -> probability.
    transitions: mapping (state, a1, a2) -> mapping next_state -> probability.
    observations: pair of mappings state -> observation id (nonterminals only).
    """
    n = len(states)
    names = tuple(s[0] for s in states)
    rewards = []
    for _, r in states:
        if r is None:
            rewards.append(None)
        else:
            rewards.append((Fraction(r[0]), Fraction(r[1])))
    rewards = tuple(rewards)

    start_items = sorted((int(s), Fraction(p)) for s, p in start.items())
    if any(p < 0 for _, p in start_items):
        raise NonStochasticTransition("negative start probability")
    if sum(p for _, p in start_items) != 1:
        raise NonStochasticTransition("start distribution does not sum to 1")

    n1, n2 = action_counts
    if n1 < 1 or n2 < 1:
        raise GameValidationError("action counts must be positive")

    rows = [None] * n
    for (s, a1, a2), dist in transitions.items():
        if rewards[s] is not None:
            raise RewardOnNonterminal(
                f"state {names[s]} has transitions but carries a reward")
        if not (0 <= a1 < n1 and 0 <= a2 < n2):
            raise GameValidationError(f"action pair ({a1},{a2}) out of range")
        if rows[s] is None:
            rows[s] = [None] * (n1 * n2)
        total = Fraction(0)
        entries = []
        for nxt, p in dist.items():
            p = Fraction(p)
            if p < 0:
                raise NonStochasticTransition(
                    f"negative probability at {names[s]} ({a1},{a2})")
            if p > 0:
                entries.append((int(nxt), p))
                total += p
        if total != 1:
            raise NonStochasticTransition(
                f"transition row at {names[s]} ({a1},{a2}) sums to {total}")
        rows[s][a1 * n2 + a2] = tuple(sorted(entries))

    for s in range(n):
        if rewards[s] is None:
            if rows[s] is None or any(r is None for r in rows[s]):
                raise DanglingState(f"nonterminal state {names[s]} lacks transition rows")
        else:
            if rows[s] is not None:
                raise DanglingState(f"terminal state {names[s]} has transitions")
    trans = tuple(tuple(r) if r is not None else None for r in rows)

    # Acyclicity (Kahn) and the longest path length.
    succs = [set() for _ in range(n)]
    indeg = [0] * n
    for s in range(n):
        if trans[s] is None:
            continue
        for dist in trans[s]:
            for nxt, _ in dist:
                if nxt not in succs[s]:
                    succs[s].add(nxt)
                    indeg[nxt] += 1
    order = [s for s in range(n) if indeg[s] == 0]
    topo = []
    queue = list(order)
    while queue:
        s = queue.pop()
        topo.append(s)
        for nxt in succs[s]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if len(topo) != n:
        raise CyclicTransitionGraph("transition multigraph contains a cycle")
    dist_from_root = [0] * n
    for s in topo:
        for nxt in succs[s]:
            dist_from_root[nxt] = max(dist_from_root[nxt], dist_from_root[s] + 1)
    depth = max(dist_from_root, default=0)

    # Terminal states are exactly the sinks.
    for s in range(n):
        if trans[s] is None and rewards[s] is None:
            raise DanglingState(f"state {names[s]} is a sink without a reward")

    obs_maps = []
    for player in (0, 1):
        omap = [None] * n
        for s, o in observations[player].items():
            if rewards[int(s)] is not None:
                raise GameValidationError(
                    f"observation attached to terminal {names[int(s)]}")
            omap[int(s)] = int(o)
        for s in range(n):
            if rewards[s] is None and omap[s] is None:
                raise GameValidationError(f"state {names[s]} lacks an observation")
        obs_maps.append(tuple(omap))
    obs_ids = {o for omap in obs_maps for o in omap if o is not None}
    if len(obs_ids) > n:
        raise GameValidationError("more observation ids than states")

    if zero_sum:
        for s in range(n):
            if rewards[s] is not None and rewards[s][0] + rewards[s][1] != 0:
                raise GameValidationError(
                    f"zero_sum flag but rewards at {names[s]} sum to "
                    f"{rewards[s][0] + rewards[s][1]}")

    return Posg(names, rewards, tuple(start_items), (n1, n2), trans,
                tuple(obs_maps), depth, zero_sum, name=name, notes=notes)


def reachable_observation_sequences(g, player, cap=DEFAULT_ENUMERATION_CAP):
    """All observation sequences the player can face at a decision point.

    A sequence is included when some pure profile and chance outcome
    realizes it, which canonicalizes the policy domain to payoff-relevant
    sequences only.  Returned sorted (the canonical domain order).
    """
    if player in g._domains:
        return g._domains[player]
    pi = player - 1
    omap = g.obs[pi]
    seen = set()
    frontier = set()
    for s, p in g.start:
        if not g.is_terminal(s):
            frontier.add((s, (omap[s],)))
    while frontier:
        seen |= frontier
        if len(seen) > cap:
            raise EnumerationCapExceeded(
                f"more than {cap} reachable observation sequences")
        nxt_frontier = set()
        for s, seq in frontier:
            for dist in g.transitions[s]:
                for nxt, _ in dist:
                    if not g.is_terminal(nxt):
                        item = (nxt, seq + (omap[nxt],))
                        if item not in seen:
                            nxt_frontier.add(item)
        frontier = nxt_frontier
    domain = tuple(sorted({seq for _, seq in seen}))
    g._domains[player] = domain
    return domain


def domain_tree(g, player):
    """Children-by-prefix adjacency and subtree sizes over the domain."""
    if player in g._domain_trees:
        return g._domain_trees[player]
    domain = reachable_observation_sequences(g, player)
    children = {seq: [] for seq in domain}
    roots = []
    dset = set(domain)
    for seq in domain:
        if len(seq) > 1 and seq[:-1] in dset:
            children[seq[:-1]].append(seq)
        else:
            roots.append(seq)
    sizes = {}
    for seq in sorted(domain, key=len, reverse=True):
        sizes[seq] = 1 + sum(sizes[c] for c in children[seq])
    tree = (tuple(roots), {k: tuple(v) for k, v in children.items()}, sizes)
    g._domain_trees[player] = tree
    return tree


@dataclass(frozen=True)
class PurePolicy:
    """Map from reachable observation sequences to actions for one player.

    actions[i] is the action assigned to domain[i]; domain is the game's
    canonical (sorted) reachable-sequence tuple.
    """

    player: int
    domain: tuple
    actions: tuple

    def __post_init__(self):
        if len(self.domain) != len(self.actions):
            raise DomainMismatch("assignment does not cover the domain")

    def as_mapping(self):
        return dict(zip(self.domain, self.actions))


@dataclass(frozen=True)
class MixedPolicy:
    """Finite-support rational-weighted distribution over pure policies."""

    player: int
    support: tuple  # of (PurePolicy, Fraction)

    def __post_init__(self):
        total = Fraction(0)
        seen = set()
        for policy, w in self.support:
            if policy.player != self.player:
                raise DomainMismatch("support policy for the wrong player")
            if w <= 0:
                raise GameValidationError("mixture weights must be positive")
            if policy in seen:
                raise GameValidationError("duplicate policy in mixture support")
            seen.add(policy)
            total += w
        if total != 1:
            raise GameValidationError(f"mixture weights sum to {total}")


def delta(policy):
    """Degenerate mixture on a single pure policy."""
    return MixedPolicy(policy.player, ((policy, Fraction(1)),))


def mixed(player, pairs):
    """Mixture from (policy, weight) pairs, merging duplicate policies."""
    acc = {}
    for policy, w in pairs:
        acc[policy] = acc.get(policy, Fraction(0)) + Fraction(w)
    support = tuple(sorted(acc.items(), key=lambda kv: (kv[0].actions,)))
    return MixedPolicy(player, support)


def policy_count(g, player):
    domain = reachable_observation_sequences(g, player)
    return g.action_counts[player - 1] ** len(domain)


def policy_from_index(g, player, index):
    """Canonical bijection index -> policy: mixed radix, first domain
    element most significant, so numeric order is lexicographic order."""
    domain = reachable_observation_sequences(g, player)
    base = g.action_counts[player - 1]
    total = base ** len(domain)
    if not 0 <= index < total:
        raise GameValidationError(f"policy index {index} out of range")
    digits = []
    rem = index
    for _ in range(len(domain)):
        rem, d = divmod(rem, base)
        digits.append(d)
    return PurePolicy(player, domain, tuple(reversed(digits)))


def policy_index(g, policy):
    """Inverse of policy_from_index."""
    base = g.action_counts[policy.player - 1]
    idx = 0
    for a in policy.actions:
        idx = idx * base + a
    return idx


def check_policy(g, policy, player):
    if policy.player != player:
        raise DomainMismatch(f"expected a policy for player {player}")
    if policy.domain != reachable_observation_sequences(g, player):
        raise DomainMismatch("policy domain does not match the game")
    n = g.action_counts[player - 1]
    if any(not 0 <= a < n for a in policy.actions):
        raise DomainMismatch("policy assigns an out-of-range action")


def evaluate_profile(g, p1, p2):
    """Exact expected terminal rewards of a pure profile."""
    check_policy(g, p1, 1)
    check_policy(g, p2, 2)
    act1 = p1.as_mapping()
    act2 = p2.as_mapping()
    o1, o2 = g.obs
    r1 = Fraction(0)
    r2 = Fraction(0)
    contexts = {}
    for s, p in g.start:
        if g.is_terminal(s):
            r1 += p * g.rewards[s][0]
            r2 += p * g.rewards[s][1]
        else:
            key = (s, (o1[s],), (o2[s],))
            contexts[key] = contexts.get(key, Fraction(0)) + p
    while contexts:
        nxt = {}
        for (s, seq1, seq2), w in contexts.items():
            dist = g.transition(s, act1[seq1], act2[seq2])
            for sp, q in dist:
                wq = w * q
                if g.is_terminal(sp):
                    r1 += wq * g.rewards[sp][0]
                    r2 += wq * g.rewards[sp][1]
                else:
                    key = (sp, seq1 + (o1[sp],), seq2 + (o2[sp],))
                    nxt[key] = nxt.get(key, Fraction(0)) + wq
        contexts = nxt
    return r1, r2


def forward_masses(g, p1, p2):
    """Per-depth (live, absorbed) probability masses under a pure profile.

    Diagnostic companion to evaluate_profile: at every depth the two
    components must sum exactly to 1.
    """
    act1 = p1.as_mapping()
    act2 = p2.as_mapping()
    o1, o2 = g.obs
    absorbed = Fraction(0)
    contexts = {}
    for s, p in g.start:
        if g.is_terminal(s):
            absorbed += p
        else:
            key = (s, (o1[s],), (o2[s],))
            contexts[key] = contexts.get(key, Fraction(0)) + p
    out = [(sum(contexts.values(), Fraction(0)), absorbed)]
    while contexts:
        nxt = {}
        for (s, seq1, seq2), w in contexts.items():
            for sp, q in g.transition(s, act1[seq1], act2[seq2]):
                if g.is_terminal(sp):
                    absorbed += w * q
                else:
                    key = (sp, seq1 + (o1[sp],), seq2 + (o2[sp],))
                    nxt[key] = nxt.get(key, Fraction(0)) + w * q
        contexts = nxt
        out.append((sum(contexts.values(), Fraction(0)), absorbed))
    return out


def evaluate_mixed(g, m1, m2):
    """Bilinear extension of evaluate_profile to mixed policies."""
    r1 = Fraction(0)
    r2 = Fraction(0)
    for p1, w1 in m1.support:
        for p2, w2 in m2.support:
            v1, v2 = evaluate_profile(g, p1, p2)
            r1 += w1 * w2 * v1
            r2 += w1 * w2 * v2
    return r1, r2


@dataclass(frozen=True)
class NormalFormGame:
    """Pair of exact payoff matrices; rows are P1 strategies."""

    v1: tuple
    v2: tuple
    zero_sum: bool = False
    row_labels: tuple = None
    col_labels: tuple = None

    def __post_init__(self):
        rows = len(self.v1)
        if rows == 0 or len(self.v2) != rows:
            raise GameValidationError("payoff matrices must share dimensions")
        cols = len(self.v1[0])
        for m in (self.v1, self.v2):
            if any(len(r) != cols for r in m):
                raise GameValidationError("ragged payoff matrix")
        if self.zero_sum:
            for r1, r2 in zip(self.v1, self.v2):
                for a, b in zip(r1, r2):
                    if a + b != 0:
                        raise GameValidationError("zero_sum flag but V1 != -V2")

    @property
    def shape(self):
        return len(self.v1), len(self.v1[0])

    def payoff(self, i, j):
        return self.v1[i][j], self.v2[i][j]


def normal_form(v1, v2=None, zero_sum=None, row_labels=None, col_labels=None):
    """Build a NormalFormGame from nested sequences (ints/Fractions)."""
    m1 = tuple(tuple(Fraction(v) for v in row) for row in v1)
    if v2 is None:
        m2 = tuple(tuple(-v for v in row) for row in m1)
        zs = True if zero_sum is None else zero_sum
    else:
        m2 = tuple(tuple(Fraction(v) for v in row) for row in v2)
        zs = False if zero_sum is None else zero_sum
    return NormalFormGame(m1, m2, zs, row_labels, col_labels)


def induced_normal_form(g, cap=DEFAULT_ENUMERATION_CAP):
    """Normal form over the full pure-policy spaces, rows and columns in
    canonical index order."""
    c1 = policy_count(g, 1)
    c2 = policy_count(g, 2)
    if c1 * c2 > cap:
        raise EnumerationCapExceeded(
            f"normal form would have {c1}x{c2} entries (cap {cap})")
    pols1 = [policy_from_index(g, 1, i) for i in range(c1)]
    pols2 = [policy_from_index(g, 2, j) for j in range(c2)]
    v1 = []
    v2 = []
    for p1 in pols1:
        row1 = []
        row2 = []
        for p2 in pols2:
            a, b = evaluate_profile(g, p1, p2)
            row1.append(a)
            row2.append(b)
        v1.append(tuple(row1))
        v2.append(tuple(row2))
    return NormalFormGame(tuple(v1), tuple(v2), g.zero_sum,
                          tuple(range(c1)), tuple(range(c2)))


def _dominated_indices(matrix, weak):
    """Row indices dominated by some other row of the own-payoff matrix."""
    n = len(matrix)
    out = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if weak:
                if all(a >= b for a, b in zip(matrix[j], matrix[i])) and \
                        any(a > b for a, b in zip(matrix[j], matrix[i])):
                    out.add(i)
                    break
            else:
                if all(a > b for a, b in zip(matrix[j], matrix[i])):
                    out.add(i)
                    break
    return out


def reduce_dominated(nfg, weak=False):
    """Iterated simultaneous removal of dominated pure strategies.

    Strict mode removes strategies strictly dominated by another pure
    strategy (order independent).  Weak mode additionally removes
    strategies that are never better and somewhere worse; payoff-identical
    duplicates are never removed.  Returns the reduced game plus the
    surviving original row and column indices.
    """
    rows = list(range(len(nfg.v1)))
    cols = list(range(len(nfg.v1[0])))
    while True:
        m1 = [[nfg.v1[i][j] for j in cols] for i in rows]
        m2t = [[nfg.v2[i][j] for i in rows] for j in cols]
        bad_rows = _dominated_indices(m1, weak)
        bad_cols = _dominated_indices(m2t, weak)
        if not bad_rows and not bad_cols:
            break
        rows = [r for k, r in enumerate(rows) if k not in bad_rows]
        cols = [c for k, c in enumerate(cols) if k not in bad_cols]
    v1 = tuple(tuple(nfg.v1[i][j] for j in cols) for i in rows)
    v2 = tuple(tuple(nfg.v2[i][j] for j in cols) for i in rows)
    old_rl = nfg.row_labels or tuple(range(len(nfg.v1)))
    old_cl = nfg.col_labels or tuple(range(len(nfg.v1[0])))
    reduced = NormalFormGame(v1, v2, nfg.zero_sum,
                             tuple(old_rl[i] for i in rows),
                             tuple(old_cl[j] for j in cols))
    return reduced, (tuple(rows), tuple(cols))


def reduce_strictly_dominated(nfg):
    """Fixed point of strict-pure-dominance removal."""
    return reduce_dominated(nfg, weak=False)


def posg_from_normal_form(nfg, name="normal-form"):
    """One-step game realizing a normal form: a single decision state and
    one fresh terminal per joint action."""
    m, n = nfg.shape
    states = [("root", None)]
    transitions = {}
    for i, j in product(range(m), range(n)):
        t = len(states)
        states.append((f"t_{i}_{j}", (nfg.v1[i][j], nfg.v2[i][j])))
        transitions[(0, i, j)] = {t: Fraction(1)}
    return build_posg(
        states=states,
        start={0: Fraction(1)},
        action_counts=(m, n),
        transitions=transitions,
        observations=({0: 0}, {0: 0}),
        zero_sum=nfg.zero_sum,
        name=name,
    )


def is_fully_observable(g):
    """Both observation maps are the identity on nonterminal states
    (implemented as: equal and injective)."""
    o1, o2 = g.obs
    seen = set()
    for s in range(g.num_states):
        if g.is_terminal(s):
            continue
        if o1[s] != o2[s]:
            return False
        if o1[s] in seen:
            return False
        seen.add(o1[s])
    return True


def is_tree_form(g):
    """The transition multigraph is a forest whose roots carry the start
    distribution: no state receives more than one (parent, joint action)
    edge, and start states receive none."""
    indeg = [0] * g.num_states
    for s in range(g.num_states):
        if g.transitions[s] is None:
            continue
        for dist in g.transitions[s]:
            for nxt, _ in dist:
                indeg[nxt] += 1
                if indeg[nxt] > 1:
                    return False
    return all(indeg[s] == 0 for s, _ in g.start)
