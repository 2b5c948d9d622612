"""Two-player partially observable stochastic game model.

Games are finite DAGs over states: nonterminal states carry one transition
distribution per joint action, terminal states carry an exact-rational
reward pair.  Each player observes states through its own observation map;
a pure policy assigns an action to every reachable observation sequence.
All probabilities, rewards, and values are fractions.Fraction at the API.
build_posg also compiles the game into int tables (IntTables), and every
forward pass runs on those ints, keyed by domain indices (IndexedDomain),
building one Fraction per player at the end.

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
from .rationals import as_ints

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
      ints: the same game over ints (IntTables), compiled by build_posg.
    """

    def __init__(self, names, rewards, start, action_counts, transitions,
                 obs, depth, zero_sum, name="game", notes=(), *, ints):
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
        self.ints = ints
        self._indexed = {}

    @property
    def num_states(self):
        return len(self.names)

    def is_terminal(self, s):
        return self.rewards[s] is not None

    def transition(self, s, a1, a2):
        return self.transitions[s][a1 * self.action_counts[1] + a2]

    def __repr__(self):
        return f"Posg({self.name!r}, states={self.num_states}, depth={self.depth})"


@dataclass(frozen=True)
class IntTables:
    """A Posg over ints: every start and transition probability is an int
    over `den` (the lcm of all their denominators), every reward an int
    over `rden`.  Forward passes return ints over `scale`,
    den ** (depth + 1) * rden, the largest denominator one can reach.

    start: ((state, int mass), ...); trans: per state None or, by joint
    action, ((next_state, int prob), ...); rewards: per state None or
    (int r1, int r2).
    """

    den: int
    rden: int
    start: tuple
    trans: tuple
    rewards: tuple
    scale: int


def _frac(v):
    return v if type(v) is Fraction else Fraction(v)


def build_posg(*, states, start, action_counts, transitions, observations,
               zero_sum=False, name="game", notes=()):
    """Validate a raw description and return a Posg.

    states: list of (name, None) for nonterminals or (name, (r1, r2)).
    start: mapping state index -> probability.
    transitions: mapping (state, a1, a2) -> mapping next_state -> probability.
    observations: pair of mappings state -> observation id (nonterminals only).
    """
    n = len(states)
    names = tuple([s[0] for s in states])
    rewards = tuple([None if r is None else (_frac(r[0]), _frac(r[1]))
                     for _, r in states])

    # Each distribution's sum is checked on its ints (as_ints).
    start_items = sorted((int(s), _frac(p)) for s, p in start.items())
    start_ints, start_den = as_ints([p for _, p in start_items])
    if any(m < 0 for m in start_ints):
        raise NonStochasticTransition("negative start probability")
    if sum(start_ints) != start_den:
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
        entries = []
        for nxt, p in dist.items():
            p = _frac(p)
            m = p.numerator
            if m < 0:
                raise NonStochasticTransition(
                    f"negative probability at {names[s]} ({a1},{a2})")
            if m:
                entries.append((int(nxt), p))
        entries.sort()
        row_ints, row_den = as_ints([p for _, p in entries])
        total = sum(row_ints)
        if total != row_den:
            raise NonStochasticTransition(
                f"transition row at {names[s]} ({a1},{a2}) sums to "
                f"{Fraction(total, row_den)}")
        rows[s][a1 * n2 + a2] = tuple(entries)

    # Terminal states are exactly the sinks: a rewarded state has no rows
    # (RewardOnNonterminal above) and every other state has all of them.
    for s in range(n):
        if rewards[s] is None and (
                rows[s] is None or any(r is None for r in rows[s])):
            raise DanglingState(f"nonterminal state {names[s]} lacks transition rows")
    trans = tuple([None if r is None else tuple(r) for r in rows])

    # Acyclicity (Kahn) and the longest path length.
    succs = [()] * n
    indeg = [0] * n
    for s in range(n):
        if trans[s] is not None:
            succs[s] = {nxt for dist in trans[s] for nxt, _ in dist}
            for nxt in succs[s]:
                indeg[nxt] += 1
    topo = []
    queue = [s for s in range(n) if indeg[s] == 0]
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

    reward_ints, rden = as_ints(
        [v for r in rewards if r is not None for v in r])
    it = iter(reward_ints)
    pairs = zip(it, it)  # consecutive (r1, r2)
    int_rewards = tuple([None if r is None else next(pairs)
                         for r in rewards])
    if zero_sum:
        for s in range(n):
            r = int_rewards[s]
            if r is not None and r[0] + r[1] != 0:
                raise GameValidationError(
                    f"zero_sum flag but rewards at {names[s]} sum to "
                    f"{rewards[s][0] + rewards[s][1]}")
    # One scaling of every probability in the game gives the tables' den.
    probs = [p for _, p in start_items]
    probs += [p for row in trans if row is not None
              for dist in row for _, p in dist]
    prob_ints, den = as_ints(probs)
    it = iter(prob_ints)
    int_start = tuple([(s, next(it)) for s, _ in start_items])
    int_trans = tuple([None if row is None else tuple([
        tuple([(nxt, next(it)) for nxt, _ in dist]) for dist in row])
        for row in trans])
    tables = IntTables(den, rden, int_start, int_trans, int_rewards,
                       den ** (depth + 1) * rden)

    return Posg(names, rewards, tuple(start_items), (n1, n2), trans,
                tuple(obs_maps), depth, zero_sum, name=name, notes=notes,
                ints=tables)


def reachable_observation_sequences(g, player, cap=DEFAULT_ENUMERATION_CAP):
    """All observation sequences the player can face at a decision point.

    A sequence is included when some pure profile and chance outcome
    realizes it, which canonicalizes the policy domain to payoff-relevant
    sequences only.  Returned sorted (the canonical domain order).
    Raises EnumerationCapExceeded, on every call, when more than `cap`
    (state, sequence) pairs are reachable.
    """
    d = indexed_domain(g, player, cap)
    if d.pairs > cap:
        raise _cap_exceeded(cap)
    return d.seqs


def _cap_exceeded(cap):
    return EnumerationCapExceeded(
        f"more than {cap} reachable observation sequences")


@dataclass(frozen=True)
class IndexedDomain:
    """One player's domain as indices into its canonical sorted tuple.

    pairs: the number of reachable (state, sequence) pairs, which the
      enumeration cap limits.
    roots: observation -> index of the length-1 sequence.
    child: per index, observation -> index of the extended sequence.
    children: per index, the child indices in domain order.
    sizes: per index, the number of sequences in its subtree.
    lift: per index, den ** (depth - len(sequence)), which brings rewards
      reached from that sequence to the game's forward-pass scale.
    """

    seqs: tuple
    pairs: int
    roots: dict
    child: tuple
    children: tuple
    sizes: tuple
    lift: tuple


def indexed_domain(g, player, cap=None):
    """The player's IndexedDomain, built on first use and cached on g.
    The first build raises EnumerationCapExceeded when more than `cap`
    (default DEFAULT_ENUMERATION_CAP) (state, sequence) pairs are
    reachable; a cached domain is returned whatever `cap` is."""
    hit = g._indexed.get(player)
    if hit is not None:
        return hit
    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    omap = g.obs[player - 1]
    seen = set()
    frontier = set()
    for s, p in g.start:
        if not g.is_terminal(s):
            frontier.add((s, (omap[s],)))
    while frontier:
        seen |= frontier
        if len(seen) > cap:
            raise _cap_exceeded(cap)
        nxt_frontier = set()
        for s, seq in frontier:
            for dist in g.transitions[s]:
                for nxt, _ in dist:
                    if not g.is_terminal(nxt):
                        item = (nxt, seq + (omap[nxt],))
                        if item not in seen:
                            nxt_frontier.add(item)
        frontier = nxt_frontier
    seqs = tuple(sorted({seq for _, seq in seen}))
    index = {seq: i for i, seq in enumerate(seqs)}
    roots = {}
    child = [{} for _ in seqs]
    for i, seq in enumerate(seqs):
        if len(seq) == 1:
            roots[seq[0]] = i
        else:
            child[index[seq[:-1]]][seq[-1]] = i
    # Sorted order puts every prefix before its extensions.
    sizes = [1] * len(seqs)
    for i in range(len(seqs) - 1, -1, -1):
        for j in child[i].values():
            sizes[i] += sizes[j]
    den = g.ints.den
    built = IndexedDomain(
        seqs, len(seen), roots, tuple(child),
        tuple([tuple(sorted(c.values())) for c in child]), tuple(sizes),
        tuple([den ** (g.depth - len(seq)) for seq in seqs]))
    g._indexed[player] = built
    return built


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
    domain = indexed_domain(g, player).seqs
    return g.action_counts[player - 1] ** len(domain)


def policy_from_index(g, player, index):
    """Canonical bijection index -> policy: mixed radix, first domain
    element most significant, so numeric order is lexicographic order."""
    domain = indexed_domain(g, player).seqs
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
    if policy.domain != indexed_domain(g, player).seqs:
        raise DomainMismatch("policy domain does not match the game")
    n = g.action_counts[player - 1]
    if any(not 0 <= a < n for a in policy.actions):
        raise DomainMismatch("policy assigns an out-of-range action")


def _forward(g, p1, p2, rewards=None, layers=None):
    """The one forward pass: expected rewards of a pure profile as ints
    over g.ints.scale.

    Contexts are keyed by (state, domain index of P1's sequence, domain
    index of P2's sequence) and carry int masses over den ** level.
    `rewards` replaces the int reward table; when `layers` is a list, each
    level appends (live mass, player 1's accumulated reward), both over
    den ** level.
    """
    check_policy(g, p1, 1)
    check_policy(g, p2, 2)
    ints = g.ints
    den, trans = ints.den, ints.trans
    if rewards is None:
        rewards = ints.rewards
    d1 = indexed_domain(g, 1)
    d2 = indexed_domain(g, 2)
    root1, root2 = d1.roots, d2.roots
    child1, child2 = d1.child, d2.child
    act1, act2 = p1.actions, p2.actions
    o1, o2 = g.obs
    n2 = g.action_counts[1]
    v1 = v2 = 0
    contexts = {}
    for s, p in ints.start:
        r = rewards[s]
        if r is None:
            key = (s, root1[o1[s]], root2[o2[s]])
            contexts[key] = contexts.get(key, 0) + p
        else:
            v1 += p * r[0]
            v2 += p * r[1]
    level = 1
    while True:
        if layers is not None:
            layers.append((sum(contexts.values()), v1))
        if not contexts:
            break
        level += 1
        v1 *= den
        v2 *= den
        nxt = {}
        for (s, i1, i2), w in contexts.items():
            for sp, q in trans[s][act1[i1] * n2 + act2[i2]]:
                wq = w * q
                r = rewards[sp]
                if r is None:
                    key = (sp, child1[i1][o1[sp]], child2[i2][o2[sp]])
                    nxt[key] = nxt.get(key, 0) + wq
                else:
                    v1 += wq * r[0]
                    v2 += wq * r[1]
        contexts = nxt
    pad = den ** (g.depth + 1 - level)
    return v1 * pad, v2 * pad


def evaluate_profile(g, p1, p2):
    """Exact expected terminal rewards of a pure profile."""
    v1, v2 = _forward(g, p1, p2)
    scale = g.ints.scale
    return Fraction(v1, scale), Fraction(v2, scale)


def forward_masses(g, p1, p2):
    """Per-depth (live, absorbed) probability masses under a pure profile.

    Diagnostic companion to evaluate_profile: at every depth the two
    components must sum exactly to 1.
    """
    unit = tuple([None if r is None else (1, 1) for r in g.rewards])
    layers = []
    _forward(g, p1, p2, rewards=unit, layers=layers)
    den = g.ints.den
    return [(Fraction(live, den ** level), Fraction(absorbed, den ** level))
            for level, (live, absorbed) in enumerate(layers, 1)]


def mixed_values(g, s1, s2, cache=None):
    """Exact value pair of the mixed profile given by two [(PurePolicy,
    weight)] supports: the bilinear extension of evaluate_profile, summed
    as ints over one common denominator.  A `cache` dict keeps each pair's
    forward pass, keyed by the two action tuples, across calls."""
    w1, l1 = as_ints([w for _, w in s1])
    w2, l2 = as_ints([w for _, w in s2])
    v1 = v2 = 0
    for (p, _), wp in zip(s1, w1):
        for (q, _), wq in zip(s2, w2):
            if cache is None:
                a, b = _forward(g, p, q)
            else:
                key = (p.actions, q.actions)
                hit = cache.get(key)
                if hit is None:
                    hit = cache[key] = _forward(g, p, q)
                a, b = hit
            w = wp * wq
            v1 += w * a
            v2 += w * b
    scale = l1 * l2 * g.ints.scale
    return Fraction(v1, scale), Fraction(v2, scale)


def evaluate_mixed(g, m1, m2):
    """Bilinear extension of evaluate_profile to mixed policies."""
    return mixed_values(g, m1.support, m2.support)


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
