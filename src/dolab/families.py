"""Generators for the five counterexample game families.

Each family comes with: a game generator, a direct normal-form oracle
built straight from the family's rules (where one exists), an integer
policy encoding (most-significant decision first, so numeric order equals
lexicographic policy order), and closed-form state counts.

Families:
  * guess_the_string(k): fully observable chain; matching actions advance,
    any mismatch exits to a +1 terminal for P1, surviving k matches pays -1.
  * bigger_number_posg(k): trivial observations; a three-row automaton
    tracks whether the running difference is >1, possibly +1, 0, possibly
    -1, or <-1.  Bigger number scores 1, or 2 when the gap is exactly 1.
  * weak_bigger_number_posg(k): fully observable chain; the first
    divergence decides the winner (+1), full agreement scores 0.
  * incrementing_posg(k): nonzero-sum tree-form game.  Players disclose
    the trailing runs of their k-bit numbers up front (2k root actions),
    then a disclosed random bit index is played out; playing exactly one
    more than the opponent earns 1/(2k) while the incremented side loses 1.
  * matching_pennies_chain(k): k parallel one-shot states under a uniform
    start; state 1 is matching pennies, elsewhere P2 wins only on (0,1).
"""

from fractions import Fraction

from .dynamics import ExplicitSchedule, Schedule
from .errors import IndexOutOfRange, InvalidFamily
from .posg import (
    NormalFormGame,
    PurePolicy,
    build_posg,
    indexed_domain,
    normal_form,
)

FAMILIES = (
    "GuessTheString",
    "BiggerNumber",
    "WeakBiggerNumber",
    "Incrementing",
    "MatchingPenniesChain",
)

_MIN_K = {
    "GuessTheString": 1,
    "BiggerNumber": 1,
    "WeakBiggerNumber": 1,
    "Incrementing": 2,
    "MatchingPenniesChain": 2,
}


def _check_k(family, k):
    if family not in FAMILIES:
        raise InvalidFamily(f"unknown family {family!r}")
    if k < _MIN_K[family]:
        raise InvalidFamily(f"{family} requires k >= {_MIN_K[family]}, got {k}")


# ---------------------------------------------------------------------------
# guess-the-string


def guess_the_string(k):
    """Chain of k fully observable states; P2 wins (+1) iff it matches P1's
    whole bit string, any mismatch pays +1 to P1 immediately (one exit
    terminal per level)."""
    _check_k("GuessTheString", k)
    states = [(f"c{t}", None) for t in range(k)]
    transitions = {}
    equal = None
    for t in range(k):
        mismatch = len(states)
        states.append((f"win{t + 1}", (Fraction(1), Fraction(-1))))
        if t + 1 < k:
            nxt = t + 1
        else:
            equal = len(states)
            states.append(("equal", (Fraction(-1), Fraction(1))))
            nxt = equal
        for a in (0, 1):
            transitions[(t, a, a)] = {nxt: Fraction(1)}
            transitions[(t, a, 1 - a)] = {mismatch: Fraction(1)}
    obs = {t: t for t in range(k)}
    return build_posg(
        states=states, start={0: Fraction(1)}, action_counts=(2, 2),
        transitions=transitions, observations=(obs, obs), zero_sum=True,
        name=f"guess_the_string_k{k}")


def guess_the_string_matrix(n):
    """n x n normal form: -1 on the diagonal, +1 off it (P1 payoffs)."""
    v1 = [[Fraction(-1) if i == j else Fraction(1) for j in range(n)]
          for i in range(n)]
    return normal_form(v1, row_labels=tuple(range(n)), col_labels=tuple(range(n)))


# ---------------------------------------------------------------------------
# bigger-number


def bigger_number_matrix(n):
    """Both pick a number in [n); the bigger scores 1, or 2 when the
    numbers differ by exactly one; ties score 0."""
    def u(i, j):
        if i == j:
            return Fraction(0)
        if i == j + 1:
            return Fraction(2)
        if j == i + 1:
            return Fraction(-2)
        return Fraction(1) if i > j else Fraction(-1)

    v1 = [[u(i, j) for j in range(n)] for i in range(n)]
    return normal_form(v1, row_labels=tuple(range(n)), col_labels=tuple(range(n)))


def bigger_number_posg(k):
    """Automaton reading both k-bit strings in parallel under trivial
    observations.  Center row: strings equal so far.  Upper row: P1 ahead
    with a1 = a2 + 1 still possible (pattern x10^l vs x01^l); leaving the
    pattern settles the gap above 1.  Lower row mirrors for P2."""
    _check_k("BiggerNumber", k)
    states = [(f"s{t}", None) for t in range(k)]
    top = {}
    bot = {}
    for t in range(1, k):
        top[t] = len(states)
        states.append((f"top{t}", None))
        bot[t] = len(states)
        states.append((f"bot{t}", None))
    t_eq = len(states)
    states.append(("eq", (Fraction(0), Fraction(0))))
    t_p2pt = len(states)
    states.append(("p1_by_one", (Fraction(2), Fraction(-2))))
    t_m2pt = len(states)
    states.append(("p2_by_one", (Fraction(-2), Fraction(2))))

    transitions = {}
    one = Fraction(1)
    for t in range(k):
        last = t == k - 1
        for a in (0, 1):
            transitions[(t, a, a)] = {t_eq if last else t + 1: one}
        transitions[(t, 1, 0)] = {t_p2pt if last else top[t + 1]: one}
        transitions[(t, 0, 1)] = {t_m2pt if last else bot[t + 1]: one}
    for t in range(1, k):
        last = t == k - 1
        s = top[t]
        exit_up = len(states)
        states.append((f"p1_bigger{t + 1}", (Fraction(1), Fraction(-1))))
        transitions[(s, 0, 1)] = {t_p2pt if last else top[t + 1]: one}
        for a1, a2 in ((0, 0), (1, 0), (1, 1)):
            transitions[(s, a1, a2)] = {exit_up: one}
        s = bot[t]
        exit_dn = len(states)
        states.append((f"p2_bigger{t + 1}", (Fraction(-1), Fraction(1))))
        transitions[(s, 1, 0)] = {t_m2pt if last else bot[t + 1]: one}
        for a1, a2 in ((0, 0), (0, 1), (1, 1)):
            transitions[(s, a1, a2)] = {exit_dn: one}
    obs = {s: 0 for s in range(len(states)) if states[s][1] is None}
    return build_posg(
        states=states, start={0: one}, action_counts=(2, 2),
        transitions=transitions, observations=(obs, obs), zero_sum=True,
        name=f"bigger_number_k{k}")


# ---------------------------------------------------------------------------
# weak bigger-number


def weak_bigger_number_matrix(n):
    """Bigger number scores 1, ties score 0."""
    def u(i, j):
        if i == j:
            return Fraction(0)
        return Fraction(1) if i > j else Fraction(-1)

    v1 = [[u(i, j) for j in range(n)] for i in range(n)]
    return normal_form(v1, row_labels=tuple(range(n)), col_labels=tuple(range(n)))


def weak_bigger_number_posg(k):
    """Fully observable chain; the first divergence decides the winner."""
    _check_k("WeakBiggerNumber", k)
    states = [(f"s{t}", None) for t in range(k)]
    t_eq = len(states)
    states.append(("eq", (Fraction(0), Fraction(0))))
    transitions = {}
    one = Fraction(1)
    for t in range(k):
        nxt = t + 1 if t + 1 < k else t_eq
        t_p1 = len(states)
        states.append((f"p1_wins{t + 1}", (Fraction(1), Fraction(-1))))
        t_m1 = len(states)
        states.append((f"p2_wins{t + 1}", (Fraction(-1), Fraction(1))))
        for a in (0, 1):
            transitions[(t, a, a)] = {nxt: one}
        transitions[(t, 1, 0)] = {t_p1: one}
        transitions[(t, 0, 1)] = {t_m1: one}
    obs = {t: t for t in range(k)}
    return build_posg(
        states=states, start={0: one}, action_counts=(2, 2),
        transitions=transitions, observations=(obs, obs), zero_sum=True,
        name=f"weak_bigger_number_k{k}")


# ---------------------------------------------------------------------------
# incrementing game

# Root actions 0..2k-1 encode trailing runs: action a is the run of bit
# (a % 2) repeated (a // 2 + 1) times.  At the bit layer, actions 0 and 1
# are the bit values and anything else is an escape scoring (-2, -2).


def run_of_action(a):
    return a % 2, a // 2 + 1


def action_of_run(bit, length):
    return (length - 1) * 2 + bit


def trailing_run(bits):
    """(bit, length) of the maximal trailing run of a bit tuple."""
    b = bits[-1]
    length = 1
    while length < len(bits) and bits[-1 - length] == b:
        length += 1
    return b, length


def _int_to_bits(x, k):
    return tuple([(x >> (k - 1 - i)) & 1 for i in range(k)])


def _bits_to_int(bits):
    x = 0
    for b in bits:
        x = x * 2 + b
    return x


def incrementing_payoffs(x, y, k):
    """Exact expected payoffs between undominated strategies x, y in [2^k).

    Replicates the game rules on bit strings: equal runs compare free
    prefix bits (0 on full match, else an averaged -1), opposite same-length
    runs pay the 0-run side 1/(2k) per matching draw against a flat -1,
    and run-length-1 versus a longer opposite run plays out the longer
    side's forced bits.  Boundary cases with no drawable bits follow the
    generated-game notes: an increment pair pays (1/2k, -1) and the
    all-zeros versus all-ones pair pays (-1, -1).
    """
    alpha = Fraction(1, 2 * k)
    xb = _int_to_bits(x, k)
    yb = _int_to_bits(y, k)
    bx, lx = trailing_run(xb)
    by, ly = trailing_run(yb)
    if lx != ly:
        if bx == by or min(lx, ly) > 1:
            return Fraction(-2), Fraction(-2)
        # One run has length 1, the other is longer with the opposite bit.
        long_is_x = lx > 1
        long_bits = xb if long_is_x else yb
        short_bits = yb if long_is_x else xb
        long_bit = bx if long_is_x else by
        count = k - 2
        if count <= 0:
            u_match = alpha  # k == 2: the pair is always an increment pair
        else:
            matches = sum(1 for i in range(count) if long_bits[i] == short_bits[i])
            u_match = (matches * alpha - (count - matches)) / count
        # The potential incrementer is the short "1" run when the long run
        # is zeros, and the long run itself when it is ones.
        matcher_is_long = long_bit == 1
        u_long = u_match if matcher_is_long else Fraction(-1)
        u_short = Fraction(-1) if matcher_is_long else u_match
        if long_is_x:
            return u_long, u_short
        return u_short, u_long
    # Equal run lengths.
    l = lx
    free = k - l - 1
    if bx == by:
        if free <= 0:
            return Fraction(0), Fraction(0)
        diff = sum(1 for i in range(free) if xb[i] != yb[i])
        u = Fraction(-diff, free)
        return u, u
    # Opposite runs of equal length.
    if free <= 0:
        if l == k - 1:
            u0 = alpha          # increment pair, prefixes vacuously equal
        else:
            u0 = Fraction(-1)   # 0^k vs 1^k: not an increment pair
    else:
        matches = sum(1 for i in range(free) if xb[i] == yb[i])
        u0 = (matches * alpha - (free - matches)) / free
    zero_is_x = bx == 0
    u_zero, u_one = u0, Fraction(-1)
    if zero_is_x:
        return u_zero, u_one
    return u_one, u_zero


def incrementing_matrix(n, k=None):
    """Matrix oracle over the 2^k undominated bit-string strategies."""
    if k is None:
        k = max(1, (n - 1).bit_length())
    if 2 ** k != n:
        raise InvalidFamily(f"incrementing matrix needs n = 2^k, got {n}")
    v1 = []
    v2 = []
    for x in range(n):
        r1 = []
        r2 = []
        for y in range(n):
            a, b = incrementing_payoffs(x, y, k)
            r1.append(a)
            r2.append(b)
        v1.append(tuple(r1))
        v2.append(tuple(r2))
    return NormalFormGame(tuple(v1), tuple(v2), False,
                          tuple(range(n)), tuple(range(n)))


def incrementing_posg(k):
    """Tree-form nonzero-sum game over 2k root actions (trailing runs) and
    one disclosed-bit layer; poly(k) states, every terminal reached by a
    single (state, joint action) edge."""
    _check_k("Incrementing", k)
    n1 = n2 = 2 * k
    alpha = Fraction(1, 2 * k)
    one = Fraction(1)
    states = [("root", None)]
    observations = ({0: 0}, {0: 0})
    transitions = {}
    counter = [0]
    rewards = {}  # one shared Fraction pair per distinct reward pair

    def terminal(r1, r2, tag):
        idx = len(states)
        counter[0] += 1
        pair = rewards.get((r1, r2))
        if pair is None:
            pair = rewards[r1, r2] = (Fraction(r1), Fraction(r2))
        states.append((f"{tag}#{counter[0]}", pair))
        return idx

    def chance_state(tag, i):
        idx = len(states)
        states.append((f"{tag}_i{i}", None))
        observations[0][idx] = i  # both players observe only the drawn index
        observations[1][idx] = i
        return idx

    def bit_layer(parent_key, outcome):
        """Fill one chance state's action grid.

        outcome(e1, e2) maps effective bits (or None for an escape /
        forced-bit violation) to the reward pair.
        """
        s, force1, force2 = parent_key
        for a1 in range(n1):
            for a2 in range(n2):
                e1 = _effective(a1, force1)
                e2 = _effective(a2, force2)
                if e1 is None or e2 is None:
                    r = (-2, -2)
                else:
                    r = outcome(e1, e2)
                transitions[(s, a1, a2)] = {
                    terminal(r[0], r[1], "z"): one}

    def _effective(a, force):
        if force is None:
            return a if a in (0, 1) else None
        return force if a == force else None

    for a1 in range(n1):
        b1, l1 = run_of_action(a1)
        for a2 in range(n2):
            b2, l2 = run_of_action(a2)
            if l1 != l2:
                if b1 == b2 or min(l1, l2) > 1:
                    transitions[(0, a1, a2)] = {terminal(-2, -2, "clash"): one}
                    continue
                # Cases 3/4: a long run against an opposite single bit.
                long_is_p1 = l1 > 1
                lb = b1 if long_is_p1 else b2
                ll = l1 if long_is_p1 else l2
                draws = list(range(1, k - 1))
                if not draws:
                    # k == 2: always an increment pair; the long 1-run or the
                    # short 1-run is the incrementer.
                    if lb == 1:
                        r = (alpha, -1) if long_is_p1 else (-1, alpha)
                    else:
                        r = (-1, alpha) if long_is_p1 else (alpha, -1)
                    transitions[(0, a1, a2)] = {
                        terminal(r[0], r[1], "inc_edge"): one}
                    continue
                dist = {}
                for i in draws:
                    if i < k - ll:
                        force = None
                    elif i == k - ll:
                        force = 1 - lb
                    else:
                        force = lb
                    s = chance_state(f"c34_a{a1}_b{a2}", i)
                    if long_is_p1:
                        key = (s, force, None)
                    else:
                        key = (s, None, force)
                    if lb == 0:
                        # long zeros: the short "1" side chases the increment
                        def outcome(e1, e2, _long=long_is_p1):
                            hit = e1 == e2
                            u_short = alpha if hit else Fraction(-1)
                            return ((-1, u_short) if _long else (u_short, -1))
                    else:
                        # long ones: the long side is the incrementer
                        def outcome(e1, e2, _long=long_is_p1):
                            hit = e1 == e2
                            u_long = alpha if hit else Fraction(-1)
                            return ((u_long, -1) if _long else (-1, u_long))
                    bit_layer(key, outcome)
                    dist[s] = Fraction(1, len(draws))
                transitions[(0, a1, a2)] = dist
                continue
            # Equal run lengths.
            l = l1
            free = k - l - 1
            if b1 == b2:
                if free <= 0:
                    transitions[(0, a1, a2)] = {terminal(0, 0, "eq"): one}
                    continue
                dist = {}
                for i in range(1, free + 1):
                    s = chance_state(f"c1_a{a1}_b{a2}", i)
                    bit_layer((s, None, None),
                              lambda e1, e2: (0, 0) if e1 == e2 else (-1, -1))
                    dist[s] = Fraction(1, free)
                transitions[(0, a1, a2)] = dist
                continue
            zero_is_p1 = b1 == 0
            if free <= 0:
                if l == k - 1:
                    r = (alpha, -1) if zero_is_p1 else (-1, alpha)
                    transitions[(0, a1, a2)] = {
                        terminal(r[0], r[1], "inc_edge"): one}
                else:
                    transitions[(0, a1, a2)] = {terminal(-1, -1, "ends"): one}
                continue
            dist = {}
            for i in range(1, free + 1):
                s = chance_state(f"c2_a{a1}_b{a2}", i)

                def outcome(e1, e2, _z1=zero_is_p1):
                    hit = e1 == e2
                    u_zero = alpha if hit else Fraction(-1)
                    return ((u_zero, -1) if _z1 else (-1, u_zero))

                bit_layer((s, None, None), outcome)
                dist[s] = Fraction(1, free)
            transitions[(0, a1, a2)] = dist

    return build_posg(
        states=states, start={0: one}, action_counts=(n1, n2),
        transitions=transitions, observations=observations, zero_sum=False,
        name=f"incrementing_k{k}",
        notes=(("boundary_equal_length_runs",
                "no-free-bits case: l=k-1 pays (1/2k,-1), l=k pays (-1,-1)"),))


# ---------------------------------------------------------------------------
# matching-pennies chain


def matching_pennies_chain(k):
    """k parallel one-shot states, uniform start; s1 is matching pennies,
    elsewhere P2 wins only when P1 plays 0 and P2 plays 1."""
    _check_k("MatchingPenniesChain", k)
    states = [(f"s{j}", None) for j in range(1, k + 1)]
    transitions = {}
    one = Fraction(1)
    for j in range(k):
        for a1 in (0, 1):
            for a2 in (0, 1):
                if j == 0:
                    p1_wins = a1 == a2
                else:
                    p1_wins = not (a1 == 0 and a2 == 1)
                t = len(states)
                r = (one, -one) if p1_wins else (-one, one)
                states.append((f"t{j}_{a1}{a2}", r))
                transitions[(j, a1, a2)] = {t: one}
    obs = {j: j for j in range(k)}
    return build_posg(
        states=states, start={j: Fraction(1, k) for j in range(k)},
        action_counts=(2, 2), transitions=transitions,
        observations=(obs, obs), zero_sum=True,
        name=f"matching_pennies_chain_k{k}")


# ---------------------------------------------------------------------------
# generators, encodings, counts


def make_game(family, k):
    _check_k(family, k)
    return {
        "GuessTheString": guess_the_string,
        "BiggerNumber": bigger_number_posg,
        "WeakBiggerNumber": weak_bigger_number_posg,
        "Incrementing": incrementing_posg,
        "MatchingPenniesChain": matching_pennies_chain,
    }[family](k)


def family_matrix(family, k):
    """Direct normal-form oracle for families that define one."""
    n = 2 ** k
    if family == "GuessTheString":
        return guess_the_string_matrix(n)
    if family == "BiggerNumber":
        return bigger_number_matrix(n)
    if family == "WeakBiggerNumber":
        return weak_bigger_number_matrix(n)
    if family == "Incrementing":
        return incrementing_matrix(n, k)
    raise InvalidFamily(f"{family} has no direct matrix oracle")


def state_count(family, k):
    """Closed-form |S| per generator."""
    _check_k(family, k)
    if family == "GuessTheString":
        return 2 * k + 1
    if family == "BiggerNumber":
        # k center, k-1 top/bottom rows each, one +-1 exit per row state,
        # and the three final terminals (0, +2, -2).
        return k + 4 * (k - 1) + 3
    if family == "WeakBiggerNumber":
        return 3 * k + 1
    if family == "MatchingPenniesChain":
        return k + 4 * k
    # Incrementing: root, per-pair root terminals, chance states keyed by
    # (pair, i), and one terminal per (chance state, joint action).
    n = 2 * k
    if k == 2:
        chance = 0
        root_terminals = n * n
    else:
        c12_pairs = 2 * (k - 2)        # equal runs of length <= k-2, per bit
        c34_pairs = 4 * (k - 1)        # (long >= 2, short = 1), both orders
        chance = sum(2 * (k - l - 1) for l in range(1, k - 1)) * 2 \
            + c34_pairs * (k - 2)
        root_terminals = n * n - c12_pairs * 2 - c34_pairs
    return 1 + root_terminals + chance + chance * n * n


def encode_policy(family, k, index, game=None):
    """Family bijection index -> PurePolicy (MSB-first bit order)."""
    _check_k(family, k)
    g = game if game is not None else make_game(family, k)
    if family in ("GuessTheString", "BiggerNumber", "WeakBiggerNumber",
                  "MatchingPenniesChain"):
        if not 0 <= index < 2 ** k:
            raise IndexOutOfRange(f"index {index} outside [0, 2^{k})")
        bits = _int_to_bits(index, k)
        p1 = PurePolicy(1, indexed_domain(g, 1).seqs, bits)
        return p1
    # Incrementing: root run action plus the true bit at every index node.
    if not 0 <= index < 2 ** k:
        raise IndexOutOfRange(f"index {index} outside [0, 2^{k})")
    bits = _int_to_bits(index, k)
    b, l = trailing_run(bits)
    actions = (action_of_run(b, l),) + bits[: k - 2]
    domain = indexed_domain(g, 1).seqs
    return PurePolicy(1, domain, actions)


def encode_policy_for(family, k, player, index, game=None):
    """encode_policy for either player (domains coincide in all families)."""
    p = encode_policy(family, k, index, game=game)
    if player == 1:
        return p
    g = game if game is not None else make_game(family, k)
    return PurePolicy(2, indexed_domain(g, 2).seqs, p.actions)


def decode_policy(family, k, policy, game=None):
    """Family bijection PurePolicy -> index; rejects out-of-range policies
    (for Incrementing: anything outside the undominated set)."""
    _check_k(family, k)
    if family in ("GuessTheString", "BiggerNumber", "WeakBiggerNumber",
                  "MatchingPenniesChain"):
        if len(policy.actions) != k or any(a not in (0, 1) for a in policy.actions):
            raise IndexOutOfRange("policy is not a k-bit assignment")
        return _bits_to_int(policy.actions)
    root, *node_bits = policy.actions
    if not 0 <= root < 2 * k:
        raise IndexOutOfRange("root action out of range")
    b, l = run_of_action(root)
    if any(a not in (0, 1) for a in node_bits):
        raise IndexOutOfRange("policy escapes at a bit node")
    # Bit positions 0..k-3 come from the index nodes; the last two follow
    # from the declared run (run bits plus the forced opposite before it).
    for i, bit in enumerate(node_bits):
        if i >= k - l and bit != b:
            raise IndexOutOfRange("policy disagrees with its declared run")
        if i == k - l - 1 and bit != 1 - b:
            raise IndexOutOfRange("policy disagrees with its forced bit")
    bits = list(node_bits)
    bits.append(b if l >= 2 else 1 - b)
    bits.append(b)
    return _bits_to_int(tuple(bits))


# ---------------------------------------------------------------------------
# adversarial schedules


class MaxSupportPlusOneResponses(Schedule):
    """Scripted responses "encode(max support + 1)" for both players.

    In the weak bigger-number game this is always a best response to any
    mixture supported below the top number, which is what keeps the run
    alive for 2^k - 1 iterations.  Falls back (returns None) once the
    opponent support reaches the top of the range.
    """

    def __init__(self, family, k, game):
        self.family = family
        self.k = k
        self.game = game

    def response(self, t, player, opp_support, state):
        top = max(decode_policy(self.family, self.k, pol, self.game)
                  for pol, _ in opp_support)
        if top + 1 >= 2 ** self.k:
            return None
        return encode_policy_for(self.family, self.k, player, top + 1,
                                 game=self.game)


def schedule_for_theorem(theorem, k, game=None):
    """Certifiable adversarial schedules for the T3 and T5 runs.

    T3: rule-based "max support + 1" responses for both players on the
    weak bigger-number game.  T5: explicit per-iteration choices on the
    matching-pennies chain; iteration t scripts the meta profile
    (2^k - 1, t - 1) and the responses (t - 1, t), with P2's response left
    to the default at the final iteration t = 2^(k-1), where only policies
    below 2^(k-1) remain best responses.
    """
    if theorem == "T3":
        _check_k("WeakBiggerNumber", k)
        g = game if game is not None else weak_bigger_number_posg(k)
        return MaxSupportPlusOneResponses("WeakBiggerNumber", k, g)
    if theorem == "T5":
        _check_k("MatchingPenniesChain", k)
        g = game if game is not None else matching_pennies_chain(k)
        fam = "MatchingPenniesChain"
        one = Fraction(1)
        top1 = encode_policy_for(fam, k, 1, 2 ** k - 1, game=g)
        length = 2 ** (k - 1)
        entries = []
        for t in range(1, length + 1):
            meta = ([(top1, one)],
                    [(encode_policy_for(fam, k, 2, t - 1, game=g), one)])
            resp1 = encode_policy_for(fam, k, 1, t - 1, game=g)
            resp2 = encode_policy_for(fam, k, 2, t, game=g) \
                if t <= length - 1 else None
            entries.append({"meta_nash": meta, "responses": (resp1, resp2)})
        return ExplicitSchedule(entries)
    raise InvalidFamily(f"no schedule for theorem {theorem!r}")


def init_for_theorem(theorem, k, game=None):
    """Initial pure policies matching the theorem's adversarial run."""
    if theorem == "T3":
        g = game if game is not None else weak_bigger_number_posg(k)
        return (encode_policy_for("WeakBiggerNumber", k, 1, 0, game=g),
                encode_policy_for("WeakBiggerNumber", k, 2, 0, game=g))
    if theorem == "T5":
        g = game if game is not None else matching_pennies_chain(k)
        fam = "MatchingPenniesChain"
        return (encode_policy_for(fam, k, 1, 2 ** k - 1, game=g),
                encode_policy_for(fam, k, 2, 0, game=g))
    raise InvalidFamily(f"no scripted initialization for theorem {theorem!r}")
