"""Theorem verification predicates and seeded sweep machinery.

Each verify_t* function runs the theorem's scripted or unique-or-fail
configuration at one k, certifies every choice along the way, checks the
iteration-count and gap predicates, and returns a machine-readable verdict
listing each predicate outcome (the first failed check is the verdict's
violation).  Sweeps run independent seeded trials and are merged in seed
order so results are deterministic regardless of trial parallelism.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap

from .best_response import is_best_response
from .dynamics import (
    LastAddedMetaNash,
    TiebreakPolicy,
    run_double_oracle,
)
from .equilibrium import (
    enumerate_nash_bimatrix,
    solve_zero_sum,
    verify_equilibrium,
)
from .errors import DolabError, InvalidFamily
from .families import (
    encode_policy,
    encode_policy_for,
    family_matrix,
    incrementing_matrix,
    incrementing_posg,
    init_for_theorem,
    make_game,
    schedule_for_theorem,
)
from .posg import (
    delta,
    induced_normal_form,
    is_fully_observable,
    is_tree_form,
    mixed,
    policy_index,
    reduce_dominated,
)

THEOREMS = ("T1", "T2", "T3", "T4", "T5")
DEFAULT_K_RANGE = {
    "T1": (2, 4),
    "T2": (2, 5),
    "T3": (2, 6),
    "T4": (3, 3),
    "T5": (2, 6),
}


@dataclass
class Verdict:
    theorem: str
    k: int
    passed: bool
    checks: tuple  # of (name, ok, detail)

    @property
    def first_violation(self):
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}"
        return None

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "k": self.k,
            "passed": self.passed,
            "checks": [[n, ok, str(d)] for n, ok, d in self.checks],
            "first_violation": self.first_violation,
        }


def _verdict(theorem, k, checks):
    return Verdict(theorem, k, all(ok for _, ok, _ in checks), tuple(checks))


def _family_init(family, k, game, i, j):
    return (encode_policy_for(family, k, 1, i, game=game),
            encode_policy_for(family, k, 2, j, game=game))


def verify_t1(k):
    """Guess-the-string: exact termination needs full 2^k supports, yet the
    gap after iteration 2t is at most 2/t."""
    g = make_game("GuessTheString", k)
    tr = run_double_oracle(
        g, Fraction(0), TiebreakPolicy(),
        init=_family_init("GuessTheString", k, g, 0, 0))
    n = 2 ** k
    checks = [
        ("converges_exactly", tr.status == "converged", tr.status),
        ("full_supports_at_termination",
         len(tr.final_sets[0]) == n and len(tr.final_sets[1]) == n,
         (len(tr.final_sets[0]), len(tr.final_sets[1]))),
        ("gap_positive_before_termination",
         all(r.gap > 0 for r in tr.iterations[:-1]),
         min((r.gap for r in tr.iterations[:-1]), default=None)),
        ("final_gap_zero", tr.iterations[-1].gap == 0, tr.final_gap),
    ]
    slow = []
    for t in range(1, (len(tr.iterations) - 1) // 2 + 1):
        rec = tr.iterations[2 * t]  # gap computed from the sets after 2t passes
        if rec.gap > Fraction(2, t):
            slow.append((t, rec.gap))
    checks.append(("gap_after_2t_iterations_le_2_over_t", not slow, slow))
    return _verdict("T1", k, checks), [tr]


def verify_t2(k):
    """Bigger-number game: meta-Nash and best responses are unique on every
    iteration of the canonical run, and M(t) grows by at most one."""
    g = make_game("BiggerNumber", k)
    tb = TiebreakPolicy(meta_nash_mode="unique-or-fail",
                        best_response_mode="unique-or-fail")
    checks = []
    try:
        tr = run_double_oracle(
            g, Fraction(0), tb, init=_family_init("BiggerNumber", k, g, 0, 0))
    except DolabError as err:
        checks.append(("unique_or_fail_never_trips", False, err))
        return _verdict("T2", k, checks), []
    n = 2 ** k
    m_ok = all(b.m_stat <= a.m_stat + 1
               for a, b in zip(tr.iterations, tr.iterations[1:]))
    final_meta = tr.iterations[-1].meta_nash
    checks += [
        ("unique_or_fail_never_trips", True, None),
        ("converges", tr.status == "converged", tr.status),
        ("best_response_count_one_everywhere",
         all(r.br_counts == (1, 1) for r in tr.iterations),
         [r.br_counts for r in tr.iterations if r.br_counts != (1, 1)]),
        ("meta_nash_certified_unique",
         all(r.meta_unique for r in tr.iterations), None),
        ("m_stat_increments_by_at_most_one", m_ok,
         [r.m_stat for r in tr.iterations]),
        ("terminates_at_top_pure_profile",
         final_meta == (((n - 1, Fraction(1)),), ((n - 1, Fraction(1)),)),
         final_meta),
        ("iteration_count", tr.iteration_count == n - 1, tr.iteration_count),
    ]
    return _verdict("T2", k, checks), [tr]


def verify_t3(k, eps=Fraction(1)):
    """Weak bigger-number game with adversarial best responses from (0,0):
    exactly 2^k - 1 iterations for any eps < 2."""
    g = make_game("WeakBiggerNumber", k)
    sched = schedule_for_theorem("T3", k, g)
    tb = TiebreakPolicy(best_response_mode="scripted", schedule=sched)
    checks = []
    try:
        tr = run_double_oracle(g, eps, tb, init=init_for_theorem("T3", k, g))
    except DolabError as err:
        checks.append(("scripted_responses_certified", False, err))
        return _verdict("T3", k, checks), []
    n = 2 ** k
    checks += [
        ("scripted_responses_certified", True, None),
        ("converges", tr.status == "converged", tr.status),
        ("iteration_count_exactly_2k_minus_1",
         tr.iteration_count == n - 1, tr.iteration_count),
        ("all_scripted_iterations_certified",
         all(r.responses_scripted == (True, True)
             for r in tr.iterations[:-1]), None),
        ("gap_two_before_termination",
         all(r.gap == 2 for r in tr.iterations[:-1]),
         [r.gap for r in tr.iterations[:-1] if r.gap != 2]),
        ("final_gap_zero", tr.iterations[-1].gap == 0, tr.final_gap),
    ]
    return _verdict("T3", k, checks), [tr]


def verify_t4(k=3, nf_cap=2_000_000):
    """Incrementing game: dominance reduction to the 2^k bit strings, the
    welfare-maximizing equilibrium ladder, and the scripted meta-Nash run
    taking 2^k - 1 iterations for eps < 1/k."""
    n = 2 ** k
    alpha = Fraction(1, 2 * k)
    g = incrementing_posg(k)
    nf = induced_normal_form(g, cap=nf_cap)
    red, (rows, cols) = reduce_dominated(nf, weak=True)
    enc = {}
    for x in range(n):
        enc[policy_index(g, encode_policy("Incrementing", k, x, game=g))] = x
    checks = [
        ("reduced_form_has_2k_strategies",
         red.shape == (n, n), red.shape),
        ("survivors_are_the_encoded_bitstrings",
         set(rows) == set(enc) and set(cols) == set(enc),
         (sorted(rows)[:4], sorted(enc)[:4])),
    ]
    im = incrementing_matrix(n, k)
    match = all(
        red.payoff(a, b) == im.payoff(enc[r], enc[c])
        for a, r in enumerate(rows) for b, c in enumerate(cols))
    checks.append(("reduced_payoffs_match_matrix_oracle", match, None))
    diag_ok = all(im.payoff(a, a) == (Fraction(0), Fraction(0))
                  for a in range(n))
    inc_ok = all(im.payoff(a + 1, a) == (alpha, Fraction(-1))
                 for a in range(n - 1))
    checks.append(("diagonal_zero", diag_ok, None))
    checks.append(("increment_pays_alpha_vs_minus_one", inc_ok, None))

    ladder_ok = True
    detail = None
    for t in range(n - 1):
        # (t, t) is a Nash equilibrium of the restriction to {0..t}.
        if any(im.v1[x][t] > im.v1[t][t] for x in range(t + 1)) or \
                any(im.v2[t][y] > im.v2[t][t] for y in range(t + 1)):
            ladder_ok, detail = False, ("restriction_nash", t)
            break
        # t + 1 is a best response for both players in the full game.
        if im.v1[t + 1][t] != max(im.v1[x][t] for x in range(n)) or \
                im.v2[t][t + 1] != max(im.v2[t][y] for y in range(n)):
            ladder_ok, detail = False, ("best_response", t)
            break
    checks.append(("equilibrium_ladder", ladder_ok, detail))

    tb = TiebreakPolicy(meta_nash_mode="scripted", schedule=LastAddedMetaNash())
    traces = []
    try:
        tr = run_double_oracle(im, Fraction(1, 2 * k), tb, init=(0, 0))
        traces.append(tr)
        checks += [
            ("scripted_meta_nash_certified",
             all(r.meta_mode == "scripted-certified" for r in tr.iterations),
             None),
            ("iteration_count_exactly_2k_minus_1",
             tr.status == "converged" and tr.iteration_count == n - 1,
             (tr.status, tr.iteration_count)),
            ("gap_is_one_over_k_before_termination",
             all(r.gap == Fraction(1, k) for r in tr.iterations[:-1]),
             None),
        ]
    except DolabError as err:
        checks.append(("scripted_meta_nash_certified", False, err))
    return _verdict("T4", k, checks), traces


def verify_t5(k, eps=None):
    """Matching-pennies chain: the adversarial schedule holds the gap at
    exactly 2/k through iteration 2^(k-1), with all four induction points
    certified every iteration."""
    if eps is None:
        eps = Fraction(1, k)
    g = make_game("MatchingPenniesChain", k)
    fam = "MatchingPenniesChain"
    sched = schedule_for_theorem("T5", k, g)
    tb = TiebreakPolicy(meta_nash_mode="scripted",
                        best_response_mode="scripted", schedule=sched)
    checks = []
    try:
        tr = run_double_oracle(g, eps, tb, init=init_for_theorem("T5", k, g))
    except DolabError as err:
        checks.append(("schedule_certified", False, err))
        return _verdict("T5", k, checks), []
    n = 2 ** k
    half = n // 2
    checks += [
        ("schedule_certified", True, None),
        ("runs_the_full_schedule",
         tr.status == "schedule_exhausted" and tr.iteration_count == half,
         (tr.status, tr.iteration_count)),
        ("gap_exactly_2_over_k_throughout",
         all(r.gap == Fraction(2, k) for r in tr.iterations),
         [r.gap for r in tr.iterations if r.gap != Fraction(2, k)]),
    ]
    top = encode_policy_for(fam, k, 1, n - 1, game=g)
    point_fail = None
    for r in tr.iterations:
        t = r.t
        # 1. t-1 is a best response for P1 against P2 playing t-1.
        if not is_best_response(
                g, 1, encode_policy_for(fam, k, 1, t - 1, game=g),
                delta(encode_policy_for(fam, k, 2, t - 1, game=g))):
            point_fail = (t, 1)
            break
        # 2. t is a best response for P2 against 2^k - 1 (induction range).
        if t <= half - 1 and not is_best_response(
                g, 2, encode_policy_for(fam, k, 2, t, game=g), delta(top)):
            point_fail = (t, 2)
            break
        # 3. the policy sets grow exactly as the induction states.
        if r.sets != ((n - 1,) + tuple(range(t - 1)), tuple(range(t))):
            point_fail = (t, 3)
            break
        # 4. the scripted profile is a certified meta-Nash with gap 2/k.
        if r.meta_mode != "scripted-certified" or r.gap != Fraction(2, k) \
                or r.meta_nash != (((n - 1, Fraction(1)),),
                                   ((t - 1, Fraction(1)),)):
            point_fail = (t, 4)
            break
    checks.append(("induction_points_certified", point_fail is None, point_fail))
    final_ok = tr.final_sets == ((n - 1,) + tuple(range(half)),
                                 tuple(range(half)))
    checks.append(("final_sets_match_induction", final_ok, tr.final_sets))

    hi = encode_policy_for(fam, k, 1, n - 1, game=g)
    lo = encode_policy_for(fam, k, 1, half - 1, game=g)
    m1 = mixed(1, [(hi, Fraction(1, 2)), (lo, Fraction(1, 2))])
    hi2 = encode_policy_for(fam, k, 2, n - 1, game=g)
    lo2 = encode_policy_for(fam, k, 2, half - 1, game=g)
    m2 = mixed(2, [(hi2, Fraction(1, 2)), (lo2, Fraction(1, 2))])
    chk = verify_equilibrium(g, m1, m2, Fraction(0))
    value = Fraction(1) - Fraction(1, k)
    checks.append(("support_two_equilibrium_exact",
                   chk.passed and chk.values[0] == value,
                   (chk.passed, chk.values)))
    if k <= 4:
        res = solve_zero_sum(induced_normal_form(g))
        checks.append(("lp_value_matches", res.value == value, res.value))
    return _verdict("T5", k, checks), [tr]


def verify_theorem(theorem, ks=None):
    """Run one theorem's verification over a k range."""
    if theorem not in THEOREMS:
        raise InvalidFamily(f"unknown theorem {theorem!r}")
    if ks is None:
        lo, hi = DEFAULT_K_RANGE[theorem]
        ks = range(lo, hi + 1)
    fn = {"T1": verify_t1, "T2": verify_t2, "T3": verify_t3,
          "T4": verify_t4, "T5": verify_t5}[theorem]
    out = []
    for k in ks:
        verdict, traces = fn(k)
        out.append((verdict, traces))
    return out


# ---------------------------------------------------------------------------
# sweeps


def _sweep_trial(family, k, eps, meta_mode, br_mode, seed, schedule_name,
                 max_iters):
    g = make_game(family, k)
    schedule = None
    if schedule_name == "T3":
        schedule = schedule_for_theorem("T3", k, g)
    tb = TiebreakPolicy(
        meta_nash_mode=meta_mode,
        best_response_mode="scripted" if schedule else br_mode,
        init_mode="seeded-random-pure",
        seed=seed,
        schedule=schedule,
    )
    try:
        tr = run_double_oracle(g, eps, tb, max_iters=max_iters)
    except DolabError as err:
        return {
            "seed": seed,
            "init_keys": None,
            "m0": None,
            "iterations": None,
            "status": f"error:{type(err).__name__}",
            "final_gap": None,
        }, None
    init_keys = tr.config["init_keys"]
    return {
        "seed": seed,
        "init_keys": init_keys,
        "m0": max(init_keys),
        "iterations": tr.iteration_count,
        "status": tr.status,
        "final_gap": tr.final_gap,
    }, tr


def sweep_double_oracle(family, k, seeds, eps=Fraction(0),
                        meta_mode="lexicographic", br_mode="lexicographic",
                        schedule_name=None, max_iters=None, parallel=None,
                        keep_traces=False):
    """Independent seeded double-oracle trials, merged in seed order.

    parallel > 1 runs trials in a process pool; results are identical to a
    sequential sweep because each trial is a deterministic function of its
    seed and the merge is order-stable.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("sweeps need at least 2 seeds")
    args = [(family, k, eps, meta_mode, br_mode, seed, schedule_name,
             max_iters) for seed in seeds]
    if parallel is None:
        parallel = int(os.environ.get("DOLAB_PARALLEL", "1"))
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_sweep_trial, *zip(*args)))
    else:
        results = starmap(_sweep_trial, args)
    summaries, traces = [], []
    for summary, tr in results:
        summaries.append(summary)
        if keep_traces:
            traces.append(tr)
    counts = [s["iterations"] for s in summaries if s["iterations"] is not None]
    stats = {
        "family": family,
        "k": k,
        "trials": len(seeds),
        "mean_iterations": Fraction(sum(counts), len(counts)) if counts else None,
        "min_iterations": min(counts) if counts else None,
        "max_iterations": max(counts) if counts else None,
        "m0_distribution": _histogram(
            s["m0"] for s in summaries if s["m0"] is not None),
        "failed": [s for s in summaries if s["status"] != "converged"],
    }
    return stats, summaries, traces


def _histogram(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# report helpers


def structure_flags(family, k):
    g = make_game(family, k)
    return g.zero_sum, is_fully_observable(g), is_tree_form(g)


def min_nash_support(family, k, max_k=3):
    """Minimum per-player support over square-support equilibria of the
    family's normal form (desk scale only)."""
    if k > max_k:
        return None
    if family == "MatchingPenniesChain":
        nfg = induced_normal_form(make_game(family, k))
    else:
        nfg = family_matrix(family, k)
    eqs = enumerate_nash_bimatrix(nfg, max_support=min(nfg.shape))
    if not eqs:
        return None
    def support_size(eq):
        s1 = sum(1 for w in eq.row_strategy if w > 0)
        s2 = sum(1 for w in eq.col_strategy if w > 0)
        return max(s1, s2)
    return min(support_size(eq) for eq in eqs)
