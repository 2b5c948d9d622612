"""Command-line harness: generate games, run dynamics, sweep seeds,
verify theorem schedules, and emit report tables.

Subcommands:
  generate        write a family game in the canonical format
  run             one dynamics run (do | alpha-do | fp | brd) -> trace file
  sweep           seeded double-oracle trials, merged in seed order
  verify-theorem  machine-check one theorem's schedule over a k range
  report          rebuild a summary table from persisted traces

Flags override config-file fields, which override defaults; the resolved
configuration is embedded in every trace header.  Exit codes: 0 success,
1 usage/config error, 2 legality or uniqueness failure, 3 predicate
failure, 4 I/O failure.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import gameio, traces
from .dynamics import (
    LastAddedMetaNash,
    TiebreakPolicy,
    run_alpha_double_oracle,
    run_best_response_dynamics,
    run_double_oracle,
    run_fictitious_play,
)
from .errors import (
    DolabError,
    IllegalScriptedBestResponse,
    IllegalScriptedMetaNash,
    InvalidFamily,
    MissingTraces,
    ScriptedCandidateSuboptimal,
    UniquenessViolation,
)
from .families import (
    FAMILIES,
    encode_policy_for,
    family_matrix,
    init_for_theorem,
    make_game,
    schedule_for_theorem,
)
from .harness import (
    THEOREMS,
    min_nash_support,
    structure_flags,
    sweep_double_oracle,
    verify_theorem,
)
from .posg import policy_from_index
from .rationals import fmt

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_LEGALITY = 2
EXIT_PREDICATE = 3
EXIT_IO = 4

LEGALITY_ERRORS = (IllegalScriptedMetaNash, IllegalScriptedBestResponse,
                   ScriptedCandidateSuboptimal, UniquenessViolation)


def _rational(text):
    """Parse "n" or "n/d" (d nonzero) into an exact Fraction."""
    num, slash, den = str(text).partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text!r}") from None


def _resolve(args):
    """Flags > config file > argparse defaults (D23).  A config key names
    one of the subcommand's flags whose value was not given; other keys are
    ignored.  The parser's own `fn` and `command` are never None, so a
    config file cannot set them either.  Each value is parsed as its flag
    would parse it on the command line."""
    resolved = dict(vars(args))
    path = resolved.pop("config", None)
    flags = resolved.pop("flags")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest in resolved and resolved[dest] is None:
                resolved[dest] = _config_value(flags[dest], key, value)
    return resolved


def _config_value(flag, key, value):
    """A config-file value through its flag's `type=` and `choices=`; a
    value the flag would reject raises ValueError naming the key."""
    if value is None:
        return None
    if flag.type is not None:
        try:
            value = flag.type(str(value))
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid "
                             f"{flag.type.__name__} value {value!r}") from None
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(f"config key {key!r}: invalid choice {value!r} "
                         f"(choose from {', '.join(flag.choices)})")
    return value


def _build_game(cfg):
    if cfg.get("game"):
        return gameio.read_game(cfg["game"]), None, None
    family, k = cfg.get("family"), cfg.get("k")
    if family is None or k is None:
        raise InvalidFamily("need --family and --k, or --game")
    k = int(k)
    if cfg.get("representation") == "matrix":
        return family_matrix(family, k), family, k
    return make_game(family, k), family, k


def _build_init(cfg, game, family, k):
    init = cfg.get("init")
    if init in (None, "random"):
        return None
    if init == "theorem":
        if cfg.get("schedule") not in ("T3", "T5"):
            raise InvalidFamily("--init theorem needs --schedule T3 or T5")
        return init_for_theorem(cfg["schedule"], k, game)
    try:
        i, j = (int(v) for v in str(init).split(","))
    except ValueError:
        raise ValueError(f'--init expects "i,j" with integer indices, '
                         f'got {init!r}') from None
    if cfg.get("representation") == "matrix":
        return (i, j)
    if family is not None:
        return (encode_policy_for(family, k, 1, i, game=game),
                encode_policy_for(family, k, 2, j, game=game))
    return (policy_from_index(game, 1, i), policy_from_index(game, 2, j))


def _build_tiebreak(cfg, game, family, k):
    schedule = None
    name = cfg.get("schedule")
    if name in ("T3", "T5"):
        if cfg.get("representation") == "matrix":
            raise InvalidFamily(f"schedule {name} needs the posg representation")
        schedule = schedule_for_theorem(name, k, game)
    elif name == "last-added":
        schedule = LastAddedMetaNash()
    elif name:
        raise InvalidFamily(f"unknown schedule {name!r}")
    return TiebreakPolicy(
        meta_nash_mode=cfg.get("meta_nash") or "lexicographic",
        best_response_mode=cfg.get("best_response") or "lexicographic",
        init_mode="seeded-random-pure" if cfg.get("init") in (None, "random")
        else "given",
        seed=cfg.get("seed"),
        schedule=schedule,
    )


def cmd_generate(args):
    family, k = args.family, args.k
    game = make_game(family, k)
    gameio.write_game(args.out, game)
    print(f"wrote {family} k={k}: {game.num_states} states -> {args.out}")
    return EXIT_OK


def _game_header(cfg, game, family, k):
    header = {"game": {
        "name": getattr(game, "name", "matrix"),
        "family": family,
        "k": k,
        "representation": cfg.get("representation") or "posg",
    }}
    return header


def cmd_run(args):
    cfg = _resolve(args)
    game, family, k = _build_game(cfg)
    init = _build_init(cfg, game, family, k)
    tiebreak = _build_tiebreak(cfg, game, family, k)
    eps = _rational(cfg.get("eps") if cfg.get("eps") is not None else 0)
    algo = cfg.get("algo") or "do"
    if algo == "do":
        trace = run_double_oracle(game, eps, tiebreak,
                                  max_iters=cfg.get("max_iters"), init=init)
    elif algo == "alpha-do":
        if cfg.get("alpha") is None:
            raise InvalidFamily("alpha-do needs --alpha")
        alpha = _rational(cfg["alpha"])
        if alpha > eps:
            raise InvalidFamily("alpha-do needs eps >= alpha > 0")
        trace = run_alpha_double_oracle(game, eps, alpha, tiebreak,
                                        max_iters=cfg.get("max_iters"),
                                        init=init)
    elif algo in ("fp", "brd"):
        rounds = cfg.get("rounds")
        run = (run_fictitious_play if algo == "fp"
               else run_best_response_dynamics)
        trace = run(game, 100 if rounds is None else int(rounds), tiebreak,
                    init=init)
    else:
        raise InvalidFamily(f"unknown algorithm {algo!r}")
    if cfg.get("out"):
        traces.write_trace(cfg["out"], trace,
                           header_extra=_game_header(cfg, game, family, k))
    if algo in ("do", "alpha-do"):
        certs = "all certificates passed"
        gated = [r.t for r in trace.iterations if any(r.gated)]
        if trace.status == "schedule_blocked":
            certs = (f"schedule blocked at iteration {gated[0]}: "
                     "gated scripted addition")
        elif gated:
            certs = f"gated additions at iterations {gated}"
        print(f"iterations: {trace.iteration_count}, status: {trace.status}, "
              f"final gap: {fmt(trace.final_gap)}, {certs}")
        return EXIT_OK
    if algo == "fp":
        last = trace.rounds[-1]
        print(f"rounds: {len(trace.rounds)}, final exploitability: "
              f"{fmt(last.exploitability)}, first zero round: "
              f"{trace.first_zero_round}")
    else:
        print(f"rounds: {len(trace.rounds)}, status: {trace.status}, "
              f"cycle: {trace.cycle}")
    return EXIT_OK


def cmd_sweep(args):
    cfg = _resolve(args)
    seeds = _parse_seeds(cfg.get("seeds"))
    stats, summaries, kept = sweep_double_oracle(
        cfg["family"], int(cfg["k"]), seeds,
        eps=_rational(cfg.get("eps") if cfg.get("eps") is not None else 0),
        meta_mode=cfg.get("meta_nash") or "lexicographic",
        br_mode=cfg.get("best_response") or "lexicographic",
        schedule_name=cfg.get("schedule"),
        max_iters=cfg.get("max_iters"),
        parallel=cfg.get("parallel"),
        keep_traces=bool(cfg.get("out")),
    )
    if cfg.get("out"):
        os.makedirs(cfg["out"], exist_ok=True)
        for seed, trace in zip(seeds, kept):
            if trace is None:
                continue
            path = os.path.join(
                cfg["out"], f"{cfg['family']}_k{cfg['k']}_s{seed}.trace")
            traces.write_trace(path, trace, header_extra={
                "game": {"family": cfg["family"], "k": int(cfg["k"]),
                         "representation": "posg"}})
    mean = stats["mean_iterations"]
    mean_text = f"{float(mean):.3f}" if mean is not None else "n/a"
    print(f"trials: {stats['trials']}, mean iterations: {mean_text}, "
          f"min: {stats['min_iterations']}, max: {stats['max_iterations']}")
    print(f"M(0) distribution: {stats['m0_distribution']}")
    if stats["failed"]:
        print(f"failed trials: {[s['seed'] for s in stats['failed']]}")
        return EXIT_PREDICATE
    return EXIT_OK


def _parse_seeds(spec):
    if spec is None:
        raise InvalidFamily("sweep needs --seeds (count or comma list)")
    spec = str(spec)
    try:
        if "," in spec:
            return [int(s) for s in spec.split(",")]
        if ".." in spec:
            lo, hi = spec.split("..")
            return list(range(int(lo), int(hi) + 1))
        return list(range(int(spec)))
    except ValueError:
        raise ValueError(f'--seeds expects a count, "lo..hi" or a comma list '
                         f'of integers, got {spec!r}') from None


def cmd_verify_theorem(args):
    ks = None
    if args.k_min is not None or args.k_max is not None:
        if args.k_min is None or args.k_max is None:
            raise InvalidFamily("give both --k-min and --k-max")
        if args.k_min > args.k_max:
            raise InvalidFamily(
                f"--k-min {args.k_min} is greater than --k-max {args.k_max}")
        ks = range(args.k_min, args.k_max + 1)
    results = verify_theorem(args.theorem, ks)
    all_pass = True
    out = []
    for verdict, run_traces in results:
        out.append(verdict.as_dict())
        mark = "pass" if verdict.passed else f"FAIL ({verdict.first_violation})"
        print(f"{args.theorem} k={verdict.k}: {mark}")
        all_pass &= verdict.passed
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for i, tr in enumerate(run_traces):
                path = os.path.join(
                    args.out, f"{args.theorem}_k{verdict.k}_{i}.trace")
                traces.write_trace(path, tr, header_extra={
                    "game": {"family": _theorem_family(args.theorem),
                             "k": verdict.k,
                             "theorem": args.theorem}})
    if args.out:
        with open(os.path.join(args.out, f"{args.theorem}_verdicts.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if all_pass else EXIT_PREDICATE


def _theorem_family(theorem):
    return {
        "T1": "GuessTheString",
        "T2": "BiggerNumber",
        "T3": "WeakBiggerNumber",
        "T4": "Incrementing",
        "T5": "MatchingPenniesChain",
    }[theorem]


def cmd_report(args):
    rows = traces.build_report(
        args.traces,
        structure_fn=structure_flags,
        support_fn=lambda family, k: min_nash_support(family, k),
    )
    text = traces.format_report(rows)
    print(text, end="")
    if args.out:
        payload = json.dumps(rows, indent=2, sort_keys=True, default=str)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return EXIT_OK


def _flags(parser):
    """The parser's flags by destination, for parsing config values."""
    return {action.dest: action for action in parser._actions}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dolab",
        description="Double-oracle verification laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a family game file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("run", help="run one dynamics configuration")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--k", type=int)
    p.add_argument("--game", help="path to a canonical game file")
    p.add_argument("--representation", choices=("posg", "matrix"))
    p.add_argument("--algo", choices=("do", "alpha-do", "fp", "brd"))
    p.add_argument("--eps")
    p.add_argument("--alpha")
    p.add_argument("--meta-nash", dest="meta_nash",
                   choices=("lexicographic", "unique-or-fail", "scripted"))
    p.add_argument("--best-response", dest="best_response",
                   choices=("lexicographic", "unique-or-fail",
                            "seeded-random", "scripted"))
    p.add_argument("--schedule", choices=("T3", "T5", "last-added"))
    p.add_argument("--init", help='"i,j" family indices, "theorem", or "random"')
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_run, flags=_flags(p))

    p = sub.add_parser("sweep", help="seeded double-oracle trials")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--eps")
    p.add_argument("--meta-nash", dest="meta_nash")
    p.add_argument("--best-response", dest="best_response")
    p.add_argument("--schedule", choices=("T3",))
    p.add_argument("--seeds", help="count, lo..hi, or comma list")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--parallel", type=int,
                   help="trial process count (default $DOLAB_PARALLEL or 1)")
    p.add_argument("--out", help="directory for per-trial traces")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_sweep, flags=_flags(p))

    p = sub.add_parser("verify-theorem", help="machine-check a theorem")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--out", help="directory for traces and verdicts")
    p.set_defaults(fn=cmd_verify_theorem)

    p = sub.add_parser("report", help="summarize a directory of traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on a usage error
        return EXIT_CONFIG if exit_.code else EXIT_OK
    try:
        return args.fn(args)
    except LEGALITY_ERRORS as err:
        print(f"legality failure: {err}", file=sys.stderr)
        return EXIT_LEGALITY
    except (OSError, MissingTraces) as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO
    except (DolabError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
