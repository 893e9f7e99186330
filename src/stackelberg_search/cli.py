"""Command-line interface: generate, blueprint, evaluate, search, gadget, run."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    GameError,
    GameTree,
    RealizationPlan,
    expected_payoffs,
)
from stackelberg_search.gadget import transform_subgame
from stackelberg_search.games import load_game, save_game
from stackelberg_search.harness import (
    SAFETY_TOL,
    ExperimentConfig,
    GameSpec,
    check_run_limits,
    evaluate_leader,
    rows_to_csv,
    run_experiment,
    safe_search,
    write_csv,
    write_timing_report,
)
from stackelberg_search.response import best_response
from stackelberg_search.search import (
    SubgamePartition,
    partition_subgames,
    prepare_search,
)
from stackelberg_search.solver import SolverError

SCHEMES = ("whole-game", "metadata", "explicit", "two-stage", "goofspiel",
           "leduc")


# ---------------------------------------------------------------------------
# Plan files: a JSON object mapping sequence id to probability.


def plan_to_json(plan: RealizationPlan) -> str:
    return json.dumps({str(i): float(p) for i, p in enumerate(plan.probs)},
                      indent=1) + "\n"


def save_plan(plan: RealizationPlan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(plan_to_json(plan))


def load_plan(game: GameTree, path: str) -> RealizationPlan:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    tp = game.treeplex(LEADER)
    if not isinstance(raw, dict):
        raise GameError(f"plan file {path}: not a JSON object")
    probs = np.zeros(tp.n_sequences)
    for key, value in raw.items():
        if not (key.isdecimal() and int(key) < tp.n_sequences) or \
                type(value) not in (int, float):
            raise GameError(f"plan file {path}: bad entry {key!r}: {value!r} "
                            f"(sequence ids are 0..{tp.n_sequences - 1})")
        probs[int(key)] = value
    plan = RealizationPlan(LEADER, probs)
    plan.check_flow(tp)
    return plan


def _partition(game: GameTree, args) -> SubgamePartition:
    initial = None
    if getattr(args, "initial_nodes", None):
        initial = json.loads(args.initial_nodes)
    return partition_subgames(game, args.scheme, m=getattr(args, "m", None),
                              initial_nodes=initial)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    # GameSpec refuses a flag the family does not read, naming it.
    params = {key: getattr(args, key)
              for key in ("n", "M", "m", "kappa", "rho", "seed")
              if getattr(args, key) is not None}
    game = GameSpec.from_dict({"family": args.family, **params}).materialize()
    save_game(game, args.out)
    tp1, tp2 = game.treeplex(LEADER), game.treeplex(FOLLOWER)
    n_infosets = len(tp1.infoset_ids) + len(tp2.infoset_ids)
    print(f"wrote {args.out}: {len(game.nodes)} nodes, "
          f"{tp1.n_sequences}+{tp2.n_sequences} sequences, "
          f"{n_infosets} information sets")
    return 0


def cmd_blueprint(args) -> int:
    game = load_game(args.game)
    blueprint = make_blueprint(game, args.method)
    save_plan(blueprint.plan, args.out)
    ev = evaluate_leader(game, blueprint.plan)
    print(f"wrote {args.out}: {args.method} blueprint, "
          f"leader EV vs best response {ev:.6f}, "
          f"symmetries {blueprint.source['symmetries']}")
    return 0


def cmd_evaluate(args) -> int:
    game = load_game(args.game)
    plan = load_plan(game, args.leader_plan)
    response, _, _ = best_response(game, plan)
    leader_ev, follower_ev = expected_payoffs(game, plan, response)
    print(f"leader EV:   {leader_ev:.9f}")
    print(f"follower EV: {follower_ev:.9f}")
    tp2 = game.treeplex(FOLLOWER)
    chosen = [tp2.seq_label(s) for s in range(1, tp2.n_sequences)
              if response.probs[s] > 0.5]
    print("pure best response sequences:")
    for label in chosen:
        print(f"  {label}")
    return 0


def _finite_or_none(value: float) -> Optional[float]:
    """value for a JSON report, which has no infinity or nan."""
    return value if np.isfinite(value) else None


def cmd_search(args) -> int:
    check_run_limits(args.workers,
                     time_limit_per_subgame=args.time_limit_per_subgame)
    game = load_game(args.game)
    blueprint = load_plan(game, args.blueprint)
    partition = _partition(game, args)
    report = safe_search(game, blueprint, partition, alpha=args.alpha,
                         beta=args.beta,
                         time_limit=args.time_limit_per_subgame,
                         workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    for solution in report.solutions:
        path = os.path.join(args.out, f"subgame-{solution.index:04d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "subgame": solution.index,
                "status": solution.status,
                "used_fallback": solution.used_fallback,
                "twin_of": solution.twin_of,
                "bound_gap": _finite_or_none(solution.bound_gap),
                "root_bound": _finite_or_none(solution.root_bound),
                "mip_nodes": solution.mip_nodes,
                "lp_iterations": solution.lp_iterations,
                "n_vars": solution.n_vars,
                "n_rows": solution.n_rows,
                "n_binaries": solution.n_binaries,
                "local_plan": {str(k): v
                               for k, v in sorted(solution.local_plan.items())},
            }, handle, indent=1)
            handle.write("\n")
    bounds_report = []
    for index in sorted(report.bounds):
        for infoset, (direction, value) in sorted(
                report.bounds[index].bounds.items()):
            bounds_report.append({
                "subgame": index,
                "infoset": infoset,
                "direction": direction,
                "value": _finite_or_none(value),
            })
    with open(os.path.join(args.out, "bounds-report.json"), "w",
              encoding="utf-8") as handle:
        json.dump(bounds_report, handle, indent=1)
        handle.write("\n")
    save_plan(report.plan, os.path.join(args.out, "composed-plan.json"))
    blueprint_ev = expected_payoffs(game, blueprint, report.response)[0]
    search_ev = evaluate_leader(game, report.plan)
    print(f"{len(partition)} subgames, {report.n_fallbacks} fallbacks, "
          f"{report.n_reused} reused from a twin")
    print(f"blueprint EV: {blueprint_ev:.9f}")
    print(f"search EV:    {search_ev:.9f}")
    if args.beta <= 1.0:
        verdict = "holds" if search_ev >= blueprint_ev - SAFETY_TOL else "VIOLATED"
        print(f"safety (search >= blueprint): {verdict}")
    else:
        print("bounds widened by beta > 1: potentially unsafe, "
              "no safety claim")
    return 0


def cmd_gadget(args) -> int:
    game = load_game(args.game)
    blueprint = load_plan(game, args.blueprint)
    partition = _partition(game, args)
    if not 0 <= args.subgame < len(partition):
        print(f"subgame index {args.subgame} out of range "
              f"(partition has {len(partition)})", file=sys.stderr)
        return 2
    sub = partition.subgames[args.subgame]
    context = prepare_search(game, blueprint, partition, args.alpha,
                             args.beta)
    gadget = transform_subgame(game, sub, context.quantities[sub.index],
                               context.bounds[sub.index])
    save_game(gadget.game, args.out)
    print(f"wrote {args.out}: gadget for subgame {args.subgame}, "
          f"{len(gadget.kept_initial)} entry states kept, "
          f"{len(gadget.dropped_initial)} dropped, eta {gadget.eta:.6f}")
    return 0


def cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = ExperimentConfig.from_json(handle.read())
    rows = run_experiment(config)
    write_csv(rows, args.out)
    write_timing_report(rows, args.timing_out or args.out + ".timing.json")
    sys.stdout.write(rows_to_csv(rows))
    if config.beta <= 1.0 and not all(row.safety for row in rows):
        print("SAFETY VIOLATION: some run fell below its blueprint",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackelberg-search",
        description="Strong Stackelberg equilibria of extensive-form games "
                    "with safe subgame re-solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a game file")
    p.add_argument("--family", required=True,
                   choices=("twostage", "goofspiel", "leduc", "kuhn", "fig2",
                            "fig3", "bounds-demo", "random-small"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("blueprint", help="compute and save a leader blueprint")
    p.add_argument("--game", required=True)
    p.add_argument("--method", default="zerosum",
                   choices=("zerosum", "stage-sse", "uniform", "fixed"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blueprint)

    p = sub.add_parser("evaluate",
                       help="leader/follower EVs of a plan vs best response")
    p.add_argument("--game", required=True)
    p.add_argument("--leader-plan", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="safe per-subgame re-solving")
    p.add_argument("--game", required=True)
    p.add_argument("--blueprint", required=True)
    p.add_argument("--scheme", default="metadata", choices=SCHEMES)
    p.add_argument("--m", type=int, default=None,
                   help="rounds-remaining for the goofspiel scheme")
    p.add_argument("--initial-nodes", default=None,
                   help="JSON list of node-id lists for the explicit scheme")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--time-limit-per-subgame", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gadget",
                       help="emit one subgame's bound-enforcing game file")
    p.add_argument("--game", required=True)
    p.add_argument("--blueprint", required=True)
    p.add_argument("--subgame", type=int, required=True)
    p.add_argument("--scheme", default="metadata", choices=SCHEMES)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--initial-nodes", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("run", help="run an experiment config, write a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timing-out", default=None)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GameError, SolverError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
