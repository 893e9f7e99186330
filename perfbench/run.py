"""Benchmark of the safe-search pipeline, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each of
them in its own process.  The library is imported from ``src/`` beside this
directory, never from an installed copy.

A run goes round-robin over the workload's games, one ``harness.run_single``
after another (a closed loop with one client), each time on a fresh build of
the game, so no run sees a cache a user would not have warm.  It stops when
another game would no longer fit in S seconds, after at least one round.
Every figure that sums over games takes each game at the median of its
repetitions, so it describes one pass over the workload.  After each game
its outputs are checked (untimed).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (games plus their subgame solves; a game that
raises or fails a check, and a subgame solve that falls back, count as
failed) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run wraps the library's
public functions (see ``tracing.py``) and reports its own ``trace.run_s``,
so the tracing overhead shows.
A run whose checks fail still prints its result, with ``correct`` false,
and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SKIPPED = "SkippedUnreachable"
STATUSES = ("Optimal", "IncumbentTimeLimit", SKIPPED)
EV_TOL = 1e-9         # independent re-evaluation must reproduce reported EVs
ORDER_TOL = 1e-6      # blueprint <= search <= full game, as the harness's
                      # own safety tolerance
FIXED_EV_TOL = 1e-9   # the fixed blueprint EVs are given to 9 decimals
# solve_milp reads its clock after both child LPs of a branching step, so
# when the cap runs out just before a step, both of its LPs start late.
MAX_LATE_LPS = 2

# name -> (unit, better).  BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "subgames_optimal": ("count", "higher"),
    "gap_sum": ("payoff", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed on every run.  Not in BENCHMARK.json: on its single-game workloads
# they equal run_s, and the per-game latencies matter on twostage-sweep,
# which BENCHMARK.json leaves out (see README.md).
LATENCY = ("game_p50_s", "game_p90_s")
PER_LAYER = {
    "solver.lp_calls": ("count", "lower"),
    "solver.lp_s": ("s", "lower"),
    "solver.lp_ms_per_call": ("ms", "lower"),
    "solver.lp_share": ("ratio", "lower"),
    "solver.solve_milp.calls": ("count", "lower"),
    "solver.solve_milp.self_s": ("s", "lower"),
    "solver.solve_lp.s": ("s", "lower"),
    "search.build_constrained_milp.calls": ("count", "lower"),
    "search.build_constrained_milp.s": ("s", "lower"),
    "search.milp_vars": ("count", "lower"),
    "search.milp_rows": ("count", "lower"),
    "search.milp_binaries": ("count", "lower"),
    "search.solve_subgame.calls": ("count", "lower"),
    "search.solve_subgame.s": ("s", "lower"),
    "search.status.Optimal": ("count", "higher"),
    "search.status.IncumbentTimeLimit": ("count", "lower"),
    "search.status.SkippedUnreachable": ("count", "lower"),
    "search.status.other": ("count", "lower"),
    "search.lp_calls_per_subgame.p50": ("count", "lower"),
    "search.lp_calls_per_subgame.max": ("count", "lower"),
    "search.gap_sum": ("payoff", "lower"),
    "search.partition_subgames.s": ("s", "lower"),
    "search.compute_subgame_quantities.s": ("s", "lower"),
    "search.compute_bounds.s": ("s", "lower"),
    "games.generate.s": ("s", "lower"),
    "efg.build_treeplex.s": ("s", "lower"),
    "efg.validate_game.calls": ("count", "lower"),
    "efg.validate_game.s": ("s", "lower"),
    "efg.check_flow.calls": ("count", "lower"),
    "efg.check_flow.s": ("s", "lower"),
    "blueprint.make_blueprint.self_s": ("s", "lower"),
    "response.compute_brvs.calls": ("count", "lower"),
    "response.compute_brvs.s": ("s", "lower"),
    "response.best_response.s": ("s", "lower"),
    "harness.compose_strategy.s": ("s", "lower"),
    "harness.evaluate_leader.calls": ("count", "lower"),
    "harness.evaluate_leader.s": ("s", "lower"),
    "harness.safe_search.self_s": ("s", "lower"),
    "harness.run_single.self_s": ("s", "lower"),
    "harness.ev_gain": ("payoff", "higher"),
    "trace.run_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _import_library() -> None:
    """Put src/ first on the path and insist the library comes from it."""
    sys.path.insert(0, str(SRC))
    try:
        import stackelberg_search
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stackelberg_search from {SRC}: "
                 f"{exc}")
    if Path(stackelberg_search.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: stackelberg_search was imported from "
                 f"{stackelberg_search.__file__}, not from {SRC}")


@dataclass
class GameRun:
    """One fresh build of one game and one ``run_single`` on it."""

    index: int                        # position in the workload's games
    label: str
    run_s: float = 0.0
    row: object = None                # None if run_single raised
    report: object = None             # dropped once its metrics are taken
    attempted: int = 1                # this game plus its subgame solves
    failed: int = 0                   # failed solves, plus the game if it
                                      # raised or failed a check
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    lp_per_subgame: list[int] = field(default_factory=list)
    late_lps: int = 0                 # most LPs a capped solve started
                                      # after its cap ran out


def build_game(spec):
    """Materialize one game and both treeplexes; returns (game, seconds)."""
    from stackelberg_search.efg import FOLLOWER, LEADER
    start = time.perf_counter()
    game = spec.materialize()
    game.treeplex(LEADER)
    game.treeplex(FOLLOWER)
    return game, time.perf_counter() - start


def run_game(game, config, done: GameRun) -> None:
    from stackelberg_search import harness
    from stackelberg_search.solver import SolverError
    started = time.perf_counter()
    try:
        done.row, done.report = harness.run_single(game, config, done.label)
    except SolverError as exc:
        done.run_s = time.perf_counter() - started
        done.failed += 1
        done.problems.append(f"{done.label}: SolverError: {exc}")
        return
    done.run_s = time.perf_counter() - started
    for solution in done.report.solutions:
        if solution.status == SKIPPED:
            continue
        done.attempted += 1
        if solution.used_fallback:
            done.failed += 1
            done.problems.append(f"{done.label}: subgame {solution.index} "
                                 f"fell back ({solution.status})")


def exact_ev(game, plan) -> float:
    """Leader EV against a best response, computed here, not by run_single."""
    from stackelberg_search.efg import expected_payoffs
    from stackelberg_search.response import best_response
    response, _, _ = best_response(game, plan)
    return expected_payoffs(game, plan, response)[0]


def check_game(workload, config, game, done: GameRun,
               blueprint_evs: dict[int, float]) -> None:
    """Correctness checks on one game run; failures land in problems."""
    from stackelberg_search.blueprint import make_blueprint
    row, report = done.row, done.report
    if row is None:
        return
    known = len(done.problems)
    if not row.safety or row.search_ev < row.blueprint_ev - ORDER_TOL:
        done.problems.append(f"{row.game}: unsafe, search EV "
                             f"{row.search_ev!r} < blueprint EV "
                             f"{row.blueprint_ev!r}")
    if done.index not in blueprint_evs:   # the blueprint is deterministic
        blueprint_evs[done.index] = exact_ev(
            game, make_blueprint(game, config.blueprint_method).plan)
    for what, reported, exact in (
            ("blueprint", row.blueprint_ev, blueprint_evs[done.index]),
            ("search", row.search_ev, exact_ev(game, report.plan))):
        if abs(exact - reported) > EV_TOL:
            done.problems.append(f"{row.game}: reported {what} EV "
                                 f"{reported!r}, re-evaluated {exact!r}")
    if config.solve_full_game and (
            row.full_game_ev is None
            or row.search_ev > row.full_game_ev + ORDER_TOL):
        done.problems.append(f"{row.game}: search EV {row.search_ev!r} above "
                             f"full-game optimum {row.full_game_ev!r}")
    if workload.blueprint_ev is not None and \
            abs(row.blueprint_ev - workload.blueprint_ev) > FIXED_EV_TOL:
        done.problems.append(f"{row.game}: blueprint EV {row.blueprint_ev!r}"
                             f", expected {workload.blueprint_ev!r}")
    for solution in report.solutions:
        if config.subgame_time_limit is None and solution.status not in ("Optimal", SKIPPED):
            done.problems.append(f"{row.game}: uncapped subgame "
                                 f"{solution.index} is {solution.status}")
    if len(done.problems) > known:
        done.failed += 1


def check_cap(table, cap: float, done: GameRun) -> None:
    """A capped subgame solve stops at its first clock check past the cap:
    at most one branching step (MAX_LATE_LPS LPs) starts after the cap.

    Counted from spans, not wall time, so a loaded machine that stretches
    single LPs cannot fail it.
    """
    spans = table.spans
    late: dict[int, int] = {}
    for i in table.indices("solver.linprog"):
        milp = spans[i][3]
        if milp >= table.lo and spans[milp][0] == "solver.solve_milp" and \
                spans[i][1] > spans[milp][1] + cap:
            late[milp] = late.get(milp, 0) + 1
    for milp, count in late.items():
        if table.ancestor(milp, "search.solve_subgame") is None:
            continue
        done.late_lps = max(done.late_lps, count)
        if count > MAX_LATE_LPS:
            done.failed += 1
            done.problems.append(f"{done.label}: a capped subgame solve "
                                 f"started {count} LPs after its {cap} s cap")


def span_metrics(table, done: GameRun, span_cost: float,
                 absent: list[str]) -> None:
    """Additive per-layer metrics of one traced game run."""
    spans, m = table.spans, done.layers
    total = lambda name: table.total.get(name, 0.0)  # noqa: E731
    calls = lambda name: table.calls.get(name, 0)  # noqa: E731
    if "solver.linprog" not in absent:
        m["solver.lp_calls"] = calls("solver.linprog")
        m["solver.lp_s"] = total("solver.linprog")
        per_subgame = dict.fromkeys(table.indices("search.solve_subgame"), 0)
        for i in table.indices("solver.linprog"):
            owner = table.ancestor(i, "search.solve_subgame")
            if owner is not None:
                per_subgame[owner] += 1
        done.lp_per_subgame = list(per_subgame.values())
    m["solver.solve_milp.calls"] = calls("solver.solve_milp")
    m["solver.solve_milp.self_s"] = table.self_time.get("solver.solve_milp",
                                                        0.0)
    m["solver.solve_lp.s"] = total("solver.solve_lp")
    sizes = [spans[i][4]
             for i in table.indices("search.build_constrained_milp")]
    m["search.build_constrained_milp.calls"] = len(sizes)
    m["search.build_constrained_milp.s"] = total(
        "search.build_constrained_milp")
    m["search.milp_vars"] = sum(s[0] for s in sizes)
    m["search.milp_rows"] = sum(s[1] for s in sizes)
    m["search.milp_binaries"] = sum(s[2] for s in sizes)
    for name in ("search.solve_subgame", "efg.validate_game", "efg.check_flow",
                 "response.compute_brvs", "harness.evaluate_leader"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    for name in ("search.partition_subgames",
                 "search.compute_subgame_quantities", "search.compute_bounds",
                 "games.generate", "efg.build_treeplex",
                 "response.best_response", "harness.compose_strategy"):
        m[f"{name}.s"] = total(name)
    for name in ("blueprint.make_blueprint", "harness.safe_search",
                 "harness.run_single"):
        m[f"{name}.self_s"] = table.self_time.get(name, 0.0)
    # The whole-game solve: build_full_milp plus the solve_milp run_single
    # makes on its model.  Printed, not a BENCHMARK.json metric: it is
    # exactly zero on the workloads that do not solve the full game.
    m["harness.full_game.s"] = total("search.build_full_milp") + sum(
        spans[i][2] - spans[i][1] for i in table.indices("solver.solve_milp")
        if spans[i][3] >= table.lo
        and spans[spans[i][3]][0] == "harness.run_single")
    m["trace.run_s"] = done.run_s
    m["trace.spans"] = table.hi - table.lo
    m["trace.overhead_s"] = (table.hi - table.lo) * span_cost


def outcome_metrics(done: GameRun) -> None:
    """Per-layer facts read from the game's results rather than spans."""
    m = done.layers
    solutions = done.report.solutions if done.report else ()
    for status in STATUSES + ("other",):
        m[f"search.status.{status}"] = 0
    for s in solutions:
        status = s.status if s.status in STATUSES else "other"
        m[f"search.status.{status}"] += 1
    m["search.gap_sum"] = sum(s.bound_gap for s in solutions
                              if s.status == "IncumbentTimeLimit")
    m["harness.ev_gain"] = (done.row.search_ev - done.row.blueprint_ev
                            if done.row else 0.0)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics' exclusive method) or the value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def sum_of_medians(per_game: dict[int, list[float]]) -> float:
    """One pass over every game, each at its median over repetitions."""
    return sum(statistics.median(v) for v in per_game.values())


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> tuple[dict, list[str]]:
    """Run the workload's games round-robin, each on a fresh build, until
    another game no longer fits in ``seconds`` (at least one round).

    Every reported sum is over the workload's games, each game taken at the
    median of its repetitions: the figure for one pass over the workload.
    """
    from stackelberg_search.harness import rows_to_csv
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    config = workload.config(seed)
    specs = config.games
    capped = config.subgame_time_limit is not None
    tracer = tracing.Tracer()
    if trace:
        absent = tracer.install()
    elif capped:
        absent = tracer.install(tracing.CAP_TARGETS)
    else:
        absent = []
    # Without these bindings the LPs cannot be seen from outside; the run
    # then says so instead of checking the cap.
    cap_unseen = sorted(set(tracing.CAP_TARGETS) & set(absent)) \
        if capped else []
    cost = tracing.span_cost() if trace else 0.0
    setups: dict[int, list[float]] = {i: [] for i in range(len(specs))}
    runs: list[GameRun] = []
    blueprint_evs: dict[int, float] = {}
    start = time.perf_counter()
    while True:
        index = len(runs) % len(specs)
        first_span = len(tracer.spans)
        tracer.active = trace or capped
        game, setup_s = build_game(specs[index])
        done = GameRun(index, specs[index].describe())
        run_game(game, config, done)
        tracer.active = False
        setups[index].append(setup_s)
        table = tracing.SpanTable(tracer.spans, first_span,
                                  len(tracer.spans))
        if trace:
            span_metrics(table, done, cost, absent)
        if capped and not cap_unseen:
            check_cap(table, config.subgame_time_limit, done)
        if not trace:
            del tracer.spans[first_span:]
        check_game(workload, config, game, done, blueprint_evs)
        outcome_metrics(done)
        done.report = None
        runs.append(done)
        del game
        gc.collect()
        for _ in range(workload.extra_setups):
            setups[index].append(build_game(specs[index])[1])
        gc.collect()
        elapsed = time.perf_counter() - start
        if len(runs) >= len(specs) and \
                elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    tracer.uninstall()

    first_round = runs[:len(specs)]
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}"
    Path(f"{stem}.csv").write_text(
        rows_to_csv([r.row for r in first_round if r.row is not None]),
        encoding="utf-8")
    if trace:
        tracer.write(f"{stem}.spans.jsonl")

    def per_game(value) -> dict[int, list[float]]:
        grouped: dict[int, list[float]] = {}
        for r in runs:
            grouped.setdefault(r.index, []).append(value(r))
        return grouped

    layers = {name: sum_of_medians(per_game(lambda r: r.layers[name]))
              for name in runs[0].layers}
    if "solver.lp_calls" in layers:
        layers["solver.lp_ms_per_call"] = \
            1e3 * layers["solver.lp_s"] / max(layers["solver.lp_calls"], 1)
        layers["solver.lp_share"] = layers["solver.lp_s"] / \
            layers["trace.run_s"]
        pooled = [n for r in first_round for n in r.lp_per_subgame] or [0]
        layers["search.lp_calls_per_subgame.p50"] = statistics.median(pooled)
        layers["search.lp_calls_per_subgame.max"] = max(pooled)
    counts = {k: v for k, v in layers.items()
              if PER_LAYER.get(k, ("",))[0] == "count"}
    Path(f"{stem}.counts.json").write_text(
        json.dumps(counts, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    # A game's latency is its median over repetitions, so the single-game
    # workloads report that median rather than the tail of a few samples.
    latencies = [statistics.median(v)
                 for v in per_game(lambda r: r.run_s).values()]
    e2e = {
        "setup_s": sum_of_medians(setups),
        "run_s": sum_of_medians(per_game(lambda r: r.run_s)),
        "game_p50_s": statistics.median(latencies),
        "game_p90_s": quantile(latencies, 90),
        "subgames_optimal": sum_of_medians(
            per_game(lambda r: r.layers["search.status.Optimal"])),
        "gap_sum": layers["search.gap_sum"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    summary = {
        "workload": workload_name, "seed": seed, "games": len(specs),
        "game_runs": len(runs), "setups": sum(map(len, setups.values())),
        "e2e": e2e, "layers": layers,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "late_lps": max(r.late_lps for r in runs),
        "cap_unseen": cap_unseen,
    }
    return summary, [msg for r in runs for msg in r.problems]


def print_report(summary: dict, trace: bool) -> None:
    n = summary["games"]
    beyond = n - int(0.9 * n) if n >= 2 else 0
    per_game = "sum over games of each game's median"
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"closed loop, 1 client, workers=1  games {n}  "
          f"game runs {summary['game_runs']}  builds {summary['setups']}")
    notes = {
        "setup_s": per_game,
        "run_s": per_game,
        "game_p50_s": f"games {n}, each at its median",
        "game_p90_s": f"games {n}, {beyond} beyond p90",
        "subgames_optimal": per_game,
        "gap_sum": "capped subgames only; " + per_game,
    }
    for name, value in summary["e2e"].items():
        unit = "s" if name in LATENCY else END_TO_END[name][0]
        print(f"  {name:<20} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    layers = summary["layers"]
    print(f"  {'ev_gain':<20} {layers['harness.ev_gain']:>14.6g} payoff")
    print(f"  {'failed_frac':<20} "
          f"{summary['failed'] / summary['attempted']:>14.6g} ratio  "
          f"{summary['failed']} of {summary['attempted']}")
    if summary["cap_unseen"]:
        print(f"  cap not checked: bindings gone: {summary['cap_unseen']}")
    print(f"  {'cap_late_lps_max':<20} {summary['late_lps']:>14d} count  "
          f"LPs a capped solve started past its cap, at most "
          f"{MAX_LATE_LPS}")
    if trace:
        for name, value in layers.items():
            unit = PER_LAYER.get(name, ("s",))[0]
            print(f"  {name:<40} {value:>14.6g} {unit}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where result CSVs, counts and spans go")
    args = parser.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    summary, problems = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.out)
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print_report(summary, bool(args.trace))
    table = PER_LAYER if args.trace else END_TO_END
    source = summary["layers"] if args.trace else summary["e2e"]
    metrics = {name: {"value": source[name], "unit": unit}
               for name, (unit, _) in table.items() if name in source}
    print(json.dumps({"correct": not problems,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
