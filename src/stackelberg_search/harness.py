"""End-to-end experiment driver: refine every subgame, compose, evaluate.

Reported expected values never come from solver objectives.  The composed
leader plan is evaluated against an exactly computed follower best response,
and safety (search EV >= blueprint EV, up to tolerance) is decided from
those independent evaluations alone.

Result CSVs contain only quantities that are deterministic for a fixed seed;
wall-clock measurements go to a separate timing report so that reruns of the
same configuration produce byte-identical result files.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.efg import (
    LEADER,
    GameError,
    GameTree,
    RealizationPlan,
    expected_payoffs,
)
from stackelberg_search.gadget import solve_via_gadget
from stackelberg_search.games import generate, load_game
from stackelberg_search.response import best_response
from stackelberg_search.search import (
    NO_BOUNDS,
    BoundsMap,
    SubgameModel,
    SubgamePartition,
    SubgameQuantities,
    SubgameSolution,
    blueprint_local_plan,
    build_constrained_milp,
    build_full_milp,
    extract_leader_plan,
    partition_subgames,
    prepare_search,
    reuse_solution,
    solve_subgame,
)
from stackelberg_search.solver import (
    INCUMBENT_TIME_LIMIT,
    OPTIMAL,
    Fingerprint,
    SolverError,
    fingerprint,
    solve_milp,
)

SAFETY_TOL = 1e-6

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Strategy composition


def compose_strategy(game: GameTree, blueprint: RealizationPlan,
                     partition: SubgamePartition,
                     local_plans: Mapping[int, Mapping[int, float]],
                     ) -> RealizationPlan:
    """Blueprint outside the subgames, refined local plans inside.

    Each local plan is normalized to one at its subgame's leader heads, so
    the composed realization of an in-subgame sequence is the blueprint
    probability of reaching the head times the local value.  Subgames absent
    from local_plans keep the blueprint; an infoset whose sequences are
    missing from a supplied plan keeps the blueprint too (this only happens
    on branches the blueprint never reaches, where both agree on zero).
    """
    tp1 = game.treeplex(LEADER)
    probs = blueprint.probs.copy()
    for sub in partition:
        local = local_plans.get(sub.index)
        if local is None:
            continue
        heads = set(sub.heads[LEADER])
        scale: dict[int, float] = {}
        for infoset in sub.top_down[LEADER]:
            entry = tp1.entry_seq[infoset]
            if infoset in heads:
                scale[infoset] = float(blueprint.probs[entry])
            else:
                scale[infoset] = scale[tp1.sequences[entry].parent_infoset]
            seqs = tp1.actions_of(infoset)
            if all(s in local for s in seqs):
                for s in seqs:
                    probs[s] = scale[infoset] * float(local[s])
    plan = RealizationPlan(LEADER, probs)
    plan.check_flow(tp1)
    return plan


def evaluate_leader(game: GameTree, plan: RealizationPlan) -> float:
    """The leader's exact payoff against the follower's best response."""
    response, _, _ = best_response(game, plan)
    return expected_payoffs(game, plan, response)[0]


# ---------------------------------------------------------------------------
# Search drivers


@dataclass
class SearchReport:
    """A composed plan plus everything the per-subgame solves produced."""

    plan: RealizationPlan
    solutions: tuple[SubgameSolution, ...]
    bounds: dict[int, BoundsMap]
    quantities: tuple[SubgameQuantities, ...]
    response: RealizationPlan      # the follower's best response to the
                                   # blueprint, as the preamble computed it

    @property
    def max_subgame_time(self) -> float:
        return max((s.wall_time for s in self.solutions), default=0.0)

    @property
    def n_fallbacks(self) -> int:
        return sum(1 for s in self.solutions if s.used_fallback)

    @property
    def n_reused(self) -> int:
        return sum(1 for s in self.solutions if s.twin_of is not None)


def _skipped(game: GameTree, sub, blueprint: RealizationPlan,
             status: str) -> SubgameSolution:
    return SubgameSolution(
        index=sub.index, status=status, objective=0.0,
        local_plan=blueprint_local_plan(game, sub, blueprint),
        used_fallback=True, wall_time=0.0, bound_gap=0.0)


class _TwinTable:
    """The subgames of one search by model fingerprint, shared by the
    worker threads.

    A subgame's twin is the lowest index below its own whose fingerprint
    matches.  Each subgame waits until every lower index has published, so
    the answer does not depend on thread timing; only subgames without a
    twin (the representatives) keep their fingerprint.  Waits only ever go
    to lower indices, which a FIFO pool has already started, so none blocks
    for good.  No subgame waits for a twin's solution: solution() answers
    at once.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._published: set[int] = set()
        self._representatives: dict[bytes, list[tuple[int, Fingerprint]]] = {}
        self._solutions: dict[int, Optional[SubgameSolution]] = {}

    def find(self, index: int,
             print_: Fingerprint) -> Optional[tuple[int, float]]:
        """Publish index's fingerprint; its twin and the largest difference
        between their numbers, or None when index is a representative."""
        with self._cond:
            self._cond.wait_for(lambda: self._published.issuperset(
                range(index)))
            self._published.add(index)
            self._cond.notify_all()
            group = self._representatives.setdefault(print_.structure, [])
            for twin, other in group:
                difference = other.difference(print_)
                if difference is not None:
                    return twin, difference
            group.append((index, print_))
            return None

    def solution(self, index: int) -> Optional[SubgameSolution]:
        """index's solution; None while it is unfinished (or if it raised)."""
        with self._cond:
            return self._solutions.get(index)

    def finish(self, index: int, solution: Optional[SubgameSolution]) -> None:
        """Record index's solution (None if it raised or was deferred);
        publishes it too."""
        with self._cond:
            self._published.add(index)
            self._solutions[index] = solution
            self._cond.notify_all()


class _Deferred(NamedTuple):
    """A twin whose representative was still solving when it was found."""

    model: SubgameModel
    twin: int
    difference: float


def safe_search(game: GameTree, blueprint: RealizationPlan,
                partition: SubgamePartition, *, alpha: float = 0.5,
                beta: float = 1.0, time_limit: Optional[float] = None,
                workers: int = 1) -> SearchReport:
    """Refine the blueprint in every subgame under follower-value bounds.

    Subgames the blueprint cannot reach (leader/chance probability zero)
    are skipped: no strategy of either player makes their refinement
    matter, so they keep the blueprint.  Solver failures inside a subgame
    also fall back to the blueprint there, which is what makes the whole
    procedure never worse than not searching.

    Subgames whose models match an earlier subgame's (solver.fingerprint,
    as suit-mirrored Leduc states do) take that twin's solution instead of
    a solve, once it passes their own model's checks (reuse_solution);
    otherwise they are solved like any other.  With several workers, a
    twin whose representative is still solving is set aside, not waited
    for, and settled once the pool drains.
    """
    context = prepare_search(game, blueprint, partition, alpha, beta)
    quantities, bounds = context.quantities, context.bounds
    twins = _TwinTable()

    def solve_one(sub) -> Union[SubgameSolution, _Deferred]:
        solution = None
        try:
            q = quantities[sub.index]
            if q.eta is None:
                solution = _skipped(game, sub, blueprint, "SkippedUnreachable")
                return solution
            model = build_constrained_milp(game, sub, q, bounds[sub.index],
                                           blueprint, context.brvs)
            found = twins.find(sub.index,
                               fingerprint(model.problem, model.warm))
            if found is not None:
                job = _Deferred(model, *found)
                if twins.solution(job.twin) is None:
                    return job
                solution = settle(job)
            else:
                solution = solve_subgame(game, model, blueprint,
                                         time_limit=time_limit)
            return solution
        finally:
            twins.finish(sub.index, solution)

    def settle(job: Union[SubgameSolution, _Deferred]) -> SubgameSolution:
        """A twin's solution: its representative's, once that passes the
        twin's checks, else its own solve."""
        if isinstance(job, SubgameSolution):
            return job
        index = job.model.subgame.index
        solution = reuse_solution(game, job.model, twins.solution(job.twin))
        if solution is None:
            logger.debug("subgame %d: the solution of its twin %d fails its "
                         "checks", index, job.twin)
            return solve_subgame(game, job.model, blueprint,
                                 time_limit=time_limit)
        logger.debug("subgame %d reuses the solution of its twin %d "
                     "(largest difference %.3g)", index, job.twin,
                     job.difference)
        return solution

    # With one worker every representative has finished before its twins
    # are found, so no twin is deferred.
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(solve_one, partition.subgames))
            solutions = list(pool.map(settle, found))
    else:
        solutions = [solve_one(sub) for sub in partition]
    local_plans = {s.index: s.local_plan for s in solutions}
    plan = compose_strategy(game, blueprint, partition, local_plans)
    return SearchReport(plan=plan, solutions=tuple(solutions), bounds=bounds,
                        quantities=tuple(quantities),
                        response=context.response)


def naive_search(game: GameTree, blueprint: RealizationPlan,
                 partition: SubgamePartition) -> RealizationPlan:
    """Re-solve every reachable subgame with no bounds at all.

    Each subgame becomes a fresh commitment problem over the normalized
    distribution of its entry states.  Nothing holds the follower's earlier
    incentives in place, so a follower who anticipates the re-solve can
    steer play and exploit it; this exists to demonstrate that failure
    mode, not to be used.
    """
    quantities = prepare_search(game, blueprint, partition).quantities
    local_plans: dict[int, Mapping[int, float]] = {}
    for sub in partition:
        q = quantities[sub.index]
        if q.eta is None:
            continue
        try:
            local_plans[sub.index] = solve_via_gadget(
                game, sub, q, NO_BOUNDS).local_plan
        except SolverError:
            continue
    return compose_strategy(game, blueprint, partition, local_plans)


# ---------------------------------------------------------------------------
# Experiment configuration and result rows


@dataclass(frozen=True)
class GameSpec:
    """A declarative game source: a generator family or a file path."""

    family: str
    label: str = ""
    path: Optional[str] = None
    params: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def from_dict(raw: Mapping) -> "GameSpec":
        known = {"family", "label", "path"}
        params = tuple(sorted((k, v) for k, v in raw.items()
                              if k not in known))
        return GameSpec(family=str(raw["family"]),
                        label=str(raw.get("label", "")),
                        path=raw.get("path"), params=params)

    def materialize(self) -> GameTree:
        if self.family == "file":
            if not self.path:
                raise GameError("file game source needs a path")
            return load_game(self.path)
        return generate(self.family, **dict(self.params))

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.family == "file":
            return str(self.path)
        parts = [f"{k}={v}" for k, v in self.params]
        return self.family + ("(" + ",".join(parts) + ")" if parts else "")


@dataclass(frozen=True)
class ExperimentConfig:
    games: tuple[GameSpec, ...]
    blueprint_method: str = "zerosum"
    scheme: str = "whole-game"
    scheme_m: Optional[int] = None
    alpha: float = 0.5
    beta: float = 1.0
    subgame_time_limit: Optional[float] = None
    full_game_time_limit: Optional[float] = None
    solve_full_game: bool = False
    seed: int = 0
    workers: int = 1

    def validate(self) -> None:
        if not self.games:
            raise GameError("experiment config lists no games")
        if not 0.0 <= self.alpha <= 1.0:
            raise GameError("alpha must lie in [0, 1]")
        if self.beta < 1.0:
            raise GameError("beta must be >= 1")
        for limit in (self.subgame_time_limit, self.full_game_time_limit):
            if limit is not None and limit <= 0.0:
                raise GameError("time limits must be positive")
        if self.workers < 1:
            raise GameError("workers must be >= 1")

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        games = tuple(GameSpec.from_dict(g) for g in raw.get("games", ()))
        config = ExperimentConfig(
            games=games,
            blueprint_method=raw.get("blueprint", "zerosum"),
            scheme=raw.get("scheme", "whole-game"),
            scheme_m=raw.get("m"),
            alpha=float(raw.get("alpha", 0.5)),
            beta=float(raw.get("beta", 1.0)),
            subgame_time_limit=raw.get("subgame_time_limit"),
            full_game_time_limit=raw.get("full_game_time_limit"),
            solve_full_game=bool(raw.get("solve_full_game", False)),
            seed=int(raw.get("seed", 0)),
            workers=int(raw.get("workers", 1)))
        config.validate()
        return config


@dataclass
class ResultRow:
    game: str
    scheme: str
    n_subgames: int
    alpha: float
    beta: float
    seed: int
    blueprint_ev: float
    search_ev: float
    full_game_ev: Optional[float]
    safety: bool
    bounds_mode: str              # "safe" or "potentially-unsafe"
    n_fallbacks: int
    wall_time: float              # timing report only, never in the CSV
    max_subgame_time: float       # timing report only, never in the CSV


CSV_COLUMNS = ("game", "scheme", "subgames", "alpha", "beta", "seed",
               "blueprint_ev", "search_ev", "full_game_ev", "safety",
               "bounds_mode", "fallbacks")


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.game, row.scheme, row.n_subgames, _fmt(row.alpha),
            _fmt(row.beta), row.seed, _fmt(row.blueprint_ev),
            _fmt(row.search_ev),
            "N/A" if row.full_game_ev is None else _fmt(row.full_game_ev),
            "true" if row.safety else "false", row.bounds_mode,
            row.n_fallbacks,
        ])
    return out.getvalue()


def write_csv(rows: Sequence[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(rows_to_csv(rows))


def write_timing_report(rows: Sequence[ResultRow], path: str) -> None:
    report = [{"game": row.game, "wall_time": row.wall_time,
               "max_subgame_time": row.max_subgame_time} for row in rows]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# The experiment itself


def _solve_full_game(game: GameTree, blueprint: RealizationPlan,
                     time_limit: Optional[float]) -> Optional[float]:
    """Whole-game commitment value, independently re-evaluated; None if the
    solver produced no usable incumbent within the limit."""
    model = build_full_milp(game, r1_warm=blueprint)
    try:
        solution = solve_milp(model.problem, warm=model.warm,
                              time_limit=time_limit)
    except SolverError:
        return None
    if solution.status not in (OPTIMAL, INCUMBENT_TIME_LIMIT) or \
            solution.assignment is None:
        return None
    plan = extract_leader_plan(game, model, solution)
    return evaluate_leader(game, plan)


def run_single(game: GameTree, config: ExperimentConfig,
               label: str) -> tuple[ResultRow, SearchReport]:
    started = time.perf_counter()
    blueprint = make_blueprint(game, config.blueprint_method)
    partition = partition_subgames(game, config.scheme, m=config.scheme_m)
    report = safe_search(game, blueprint.plan, partition,
                         alpha=config.alpha, beta=config.beta,
                         time_limit=config.subgame_time_limit,
                         workers=config.workers)
    blueprint_ev = expected_payoffs(game, blueprint.plan, report.response)[0]
    search_ev = evaluate_leader(game, report.plan)
    full_ev = None
    if config.solve_full_game:
        full_ev = _solve_full_game(game, blueprint.plan,
                                   config.full_game_time_limit)
    row = ResultRow(
        game=label, scheme=config.scheme, n_subgames=len(partition),
        alpha=config.alpha, beta=config.beta, seed=config.seed,
        blueprint_ev=blueprint_ev, search_ev=search_ev, full_game_ev=full_ev,
        safety=search_ev >= blueprint_ev - SAFETY_TOL,
        bounds_mode="safe" if config.beta <= 1.0 else "potentially-unsafe",
        n_fallbacks=report.n_fallbacks,
        wall_time=time.perf_counter() - started,
        max_subgame_time=report.max_subgame_time)
    return row, report


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    config.validate()
    rows = []
    for spec in config.games:
        game = spec.materialize()
        row, _ = run_single(game, config, spec.describe())
        rows.append(row)
    return rows
