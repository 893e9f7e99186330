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
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.efg import (
    LEADER,
    GameError,
    GameTree,
    RealizationPlan,
    expected_payoffs,
)
from stackelberg_search.gadget import solve_via_gadget
from stackelberg_search.games import FAMILY_PARAMS, generate, load_game
from stackelberg_search.response import BrvTable, best_response, compute_brvs
from stackelberg_search.search import (
    NO_BOUNDS,
    SKIPPED_UNREACHABLE,
    BoundsMap,
    SubgamePartition,
    SubgameSolution,
    build_constrained_milp,
    keep_blueprint,
    partition_subgames,
    prepare_search,
    reuse_solution,
    solve_subgame,
)
from stackelberg_search.solver import MilpSolution, SolverError, fingerprint

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
        for infoset, head in sub.head_of[LEADER].items():
            scale = float(blueprint.probs[tp1.entry_seq[head]])
            seqs = tp1.actions_of(infoset)
            if all(s in local for s in seqs):
                for s in seqs:
                    probs[s] = scale * float(local[s])
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


def safe_search(game: GameTree, blueprint: RealizationPlan,
                partition: SubgamePartition, *, alpha: float = 0.5,
                beta: float = 1.0, time_limit: Optional[float] = None,
                workers: int = 1,
                brvs: Optional[BrvTable] = None) -> SearchReport:
    """Refine the blueprint in every subgame under follower-value bounds.

    Subgames the blueprint cannot reach (leader/chance probability zero)
    are skipped: no strategy of either player makes their refinement
    matter, so they keep the blueprint.  Solver failures inside a subgame
    also fall back to the blueprint there, which is what makes the whole
    procedure never worse than not searching.

    Subgames whose models equal an earlier subgame's bit for bit (the same
    solver.fingerprint digest, as suit-mirrored Leduc states have) take
    that twin's solution instead of a solve, once it passes their own
    model's checks (reuse_solution); otherwise they are solved like any
    other.  Models are built and matched in index order in the calling
    thread, so each group's representative is its lowest index whatever
    `workers` is; with one worker one model is alive at a time.  A twin
    whose representative is still solving does not hold a worker: it is
    settled once the pool drains.

    `brvs`, the blueprint's best-response values when the caller has
    them, are used instead of computed again (see prepare_search).
    """
    context = prepare_search(game, blueprint, partition, alpha, beta,
                             brvs=brvs)
    quantities, bounds = context.quantities, context.bounds
    representatives: dict[bytes, int] = {}
    # Only the calling thread reads or writes representatives.  Workers
    # share finished without a lock: each key is set once, after its solve
    # returns, and a dict store or lookup is atomic.
    finished: dict[int, SubgameSolution] = {}

    def classify(sub):
        """A skipped subgame's solution, or (model, twin): the lowest-index
        subgame whose model has the same digest, None for a
        representative."""
        q = quantities[sub.index]
        if q.eta is None:
            return keep_blueprint(game, sub, blueprint, MilpSolution(
                SKIPPED_UNREACHABLE, 0.0, None, 0.0, 0.0))
        model = build_constrained_milp(game, sub, q, bounds[sub.index],
                                       context.brvs)
        twin = representatives.setdefault(
            fingerprint(model.problem, model.warm), sub.index)
        return model, None if twin == sub.index else twin

    def solve(job):
        """Solve a representative, settle a twin whose representative has
        finished, and pass any other twin on unchanged."""
        if isinstance(job, SubgameSolution):
            return job
        model, twin = job
        if twin is None:
            solution = solve_subgame(game, model, blueprint,
                                     time_limit=time_limit)
            finished[model.subgame.index] = solution
            return solution
        return settle(job) if twin in finished else job

    def settle(job) -> SubgameSolution:
        """A twin's solution: its representative's, once that passes the
        twin's checks, else its own solve."""
        if isinstance(job, SubgameSolution):
            return job
        model, twin = job
        index = model.subgame.index
        solution = reuse_solution(game, model, finished[twin])
        if solution is None:
            logger.debug("subgame %d: the solution of its twin %d fails its "
                         "checks", index, twin)
            return solve_subgame(game, model, blueprint,
                                 time_limit=time_limit)
        logger.debug("subgame %d reuses the solution of its twin %d",
                     index, twin)
        return solution

    # Executor.map and the builtin map both pull their input in the calling
    # thread, and the builtin map is lazy.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        each = pool.map if workers > 1 else map
        solutions = list(each(settle, list(each(solve, map(classify,
                                                           partition)))))
    local_plans = {s.index: s.local_plan for s in solutions}
    plan = compose_strategy(game, blueprint, partition, local_plans)
    return SearchReport(plan=plan, solutions=tuple(solutions), bounds=bounds,
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
        if not isinstance(raw, Mapping) or "family" not in raw:
            raise GameError(f"game {raw!r} needs a 'family' key")
        family = str(raw["family"])
        kinds = FAMILY_PARAMS.get(family, {})
        known = {"family", "label", "path"}
        if "path" in raw and not (family == "file" and raw["path"]
                                  and isinstance(raw["path"], str)):
            raise GameError(f"game 'path' must be a non-empty string on a "
                            f"'file' game, not {raw['path']!r} on a "
                            f"{family!r} game")
        params = tuple(sorted((k, v) for k, v in raw.items()
                              if k not in known))
        for key, value in params:
            if key not in kinds:
                raise GameError(f"game family {family!r} takes no parameter "
                                f"{key!r}")
            if not (_is_number(value) and math.isfinite(value)):
                raise GameError(f"game parameter {key!r} must be a finite "
                                f"number, not {value!r}")
            if kinds[key] is int and value != int(value):
                raise GameError(f"game parameter {key!r} must be an "
                                f"integer, not {value!r}")
        return GameSpec(family=family,
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
        """Refuse a config that cannot run, naming the offending key."""
        if not self.games:
            raise GameError("experiment config lists no games")
        if not (_is_number(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise GameError(f"alpha must lie in [0, 1], not {self.alpha!r}")
        if not (_is_number(self.beta) and 1.0 <= self.beta < math.inf):
            raise GameError(f"beta must be a finite number >= 1, not "
                            f"{self.beta!r}")
        for key, value in (("seed", self.seed), ("m", self.scheme_m)):
            if value is not None and not _is_number(value, int):
                raise GameError(f"{key} must be an integer, not {value!r}")
        if not isinstance(self.solve_full_game, bool):
            raise GameError("solve_full_game must be true or false")
        check_run_limits(self.workers,
                         subgame_time_limit=self.subgame_time_limit,
                         full_game_time_limit=self.full_game_time_limit)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not (isinstance(raw, dict)
                and isinstance(raw.get("games", []), list)):
            raise GameError("experiment config must be a JSON object whose "
                            "games are a list")
        unknown = sorted(raw.keys() - {"games", *_CONFIG_FIELDS})
        if unknown:
            raise GameError(f"experiment config has unknown keys: "
                            f"{', '.join(unknown)}")
        config = ExperimentConfig(
            games=tuple(GameSpec.from_dict(g) for g in raw.get("games", ())),
            **{_CONFIG_FIELDS[key]: value for key, value in raw.items()
               if key != "games"})
        config.validate()
        return config


# Config JSON key -> ExperimentConfig field, for every key but "games".
_CONFIG_FIELDS = {"blueprint": "blueprint_method", "scheme": "scheme",
                  "m": "scheme_m", "alpha": "alpha", "beta": "beta",
                  "subgame_time_limit": "subgame_time_limit",
                  "full_game_time_limit": "full_game_time_limit",
                  "solve_full_game": "solve_full_game", "seed": "seed",
                  "workers": "workers"}


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def check_run_limits(workers, **time_limits: Optional[float]) -> None:
    """Refuse a worker count other than an integer >= 1 or a time limit
    other than a positive finite number (None is no limit), by key."""
    if not (_is_number(workers, int) and workers >= 1):
        raise GameError(f"workers must be an integer >= 1, not {workers!r}")
    for key, limit in time_limits.items():
        if limit is not None and not (
                _is_number(limit) and 0.0 < limit < float("inf")):
            raise GameError(f"time limits must be positive and finite: "
                            f"{key} is {limit!r}")


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
                     time_limit: Optional[float], *,
                     brvs: Optional[BrvTable] = None) -> Optional[float]:
    """Whole-game commitment value, independently re-evaluated; None if the
    solver produced no usable incumbent within the limit.  It is a search
    over the whole-game partition, whose head bounds are vacuous; `brvs`
    are the blueprint's best-response values if already computed."""
    report = safe_search(game, blueprint,
                         partition_subgames(game, "whole-game"),
                         time_limit=time_limit, brvs=brvs)
    if report.n_fallbacks:
        return None
    return evaluate_leader(game, report.plan)


def run_single(game: GameTree, config: ExperimentConfig,
               label: str) -> tuple[ResultRow, SearchReport]:
    started = time.perf_counter()
    blueprint = make_blueprint(game, config.blueprint_method)
    partition = partition_subgames(game, config.scheme, m=config.scheme_m)
    # Both searches share the blueprint's best-response values.  A lone
    # search computes its own and drops them when it returns.
    brvs = compute_brvs(game, blueprint.plan) if config.solve_full_game \
        else None
    report = safe_search(game, blueprint.plan, partition,
                         alpha=config.alpha, beta=config.beta,
                         time_limit=config.subgame_time_limit,
                         workers=config.workers, brvs=brvs)
    blueprint_ev = expected_payoffs(game, blueprint.plan, report.response)[0]
    search_ev = evaluate_leader(game, report.plan)
    full_ev = None
    if config.solve_full_game:
        full_ev = _solve_full_game(game, blueprint.plan,
                                   config.full_game_time_limit, brvs=brvs)
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
