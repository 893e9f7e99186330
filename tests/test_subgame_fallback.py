"""A subgame's wall_time counts every solve attempt: the warm one that
raised as well as the cold retry, whether the retry fails too (the subgame
falls back to the blueprint) or succeeds."""

import time

import pytest

from stackelberg_search import search
from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.games import two_subgame_exit_game
from stackelberg_search.search import (
    blueprint_local_plan,
    build_constrained_milp,
    partition_subgames,
    prepare_search,
    solve_subgame,
)
from stackelberg_search.solver import OPTIMAL, SolverError

NAP_S = 0.01
# Far longer than the cold solve of the model, so a wall_time that counts
# only the retry stays below it.
WARM_NAP_S = 0.2


@pytest.fixture
def exit_model():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    context = prepare_search(game, blueprint, partition)
    sub = partition.subgames[0]
    model = build_constrained_milp(game, sub, context.quantities[0],
                                   context.bounds[0], context.brvs)
    return game, blueprint, model


def test_failed_subgame_reports_its_wall_time(monkeypatch, exit_model):
    game, blueprint, model = exit_model
    attempts = []

    def failing_solve(problem, warm=None, time_limit=None):
        attempts.append(warm is not None)
        time.sleep(NAP_S)
        raise SolverError("injected failure")

    monkeypatch.setattr(search, "solve_milp", failing_solve)
    solution = solve_subgame(game, model, blueprint)
    assert attempts == [True, False]   # warm first, then cold
    assert solution.status == "WarmStartFailed"
    assert solution.used_fallback
    assert solution.local_plan == blueprint_local_plan(game, model.subgame,
                                                       blueprint)
    assert solution.wall_time >= 2 * NAP_S


def test_cold_retry_reports_the_failed_warm_attempt_too(monkeypatch,
                                                        exit_model):
    game, blueprint, model = exit_model
    solve_milp = search.solve_milp

    def failing_warm(problem, warm=None, time_limit=None):
        if warm is not None:
            time.sleep(WARM_NAP_S)
            raise SolverError("injected failure")
        return solve_milp(problem, time_limit=time_limit)

    monkeypatch.setattr(search, "solve_milp", failing_warm)
    solution = solve_subgame(game, model, blueprint)
    assert solution.status == OPTIMAL and not solution.used_fallback
    assert solution.wall_time >= WARM_NAP_S
