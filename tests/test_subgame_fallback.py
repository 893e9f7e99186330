"""A subgame whose solver fails both warm and cold falls back to the
blueprint and still reports the time those two solves took."""

import time

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
from stackelberg_search.solver import SolverError

NAP_S = 0.01


def test_failed_subgame_reports_its_wall_time(monkeypatch):
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    context = prepare_search(game, blueprint, partition)
    sub = partition.subgames[0]
    model = build_constrained_milp(game, sub, context.quantities[0],
                                   context.bounds[0], blueprint, context.brvs)
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
    assert solution.local_plan == blueprint_local_plan(game, sub, blueprint)
    assert solution.wall_time >= 2 * NAP_S
