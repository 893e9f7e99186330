"""An incumbent that breaks its own model is a solver defect.

solve_subgame raises SolverError, ending "(solver bug)", when the solver
hands back an assignment that violates a head-value bound of the subgame,
or an objective that is not the payoff of the strategy the assignment
encodes.  Both are injected here into otherwise real solutions.
"""

import dataclasses

import numpy as np
import pytest

from stackelberg_search import search
from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.games import two_subgame_exit_game
from stackelberg_search.search import (
    LOWER,
    build_constrained_milp,
    partition_subgames,
    prepare_search,
    solve_subgame,
)
from stackelberg_search.solver import OPTIMAL, SolverError

PUSH = 1e-3


def _subgame(index):
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    context = prepare_search(game, blueprint, partition)
    sub = partition.subgames[index]
    bounds = context.bounds[index]
    model = build_constrained_milp(game, sub, context.quantities[index],
                                   bounds, blueprint, context.brvs)
    return game, blueprint, model, bounds


def _inject(monkeypatch, change):
    """Make search.solve_milp return the real solution, changed."""
    original = search.solve_milp

    def changed(problem, warm=None, time_limit=None):
        solution = original(problem, warm=warm, time_limit=time_limit)
        assert solution.status == OPTIMAL
        return change(solution)

    monkeypatch.setattr(search, "solve_milp", changed)


@pytest.mark.parametrize("index", [0, 1])   # a lower and an upper bound
def test_incumbent_past_a_head_bound_is_a_solver_bug(monkeypatch, index):
    game, blueprint, model, bounds = _subgame(index)
    (infoset, (direction, value)), = bounds.bounds.items()
    var = model.v_vars[infoset]
    assert solve_subgame(game, model, blueprint).status == OPTIMAL

    def past_bound(solution):
        x = solution.assignment.copy()
        x[var] = value - PUSH if direction == LOWER else value + PUSH
        return dataclasses.replace(solution, assignment=x)

    _inject(monkeypatch, past_bound)
    with pytest.raises(SolverError, match=r"\(solver bug\)$"):
        solve_subgame(game, model, blueprint)


@pytest.mark.parametrize("index", [0, 1])
def test_objective_off_the_encoded_payoff_is_a_solver_bug(monkeypatch,
                                                          index):
    game, blueprint, model, _ = _subgame(index)

    def off_objective(solution):
        assert np.isfinite(solution.objective)
        return dataclasses.replace(solution,
                                   objective=solution.objective + PUSH)

    _inject(monkeypatch, off_objective)
    with pytest.raises(SolverError, match=r"\(solver bug\)$"):
        solve_subgame(game, model, blueprint)
