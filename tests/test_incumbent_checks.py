"""An incumbent that breaks its own model is a solver defect.

solve_subgame raises SolverError, ending "(solver bug)", when the solver
hands back an assignment that violates a head-value bound of the subgame,
or an objective that is not the payoff of the strategy the assignment
encodes.  Both are injected here into otherwise real solutions.  The
whole-game and gadget commitment solves go through the same checks.
"""

import dataclasses

import numpy as np
import pytest

from stackelberg_search import search
from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.efg import LEADER
from stackelberg_search.gadget import solve_via_gadget
from stackelberg_search.games import two_subgame_exit_game
from stackelberg_search.harness import _solve_full_game
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
                                   bounds, context.brvs)
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


@pytest.mark.parametrize("solve", ["full-game", "gadget"])
def test_full_game_and_gadget_incumbents_are_checked(monkeypatch, solve):
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    read = []
    original = search._read_incumbent

    def counting(*args):
        read.append(args)
        return original(*args)

    monkeypatch.setattr(search, "_read_incumbent", counting)
    if solve == "full-game":
        assert _solve_full_game(game, blueprint, None) == \
            pytest.approx(1.75, abs=1e-6)
    else:
        partition = partition_subgames(game, "metadata")
        context = prepare_search(game, blueprint, partition)
        via = solve_via_gadget(game, partition.subgames[0],
                               context.quantities[0], context.bounds[0])
        u_seq, v_seq = game.treeplex(LEADER).actions_of(2)
        assert via.local_plan == pytest.approx({u_seq: 0.75, v_seq: 0.25},
                                               abs=1e-6)
    assert len(read) == 1
