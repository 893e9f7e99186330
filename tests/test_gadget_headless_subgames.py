"""The gadget agrees with the direct bounded solve on subgames without a
follower head.

Such a subgame gets an empty bounds map from a bounded search.  That map is
still a bounded transform: a branch the blueprint response never enters
weighs zero in the direct program, so the gadget must neutralize it too.
Only NO_BOUNDS, the unbounded baseline, keeps every branch's payoffs.
"""

from __future__ import annotations

import pytest

from stackelberg_search.blueprint import uniform_blueprint
from stackelberg_search.gadget import solve_via_gadget
from stackelberg_search.games import random_small_game
from stackelberg_search.search import (
    build_constrained_milp,
    partition_subgames,
    prepare_search,
    solve_subgame,
)
from stackelberg_search.solver import OPTIMAL


def test_gadget_matches_direct_on_subgames_without_follower_heads():
    game = random_small_game(0)
    blueprint = uniform_blueprint(game).plan
    partition = partition_subgames(game, "explicit",
                                   initial_nodes=[[4, 15], [8, 13], [9]])
    context = prepare_search(game, blueprint, partition)
    values = []
    for sub in partition:
        q = context.quantities[sub.index]
        bounds = context.bounds[sub.index]
        assert not bounds.bounds
        model = build_constrained_milp(game, sub, q, bounds,
                                       context.brvs)
        direct = solve_subgame(game, model, blueprint)
        assert direct.status == OPTIMAL
        via = solve_via_gadget(game, sub, q, bounds)
        assert via.value == pytest.approx(direct.objective, abs=1e-6)
        values.append(direct.objective)
    assert values == pytest.approx([0.4315, 0.0, 0.0], abs=1e-4)
