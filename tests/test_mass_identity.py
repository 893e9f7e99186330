"""The subgame MILP holds the blueprint's entry mass without a row for it.

At every feasible point of a subgame model, sum(cj(z) * p(z)) over the
leaves equals the blueprint's probability of reaching them, computed here
directly as sum(reach * r1_bp * r2_bp) over the subgame's leaves (r2_bp
being the blueprint's best response).  The joint-reach rows force it:
x(h) = 1 at the initial states, each chance child's reach equals its
parent's, and a player node's children's reaches sum to its own, so the
chance-weighted leaf reaches below each initial state sum to its chance
reach, and cj is constant per initial state.  It is checked at the root LP
solution and at the incumbent of every reachable subgame.
"""

from __future__ import annotations

import pytest

from stackelberg_search.blueprint import make_blueprint, stage_sse_blueprint
from stackelberg_search.efg import FOLLOWER, LEADER
from stackelberg_search.games import (
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    goofspiel_game,
    leduc_game,
    two_stage_game,
)
from stackelberg_search.search import (
    build_constrained_milp,
    partition_subgames,
    prepare_search,
    solve_subgame,
)
from stackelberg_search.solver import OPTIMAL, solve_lp


def _leduc():
    game = leduc_game(LeducSpec(n=3, rho=0.1))
    return game, make_blueprint(game, "zerosum").plan, \
        partition_subgames(game, "leduc")


def _goofspiel():
    game = goofspiel_game(GoofspielSpec(n=4))
    return game, make_blueprint(game, "zerosum").plan, \
        partition_subgames(game, "goofspiel", m=3)


def _two_stage(seed):
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=seed))
    return game, stage_sse_blueprint(game).plan, \
        partition_subgames(game, "two-stage")


# name -> (game, blueprint and partition maker, reachable subgames)
CASES = {"leduc-n3-zerosum": (_leduc, 54),
         "goofspiel-n4-m3-zerosum": (_goofspiel, 16),
         **{f"twostage-seed{seed}": (lambda seed=seed: _two_stage(seed), n)
            for seed, n in enumerate((4, 8, 4, 8, 4, 4))}}


@pytest.mark.parametrize("name", CASES)
def test_leaf_reach_carries_the_blueprint_mass(name):
    build, n_reachable = CASES[name]
    game, blueprint, partition = build()
    context = prepare_search(game, blueprint, partition)
    tp1, tp2 = game.treeplex(LEADER), game.treeplex(FOLLOWER)
    reach = game.chance_reach()
    checked = 0
    for sub in partition:
        quantities = context.quantities[sub.index]
        if quantities.eta is None:
            continue
        mass = sum(float(reach[z] * blueprint.probs[tp1.node_seq[z]]
                         * context.response.probs[tp2.node_seq[z]])
                   for z in sub.terminals)
        model = build_constrained_milp(game, sub, quantities,
                                       context.bounds[sub.index],
                                       context.brvs)
        root = solve_lp(model.problem.lp)
        incumbent = solve_subgame(game, model, blueprint)
        assert root.status == incumbent.status == OPTIMAL
        for x in (root.assignment, incumbent.assignment):
            carried = sum(quantities.cj[z] * float(x[var])
                          for z, var in model.p_vars.items())
            assert carried == pytest.approx(mass, abs=1e-9), sub.index
        checked += 1
    assert checked == n_reachable
