"""The subgame builder's canonical form.

build_constrained_milp emits every model in one order: a head's bound is a
bound on its v column, so the order the BoundsMap lists the bounds in does
not enter the model.  solver.fingerprint digests the model in build order,
so twins match only because build_constrained_milp owns it.

The builder reads each leaf's deepest in-subgame sequence with a lookup
(search._local_seq); the walk up the treeplex it replaced is kept here as
its reference.
"""

from __future__ import annotations

import pytest

from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.efg import FOLLOWER, LEADER
from stackelberg_search.games import (
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    bounds_demo_game,
    goofspiel_game,
    kuhn_game,
    leduc_game,
    random_small_game,
    shared_exit_game,
    two_stage_game,
    two_subgame_exit_game,
)
from stackelberg_search.search import (
    _CONST_ONE,
    BoundsMap,
    _local_seq,
    build_constrained_milp,
    partition_subgames,
    prepare_search,
)
from stackelberg_search.solver import fingerprint


def test_model_is_the_same_whatever_the_bounds_map_order():
    game = leduc_game(LeducSpec(n=3, rho=0.1))
    blueprint = make_blueprint(game, "zerosum").plan
    partition = partition_subgames(game, "leduc")
    context = prepare_search(game, blueprint, partition)
    sub = partition.subgames[0]
    bounds = context.bounds[sub.index]
    assert len(bounds.bounds) == 10
    reversed_bounds = BoundsMap(dict(reversed(bounds.bounds.items())))
    first, second = (
        build_constrained_milp(game, sub, context.quantities[sub.index], b,
                               context.brvs)
        for b in (bounds, reversed_bounds))
    lp1, lp2 = first.problem.lp, second.problem.lp
    for column in ("row", "col", "relation", "rhs", "row_names", "lower",
                   "upper"):
        assert getattr(lp1, column) == getattr(lp2, column), column
    assert fingerprint(first.problem, first.warm) == \
        fingerprint(second.problem, second.warm)


def _walked_local_seq(tp, node_id, inside):
    """The deepest in-subgame sequence on the path, found by walking up."""
    seq = int(tp.node_seq[node_id])
    while True:
        record = tp.sequences[seq]
        if record.parent_infoset is None:
            return _CONST_ONE
        if record.parent_infoset in inside:
            return seq
        seq = tp.entry_seq[record.parent_infoset]


def _partitions():
    for game in (two_subgame_exit_game(), shared_exit_game(),
                 bounds_demo_game()):
        yield partition_subgames(game, "metadata"), game
    for game in (kuhn_game(), *(random_small_game(seed) for seed in range(4))):
        yield partition_subgames(game, "whole-game"), game
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=4))
    yield partition_subgames(game, "two-stage"), game
    game = goofspiel_game(GoofspielSpec(n=3))
    for m in (1, 2):
        yield partition_subgames(game, "goofspiel", m=m), game
    game = leduc_game(LeducSpec(n=2, rho=0.1))
    yield partition_subgames(game, "leduc"), game


@pytest.mark.parametrize("player", [LEADER, FOLLOWER])
def test_local_sequence_lookup_matches_the_walk(player):
    pairs = 0
    for partition, game in _partitions():
        tp = game.treeplex(player)
        for sub in partition:
            inside = set(sub.infosets[player])
            for z in sub.terminals:
                assert _local_seq(tp, z, inside) == \
                    _walked_local_seq(tp, z, inside), (sub.index, z)
                pairs += 1
    assert pairs > 1000
