"""Gadget construction and its equivalence with direct bounded re-solving."""

from __future__ import annotations

import pytest

from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.efg import FOLLOWER, LEADER, GameError, uniform_plan
from stackelberg_search.gadget import (
    GadgetGame,
    group_heads,
    solve_via_gadget,
    transform_subgame,
)
from stackelberg_search.games import (
    LeducSpec,
    bounds_demo_game,
    kuhn_game,
    leduc_game,
    random_small_game,
    shared_exit_game,
    two_subgame_exit_game,
)
from stackelberg_search.response import best_response
from stackelberg_search.search import (
    LOWER,
    BoundsMap,
    SubgameQuantities,
    build_constrained_milp,
    compute_subgame_quantities,
    partition_subgames,
    prepare_search,
    solve_subgame,
)
from stackelberg_search.solver import OPTIMAL

from oracles import sse_oracle


def pipeline(game, alpha=0.5, beta=1.0, scheme="metadata"):
    r1 = fixed_blueprint(game).plan
    partition = partition_subgames(game, scheme)
    context = prepare_search(game, r1, partition, alpha, beta)
    return r1, context.brvs, partition, context.quantities, context.bounds


def test_group_heads_bounds_demo():
    game = bounds_demo_game()
    partition = partition_subgames(game, "metadata")
    tp2 = game.treeplex(FOLLOWER)
    label = {tp2.seq_label(s): s for s in range(tp2.n_sequences)}
    box1 = group_heads(game, partition.subgames[0])
    assert box1 == {label["C/E"]: (2, 3), label["C/F"]: (4,)}
    box2 = group_heads(game, partition.subgames[1])
    assert box2 == {label["C/G"]: (5,), label["C/I"]: (7,)}


def test_group_heads_leduc_pairs_by_own_card():
    game = leduc_game(LeducSpec(n=3, rho=0.1))
    sub = partition_subgames(game, "leduc").subgames[0]
    groups = group_heads(game, sub)
    # The follower's check-facing and bet-facing heads share its round-one
    # sequence, one pair per own card.
    assert len(groups) == 5
    assert all(len(heads) == 2 for heads in groups.values())


def test_transform_two_subgame_exit_left_structure():
    game = two_subgame_exit_game()
    r1, brvs, partition, quantities, bounds = pipeline(game)
    gg = transform_subgame(game, partition.subgames[0], quantities[0],
                           bounds[0])
    root = gg.game.node(gg.game.root)
    assert root.kind == "chance"
    assert root.chance_probs == (1.0,)
    aux = gg.game.node(root.children[0])
    assert aux.kind == "player" and aux.player == FOLLOWER
    assert aux.actions == ("terminate", "continue")
    terminate = gg.game.node(aux.children[0])
    # Subgame payoffs reach magnitude 2 for the leader and 1 for the
    # follower, so the sentinel is 4e6; the bound 0.25 spread over entry
    # weight 0.5 prices terminate at 0.5 for the follower.
    assert terminate.payoffs == (-4e6, 0.5)
    assert gg.eta == pytest.approx(2.0)
    assert gg.kept_initial == (3,)
    assert len(gg.seq_map) == 2


def test_gadget_matches_constrained_on_fixture_subgames():
    for factory in (two_subgame_exit_game, shared_exit_game,
                    bounds_demo_game):
        game = factory()
        r1, brvs, partition, quantities, bounds = pipeline(game)
        for sub in partition:
            model = build_constrained_milp(
                game, sub, quantities[sub.index], bounds[sub.index], brvs)
            direct = solve_subgame(game, model, r1)
            assert direct.status == OPTIMAL
            via = solve_via_gadget(game, sub, quantities[sub.index],
                                   bounds[sub.index])
            assert via.value == pytest.approx(direct.objective, abs=1e-6), \
                (factory.__name__, sub.index)


def test_gadget_local_plan_matches_constrained():
    game = two_subgame_exit_game()
    r1, brvs, partition, quantities, bounds = pipeline(game)
    sub = partition.subgames[0]
    via = solve_via_gadget(game, sub, quantities[0], bounds[0])
    tp1 = game.treeplex(LEADER)
    u_seq, v_seq = tp1.actions_of(2)
    assert via.local_plan[u_seq] == pytest.approx(0.75, abs=1e-6)
    assert via.local_plan[v_seq] == pytest.approx(0.25, abs=1e-6)


def test_unbounded_gadget_on_whole_game_is_plain_commitment():
    for game in (kuhn_game(), random_small_game(0), random_small_game(3)):
        partition = partition_subgames(game, "whole-game")
        r1 = uniform_plan(game, LEADER)
        r2, _, _ = best_response(game, r1)
        (sub,) = partition
        (quantities,) = compute_subgame_quantities(game, partition, r1, r2)
        empty = BoundsMap({})
        via = solve_via_gadget(game, sub, quantities, empty)
        oracle_value, _ = sse_oracle(game)
        assert via.value == pytest.approx(oracle_value, abs=1e-6)


def test_transform_rejects_unreachable_subgame():
    game = two_subgame_exit_game()
    r1, brvs, partition, quantities, bounds = pipeline(game)
    sub = partition.subgames[0]
    unreachable = SubgameQuantities(
        index=0, omega={3: 0.0}, eta=None,
        ctilde={5: 0.0, 6: 0.0}, cj={5: 0.0, 6: 0.0})
    with pytest.raises(GameError, match="never enters"):
        transform_subgame(game, sub, unreachable, bounds[0])


def test_transform_drops_zero_reach_initial_states():
    game = bounds_demo_game()
    r1, brvs, partition, quantities, bounds = pipeline(game, alpha=0.0)
    sub = partition.subgames[0]
    doctored = SubgameQuantities(
        index=0,
        omega={5: 0.25, 7: 0.25, 9: 0.0},
        eta=2.0,
        ctilde=quantities[0].ctilde,
        cj=quantities[0].cj)
    with pytest.warns(UserWarning, match="zero blueprint reach"):
        gg = transform_subgame(game, sub, doctored, bounds[0])
    assert gg.kept_initial == (5, 7)
    assert gg.dropped_initial == (9,)
    root = gg.game.node(gg.game.root)
    assert root.chance_probs == (0.5, 0.5)
    # Only the e-group survives; its two initial states split the summed
    # bound of 1.0, each divided by entry weight 0.25 and group size 2.
    assert len(gg.aux_infosets) == 1
    for child in root.children:
        aux = gg.game.node(child)
        assert aux.actions == ("terminate", "continue")
        assert gg.game.node(aux.children[0]).payoffs[1] == pytest.approx(2.0)
