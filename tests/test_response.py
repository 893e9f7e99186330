"""Follower best response, best-response values, trunk, plan enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    BehavioralStrategy,
    GameError,
    GameNode,
    GameTree,
    RealizationPlan,
    TreeBuilder,
    behavioral_to_realization,
    expected_payoffs,
    uniform_plan,
)
from stackelberg_search.games import (
    bounds_demo_game,
    kuhn_game,
    random_small_game,
    shared_exit_game,
    two_subgame_exit_game,
)
from stackelberg_search.response import (
    NEG_INF,
    best_response,
    compute_brvs,
    compute_trunk,
)

from oracles import count_pure_plans, enumerate_pure_plans


def seq_ids_by_label(game, player):
    tp = game.treeplex(player)
    return {s.label: s.id for s in tp.sequences}


def test_two_subgame_exit_best_response():
    game = two_subgame_exit_game()
    bp = fixed_blueprint(game)
    plan, fv, lv = best_response(game, bp.plan)
    assert fv == pytest.approx(1.5)
    assert lv == pytest.approx(1.5)
    tp2 = game.treeplex(FOLLOWER)
    f_left, _, f_right, _ = tp2.infoset_ids
    assert plan.probs[tp2.actions_of(f_left)[1]] == 1.0   # stays left
    assert plan.probs[tp2.actions_of(f_right)[0]] == 1.0  # exits right
    u1, u2 = expected_payoffs(game, bp.plan, plan)
    assert (u1, u2) == (pytest.approx(1.5), pytest.approx(1.5))


def test_two_subgame_exit_brvs():
    game = two_subgame_exit_game()
    brvs = compute_brvs(game, fixed_blueprint(game).plan)
    tp2 = game.treeplex(FOLLOWER)
    # Infoset construction order: F-left, head-left, F-right, head-right.
    f_left, head_left, f_right, head_right = tp2.infoset_ids
    assert brvs.brv_inf[f_left] == pytest.approx(0.5)
    assert brvs.brv_inf[f_right] == pytest.approx(1.0)
    assert brvs.brv_inf[head_left] == pytest.approx(0.5)
    assert brvs.brv_inf[head_right] == pytest.approx(0.0)
    assert brvs.root_follower_value == pytest.approx(1.5)
    stay_left = tp2.actions_of(f_left)[1]
    exit_right = tp2.actions_of(f_right)[0]
    assert brvs.best_action[f_left] == stay_left
    assert brvs.best_action[f_right] == exit_right


def test_shared_exit_best_response():
    game = shared_exit_game()
    bp = fixed_blueprint(game)
    plan, fv, lv = best_response(game, bp.plan)
    assert fv == pytest.approx(1.0)
    assert lv == pytest.approx(1.0)
    tp2 = game.treeplex(FOLLOWER)
    root_infoset = tp2.infoset_ids[0]
    assert plan.probs[tp2.actions_of(root_infoset)[1]] == 1.0  # stays


def test_bounds_demo_brv_table():
    game = bounds_demo_game()
    plan = RealizationPlan(LEADER, np.array([1.0]))
    brvs = compute_brvs(game, plan)
    labels = seq_ids_by_label(game, FOLLOWER)
    expected_seq = {
        "take": 3.0, "C": 5.0, "C/E": 2.0, "C/F": 0.0, "C/G": -1.0,
        "C/I": 3.0, "C/J": 2.5, "C/J/K": 1.5, "C/J/L": 1.0,
    }
    for label, value in expected_seq.items():
        assert brvs.brv_seq[labels[label]] == pytest.approx(value), label
    # Infoset ids in builder order: B, D, e1/e2/f/g heads, H, i head, K-L.
    b_, d_, e1_, e2_, f_, g_, h_, i_, kl_ = range(9)
    assert brvs.brv_inf[b_] == pytest.approx(5.0)
    assert brvs.brv_inf[d_] == pytest.approx(2.0)
    assert brvs.brv_inf[h_] == pytest.approx(3.0)
    assert brvs.brv_inf[kl_] == pytest.approx(1.5)
    for head, value in [(e1_, 1.0), (e2_, 1.0), (f_, 0.0), (g_, -1.0),
                        (i_, 3.0)]:
        assert brvs.brv_inf[head] == pytest.approx(value)
    assert brvs.root_follower_value == pytest.approx(5.0)
    # Runner-up values feed the bound generator.
    assert brvs.second_value[b_] == pytest.approx(3.0)
    assert brvs.second_value[d_] == pytest.approx(0.0)
    assert brvs.second_value[h_] == pytest.approx(2.5)
    assert brvs.second_value[kl_] == pytest.approx(1.0)
    assert brvs.second_value[e1_] == NEG_INF


def test_tie_breaks_favor_leader_then_lowest_action():
    b = TreeBuilder()
    root = b.player(None, FOLLOWER, "F", ["x", "y", "z"])
    b.terminal(root, 0.0, 1.0)
    b.terminal(root, 2.0, 1.0)
    b.terminal(root, 2.0, 1.0)
    game = b.build()
    plan = RealizationPlan(LEADER, np.array([1.0]))
    brvs = compute_brvs(game, plan)
    tp2 = game.treeplex(FOLLOWER)
    infoset = tp2.infoset_ids[0]
    # y beats x on leader value; y beats z by action order.
    assert brvs.best_action[infoset] == tp2.actions_of(infoset)[1]

    # Values inside the tie tolerance count as ties.
    b2 = TreeBuilder()
    root2 = b2.player(None, FOLLOWER, "F", ["x", "y"])
    b2.terminal(root2, 0.0, 1.0)
    b2.terminal(root2, 5.0, 1.0 - 1e-12)
    game2 = b2.build()
    brvs2 = compute_brvs(game2, RealizationPlan(LEADER, np.array([1.0])))
    infoset2 = game2.treeplex(FOLLOWER).infoset_ids[0]
    assert brvs2.best_action[infoset2] == \
        game2.treeplex(FOLLOWER).actions_of(infoset2)[1]


def test_best_response_matches_enumeration_on_kuhn():
    game = kuhn_game()
    r1 = uniform_plan(game, LEADER)
    _, fv, lv = best_response(game, r1)
    best = (-np.inf, -np.inf)
    for plan in enumerate_pure_plans(game, FOLLOWER):
        u1, u2 = expected_payoffs(game, r1, plan)
        best = max(best, (u2, u1))
    assert fv == pytest.approx(best[0], abs=1e-9)
    assert lv == pytest.approx(best[1], abs=1e-9)


def test_best_response_dominates_random_pure_plans():
    game = kuhn_game()
    rng = np.random.default_rng(0)
    r1 = uniform_plan(game, LEADER)
    _, fv, _ = best_response(game, r1)
    tp2 = game.treeplex(FOLLOWER)
    for _ in range(1000):
        probs = {
            i: np.eye(len(game.infosets[i].actions))[
                rng.integers(len(game.infosets[i].actions))]
            for i in tp2.infoset_ids
        }
        plan = behavioral_to_realization(
            game, BehavioralStrategy(FOLLOWER, probs))
        _, u2 = expected_payoffs(game, r1, plan)
        assert u2 <= fv + 1e-9


def test_constant_shift_moves_root_brv_only():
    game = two_subgame_exit_game()
    bp = fixed_blueprint(game)
    base = compute_brvs(game, bp.plan)
    shift = 2.75
    shifted_nodes = [
        n if not n.is_terminal else GameNode(
            id=n.id, kind=n.kind, parent=n.parent,
            payoffs=(n.payoffs[0], n.payoffs[1] + shift))
        for n in game.nodes
    ]
    shifted = GameTree(nodes=shifted_nodes, infosets=game.infosets,
                       metadata=game.metadata)
    after = compute_brvs(shifted, fixed_blueprint(shifted).plan)
    assert after.root_follower_value == \
        pytest.approx(base.root_follower_value + shift)
    assert after.best_action == base.best_action


def test_trunk_membership():
    game = two_subgame_exit_game()
    bp = fixed_blueprint(game)
    plan, _, _ = best_response(game, bp.plan)
    trunk = compute_trunk(game, plan)
    f_left, head_left, f_right, head_right = game.treeplex(FOLLOWER).infoset_ids
    assert f_left in trunk and f_right in trunk
    assert head_left in trunk
    assert head_right not in trunk


def test_trunk_on_bounds_demo():
    game = bounds_demo_game()
    plan, _, _ = best_response(game, RealizationPlan(LEADER, np.array([1.0])))
    trunk = compute_trunk(game, plan)
    b_, d_, e1_, e2_, f_, g_, h_, i_, kl_ = range(9)
    for infoset, inside in [(b_, True), (d_, True), (h_, True),
                            (e1_, True), (e2_, True), (i_, True),
                            (f_, False), (g_, False), (kl_, False)]:
        assert (infoset in trunk) == inside, infoset


def test_trunk_rejects_mixed_plans():
    game = two_subgame_exit_game()
    with pytest.raises(GameError, match="pure"):
        compute_trunk(game, uniform_plan(game, FOLLOWER))


def test_pure_plan_counts():
    game = kuhn_game()
    # Follower: both infosets per card are always reachable -> (2*2)^3.
    assert count_pure_plans(game, FOLLOWER) == 64
    # Leader: betting makes the check-bet infoset unreachable -> (2+1)^3.
    assert count_pure_plans(game, LEADER) == 27
    assert sum(1 for _ in enumerate_pure_plans(game, FOLLOWER)) == 64
    for seed in range(12):
        small = random_small_game(seed)
        assert count_pure_plans(small, FOLLOWER) <= 10


def test_pure_plans_satisfy_flow_and_are_distinct():
    game = two_subgame_exit_game()
    plans = list(enumerate_pure_plans(game, FOLLOWER))
    tp2 = game.treeplex(FOLLOWER)
    seen = set()
    for plan in plans:
        plan.check_flow(tp2)
        assert plan.is_pure()
        seen.add(tuple(plan.probs))
    assert len(seen) == len(plans) == 4
