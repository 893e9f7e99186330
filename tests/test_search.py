"""Partitions, head bounds, and the refinement MILPs."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from stackelberg_search.blueprint import (
    fixed_blueprint,
    make_blueprint,
    stage_sse_blueprint,
    uniform_blueprint,
)
from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    GameError,
    expected_payoffs,
    uniform_plan,
)
from stackelberg_search.games import (
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    bounds_demo_game,
    generate,
    goofspiel_game,
    kuhn_game,
    leduc_game,
    random_small_game,
    shared_exit_game,
    two_stage_game,
    two_subgame_exit_game,
)
from stackelberg_search.harness import safe_search
from stackelberg_search.response import (
    best_response,
    compute_brvs,
    compute_trunk,
)
from stackelberg_search.search import (
    LOWER,
    UPPER,
    BoundsMap,
    build_constrained_milp,
    build_full_milp,
    compute_bounds,
    compute_subgame_quantities,
    partition_subgames,
    solve_subgame,
)
from stackelberg_search.solver import INCUMBENT_TIME_LIMIT, OPTIMAL, solve_milp

from oracles import sse_oracle

NEG_INF = float("-inf")


def pipeline(game, alpha=0.5, beta=1.0, scheme="metadata", **kwargs):
    """Blueprint -> response -> partition -> quantities -> bounds."""
    r1 = fixed_blueprint(game).plan
    brvs = compute_brvs(game, r1)
    r2, _, _ = best_response(game, r1, brvs)
    trunk = compute_trunk(game, r2)
    partition = partition_subgames(game, scheme, **kwargs)
    quantities = compute_subgame_quantities(game, partition, r1, r2)
    bounds, trace = compute_bounds(game, brvs, trunk, partition, alpha, beta)
    return r1, r2, brvs, trunk, partition, quantities, bounds, trace


def solve_full_game(game):
    """The whole-game commitment solve, the uniform plan seeding its warm
    start: a search over the whole-game partition's one subgame."""
    report = safe_search(game, uniform_plan(game, LEADER),
                         partition_subgames(game, "whole-game"))
    return report.solutions[0], report.plan


def seq_by_label(tp) -> dict[str, int]:
    return {tp.seq_label(s): s for s in range(tp.n_sequences)}


# ---------------------------------------------------------------------------
# Partitions


def test_metadata_partition_two_subgame_exit():
    game = two_subgame_exit_game()
    partition = partition_subgames(game, "metadata")
    assert len(partition) == 2
    left, right = partition.subgames
    assert left.initial == (3,)
    assert left.nodes == frozenset({3, 4, 5, 6})
    assert left.terminals == (5, 6)
    assert left.infosets[FOLLOWER] == (1,)
    assert left.infosets[LEADER] == (2,)
    assert left.heads[FOLLOWER] == (1,)
    assert left.heads[LEADER] == (2,)
    assert right.initial == (9,)
    assert right.heads[FOLLOWER] == (4,)
    assert right.heads[LEADER] == (5,)


def test_whole_game_partition_heads_are_roots():
    game = two_subgame_exit_game()
    partition = partition_subgames(game, "whole-game")
    assert len(partition) == 1
    sub = partition.subgames[0]
    assert sub.nodes == frozenset(range(13))
    assert sub.infosets[FOLLOWER] == (0, 1, 3, 4)
    assert sub.heads[FOLLOWER] == (0, 3)
    assert sub.heads[LEADER] == (2, 5)


def test_partition_rejects_straddling_infoset():
    game = kuhn_game()
    first_deal = game.node(game.root).children[0]
    with pytest.raises(GameError, match="straddles"):
        partition_subgames(game, "explicit", initial_nodes=[[first_deal]])


def test_partition_rejects_overlap_and_nesting():
    game = two_subgame_exit_game()
    with pytest.raises(GameError, match="belongs to subgames"):
        partition_subgames(game, "explicit", initial_nodes=[[3], [3]])
    with pytest.raises(GameError, match="duplicated"):
        partition_subgames(game, "explicit", initial_nodes=[[3, 4]])


def test_partition_scheme_errors():
    game = kuhn_game()
    with pytest.raises(GameError, match="unknown partition scheme"):
        partition_subgames(game, "by-vibes")
    with pytest.raises(GameError, match="bundles no subgames"):
        partition_subgames(game, "metadata")
    with pytest.raises(GameError, match="needs initial_nodes"):
        partition_subgames(game, "explicit")


def test_two_stage_partition_shape():
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.5, seed=7))
    partition = partition_subgames(game, "two-stage")
    assert len(partition) == 8  # n*n chance nodes, M children each
    for sub in partition:
        assert len(sub.initial) == 1
        assert len(sub.infosets[LEADER]) == 1
        assert len(sub.infosets[FOLLOWER]) == 1
        assert sub.heads[LEADER] == sub.infosets[LEADER]
        assert sub.heads[FOLLOWER] == sub.infosets[FOLLOWER]
        assert len(sub.terminals) == 4


def test_goofspiel_partition_counts_small():
    game = goofspiel_game(GoofspielSpec(n=3))
    assert len(partition_subgames(game, "goofspiel", m=3)) == 1
    by_round1 = partition_subgames(game, "goofspiel", m=2)
    assert len(by_round1) == 27  # 3 first prizes x 9 first-round bid pairs
    assert all(len(sub.initial) == 2 for sub in by_round1)
    by_round2 = partition_subgames(game, "goofspiel", m=1)
    assert len(by_round2) == 216
    assert all(len(sub.initial) == 1 for sub in by_round2)
    with pytest.raises(GameError, match="1..n"):
        partition_subgames(game, "goofspiel", m=0)
    with pytest.raises(GameError, match="needs m"):
        partition_subgames(game, "goofspiel")


def test_goofspiel_partition_counts_n4():
    game = goofspiel_game(GoofspielSpec(n=4))
    after_one = partition_subgames(game, "goofspiel", m=3)
    assert len(after_one) == 64  # 4 first prizes x 16 first-round bid pairs
    assert all(len(sub.initial) == 6 for sub in after_one)
    after_two = partition_subgames(game, "goofspiel", m=2)
    assert len(after_two) == 1728
    assert all(len(sub.initial) == 2 for sub in after_two)


def test_leduc_partition_shape():
    game = leduc_game(LeducSpec(n=3, rho=0.1))
    partition = partition_subgames(game, "leduc")
    assert len(partition) == 66  # 11 surviving round-one lines x 6 boards
    for sub in partition:
        # Every (hole, hole) deal avoiding the board reaches each subgame.
        assert len(sub.initial) == 20
        # One head per own card: five leader heads; the follower's first
        # round-two decision follows either a check or a bet, so ten heads.
        assert len(sub.heads[LEADER]) == 5
        assert len(sub.heads[FOLLOWER]) == 10


# ---------------------------------------------------------------------------
# Subgame quantities


def test_two_subgame_exit_quantities():
    game = two_subgame_exit_game()
    r1, r2, _, _, partition, quantities, _, _ = pipeline(game)
    left, right = quantities
    assert left.omega == {3: 0.5}
    assert left.eta == pytest.approx(2.0)
    assert left.ctilde == {5: 0.5, 6: 0.5}
    # cj carries only the outside follower reach; in-subgame choices are
    # the refinement's job, so both leaves keep the full entry weight.
    assert left.cj == {5: 0.5, 6: 0.5}
    assert right.omega == {9: 0.5}
    assert right.eta == pytest.approx(2.0)
    assert right.ctilde == {11: 0.5, 12: 0.5}
    assert right.cj == {11: 0.0, 12: 0.0}


def test_quantity_eta_is_the_inverse_entry_reach():
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.9, seed=3))
    r1 = stage_sse_blueprint(game).plan
    brvs = compute_brvs(game, r1)
    r2, _, _ = best_response(game, r1, brvs)
    partition = partition_subgames(game, "two-stage")
    quantities = compute_subgame_quantities(game, partition, r1, r2)
    for q in quantities:
        total_omega = sum(q.omega.values())
        if total_omega > 0.0:
            assert q.eta == pytest.approx(1.0 / total_omega)
        else:
            assert q.eta is None


def test_whole_game_quantities_are_chance_reach():
    game = two_subgame_exit_game()
    _, _, _, _, _, (quantities,), _, _ = pipeline(game, scheme="whole-game")
    assert quantities.eta == 1.0
    ids, _, _, reach, _, _ = game.leaf_arrays()
    for nid, c in zip(ids, reach):
        assert quantities.cj[int(nid)] == pytest.approx(float(c))
        assert quantities.ctilde[int(nid)] == pytest.approx(float(c))


# ---------------------------------------------------------------------------
# Bounds


def test_bounds_demo_full_trace_alpha_zero():
    game = bounds_demo_game()
    _, _, _, _, partition, _, bounds, trace = pipeline(game, alpha=0.0)
    tp2 = game.treeplex(FOLLOWER)
    label = seq_by_label(tp2)
    B, D, E1, E2, F, G, H, I, KL = range(9)

    assert trace.seq[0] == (LOWER, NEG_INF)
    assert trace.seq[label["take"]] == (UPPER, 3.0)
    assert trace.seq[label["C"]] == (LOWER, 3.0)
    assert trace.seq[label["C/E"]] == (LOWER, 1.0)
    assert trace.seq[label["C/F"]] == (UPPER, 1.0)
    assert trace.seq[label["C/G"]] == (UPPER, 1.0)
    assert trace.seq[label["C/I"]] == (LOWER, 2.5)
    assert trace.seq[label["C/J"]] == (UPPER, 2.5)
    assert trace.seq[label["C/J/K"]] == (UPPER, 1.5)
    assert trace.seq[label["C/J/L"]] == (UPPER, 1.5)
    # The walk stops at heads, so their dummy sequences are never visited.
    expected_seqs = {0, label["take"], label["C"], label["C/E"], label["C/F"],
                     label["C/G"], label["C/I"], label["C/J"],
                     label["C/J/K"], label["C/J/L"]}
    assert set(trace.seq) == expected_seqs

    assert trace.infoset[B] == (LOWER, NEG_INF)
    assert trace.infoset[D] == (LOWER, 1.0)
    assert trace.infoset[H] == (LOWER, 2.0)
    assert trace.infoset[E1] == (LOWER, 0.5)
    assert trace.infoset[E2] == (LOWER, 0.5)
    assert trace.infoset[F] == (UPPER, 1.0)
    assert trace.infoset[G] == (UPPER, 1.0)
    assert trace.infoset[I] == (LOWER, 2.5)
    assert trace.infoset[KL] == (UPPER, 1.5)
    assert len(trace.infoset) == 9

    merged = {}
    for bmap in bounds.values():
        merged.update(bmap.bounds)
    assert merged == {
        E1: (LOWER, 0.5),
        E2: (LOWER, 0.5),
        F: (UPPER, 1.0),
        G: (UPPER, 1.0),
        I: (LOWER, 2.5),
    }
    assert set(bounds[0].bounds) == {E1, E2, F}
    assert set(bounds[1].bounds) == {G, I}


def test_bounds_demo_alpha_half_interpolates():
    game = bounds_demo_game()
    bounds = pipeline(game, alpha=0.5)[6]
    merged = {}
    for bmap in bounds.values():
        merged.update(bmap.bounds)
    E1, E2, F, G, I = 2, 3, 4, 5, 7
    assert merged[E1] == (LOWER, pytest.approx(0.75))
    assert merged[E2] == (LOWER, pytest.approx(0.75))
    assert merged[F] == (UPPER, pytest.approx(1.5))
    assert merged[G] == (UPPER, pytest.approx(1.5))
    assert merged[I] == (LOWER, pytest.approx(2.75))


def test_bounds_two_subgame_exit():
    game = two_subgame_exit_game()
    _, _, _, _, _, _, bounds, trace = pipeline(game, alpha=0.5)
    assert bounds[0].bounds == {1: (LOWER, pytest.approx(0.25))}
    assert bounds[1].bounds == {4: (UPPER, pytest.approx(0.5))}
    tp2 = game.treeplex(FOLLOWER)
    stay_left = tp2.actions_of(0)[1]
    exit_right = tp2.actions_of(3)[0]
    stay_right = tp2.actions_of(3)[1]
    assert trace.seq[stay_left] == (LOWER, pytest.approx(0.25))
    assert trace.seq[exit_right] == (LOWER, pytest.approx(0.5))
    assert trace.seq[stay_right] == (UPPER, pytest.approx(0.5))


def test_bounds_shared_exit():
    game = shared_exit_game()
    _, _, _, _, _, _, bounds, _ = pipeline(game, alpha=0.5)
    assert bounds[0].bounds == {1: (LOWER, pytest.approx(0.25))}
    assert bounds[1].bounds == {3: (LOWER, pytest.approx(0.25))}


def test_beta_relaxes_trunk_lower_bounds():
    game = bounds_demo_game()
    tight = pipeline(game, alpha=0.0, beta=1.0)[6]
    loose = pipeline(game, alpha=0.0, beta=2.0)[6]

    def merged(bounds):
        out = {}
        for bmap in bounds.values():
            out.update(bmap.bounds)
        return out

    tight, loose = merged(tight), merged(loose)
    for infoset, (direction, value) in tight.items():
        if direction == LOWER:
            assert loose[infoset][0] == LOWER
            assert loose[infoset][1] <= value + 1e-12


def test_bounds_parameter_validation():
    game = two_subgame_exit_game()
    with pytest.raises(GameError, match="alpha"):
        pipeline(game, alpha=1.5)
    with pytest.raises(GameError, match="alpha"):
        pipeline(game, alpha=-0.1)
    with pytest.raises(GameError, match="beta"):
        pipeline(game, beta=0.5)
    with pytest.raises(GameError, match="beta"):
        pipeline(game, beta=float("nan"))
    with pytest.raises(GameError, match="beta"):
        pipeline(game, beta=float("inf"))


def test_bounds_directions_match_trunk_on_random_games():
    for seed in range(6):
        game = random_small_game(seed)
        r1 = uniform_blueprint(game).plan
        brvs = compute_brvs(game, r1)
        r2, _, _ = best_response(game, r1, brvs)
        trunk = compute_trunk(game, r2)
        partition = partition_subgames(game, "whole-game")
        # compute_bounds self-checks directions and blueprint feasibility.
        bounds, _ = compute_bounds(game, brvs, trunk, partition, 0.5, 1.0)
        for infoset, (direction, value) in bounds[0].bounds.items():
            if direction == LOWER:
                assert value <= brvs.brv_inf[infoset] + 1e-9
            else:
                assert value >= brvs.brv_inf[infoset] - 1e-9


# (family, params, scheme, m, blueprint method)
PINNED_BOUNDS_GAMES = (
    [("leduc", {"n": 2}, "leduc", None, "zerosum"),
     ("leduc", {"n": 2}, "leduc", None, "uniform"),
     ("goofspiel", {"n": 3}, "goofspiel", 2, "zerosum"),
     ("kuhn", {}, "whole-game", None, "zerosum"),
     ("fig2", {}, "metadata", None, "fixed"),
     ("fig3", {}, "metadata", None, "fixed"),
     ("bounds-demo", {}, "metadata", None, "fixed")]
    + [("twostage", {"seed": s}, "two-stage", None, "stage-sse")
       for s in range(4)]
    + [("random-small", {"seed": s}, "whole-game", None, "uniform")
       for s in range(4)])
PINNED_BOUNDS_DIGEST = (
    "1447ec8099dcc15d26ef62074d36a75f0321190d94cf693a5236feb024b23141")


def test_bounds_and_trace_are_pinned():
    """Every head bound and trace entry, bit for bit, over a grid of games,
    blueprints, alpha and beta."""
    digest = hashlib.sha256()
    for family, params, scheme, m, method in PINNED_BOUNDS_GAMES:
        game = generate(family, **params)
        r1 = make_blueprint(game, method).plan
        brvs = compute_brvs(game, r1)
        r2, _, _ = best_response(game, r1, brvs)
        trunk = compute_trunk(game, r2)
        partition = partition_subgames(game, scheme, m=m)
        for alpha in (0.0, 0.5, 1.0):
            for beta in (1.0, 2.5):
                bounds, trace = compute_bounds(game, brvs, trunk, partition,
                                               alpha, beta)
                maps = [(f"sub{index}", bounds[index].bounds)
                        for index in sorted(bounds)]
                maps += [("seq", trace.seq), ("infoset", trace.infoset)]
                for kind, entries in maps:
                    for key, (direction, value) in sorted(entries.items()):
                        digest.update(
                            f"{family}{params} {method} {alpha} {beta} {kind} "
                            f"{key} {direction} {value.hex()}\n".encode())
    assert digest.hexdigest() == PINNED_BOUNDS_DIGEST


# ---------------------------------------------------------------------------
# Full-game program vs the enumeration oracle


def test_full_milp_matches_oracle_on_fixtures():
    for game, expected in ((two_subgame_exit_game(), 1.75),
                           (shared_exit_game(), 1.5)):
        oracle_value, oracle_plan = sse_oracle(game)
        assert oracle_value == pytest.approx(expected, abs=1e-9)
        sol, plan = solve_full_game(game)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(expected, abs=1e-6)
        response, _, _ = best_response(game, plan)
        value = expected_payoffs(game, plan, response)[0]
        assert value == pytest.approx(expected, abs=1e-6)


def test_full_milp_matches_oracle_on_kuhn():
    game = kuhn_game()
    oracle_value, _ = sse_oracle(game)
    sol, plan = solve_full_game(game)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(oracle_value, abs=1e-6)
    # Commitment can only help the leader relative to the zero-sum value.
    assert sol.objective >= -1.0 / 18.0 - 1e-9
    response, _, _ = best_response(game, plan)
    assert expected_payoffs(game, plan, response)[0] == \
        pytest.approx(oracle_value, abs=1e-6)


def test_full_milp_matches_oracle_on_random_games():
    for seed in range(5):
        game = random_small_game(seed)
        oracle_value, _ = sse_oracle(game)
        model = build_full_milp(game)
        sol = solve_milp(model.problem, warm=model.warm)
        assert sol.status == OPTIMAL, f"seed {seed}"
        assert sol.objective == pytest.approx(oracle_value, abs=1e-6), \
            f"seed {seed}"


def test_full_milp_is_deterministic():
    game = two_subgame_exit_game()
    runs = []
    for _ in range(2):
        model = build_full_milp(game)
        sol = solve_milp(model.problem, warm=model.warm)
        runs.append(sol)
    assert runs[0].objective == runs[1].objective
    assert np.array_equal(runs[0].assignment, runs[1].assignment)


def test_whole_game_subgame_equals_full_milp():
    game = two_subgame_exit_game()
    r1, r2, brvs, trunk, partition, quantities, bounds, _ = \
        pipeline(game, scheme="whole-game")
    # Root heads sit on the trunk with infinite slack: every bound vacuous.
    assert all(value == NEG_INF and direction == LOWER
               for direction, value in bounds[0].bounds.values())
    model = build_constrained_milp(game, partition.subgames[0],
                                   quantities[0], bounds[0], brvs)
    sol = solve_milp(model.problem, warm=model.warm)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.75, abs=1e-6)


# ---------------------------------------------------------------------------
# Constrained subgame programs


def test_constrained_milp_two_subgame_exit():
    game = two_subgame_exit_game()
    r1, r2, brvs, trunk, partition, quantities, bounds, _ = pipeline(game)
    tp1 = game.treeplex(LEADER)

    left = partition.subgames[0]
    model = build_constrained_milp(game, left, quantities[0], bounds[0], brvs)
    sol = solve_subgame(game, model, r1)
    assert sol.status == OPTIMAL
    assert not sol.used_fallback
    # Move a quarter of the mass to the (2, -1) leaf: the follower keeps
    # half its blueprint value, the leader gains a quarter of a point.
    assert sol.objective == pytest.approx(0.625, abs=1e-6)
    u_seq, v_seq = tp1.actions_of(2)
    assert sol.local_plan[u_seq] == pytest.approx(0.75, abs=1e-6)
    assert sol.local_plan[v_seq] == pytest.approx(0.25, abs=1e-6)

    right = partition.subgames[1]
    model = build_constrained_milp(game, right, quantities[1], bounds[1], brvs)
    sol = solve_subgame(game, model, r1)
    assert sol.status == OPTIMAL
    # Unreached subgame: nothing to gain, but the upper bound pins the
    # follower's stay value below its exit value.
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    u_seq, v_seq = tp1.actions_of(5)
    assert sol.local_plan[v_seq] <= 0.25 + 1e-6
    assert sol.local_plan[u_seq] + sol.local_plan[v_seq] == \
        pytest.approx(1.0, abs=1e-9)


def test_constrained_milp_shared_exit():
    game = shared_exit_game()
    r1, r2, brvs, trunk, partition, quantities, bounds, _ = pipeline(game)
    total = 0.0
    for sub in partition:
        model = build_constrained_milp(game, sub, quantities[sub.index],
                                       bounds[sub.index], brvs)
        sol = solve_subgame(game, model, r1)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(0.625, abs=1e-6)
        total += sol.objective
    assert total == pytest.approx(1.25, abs=1e-6)


def test_constrained_milp_binary_count_matches_local_structure():
    game = two_subgame_exit_game()
    r1, r2, brvs, trunk, partition, quantities, bounds, _ = pipeline(game)
    sub = partition.subgames[0]
    model = build_constrained_milp(game, sub, quantities[0], bounds[0], brvs)
    # One action sequence ("go"); the head's entry ("stay") is the
    # constant 1, not a column.
    assert len(model.problem.binaries) == 1
    lp = model.problem.lp
    fixed = [name for name, low, up in zip(lp.names, lp.lower, lp.upper)
             if low == up == 1.0]
    # Only the initial state's reach is fixed at 1; no sequence column is.
    assert fixed == [f"x[h{sub.initial[0]}]"]


def test_solve_subgame_time_limit_keeps_warm_incumbent():
    game = two_subgame_exit_game()
    r1, r2, brvs, trunk, partition, quantities, bounds, _ = pipeline(game)
    sub = partition.subgames[0]
    model = build_constrained_milp(game, sub, quantities[0], bounds[0], brvs)
    sol = solve_subgame(game, model, r1, time_limit=0.0)
    assert sol.status in (OPTIMAL, INCUMBENT_TIME_LIMIT)
    assert not sol.used_fallback
    # The warm start re-optimizes the leader against the blueprint
    # response pattern, so even at a zero budget the incumbent is real.
    assert sol.objective >= 0.5 - 1e-9


def test_solve_subgame_falls_back_on_infeasible_model():
    game = two_subgame_exit_game()
    r1, r2, brvs, trunk, partition, quantities, bounds, _ = pipeline(game)
    sub = partition.subgames[0]
    impossible = BoundsMap({1: (LOWER, 10.0)})
    model = build_constrained_milp(game, sub, quantities[0], impossible, brvs)
    sol = solve_subgame(game, model, r1)
    assert sol.used_fallback
    tp1 = game.treeplex(LEADER)
    u_seq, v_seq = tp1.actions_of(2)
    assert sol.local_plan == {u_seq: 1.0, v_seq: 0.0}


def test_two_stage_subgames_solve_from_stage_blueprint():
    for seed, kappa in ((0, 0.0), (1, 0.9)):
        game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=kappa,
                                           seed=seed))
        r1 = stage_sse_blueprint(game).plan
        brvs = compute_brvs(game, r1)
        r2, _, _ = best_response(game, r1, brvs)
        trunk = compute_trunk(game, r2)
        partition = partition_subgames(game, "two-stage")
        quantities = compute_subgame_quantities(game, partition, r1, r2)
        bounds, _ = compute_bounds(game, brvs, trunk, partition, 0.5, 1.0)
        for sub in partition:
            model = build_constrained_milp(
                game, sub, quantities[sub.index], bounds[sub.index], brvs)
            sol = solve_subgame(game, model, r1)
            assert sol.status == OPTIMAL, (seed, kappa, sub.index)
            assert not sol.used_fallback
