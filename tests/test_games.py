"""Fixture shapes, generator sizes, and game-file round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from stackelberg_search.efg import FOLLOWER, LEADER, validate_game
from stackelberg_search.games import (
    GameFileError,
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    bounds_demo_game,
    goofspiel_game,
    goofspiel_surrogate_payoffs,
    kuhn_game,
    leduc_game,
    leduc_surrogate_payoffs,
    parse_game,
    random_small_game,
    serialize_game,
    shared_exit_game,
    two_stage_game,
    two_subgame_exit_game,
)


def test_two_subgame_exit_shape():
    game = two_subgame_exit_game()
    assert len(game.nodes) == 13
    assert validate_game(game).ok
    # Follower: exit/stay on each side plus one forced move per subgame head.
    tp2 = game.treeplex(FOLLOWER)
    assert tp2.n_sequences == 7
    assert len(tp2.infoset_ids) == 4
    tp1 = game.treeplex(LEADER)
    assert tp1.n_sequences == 5
    assert len(tp1.infoset_ids) == 2
    # Bundled subgame roots are the two forced follower nodes.
    roots = [ids for ids in game.metadata["subgames"]]
    assert all(len(ids) == 1 for ids in roots)
    for (nid,) in roots:
        assert game.node(nid).player == FOLLOWER
        assert game.node(nid).actions == ("go",)


def test_shared_exit_shape():
    game = shared_exit_game()
    assert len(game.nodes) == 11
    tp2 = game.treeplex(FOLLOWER)
    assert len(tp2.infoset_ids) == 3
    assert tp2.n_sequences == 5
    # The exit decision sits above the chance split.
    assert game.node(game.root).player == FOLLOWER


def test_bounds_demo_shape():
    game = bounds_demo_game()
    assert len(game.nodes) == 21
    assert game.treeplex(LEADER).n_sequences == 1  # leader never acts
    tp2 = game.treeplex(FOLLOWER)
    assert len(tp2.infoset_ids) == 9
    # Chance-weighted terminal follower values are exact dyadics.
    reach = game.chance_reach()
    weighted = sorted(reach[n.id] * n.payoffs[1] for n in game.terminals())
    assert weighted == [-1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.5, 3.0, 3.0]


def test_kuhn_counts_and_value_scale():
    game = kuhn_game()
    assert len(game.nodes) == 58
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        assert tp.n_sequences == 13
        assert len(tp.infoset_ids) == 6
    # Zero-sum with unit antes.
    assert all(n.payoffs[0] + n.payoffs[1] == 0 for n in game.terminals())
    assert {abs(n.payoffs[0]) for n in game.terminals()} == {1.0, 2.0}


def test_gamefile_roundtrip_is_identity():
    for game in (two_subgame_exit_game(), shared_exit_game(),
                 bounds_demo_game(), kuhn_game(),
                 random_small_game(3)):
        text = serialize_game(game)
        back = parse_game(text)
        assert serialize_game(back) == text
        assert len(back.nodes) == len(game.nodes)
        for a, b in zip(game.nodes, back.nodes):
            assert (a.kind, a.player, a.infoset, a.actions, a.children,
                    a.chance_probs, a.payoffs) == (
                b.kind, b.player, b.infoset, b.actions, b.children,
                b.chance_probs, b.payoffs)


def test_parse_rejects_unknown_fields_with_path():
    text = serialize_game(two_subgame_exit_game())
    doc = text.replace('"version"', '"verzion"')
    with pytest.raises(GameFileError, match=r"\$\.verzion"):
        parse_game(doc)


def test_parse_rejects_unnormalized_chance():
    game = two_subgame_exit_game()
    text = serialize_game(game).replace("0.5,\n    0.5", "0.5,\n    0.4")
    with pytest.raises(Exception, match="chance normalization"):
        parse_game(text)


def test_parse_rejects_bad_node_fields():
    text = serialize_game(two_subgame_exit_game())
    with pytest.raises(GameFileError, match=r"\$\.nodes\[0\]"):
        parse_game(text.replace('"kind": "chance"', '"kind": "chancy"', 1))


@pytest.mark.parametrize("node,field,value", [
    (1, "actions", None),
    (0, "chance_probs", None),
    (1, "actions", "es"),
    (1, "actions", [0, 1]),
    (0, "chance_probs", ["0.5", "0.5"]),
    (0, "chance_probs", [True, 0.0]),
    (2, "payoffs", ["1.5", 0.0]),
    (2, "payoffs", [True, 0.0]),
    (1, "id", True),
    (3, "infoset", True),
    (0, "children", [True, 7]),
    (1, "kind", ["player"]),
], ids=["actions-null", "chance-probs-null", "actions-string",
        "actions-numeric", "chance-probs-strings", "chance-probs-true",
        "payoffs-string", "payoffs-true", "id-true", "infoset-true",
        "child-true", "kind-array"])
def test_parse_refuses_mistyped_fields_naming_the_path(node, field, value):
    doc = json.loads(serialize_game(two_subgame_exit_game()))
    doc["nodes"][node][field] = value
    path = rf"\$\.nodes\[{node}\]\.{field}"
    with pytest.raises(GameFileError, match=path):
        parse_game(json.dumps(doc))


def test_two_stage_terminal_count_and_mixture():
    spec = TwoStageSpec(n=2, M=2, m=2, kappa=0.0, seed=7)
    game = two_stage_game(spec)
    assert sum(1 for _ in game.terminals()) == 32
    # kappa = 0: every chance node is uniform over secondary games.
    for node in game.nodes:
        if node.kind == "chance":
            assert np.allclose(node.chance_probs, 0.5)
    # kappa = 1: chance equals the X column, which varies with a1.
    game1 = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=1.0, seed=7))
    cols = set()
    for node in game1.nodes:
        if node.kind == "chance":
            cols.add(tuple(round(p, 12) for p in node.chance_probs))
            assert abs(sum(node.chance_probs) - 1.0) < 1e-12
    assert len(cols) == 2  # one column per first-stage leader action


def test_two_stage_same_seed_bit_identical():
    spec = TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=11)
    assert serialize_game(two_stage_game(spec)) == \
        serialize_game(two_stage_game(spec))


def test_two_stage_metadata_matrices_match_terminals():
    spec = TwoStageSpec(n=2, M=2, m=2, kappa=0.3, seed=5)
    game = two_stage_game(spec)
    a1 = np.array(game.metadata["stage1_leader"])
    # Terminal payoffs under (a1, b1) differ from the stage-1 entry by the
    # stage-2 payoff, which repeats identically across all (a1, b1) cells.
    root = game.node(game.root)
    stage2_sets = []
    for i, f_id in enumerate(root.children):
        for j, ch_id in enumerate(game.node(f_id).children):
            vals = []
            stack = [ch_id]
            while stack:
                nid = stack.pop()
                node = game.node(nid)
                if node.is_terminal:
                    vals.append(round(node.payoffs[0] - a1[i, j], 9))
                else:
                    stack.extend(node.children)
            stage2_sets.append(sorted(vals))
    assert all(s == stage2_sets[0] for s in stage2_sets)


def test_goofspiel_small_counts():
    game = goofspiel_game(GoofspielSpec(n=3))
    # Rounds reveal prizes 0..2; bids are cards 1..3; ties discard.
    assert validate_game(game).ok
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        # 1 + 3*3 + (3*2 prize orders * 9 bid pairs) * 2 + ...
        assert tp.n_sequences == 1 + 9 + 6 * 9 * 2 + 6 * 36 * 1
    total = 3  # prizes 0 + 1 + 2
    for node in game.terminals():
        assert node.payoffs[0] + node.payoffs[1] <= total + 1e-12
        assert min(node.payoffs) >= 0.0
    surrogate = goofspiel_surrogate_payoffs(game)
    for node in game.terminals():
        assert surrogate[node.id] == 0.5 * (node.payoffs[0] - node.payoffs[1])


def test_goofspiel_n4_table_sizes():
    game = goofspiel_game(GoofspielSpec(n=4))
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        assert tp.n_sequences == 21329
        assert len(tp.infoset_ids) == 17476


def test_leduc_n3_table_sizes_and_rake():
    game = leduc_game(LeducSpec(n=3, rho=0.1))
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        assert tp.n_sequences == 5377
        assert len(tp.infoset_ids) == 2016
    # Rake makes the game general-sum: winner's take is scaled down.
    sums = {round(n.payoffs[0] + n.payoffs[1], 9) for n in game.terminals()}
    assert sums != {0.0}
    assert all(s <= 1e-12 for s in sums)  # house never pays out
    surrogate = leduc_surrogate_payoffs(game)
    for node in game.terminals():
        u1 = surrogate[node.id]
        assert u1 == -node.payoffs[1]


def test_leduc_rho_zero_is_zero_sum():
    game = leduc_game(LeducSpec(n=2, rho=0.0))
    assert all(abs(n.payoffs[0] + n.payoffs[1]) < 1e-12
               for n in game.terminals())


def test_leduc_n4_table_sizes():
    game = leduc_game(LeducSpec(n=4, rho=0.1))
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        assert tp.n_sequences == 9985
        assert len(tp.infoset_ids) == 3744


def test_leduc_contribution_accounting():
    # Spot-check one all-in line: bet+4 raises called in both rounds.
    game = leduc_game(LeducSpec(n=3, rho=0.0))
    biggest = max(abs(n.payoffs[0]) for n in game.terminals())
    # 1 ante + 2*5 round-one units + 4*5 round-two units.
    assert biggest == 1 + 2 * 5 + 4 * 5


def test_random_small_games_are_valid():
    for seed in range(12):
        game = random_small_game(seed)
        assert validate_game(game).ok
        assert game.treeplex(FOLLOWER).n_sequences >= 3
