"""Game-tree structure, validation, treeplexes and strategy conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackelberg_search.efg import (
    FLOW_TOL,
    FOLLOWER,
    LEADER,
    BehavioralStrategy,
    GameError,
    GameTree,
    RealizationPlan,
    TreeBuilder,
    behavioral_to_realization,
    expected_payoffs,
    payoff_tables,
    realization_to_behavioral,
    uniform_plan,
    validate_game,
)


def simultaneous_game() -> GameTree:
    """Leader picks H/T, follower picks h/t without observing (one infoset)."""
    b = TreeBuilder()
    root = b.player(None, LEADER, "L", ["H", "T"])
    for a in range(2):
        f = b.player(root, FOLLOWER, "F", ["h", "t"])
        for c in range(2):
            match = 1.0 if a == c else -1.0
            b.terminal(f, match, -match)
    return b.build()


def chance_then_signal_game() -> GameTree:
    """Chance flips a coin; follower sees it, leader does not."""
    b = TreeBuilder()
    root = b.chance(None, [0.5, 0.5], ["heads", "tails"])
    for side in ("heads", "tails"):
        ld = b.player(root, LEADER, "L", ["u", "d"])
        for la in ("u", "d"):
            fo = b.player(ld, FOLLOWER, f"F:{side}", ["x", "y"])
            for fa in ("x", "y"):
                u1 = 1.0 if (side == "heads") == (fa == "x") else 0.0
                u2 = 1.0 if la == "u" else 0.25
                b.terminal(fo, u1, u2)
    return b.build()


def test_validate_accepts_wellformed_games():
    for game in (simultaneous_game(), chance_then_signal_game()):
        report = validate_game(game)
        assert report.ok, report.violations


def test_validate_flags_unnormalized_chance():
    b = TreeBuilder()
    root = b.chance(None, [0.6, 0.6])
    b.terminal(root, 0, 0)
    b.terminal(root, 1, -1)
    with pytest.raises(GameError, match="chance normalization"):
        b.build()


def test_validate_flags_perfect_recall_violation():
    # Leader moves twice but the second infoset merges nodes that differ in
    # the leader's own first action.
    b = TreeBuilder()
    root = b.player(None, LEADER, "first", ["a", "b"])
    for _ in range(2):
        second = b.player(root, LEADER, "forgetful", ["c", "d"])
        b.terminal(second, 0, 0)
        b.terminal(second, 1, 1)
    game_nodes = b._nodes  # build() would raise; inspect via validate directly
    assert game_nodes  # silence lint
    with pytest.raises(GameError, match="perfect recall"):
        b.build()


def test_validate_flags_broken_child_links():
    game = simultaneous_game()
    # Rewire a terminal's parent pointer and re-validate.
    broken = GameTree(
        nodes=[n if n.id != 2 else
               type(n)(id=n.id, kind=n.kind, parent=0, player=n.player,
                       infoset=n.infoset, actions=n.actions, children=n.children,
                       chance_probs=n.chance_probs, payoffs=n.payoffs)
               for n in game.nodes],
        infosets=game.infosets,
    )
    report = validate_game(broken)
    assert not report.ok
    assert any("parent link" in v for v in report.violations)


@pytest.mark.parametrize("bad", [99, -1])
def test_validate_reports_out_of_range_children_without_walking_them(bad):
    game = simultaneous_game()
    root = game.node(game.root)
    lost, kept = root.children
    nodes = list(game.nodes)
    nodes[root.id] = root._replace(children=(bad, kept))
    report = validate_game(GameTree(nodes=nodes, infosets=game.infosets))
    # Only the lost branch goes unreported: -1 is not walked as the last
    # node, which the kept branch reaches in its turn.
    assert report.violations == [
        f"node {root.id}: child {bad} out of range",
        *(f"node {nid}: unreachable from root"
          for nid in (lost, *game.node(lost).children))]


def test_treeplex_shapes_simultaneous():
    game = simultaneous_game()
    tp1 = game.treeplex(LEADER)
    tp2 = game.treeplex(FOLLOWER)
    # Empty sequence plus one per action.
    assert tp1.n_sequences == 3
    assert tp2.n_sequences == 3
    assert tp1.infoset_ids == [0]
    assert tp2.infoset_ids == [1]
    assert tp1.entry_seq[0] == 0
    # Both follower nodes map to the same (empty) incoming sequence.
    f_nodes = [n.id for n in game.nodes if n.kind == "player" and n.player == FOLLOWER]
    assert all(tp2.node_seq[nid] == 0 for nid in f_nodes)


def test_treeplex_sequences_nest_with_signal():
    game = chance_then_signal_game()
    tp2 = game.treeplex(FOLLOWER)
    # Follower has two infosets (one per coin side), 1 + 2*2 sequences.
    assert len(tp2.infoset_ids) == 2
    assert tp2.n_sequences == 5
    # Leader cannot distinguish and so has a single infoset.
    tp1 = game.treeplex(LEADER)
    assert len(tp1.infoset_ids) == 1
    assert tp1.n_sequences == 3


def test_chance_reach_multiplies_along_path():
    game = chance_then_signal_game()
    reach = game.chance_reach()
    terminals = [n.id for n in game.terminals()]
    assert np.allclose(reach[terminals], 0.5)
    assert reach[game.root] == 1.0


def test_payoff_tables_accumulate_chance_weights():
    game = chance_then_signal_game()
    table = payoff_tables(game)
    total = sum(v[0] for v in table.values())
    # Summing g1 over all cells equals the sum of chance-weighted u1.
    _, _, _, reach, u1, _ = game.leaf_arrays()
    assert total == pytest.approx(float(reach @ u1))


def test_uniform_plan_satisfies_flow():
    game = chance_then_signal_game()
    for player in (LEADER, FOLLOWER):
        plan = uniform_plan(game, player)
        plan.check_flow(game.treeplex(player))
        assert plan.probs[0] == 1.0


def test_flow_check_rejects_bad_plans():
    game = simultaneous_game()
    tp = game.treeplex(LEADER)
    with pytest.raises(GameError, match="empty sequence"):
        RealizationPlan(LEADER, np.array([0.9, 0.5, 0.4])).check_flow(tp)
    with pytest.raises(GameError, match="flow violated"):
        RealizationPlan(LEADER, np.array([1.0, 0.8, 0.4])).check_flow(tp)
    with pytest.raises(GameError, match="different game"):
        RealizationPlan(LEADER, np.array([1.0, 1.0])).check_flow(tp)


def test_expected_payoffs_on_known_profile():
    game = simultaneous_game()
    # Leader plays H, follower mixes .5/.5: zero-sum value 0 for both ways.
    r1 = RealizationPlan(LEADER, np.array([1.0, 1.0, 0.0]))
    r2 = RealizationPlan(FOLLOWER, np.array([1.0, 0.5, 0.5]))
    u1, u2 = expected_payoffs(game, r1, r2)
    assert u1 == pytest.approx(0.0)
    assert u2 == pytest.approx(0.0)


def test_zero_reach_infosets_convert_to_uniform():
    game = chance_then_signal_game()
    tp = game.treeplex(FOLLOWER)
    # Follower plays x at the first infoset; below y everything is unreached.
    bs = BehavioralStrategy(FOLLOWER, {
        tp.infoset_ids[0]: np.array([1.0, 0.0]),
        tp.infoset_ids[1]: np.array([0.25, 0.75]),
    })
    plan = behavioral_to_realization(game, bs)
    back = realization_to_behavioral(game, plan)
    assert np.allclose(back.probs[tp.infoset_ids[0]], [1.0, 0.0])
    assert np.allclose(back.probs[tp.infoset_ids[1]], [0.25, 0.75])

    # Force the *second* infoset unreachable via the first one's choice when
    # they nest; in this game they do not nest, so instead zero out directly.
    r = plan.probs.copy()
    seqs = tp.actions_of(tp.infoset_ids[1])
    entry = tp.entry_seq[tp.infoset_ids[1]]
    if entry != 0:  # pragma: no cover - structure-dependent branch
        r[entry] = 0.0
        r[seqs[0]] = r[seqs[1]] = 0.0
        back2 = realization_to_behavioral(game, RealizationPlan(FOLLOWER, r))
        assert np.allclose(back2.probs[tp.infoset_ids[1]], [0.5, 0.5])


@st.composite
def behavioral_profiles(draw):
    """Random behavioral strategies for both players of the signal game."""
    game = chance_then_signal_game()
    out = {}
    for player in (LEADER, FOLLOWER):
        probs = {}
        for infoset in game.player_infosets(player):
            k = len(infoset.actions)
            raw = [draw(st.floats(0.01, 1.0)) for _ in range(k)]
            total = sum(raw)
            probs[infoset.id] = np.array([x / total for x in raw])
        out[player] = BehavioralStrategy(player, probs)
    return game, out


@given(behavioral_profiles())
@settings(max_examples=40, deadline=None)
def test_roundtrip_behavioral_realization(data):
    game, profile = data
    for player in (LEADER, FOLLOWER):
        plan = behavioral_to_realization(game, profile[player])
        plan.check_flow(game.treeplex(player))
        back = realization_to_behavioral(game, plan)
        for iid, dist in profile[player].probs.items():
            assert np.allclose(back.probs[iid], dist, atol=1e-9)


@given(behavioral_profiles(), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_expected_payoff_is_bilinear(data, lam):
    game, profile = data
    r1 = behavioral_to_realization(game, profile[LEADER])
    r2 = behavioral_to_realization(game, profile[FOLLOWER])
    u = uniform_plan(game, LEADER)
    mix = RealizationPlan(LEADER, lam * r1.probs + (1 - lam) * u.probs)
    lhs = expected_payoffs(game, mix, r2)
    a = expected_payoffs(game, r1, r2)
    b = expected_payoffs(game, u, r2)
    assert lhs[0] == pytest.approx(lam * a[0] + (1 - lam) * b[0], abs=1e-9)
    assert lhs[1] == pytest.approx(lam * a[1] + (1 - lam) * b[1], abs=1e-9)


def test_node_ids_are_dense_dfs_order():
    game = chance_then_signal_game()
    assert [n.id for n in game.nodes] == list(range(len(game.nodes)))
    for node in game.nodes:
        for child in node.children:
            assert child > node.id
