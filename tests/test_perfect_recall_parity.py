"""validate_game flags exactly the infosets a per-member history walk flags.

validate_game reads perfect recall off the walk that numbers the sequences:
each node gets an interned id of its owner's own history, and an infoset
whose members have different ids is reported.  The reference below is the
direct definition: for every member, walk to the root collecting the
owner's (infoset, action index) pairs, and compare the tuples.  Both must
give the same violation list, in the same order, on games that violate
perfect recall for either player, nested violations and games whose node
ids are not in depth-first order included.
"""

from __future__ import annotations

import json
import random

import pytest

from stackelberg_search import efg, games
from stackelberg_search.efg import (
    CHANCE_TOL,
    FOLLOWER,
    LEADER,
    GameTree,
    TreeBuilder,
    ValidationReport,
    validate_game,
)
from stackelberg_search.games import generate, parse_game, serialize_game


def _own_history(game: GameTree, node_id: int, player: int) -> tuple:
    """The player's (infoset id, action index) pairs on the path to node_id."""
    history = []
    node = game.nodes[node_id]
    while node.parent is not None:
        parent = game.nodes[node.parent]
        if parent.kind == "player" and parent.player == player:
            history.append((parent.infoset, parent.children.index(node.id)))
        node = parent
    history.reverse()
    return tuple(history)


def reference_violations(game: GameTree) -> list[str]:
    """The structural checks, then perfect recall by per-member walks."""
    report = ValidationReport()
    n = len(game.nodes)
    for node in game.nodes:
        if node.id < 0 or node.id >= n or game.nodes[node.id] is not node:
            report.add(f"node {node.id}: id does not match position")
            continue
        if node.kind == "terminal":
            if node.actions or node.children:
                report.add(f"node {node.id}: terminal with actions/children")
            continue
        if len(node.actions) != len(node.children) or not node.actions:
            report.add(f"node {node.id}: actions/children mismatch")
        for child in node.children:
            if child < 0 or child >= n:
                report.add(f"node {node.id}: child {child} out of range")
            elif game.nodes[child].parent != node.id:
                report.add(f"node {node.id}: child {child} parent link broken")
        if node.kind == "chance":
            if len(node.chance_probs) != len(node.actions):
                report.add(f"node {node.id}: chance probs/actions mismatch")
            elif abs(sum(node.chance_probs) - 1.0) > CHANCE_TOL:
                report.add(f"node {node.id}: chance normalization "
                           f"(sum = {sum(node.chance_probs)!r})")
            if any(p < 0 for p in node.chance_probs):
                report.add(f"node {node.id}: negative chance probability")
        elif node.kind == "player":
            if node.player not in (LEADER, FOLLOWER):
                report.add(f"node {node.id}: bad player {node.player}")
            if node.infoset is None or \
                    not (0 <= node.infoset < len(game.infosets)):
                report.add(f"node {node.id}: missing/bad infoset id")
        else:
            report.add(f"node {node.id}: unknown kind {node.kind!r}")

    seen = [False] * n
    stack = [game.root]
    while stack:
        nid = stack.pop()
        if seen[nid]:
            report.add(f"node {nid}: reached twice (not a tree)")
            break
        seen[nid] = True
        stack.extend(game.nodes[nid].children)
    for node in game.nodes:
        if not seen[node.id]:
            report.add(f"node {node.id}: unreachable from root")

    for infoset in game.infosets:
        for member in infoset.members:
            if member >= n:
                report.add(f"infoset {infoset.id}: member {member} out of range")
                continue
            node = game.nodes[member]
            if node.kind != "player" or node.infoset != infoset.id:
                report.add(f"infoset {infoset.id}: node {member} not a "
                           f"member back-ref")
            elif node.player != infoset.player:
                report.add(f"infoset {infoset.id}: node {member} owned by "
                           f"other player")
            elif node.actions != infoset.actions:
                report.add(f"infoset {infoset.id}: node {member} action list "
                           f"differs")

    if report.ok:
        for infoset in game.infosets:
            histories = {_own_history(game, member, infoset.player)
                         for member in infoset.members}
            if len(histories) > 1:
                report.add(
                    f"infoset {infoset.id}: perfect recall violated, members "
                    f"{sorted(infoset.members)} reached by different "
                    f"own-histories")
    return report.violations


@pytest.fixture
def unchecked(monkeypatch):
    """Build and parse games without refusing invalid ones."""
    monkeypatch.setattr(efg, "require_valid", lambda game: None)
    monkeypatch.setattr(games, "require_valid", lambda game: None)


def _assert_parity(game: GameTree, flagged: int) -> None:
    expected = reference_violations(game)
    assert validate_game(game).violations == expected
    assert sum("perfect recall" in v for v in expected) == flagged


def forgetful(player: int) -> GameTree:
    """The player acts twice; the second infoset merges both first actions."""
    b = TreeBuilder()
    root = b.player(None, player, "first", ["a", "b"])
    for _ in range(2):
        second = b.player(root, player, "forgetful", ["c", "d"])
        b.terminal(second, 0, 0)
        b.terminal(second, 1, 1)
    return b.build()


def nested(player: int) -> GameTree:
    """Two violations, one below the other.

    The player picks a or b at A, then meets the merged infoset B, whose
    members differ in that first action.  Below B's action c lies the
    merged infoset C: its members took the same action at B and differ
    only above it, at A.  Ids keyed on B's sequences alone would call C's
    members equal.  The other player and chance act in between.
    """
    other = 1 - player
    b = TreeBuilder()
    root = b.player(None, player, "A", ["a", "b"])
    for side in range(2):
        mid = b.chance(root, [0.5, 0.5])
        for coin in range(2):
            watcher = b.player(mid, other, ("W", side, coin), ["x", "y"])
            for _ in range(2):
                merged = b.player(watcher, player, "B", ["c", "d"])
                deeper = b.player(merged, player, "C", ["e", "f"])
                b.terminal(deeper, 1, 0)
                b.terminal(deeper, 0, 1)
                b.terminal(merged, 0, 0)
    return b.build()


@pytest.mark.parametrize("player", [LEADER, FOLLOWER])
def test_a_forgetful_infoset_is_flagged(unchecked, player):
    _assert_parity(forgetful(player), 1)


@pytest.mark.parametrize("player", [LEADER, FOLLOWER])
def test_a_violation_nested_below_another_is_flagged(unchecked, player):
    game = nested(player)
    _assert_parity(game, 2)
    b_and_c = [i.id for i in game.infosets
               if i.actions in (("c", "d"), ("e", "f"))]
    assert [v.split(":")[0] for v in validate_game(game).violations] == \
        [f"infoset {iid}" for iid in b_and_c]


def test_valid_games_report_nothing():
    for family, kwargs in [("kuhn", {}), ("goofspiel", {"n": 3}),
                           ("leduc", {"n": 2}), ("bounds-demo", {})]:
        game = generate(family, **kwargs)
        assert validate_game(game).violations == reference_violations(game) \
            == []


def _relabel(doc: dict, seed: int) -> tuple[dict, dict[int, int]]:
    """The same game file with node ids shuffled (the root stays 0), and
    the new id of each old one."""
    nodes = doc["nodes"]
    rng = random.Random(seed)
    rest = list(range(1, len(nodes)))
    rng.shuffle(rest)
    new_id = dict(zip(range(len(nodes)), [0] + rest))
    out = [None] * len(nodes)
    for rec in nodes:
        rec = dict(rec, id=new_id[rec["id"]])
        if "children" in rec:
            rec["children"] = [new_id[c] for c in rec["children"]]
        out[rec["id"]] = rec
    return dict(doc, nodes=out), new_id


@pytest.mark.parametrize("player", [LEADER, FOLLOWER])
def test_a_parsed_game_out_of_dfs_order_is_flagged_alike(unchecked, player):
    doc, _ = _relabel(json.loads(serialize_game(nested(player))), seed=player)
    game = parse_game(json.dumps(doc))
    assert any(child < node.id for node in game.nodes
               for child in node.children)
    _assert_parity(game, 2)


def test_sequences_do_not_depend_on_node_id_order():
    original = generate("kuhn")
    doc, new_id = _relabel(json.loads(serialize_game(original)), seed=7)
    shuffled = parse_game(json.dumps(doc))
    assert validate_game(shuffled).violations == \
        reference_violations(shuffled) == []
    for player in (LEADER, FOLLOWER):
        before, after = original.treeplex(player), shuffled.treeplex(player)
        assert after.sequences == before.sequences
        assert after.infoset_ids == before.infoset_ids
        assert after.entry_seq == before.entry_seq
        assert after.infoset_actions == before.infoset_actions
        assert after.children_infosets == before.children_infosets
        for old, new in new_id.items():
            assert after.node_seq[new] == before.node_seq[old]
        # A second build for the player numbers the sequences afresh.
        again = efg.build_treeplex(shuffled, player)
        assert again.sequences == after.sequences
        assert again.children_infosets == after.children_infosets
        assert (again.node_seq == after.node_seq).all()


def random_game(seed: int, breadth_first: bool) -> GameTree:
    """A random tree whose infosets are drawn from a few keys per player,
    so that members often disagree on their owner's history.  Built
    breadth-first, its node and infoset ids are not in DFS order."""
    rng = random.Random(seed)
    b = TreeBuilder()
    pending = [(None, 4)]
    while pending:
        parent, depth = pending.pop(0 if breadth_first else -1)
        if parent is not None and (depth == 0 or rng.random() < 0.2):
            b.terminal(parent, 0.0, 0.0)
            continue
        if rng.random() < 0.2:
            node = b.chance(parent, [0.5, 0.5])
        else:
            player = rng.randrange(2)
            node = b.player(parent, player, (player, rng.randrange(3)),
                            ["x", "y"])
        children = [(node, depth - 1), (node, depth - 1)]
        pending.extend(children if breadth_first else reversed(children))
    return b.build()


@pytest.mark.parametrize("breadth_first", [False, True])
def test_random_games_are_flagged_alike(unchecked, breadth_first):
    flagged = 0
    for seed in range(150):
        game = random_game(seed, breadth_first)
        expected = reference_violations(game)
        assert validate_game(game).violations == expected, seed
        flagged += sum("perfect recall" in v for v in expected)
    assert flagged > 100


@pytest.mark.parametrize("breadth_first", [False, True])
def test_builder_lists_children_and_members_in_creation_order(
        unchecked, breadth_first):
    for seed in range(20):
        game = random_game(seed, breadth_first)
        children = {n.id: [] for n in game.nodes}
        members = {i.id: [] for i in game.infosets}
        for node in game.nodes:  # ascending ids: creation order
            if node.parent is not None:
                children[node.parent].append(node.id)
            if node.kind == "player":
                members[node.infoset].append(node.id)
        assert [list(n.children) for n in game.nodes] == list(children.values())
        assert [list(i.members) for i in game.infosets] == \
            list(members.values())
