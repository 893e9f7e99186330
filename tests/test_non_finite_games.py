"""Games with a non-finite chance probability or payoff are refused.

A NaN probability passes both the normalization test (|sum - 1| > tol is
false for NaN) and the sign test (p < 0 is false), so validation checks
finiteness itself, and names the node, whether the game comes from
TreeBuilder or from a game file.
"""

from __future__ import annotations

import json
import math

import pytest

from stackelberg_search.efg import (
    LEADER,
    GameError,
    GameNode,
    GameTree,
    TreeBuilder,
    validate_game,
)
from stackelberg_search.games import generate, parse_game, serialize_game

NON_FINITE = [math.nan, math.inf, -math.inf]


def _chance_game(p0: float) -> TreeBuilder:
    b = TreeBuilder()
    root = b.chance(None, [p0, 1.0])
    b.terminal(root, 0.0, 0.0)
    b.terminal(root, 1.0, -1.0)
    return b


@pytest.mark.parametrize("p0", NON_FINITE)
def test_builder_refuses_a_non_finite_chance_probability(p0):
    with pytest.raises(GameError,
                       match="node 0: non-finite chance probability"):
        _chance_game(p0).build()


@pytest.mark.parametrize("payoffs", [(math.nan, 0.0), (0.0, math.inf),
                                     (-math.inf, -math.inf)])
def test_builder_refuses_a_non_finite_payoff(payoffs):
    b = TreeBuilder()
    root = b.player(None, LEADER, "L", ["a", "b"])
    b.terminal(root, 1.0, 1.0)
    b.terminal(root, *payoffs)
    with pytest.raises(GameError, match="node 2: non-finite payoff"):
        b.build()


def _nodes_doc(game: GameTree) -> dict:
    return json.loads(serialize_game(game))


@pytest.mark.parametrize("p0", NON_FINITE)
def test_game_files_with_a_non_finite_chance_probability_are_refused(p0):
    doc = _nodes_doc(generate("kuhn"))
    deal = doc["nodes"][1]
    assert deal["kind"] == "chance"
    deal["chance_probs"][0] = p0
    with pytest.raises(GameError,
                       match="node 1: non-finite chance probability"):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("side", [0, 1])
def test_game_files_with_a_non_finite_payoff_are_refused(value, side):
    doc = _nodes_doc(generate("fig2"))
    leaf = next(n for n in doc["nodes"] if n["kind"] == "terminal")
    leaf["payoffs"][side] = value
    text = json.dumps(doc)
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(GameError,
                       match=f"node {leaf['id']}: non-finite payoff"):
        parse_game(text)


def _with(node: GameNode, **changes) -> GameNode:
    fields = dict(id=node.id, kind=node.kind, parent=node.parent,
                  player=node.player, infoset=node.infoset,
                  actions=node.actions, children=node.children,
                  chance_probs=node.chance_probs, payoffs=node.payoffs)
    return GameNode(**{**fields, **changes})


def test_report_names_every_non_finite_node():
    game = generate("kuhn")
    nodes = list(game.nodes)
    leaves = [n.id for n in nodes if n.is_terminal][:2]
    for leaf in leaves:
        nodes[leaf] = _with(nodes[leaf], payoffs=(math.nan, 0.0))
    root = nodes[game.root]
    nodes[game.root] = _with(root, chance_probs=(math.nan,)
                             + root.chance_probs[1:])
    report = validate_game(GameTree(nodes=nodes, infosets=game.infosets))
    assert [v for v in report.violations if "non-finite" in v] == [
        f"node {game.root}: non-finite chance probability",
        *(f"node {leaf}: non-finite payoff" for leaf in leaves)]


def test_finite_games_still_validate():
    for family in ("fig2", "fig3", "kuhn", "bounds-demo"):
        assert validate_game(generate(family)).ok
