"""Invariants of the sequence form that every top-down walk relies on.

* ``Treeplex.infoset_ids`` is top-down: each infoset comes after the infoset
  whose action leads to it, and ``Subgame.head_of`` is top-down within the
  subgame and maps each infoset to the head above it.
* ``Treeplex.actions_of`` lists exactly an infoset's action sequences, by
  action index.
* ``renormalize_flow`` leaves a plan whose flow already holds exactly
  unchanged, bit for bit, both on a whole plan and on a subgame-local one.
* A game is validated once, however many treeplexes are built from it.
"""

import numpy as np
import pytest

from stackelberg_search import efg
from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    BehavioralStrategy,
    GameError,
    GameTree,
    behavioral_to_realization,
    renormalize_flow,
)
from stackelberg_search.games import generate, parse_game, serialize_game
from stackelberg_search.search import blueprint_local_plan, partition_subgames

CASES = (
    [("kuhn", {}, "whole-game", None)]
    + [("twostage", {"seed": s}, "two-stage", None) for s in (0, 1)]
    + [("random-small", {"seed": s}, "whole-game", None) for s in range(5)]
    + [("goofspiel", {"n": 3}, "goofspiel", 2),
       ("leduc", {"n": 2}, "leduc", None)]
)
IDS = [f"{family}-{kw.get('seed', kw.get('n', ''))}"
       for family, kw, _, _ in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    family, kwargs, scheme, m = request.param
    game = generate(family, **kwargs)
    return game, partition_subgames(game, scheme, m=m)


def _parent(tp, infoset):
    return tp.sequences[tp.entry_seq[infoset]].parent_infoset


def _plan(game, player, dist_of):
    probs = {infoset.id: dist_of(infoset.id, len(infoset.actions))
             for infoset in game.player_infosets(player)}
    return behavioral_to_realization(game, BehavioralStrategy(player, probs))


def _dyadic(infoset, n):
    """Action k of n gets 2^-(k+1), the last one the remainder 2^-(n-1):
    every product and flow sum of such a plan is exact."""
    dist = np.array([0.5 ** (k + 1) for k in range(n)])
    dist[-1] = 0.5 ** (n - 1)
    return dist


def _pure(infoset, n):
    return np.eye(n)[infoset % n]


def _exact_plans(game, player):
    return [_plan(game, player, _dyadic), _plan(game, player, _pure)]


def test_infoset_ids_put_parents_first(case):
    game, _ = case
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        position = {infoset: k for k, infoset in enumerate(tp.infoset_ids)}
        assert len(position) == len(tp.infoset_ids)
        for infoset in tp.infoset_ids:
            parent = _parent(tp, infoset)
            if parent is not None:
                assert position[parent] < position[infoset]


def test_subgame_top_down_puts_parents_first(case):
    """Subgame.head_of lists parents first and maps each infoset to the
    head above it; the heads are exactly its fixed points."""
    game, partition = case
    for sub in partition:
        for player in (LEADER, FOLLOWER):
            tp = game.treeplex(player)
            head_of = sub.head_of[player]
            assert sorted(head_of) == list(sub.infosets[player])
            position = {infoset: k for k, infoset in enumerate(head_of)}
            for infoset, head in head_of.items():
                parent = _parent(tp, infoset)
                if parent in position:
                    assert position[parent] < position[infoset]
                    assert infoset not in sub.heads[player]
                    assert head == head_of[parent]
                else:
                    assert infoset in sub.heads[player]
                    assert head == infoset
            assert sub.heads[player] == tuple(sorted(
                infoset for infoset, head in head_of.items()
                if head == infoset))


def test_actions_of_lists_child_sequences_by_index(case):
    game, _ = case
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        children = {}
        for seq in tp.sequences:
            if seq.parent_infoset is not None:
                children.setdefault(seq.parent_infoset, []).append(seq)
        assert set(children) == set(tp.infoset_ids)
        for infoset in tp.infoset_ids:
            expected = sorted(children[infoset], key=lambda s: s.action_index)
            assert tp.actions_of(infoset) == tuple(s.id for s in expected)
            assert [s.action_index for s in expected] == \
                list(range(len(game.infosets[infoset].actions)))


def test_renormalize_keeps_exact_whole_plans(case):
    game, _ = case
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        for plan in _exact_plans(game, player):
            probs = plan.probs.copy()
            renormalize_flow(tp, probs)
            assert np.array_equal(probs, plan.probs)
            assert probs.tobytes() == plan.probs.tobytes()


def test_renormalize_keeps_exact_local_plans(case):
    game, partition = case
    tp1 = game.treeplex(LEADER)
    for plan in _exact_plans(game, LEADER):
        for sub in partition:
            local = blueprint_local_plan(game, sub, plan)
            scrubbed = dict(local)
            renormalize_flow(tp1, scrubbed, sub.head_of[LEADER],
                             sub.heads[LEADER])
            assert all(scrubbed[s].hex() == local[s].hex() for s in local)


def _count_validations(monkeypatch):
    calls = []
    original = efg.validate_game

    def counting(game):
        calls.append(game)
        return original(game)

    monkeypatch.setattr(efg, "validate_game", counting)
    return calls


@pytest.mark.parametrize("family,kwargs", [("goofspiel", {"n": 3}),
                                           ("twostage", {"seed": 0}),
                                           ("kuhn", {})])
def test_a_built_game_is_validated_once(monkeypatch, family, kwargs):
    calls = _count_validations(monkeypatch)
    game = generate(family, **kwargs)
    game.treeplex(LEADER)
    game.treeplex(FOLLOWER)
    assert len(calls) == 1


def test_a_parsed_game_is_validated_once(monkeypatch):
    text = serialize_game(generate("kuhn"))
    calls = _count_validations(monkeypatch)
    game = parse_game(text)
    game.treeplex(LEADER)
    game.treeplex(FOLLOWER)
    assert len(calls) == 1


def test_a_direct_game_is_validated_at_first_treeplex(monkeypatch):
    built = generate("kuhn")
    calls = _count_validations(monkeypatch)
    game = GameTree(nodes=built.nodes, infosets=built.infosets)
    assert calls == []
    game.treeplex(LEADER)
    game.treeplex(FOLLOWER)
    assert len(calls) == 1 and calls[0] is game


def test_a_direct_invalid_game_is_refused_at_every_treeplex():
    built = generate("kuhn")
    nodes = list(built.nodes)
    nodes[1] = type(nodes[1])(
        id=1, kind=nodes[1].kind, parent=5, player=nodes[1].player,
        infoset=nodes[1].infoset, actions=nodes[1].actions,
        children=nodes[1].children, chance_probs=nodes[1].chance_probs,
        payoffs=nodes[1].payoffs)
    game = GameTree(nodes=nodes, infosets=built.infosets)
    for player in (LEADER, FOLLOWER, LEADER):
        with pytest.raises(GameError, match="parent link"):
            game.treeplex(player)
