"""User-supplied partitions the head bounds cannot keep safe are refused.

A subgame is refused when it holds a terminal that the follower reaches
through an action taken outside the subgame, below a leader action inside
it, with no follower infoset inside on the way: no head bound then holds
the follower's earlier choice in place.  Only the "explicit" and "metadata"
schemes are checked; the built-in schemes never form such subgames.
"""

from __future__ import annotations

import pytest

from stackelberg_search.cli import main
from stackelberg_search.efg import GameError
from stackelberg_search.games import generate, two_subgame_exit_game
from stackelberg_search.search import partition_subgames


def test_fig2_subgame_without_follower_infoset_is_refused():
    game = two_subgame_exit_game()
    with pytest.raises(GameError, match="subgame 0: terminal 5"):
        partition_subgames(game, "explicit", initial_nodes=[[4], [9]])


def test_metadata_partition_is_checked_too():
    game = two_subgame_exit_game()
    game.metadata["subgames"] = [[4], [9]]
    with pytest.raises(GameError, match="subgame 0: terminal 5"):
        partition_subgames(game, "metadata")


def test_cli_search_exits_2_on_an_unsafe_partition(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    plan_path = tmp_path / "blueprint.json"
    assert main(["generate", "--family", "fig2", "--out", str(game_path)]) == 0
    assert main(["blueprint", "--game", str(game_path), "--method", "fixed",
                 "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert main(["search", "--game", str(game_path), "--blueprint",
                 str(plan_path), "--scheme", "explicit", "--initial-nodes",
                 "[[4], [9]]", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: subgame 0: terminal 5")


@pytest.mark.parametrize("family", ["fig2", "fig3", "bounds-demo"])
def test_bundled_metadata_partitions_pass(family):
    partition_subgames(generate(family), "metadata")


@pytest.mark.parametrize("family, params, scheme, m", [
    ("fig2", {}, "metadata", None),
    ("leduc", {"n": 2}, "leduc", None),
    ("goofspiel", {"n": 3}, "goofspiel", 1),
    ("goofspiel", {"n": 3}, "goofspiel", 2),
    ("twostage", {"seed": 0}, "two-stage", None),
])
def test_built_in_partitions_pass_as_explicit_roots(family, params, scheme, m):
    game = generate(family, **params)
    groups = [list(sub.initial)
              for sub in partition_subgames(game, scheme, m=m)]
    partition_subgames(game, "explicit", initial_nodes=groups)

