"""Subgame roots and plan files from outside input are refused cleanly."""

from __future__ import annotations

import json

import pytest

from stackelberg_search.cli import load_plan, main
from stackelberg_search.efg import GameError
from stackelberg_search.games import load_game, two_subgame_exit_game
from stackelberg_search.search import partition_subgames


@pytest.fixture
def exit_demo(tmp_path):
    game_path = tmp_path / "game.json"
    plan_path = tmp_path / "blueprint.json"
    assert main(["generate", "--family", "fig2", "--out", str(game_path)]) == 0
    assert main(["blueprint", "--game", str(game_path), "--method", "fixed",
                 "--out", str(plan_path)]) == 0
    return game_path, plan_path


@pytest.mark.parametrize("roots", [
    [4, 9], [[99]], [[-1]], [[]], [], [[True]], [["4"]], [[4.0]], "[[4]]",
    {"a": [4]},
])
def test_explicit_roots_must_be_lists_of_node_ids(roots):
    game = two_subgame_exit_game()
    with pytest.raises(GameError):
        partition_subgames(game, "explicit", initial_nodes=roots)


def test_metadata_roots_are_checked_too():
    game = two_subgame_exit_game()
    game.metadata["subgames"] = [[3], [99]]
    with pytest.raises(GameError, match="metadata subgames"):
        partition_subgames(game, "metadata")


@pytest.mark.parametrize("roots", ["[4, 9]", "[[99]]", "[[]]", '{"a": 1}'])
def test_cli_reports_bad_roots_and_exits_2(exit_demo, tmp_path, capsys, roots):
    game_path, plan_path = exit_demo
    code = main(["search", "--game", str(game_path), "--blueprint",
                 str(plan_path), "--scheme", "explicit", "--initial-nodes",
                 roots, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: initial_nodes must be")


@pytest.mark.parametrize("content,needle", [
    ("[1.0, 0.5]", "not a JSON object"),
    ('{"0": 1.0, "zero": 0.5}', "'zero'"),
    ('{"0": 1.0, "99": 0.5}', "'99'"),
    ('{"0": 1.0, "-1": 0.5}', "'-1'"),
    ('{"0": 1.0, " 1": 0.5}', "' 1'"),
    ('{"0": "1"}', "'0'"),
    ('{"0": true}', "'0'"),
    ('{"0": null}', "'0'"),
    ('{"0": NaN}', "non-finite"),
    ('{"0": 1.0, "1": Infinity}', "non-finite"),
])
def test_malformed_plan_files_raise_game_errors(exit_demo, tmp_path, content,
                                                needle):
    game_path, _ = exit_demo
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    with pytest.raises(GameError, match=needle):
        load_plan(load_game(str(game_path)), str(bad))
    assert main(["evaluate", "--game", str(game_path),
                 "--leader-plan", str(bad)]) == 2


def test_well_formed_plan_files_still_load(exit_demo):
    game_path, plan_path = exit_demo
    game = load_game(str(game_path))
    plan = load_plan(game, str(plan_path))
    assert json.loads(plan_path.read_text()) == {
        str(i): p for i, p in enumerate(plan.probs)}
