"""Malformed `run` configs and `search`, `gadget` and `generate` arguments
exit 2 with an error line.

Exit 1 is what `run` keeps for a safety violation, so a bad input must
neither end in a traceback (exit 1) nor run on a value it cannot honour.
"""

from __future__ import annotations

import json

import pytest

from stackelberg_search.cli import main

GOOD_CONFIG = {"games": [{"family": "fig2"}], "blueprint": "fixed",
               "scheme": "metadata"}


def _run(tmp_path, document):
    config = tmp_path / "config.json"
    config.write_text(document if isinstance(document, str)
                      else json.dumps(document))
    return ["run", "--config", str(config), "--out", str(tmp_path / "o.csv")]


def _with_plan(tmp_path, command, *extra):
    """argv for a `search` or `gadget` on fig2 and its fixed blueprint."""
    game, plan = tmp_path / "game.json", tmp_path / "blueprint.json"
    assert main(["generate", "--family", "fig2", "--out", str(game)]) == 0
    assert main(["blueprint", "--game", str(game), "--method", "fixed",
                 "--out", str(plan)]) == 0
    if command == "gadget":
        extra = ("--subgame", "0", *extra)
    return [command, "--game", str(game), "--blueprint", str(plan),
            "--out", str(tmp_path / "out"), *extra]


@pytest.mark.parametrize("command,given,key", [
    ("run", [1], "JSON object"),
    ("run", {**GOOD_CONFIG, "games": [{"n": 2}]}, "family"),
    ("run", {**GOOD_CONFIG, "alpha": "x"}, "alpha"),
    ("run", {**GOOD_CONFIG, "subgame_time_limit": "5"}, "subgame_time_limit"),
    ("run", json.dumps(GOOD_CONFIG)[:-1] + ', "subgame_time_limit": NaN}',
     "subgame_time_limit"),
    ("run", {**GOOD_CONFIG, "solve_full_game": "no"}, "solve_full_game"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "leduc", "n": "x"}]},
     "'n'"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "twostage", "kappa": True}]},
     "'kappa'"),
    ("run", {**GOOD_CONFIG, "subgame_time_limt": 0.5}, "subgame_time_limt"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "leduc", "N": 2}]}, "'N'"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "twostage", "n": 2.7}]},
     "'n'"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "file", "path": 999}]},
     "path"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "file", "path": ["x"]}]},
     "path"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "fig2",
                                       "path": "nope.json"}]}, "path"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "random-small",
                                       "seed": -1}]}, "seed"),
    ("run", {**GOOD_CONFIG, "games": [{"family": "twostage", "seed": -1}]},
     "seed"),
    ("generate", ["--family", "random-small", "--seed", "-1"], "seed"),
    ("generate", ["--family", "twostage", "--seed", "-5"], "seed"),
    ("search", ["--workers", "0"], "workers"),
    ("search", ["--time-limit-per-subgame=-1"], "time_limit_per_subgame"),
    ("search", ["--time-limit-per-subgame", "nan"], "time_limit_per_subgame"),
    ("search", ["--beta", "nan"], "beta"),
    ("search", ["--beta", "inf"], "beta"),
    ("gadget", ["--alpha", "1", "--beta", "inf"], "beta"),
    ("run", json.dumps(GOOD_CONFIG)[:-1] + ', "beta": Infinity}', "beta"),
    ("run", {**GOOD_CONFIG, "m": 2}, "'m'"),
    ("search", ["--scheme", "metadata", "--m", "2"], "'m'"),
    ("search", ["--scheme", "two-stage", "--m", "7", "--initial-nodes",
                "[[1]]"], "'m'"),
    ("search", ["--scheme", "metadata", "--initial-nodes", "[[3]]"],
     "'initial_nodes'"),
    ("gadget", ["--scheme", "whole-game", "--initial-nodes", "[[0]]"],
     "'initial_nodes'"),
], ids=["config-not-object", "game-without-family", "alpha-string",
        "time-limit-string", "time-limit-nan", "full-game-string",
        "game-parameter-string", "game-parameter-bool", "unknown-key",
        "game-parameter-unread", "game-parameter-fractional",
        "game-path-number", "game-path-list", "game-path-on-generator",
        "game-seed-negative-random-small", "game-seed-negative-twostage",
        "generate-seed-negative-random-small",
        "generate-seed-negative-twostage",
        "search-workers-0",
        "search-time-limit-negative", "search-time-limit-nan",
        "search-beta-nan", "search-beta-inf", "gadget-beta-inf",
        "run-beta-inf", "run-m-unread", "search-m-unread",
        "search-m-and-roots-unread", "search-roots-unread",
        "gadget-roots-unread"])
def test_malformed_input_exits_2_naming_the_key(tmp_path, capsys, command,
                                                given, key):
    if command == "run":
        argv = _run(tmp_path, given)
    elif command in ("search", "gadget"):
        argv = _with_plan(tmp_path, command, *given)
    else:
        argv = [command, *given, "--out", str(tmp_path / "game.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
