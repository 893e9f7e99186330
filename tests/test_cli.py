"""The command-line interface, driven through main()."""

from __future__ import annotations

import json

import pytest

from stackelberg_search.cli import load_plan, main
from stackelberg_search.games import load_game


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def exit_demo(tmp_path):
    game_path = tmp_path / "game.json"
    plan_path = tmp_path / "blueprint.json"
    assert run_cli("generate", "--family", "fig2", "--out", game_path) == 0
    assert run_cli("blueprint", "--game", game_path, "--method", "fixed",
                   "--out", plan_path) == 0
    return game_path, plan_path


def test_generate_writes_a_loadable_game(tmp_path, capsys):
    out = tmp_path / "goof.json"
    assert run_cli("generate", "--family", "goofspiel", "--n", 3,
                   "--out", out) == 0
    assert "sequences" in capsys.readouterr().out
    game = load_game(str(out))
    assert game.metadata.get("name") == "goofspiel"


def test_generate_passes_family_flags(tmp_path):
    out = tmp_path / "two.json"
    assert run_cli("generate", "--family", "twostage", "--n", 2, "--M", 2,
                   "--m", 2, "--kappa", 0.1, "--seed", 3, "--out", out) == 0
    game = load_game(str(out))
    assert game.metadata.get("name") == "two-stage"


@pytest.mark.parametrize("family, flags, flag", [
    ("leduc", ("--n", 2, "--M", 3, "--kappa", 0.5), "'M'"),
    ("fig2", ("--n", 7), "'n'"),
    ("kuhn", ("--seed", 1), "'seed'"),
])
def test_generate_refuses_a_flag_its_family_does_not_read(tmp_path, capsys,
                                                          family, flags,
                                                          flag):
    out = tmp_path / "game.json"
    assert run_cli("generate", "--family", family, *flags, "--out", out) == 2
    assert f"takes no parameter {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_blueprint_and_evaluate(exit_demo, capsys):
    game_path, plan_path = exit_demo
    assert run_cli("evaluate", "--game", game_path,
                   "--leader-plan", plan_path) == 0
    out = capsys.readouterr().out
    assert "leader EV:   1.500000000" in out
    assert "pure best response sequences:" in out


def test_search_writes_plans_bounds_and_composed(exit_demo, tmp_path,
                                                 capsys):
    game_path, plan_path = exit_demo
    out_dir = tmp_path / "search-out"
    assert run_cli("search", "--game", game_path, "--blueprint", plan_path,
                   "--scheme", "metadata", "--alpha", 0.5, "--beta", 1.0,
                   "--out", out_dir) == 0
    printed = capsys.readouterr().out
    assert "safety (search >= blueprint): holds" in printed
    assert (out_dir / "subgame-0000.json").exists()
    assert (out_dir / "subgame-0001.json").exists()
    report = json.loads((out_dir / "bounds-report.json").read_text())
    assert {entry["direction"] for entry in report} == {"lower", "upper"}
    game = load_game(str(game_path))
    composed = load_plan(game, str(out_dir / "composed-plan.json"))
    assert run_cli("evaluate", "--game", game_path,
                   "--leader-plan", out_dir / "composed-plan.json") == 0
    assert "leader EV:   1.625000000" in capsys.readouterr().out
    assert composed.probs.max() <= 1.0 + 1e-12


def test_search_with_large_beta_warns_instead_of_claiming_safety(
        exit_demo, tmp_path, capsys):
    game_path, plan_path = exit_demo
    assert run_cli("search", "--game", game_path, "--blueprint", plan_path,
                   "--beta", 16.0, "--out", tmp_path / "wide") == 0
    printed = capsys.readouterr().out
    assert "potentially unsafe" in printed
    assert "safety (search >= blueprint)" not in printed


def test_gadget_emits_a_standard_game_file(exit_demo, tmp_path, capsys):
    game_path, plan_path = exit_demo
    out = tmp_path / "gadget.json"
    assert run_cli("gadget", "--game", game_path, "--blueprint", plan_path,
                   "--subgame", 0, "--out", out) == 0
    assert "entry states kept" in capsys.readouterr().out
    gadget = load_game(str(out))
    root = gadget.node(gadget.root)
    assert root.kind == "chance"
    assert gadget.node(root.children[0]).actions == ("terminate", "continue")


def test_gadget_rejects_out_of_range_subgame(exit_demo, tmp_path, capsys):
    game_path, plan_path = exit_demo
    code = run_cli("gadget", "--game", game_path, "--blueprint", plan_path,
                   "--subgame", 5, "--out", tmp_path / "nope.json")
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_run_produces_identical_csv_across_reruns(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "games": [{"family": "fig2"}, {"family": "fig3"}],
        "blueprint": "fixed", "scheme": "metadata",
        "alpha": 0.5, "beta": 1.0, "seed": 0,
    }))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli("run", "--config", config, "--out", first) == 0
    assert run_cli("run", "--config", config, "--out", second) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.csv.timing.json").exists()
    header = first.read_text().splitlines()[0]
    assert "time" not in header
