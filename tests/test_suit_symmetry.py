"""Leduc's suit swaps, and the zero-sum blueprint restricted to them.

* Leduc declares one relabelling per rank (swap the suits of that rank's
  cards, as dealt and as the board); other games declare none.
* efg.automorphisms turns a relabelling into node, leader-sequence and
  infoset maps, and refuses one that changes the game: a cross-rank swap,
  a swap of a Leduc game whose file has one payoff perturbed, or a swap
  that splits an information set.
* The zero-sum blueprint applies every declared swap: its plan is
  symmetric, and its LP value and exact EV are the unrestricted LP's.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from stackelberg_search.blueprint import make_blueprint, zero_sum_blueprint
from stackelberg_search.cli import main
from stackelberg_search.efg import (
    LEADER,
    GameError,
    TreeBuilder,
    automorphisms,
)
from stackelberg_search.games import (
    declared_symmetries,
    generate,
    leduc_surrogate_payoffs,
    load_game,
    save_game,
)
from stackelberg_search.harness import evaluate_leader


@pytest.fixture(scope="module")
def leduc2():
    return generate("leduc", n=2, rho=0.1)


def _is_involution(image):
    return np.array_equal(image[image], np.arange(len(image)))


def test_leduc_declares_one_suit_swap_per_rank():
    assert declared_symmetries(generate("leduc", n=3, rho=0.1)) == [
        {"c0": "c1", "c1": "c0", "b0": "b1", "b1": "b0"},
        {"c2": "c3", "c3": "c2", "b2": "b3", "b3": "b2"},
        {"c4": "c5", "c5": "c4", "b4": "b5", "b5": "b4"}]


@pytest.mark.parametrize("family,params", [
    ("goofspiel", {"n": 3}), ("twostage", {"seed": 1}), ("kuhn", {}),
    ("random-small", {"seed": 2})])
def test_other_games_declare_none(family, params):
    assert declared_symmetries(generate(family, **params)) == []


def test_a_file_game_without_the_leduc_name_declares_none(leduc2, tmp_path):
    path = tmp_path / "game.json"
    save_game(leduc2, str(path))
    doc = json.loads(path.read_text())
    doc["metadata"] = {}
    path.write_text(json.dumps(doc))
    game = load_game(str(path))
    assert declared_symmetries(game) == []
    assert make_blueprint(game, "uniform").source["symmetries"] == 0


def test_suit_swaps_map_the_game_onto_itself(leduc2):
    u1 = leduc_surrogate_payoffs(leduc2)
    tp1 = leduc2.treeplex(LEADER)
    relabels = declared_symmetries(leduc2)
    for sym in automorphisms(leduc2, relabels, u1):
        assert len(sym.node) == len(leduc2.nodes)
        assert len(sym.leader_seq) == tp1.n_sequences
        assert len(sym.infoset) == len(leduc2.infosets)
        for image in sym:
            assert image.dtype == np.int64
            assert _is_involution(image)
        # A swap moves the deals of its rank and fixes the empty sequence.
        assert sym.node[leduc2.root] == leduc2.root
        assert sym.leader_seq[0] == 0
        assert np.any(sym.node != np.arange(len(sym.node)))
        ids = leduc2.leaf_arrays()[0]
        assert np.array_equal(u1[sym.node[ids]], u1[ids])


@pytest.mark.parametrize("relabel", [
    {"c0": "c2", "c2": "c0"},
    {"c0": "c2", "c2": "c0", "b0": "b2", "b2": "b0"},
    {"c0": "c1"},
])
def test_a_relabelling_that_is_no_automorphism_is_refused(leduc2, relabel):
    with pytest.raises(GameError, match="relabelling"):
        automorphisms(leduc2, [relabel], leduc_surrogate_payoffs(leduc2))


def test_a_relabelling_that_splits_an_information_set_is_refused():
    # The leader cannot tell x from y, but can tell z: swapping y and z
    # keeps every payoff and reach, and splits the leader's infoset.
    b = TreeBuilder()
    root = b.chance(None, [1 / 3] * 3, ["x", "y", "z"])
    for outcome in "xyz":
        node = b.player(root, LEADER, "xy" if outcome != "z" else "z",
                        ["a0", "a1"])
        for _ in range(2):
            b.terminal(node, 0.0, 0.0)
    game = b.build()
    assert len(automorphisms(game, [{"x": "y", "y": "x"}])) == 1
    with pytest.raises(GameError, match="splits an information set"):
        automorphisms(game, [{"y": "z", "z": "y"}])


def test_a_perturbed_leduc_file_refuses_the_zero_sum_blueprint(leduc2,
                                                              tmp_path):
    path = tmp_path / "game.json"
    save_game(leduc2, str(path))
    doc = json.loads(path.read_text())
    # The leader's payoff only, so the surrogate (-u2) is unchanged.
    terminal = next(rec for rec in doc["nodes"] if rec["kind"] == "terminal")
    terminal["payoffs"][0] += 0.5
    path.write_text(json.dumps(doc))
    game = load_game(str(path))
    with pytest.raises(GameError, match="payoffs of terminal"):
        make_blueprint(game, "zerosum")
    # Unperturbed, the same file gives the generated game's blueprint.
    save_game(leduc2, str(path))
    assert np.array_equal(make_blueprint(load_game(str(path)), "zerosum")
                          .plan.probs,
                          make_blueprint(leduc2, "zerosum").plan.probs)


@pytest.fixture(scope="module", params=[2, 3])
def leduc_blueprints(request):
    game = generate("leduc", n=request.param, rho=0.1)
    return (game, make_blueprint(game, "zerosum"),
            zero_sum_blueprint(game, leduc_surrogate_payoffs(game)))


def test_the_blueprint_plays_mirrored_sequences_alike(leduc_blueprints):
    game, blueprint, _ = leduc_blueprints
    probs = blueprint.plan.probs
    u1 = leduc_surrogate_payoffs(game)
    for sym in automorphisms(game, declared_symmetries(game), u1):
        image = sym.leader_seq
        assert np.max(np.abs(probs - probs[image])) <= 1e-9


def test_the_symmetric_lp_keeps_the_value_and_the_ev(leduc_blueprints):
    game, blueprint, unrestricted = leduc_blueprints
    n = game.metadata["params"]["n"]
    assert blueprint.source["symmetries"] == n
    assert unrestricted.source["symmetries"] == 0
    assert blueprint.source["surrogate_value"] == pytest.approx(
        unrestricted.source["surrogate_value"], abs=1e-12)
    assert evaluate_leader(game, blueprint.plan) == pytest.approx(
        evaluate_leader(game, unrestricted.plan), abs=1e-12)


@pytest.mark.parametrize("family,params,method", [
    ("leduc", {"n": 2}, "uniform"), ("goofspiel", {"n": 3}, "zerosum"),
    ("kuhn", {}, "zerosum"), ("twostage", {"seed": 0}, "stage-sse")])
def test_no_symmetry_is_applied_elsewhere(family, params, method):
    blueprint = make_blueprint(generate(family, **params), method)
    assert blueprint.source["symmetries"] == 0


def test_cli_blueprint_prints_the_symmetries_applied(leduc2, tmp_path,
                                                     capsys):
    game_path, plan_path = tmp_path / "game.json", tmp_path / "plan.json"
    save_game(leduc2, str(game_path))
    for method, count in (("zerosum", 2), ("uniform", 0)):
        assert main(["blueprint", "--game", str(game_path), "--method",
                     method, "--out", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "leader EV vs best response" in out
        assert out.rstrip().endswith(f"symmetries {count}")
