"""Blueprint construction: zero-sum LP, stage-only SSE, uniform, fixtures."""

from __future__ import annotations

import json

import numpy as np
import pytest

from stackelberg_search.blueprint import (
    fixed_blueprint,
    make_blueprint,
    sse_of_matrix_game,
    stage_sse_blueprint,
    uniform_blueprint,
    zero_sum_blueprint,
)
from stackelberg_search.cli import main
from stackelberg_search.efg import FOLLOWER, LEADER, GameError, expected_payoffs
from stackelberg_search.games import (
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    goofspiel_game,
    goofspiel_surrogate_payoffs,
    kuhn_game,
    leduc_game,
    two_stage_game,
    two_subgame_exit_game,
)
from stackelberg_search.response import best_response


def test_kuhn_zero_sum_blueprint_value():
    game = kuhn_game()
    bp = zero_sum_blueprint(game)
    assert bp.provenance == "ZeroSumNE"
    assert bp.source["surrogate_value"] == pytest.approx(-1.0 / 18, abs=1e-7)
    # Maximin: the exact best response holds the leader to the game value.
    _, _, leader_value = best_response(game, bp.plan)
    assert leader_value == pytest.approx(-1.0 / 18, abs=1e-6)


def test_zero_sum_blueprint_rejects_general_sum_games():
    with pytest.raises(GameError, match="not zero-sum"):
        zero_sum_blueprint(two_subgame_exit_game())


def test_goofspiel_surrogate_blueprint_is_symmetric_value_zero():
    game = goofspiel_game(GoofspielSpec(n=3))
    bp = zero_sum_blueprint(game, goofspiel_surrogate_payoffs(game))
    assert bp.source["surrogate_value"] == pytest.approx(0.0, abs=1e-7)
    bp.plan.check_flow(game.treeplex(LEADER))


def test_leduc_unraked_blueprint_minimax():
    game = leduc_game(LeducSpec(n=2, rho=0.0))
    bp = zero_sum_blueprint(game)
    _, _, leader_value = best_response(game, bp.plan)
    assert leader_value == pytest.approx(bp.source["surrogate_value"],
                                         abs=1e-6)


def test_matrix_sse_known_example():
    # Leader can commit to 50/50, steering the follower to its second column.
    u1 = np.array([[1.0, 3.0], [0.0, 2.0]])
    u2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    x, value, chosen = sse_of_matrix_game(u1, u2)
    assert value == pytest.approx(2.5, abs=1e-8)
    assert chosen == 1
    assert x[0] == pytest.approx(0.5, abs=1e-7)


def test_matrix_sse_dominant_action():
    u1 = np.array([[2.0, 2.0], [0.0, 0.0]])
    u2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    x, value, chosen = sse_of_matrix_game(u1, u2)
    assert value == pytest.approx(2.0)
    assert x[0] == pytest.approx(1.0)
    assert chosen == 0


def test_stage_blueprint_shape_and_determinism():
    spec = TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=7)
    game = two_stage_game(spec)
    bp = stage_sse_blueprint(game)
    assert bp.provenance == "StageSSE"
    tp1 = game.treeplex(LEADER)
    bp.plan.check_flow(tp1)
    # Second-stage behavior is uniform: each stage-2 sequence halves its entry.
    root_infoset = game.node(game.root).infoset
    for infoset in tp1.infoset_ids:
        if infoset == root_infoset:
            continue
        entry = bp.plan.probs[tp1.entry_seq[infoset]]
        for seq in tp1.actions_of(infoset):
            assert bp.plan.probs[seq] == pytest.approx(entry / 2)
    again = stage_sse_blueprint(two_stage_game(spec))
    assert np.array_equal(bp.plan.probs, again.plan.probs)


def test_stage_blueprint_rejects_other_games():
    with pytest.raises(GameError, match="two-stage"):
        stage_sse_blueprint(kuhn_game())


def test_uniform_blueprint_on_kuhn():
    game = kuhn_game()
    bp = uniform_blueprint(game)
    tp1 = game.treeplex(LEADER)
    depth1 = [s.id for s in tp1.sequences if s.parent_seq == 0]
    assert all(bp.plan.probs[s] == pytest.approx(0.5) for s in depth1)
    deeper = [s.id for s in tp1.sequences
              if s.parent_seq not in (None, 0)]
    assert all(bp.plan.probs[s] == pytest.approx(0.25) for s in deeper)


def test_fixture_blueprint_reproduces_bundled_payoff():
    game = two_subgame_exit_game()
    bp = fixed_blueprint(game)
    response, _, _ = best_response(game, bp.plan)
    assert expected_payoffs(game, bp.plan, response)[0] == pytest.approx(1.5)


def test_make_blueprint_dispatch():
    game = two_subgame_exit_game()
    assert make_blueprint(game, "fixed").provenance == "Fixed"
    assert make_blueprint(game, "uniform").provenance == "Uniform"
    with pytest.raises(GameError, match="unknown blueprint"):
        make_blueprint(game, "cfr")


@pytest.mark.parametrize("actions, needle", [
    ({"2": -1}, "'2': -1"),
    ({"2": 0.7}, "'2': 0.7"),
    ({"2": True}, "'2': True"),
    ({"2": 5}, "'2': 5"),
    ({"2": "x"}, "'2': 'x'"),
    ({"99": 0}, "'99': 0"),
    ([0, 0], "must be an object"),
    (None, ""),
])
def test_fixed_blueprint_refuses_bad_actions(actions, needle):
    game = two_subgame_exit_game()
    game.metadata["blueprint_actions"] = actions
    with pytest.raises(GameError, match=f"blueprint_actions.*{needle}"):
        fixed_blueprint(game)


def test_cli_reports_a_bad_bundled_blueprint_and_exits_2(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    assert main(["generate", "--family", "fig2", "--out", str(game_path)]) == 0
    doc = json.loads(game_path.read_text())
    doc["metadata"]["blueprint_actions"] = {"2": 5}
    game_path.write_text(json.dumps(doc))
    assert main(["blueprint", "--game", str(game_path), "--method", "fixed",
                 "--out", str(tmp_path / "plan.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: metadata blueprint_actions: bad entry '2': 5")


@pytest.mark.parametrize("key, matrix", [
    ("stage1_leader", [[1.0] * 3] * 3),
    ("stage1_follower", [[1.0, 2.0], [3.0]]),
    ("stage1_leader", [[1.0, "x"], [0.0, 1.0]]),
    ("stage1_follower", [[1.0, float("nan")], [0.0, 1.0]]),
    ("stage1_leader", None),
])
def test_stage_blueprint_refuses_a_bad_stage1_matrix(key, matrix):
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=7))
    if matrix is None:
        del game.metadata[key]
    else:
        game.metadata[key] = matrix
    with pytest.raises(GameError, match=f"metadata {key} must be a 2x2"):
        stage_sse_blueprint(game)
