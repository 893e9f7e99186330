"""Composition, naive vs safe search, and the experiment driver."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.efg import (
    LEADER,
    GameError,
    behavioral_to_realization,
    expected_payoffs,
    uniform_behavioral,
)
from stackelberg_search.games import (
    TwoStageSpec,
    shared_exit_game,
    two_stage_game,
    two_subgame_exit_game,
)
from stackelberg_search.harness import (
    ExperimentConfig,
    GameSpec,
    compose_strategy,
    evaluate_leader,
    naive_search,
    run_experiment,
    run_single,
    rows_to_csv,
    safe_search,
)
from stackelberg_search.response import best_response
from stackelberg_search.search import blueprint_local_plan, partition_subgames
from stackelberg_search.solver import OPTIMAL


def test_compose_with_blueprint_locals_is_the_identity():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    locals_ = {sub.index: blueprint_local_plan(game, sub, blueprint)
               for sub in partition}
    composed = compose_strategy(game, blueprint, partition, locals_)
    assert composed.probs == pytest.approx(blueprint.probs, abs=1e-12)


def test_compose_changes_only_the_refined_subgame():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    tp1 = game.treeplex(LEADER)
    left_infoset = partition.subgames[0].infosets[LEADER][0]
    u_seq, v_seq = tp1.actions_of(left_infoset)
    composed = compose_strategy(game, blueprint, partition,
                                {0: {u_seq: 0.6, v_seq: 0.4}})
    assert composed.probs[u_seq] == pytest.approx(0.6)
    assert composed.probs[v_seq] == pytest.approx(0.4)
    untouched = [s for s in range(tp1.n_sequences) if s not in (u_seq, v_seq)]
    assert composed.probs[untouched] == pytest.approx(
        blueprint.probs[untouched])


def test_compose_rejects_flow_breaking_local_plan():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    tp1 = game.treeplex(LEADER)
    left_infoset = partition.subgames[0].infosets[LEADER][0]
    u_seq, v_seq = tp1.actions_of(left_infoset)
    with pytest.raises(GameError, match="flow violated"):
        compose_strategy(game, blueprint, partition,
                         {0: {u_seq: 0.5, v_seq: 0.2}})


def test_naive_search_invites_exploitation_in_the_exit_demo():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    assert evaluate_leader(game, blueprint) == pytest.approx(1.5, abs=1e-9)
    naive = naive_search(game, blueprint, partition)
    assert evaluate_leader(game, naive) == pytest.approx(0.5, abs=1e-9)


def test_naive_search_drives_the_follower_out_entirely():
    game = shared_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    assert evaluate_leader(game, blueprint) == pytest.approx(1.0, abs=1e-9)
    naive = naive_search(game, blueprint, partition)
    assert evaluate_leader(game, naive) == pytest.approx(0.0, abs=1e-9)


def test_safe_search_improves_the_exit_demo_without_breaking_it():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    report = safe_search(game, blueprint, partition, alpha=0.5, beta=1.0)
    assert all(s.status == OPTIMAL for s in report.solutions)
    assert report.n_fallbacks == 0
    # The left subgame shifts a quarter of the leader's weight to its
    # greedier action (0.5 * 1.25 = 0.625 there) while the right subgame's
    # bound keeps the follower exiting for 1.0.
    assert evaluate_leader(game, report.plan) == pytest.approx(1.625,
                                                               abs=1e-9)


def test_safe_search_improves_the_shared_exit_demo():
    game = shared_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    report = safe_search(game, blueprint, partition, alpha=0.5, beta=1.0)
    # 0.75/0.25 mixes on both sides keep the follower in for 2 * 0.625.
    assert evaluate_leader(game, report.plan) == pytest.approx(1.25,
                                                               abs=1e-9)


def test_safe_search_skips_subgames_the_blueprint_never_reaches():
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.9, seed=1))
    bs = uniform_behavioral(game, LEADER)
    first_stage = game.node(game.root).infoset
    bs.probs[first_stage] = np.array([1.0, 0.0])
    blueprint = behavioral_to_realization(game, bs)
    partition = partition_subgames(game, "two-stage")
    report = safe_search(game, blueprint, partition, alpha=0.5, beta=1.0)
    skipped = [s for s in report.solutions
               if s.status == "SkippedUnreachable"]
    # The pure first-stage commitment leaves one leader action unplayed,
    # hence half of the (first stage pair) x (secondary game) cells.
    assert len(skipped) == 4
    assert all(s.used_fallback for s in skipped)
    blueprint_ev = evaluate_leader(game, blueprint)
    assert evaluate_leader(game, report.plan) >= blueprint_ev - 1e-6


def test_safe_search_worker_pool_matches_sequential():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    seq = safe_search(game, blueprint, partition, alpha=0.5, beta=1.0)
    par = safe_search(game, blueprint, partition, alpha=0.5, beta=1.0,
                      workers=2)
    assert par.plan.probs == pytest.approx(seq.plan.probs, abs=0.0)


def test_run_experiment_rows_and_deterministic_csv():
    config = ExperimentConfig(
        games=(GameSpec("fig2"), GameSpec("fig3")),
        blueprint_method="fixed", scheme="metadata", alpha=0.5, beta=1.0)
    rows = run_experiment(config)
    assert [r.blueprint_ev for r in rows] == pytest.approx([1.5, 1.0])
    assert [r.search_ev for r in rows] == pytest.approx([1.625, 1.25])
    assert all(r.safety for r in rows)
    assert all(r.bounds_mode == "safe" for r in rows)
    assert all(r.full_game_ev is None for r in rows)
    text = rows_to_csv(rows)
    assert text.splitlines()[0].startswith("game,scheme,subgames")
    assert "N/A" in text
    assert "wall" not in text  # timing never lands in the result file
    rerun = rows_to_csv(run_experiment(config))
    assert rerun == text


def test_run_experiment_full_game_sandwich():
    config = ExperimentConfig(
        games=(GameSpec("fig2"),), blueprint_method="fixed",
        scheme="metadata", alpha=0.5, beta=1.0, solve_full_game=True)
    row = run_experiment(config)[0]
    assert row.full_game_ev == pytest.approx(1.75, abs=1e-6)
    assert row.blueprint_ev - 1e-6 <= row.search_ev <= row.full_game_ev + 1e-6


# sha256 of the result CSV of demos/two_stage_batch.json: every EV in it,
# the whole-game column included, is pinned to the last bit.
TWO_STAGE_BATCH_CSV = \
    "b5d9a473049b44c29ae7b18c8963ca8be3eb5fa067734e92f98544f758c52d6d"


def test_two_stage_batch_csv_is_pinned():
    path = Path(__file__).resolve().parent.parent / "demos" \
        / "two_stage_batch.json"
    config = ExperimentConfig.from_json(path.read_text(encoding="utf-8"))
    text = rows_to_csv(run_experiment(config))
    assert hashlib.sha256(text.encode()).hexdigest() == TWO_STAGE_BATCH_CSV


def test_large_beta_is_labeled_potentially_unsafe():
    config = ExperimentConfig(
        games=(GameSpec("fig2"),), blueprint_method="fixed",
        scheme="metadata", alpha=0.5, beta=16.0)
    row, report = run_single(GameSpec("fig2").materialize(), config, "fig2")
    assert row.bounds_mode == "potentially-unsafe"
    # Reported EV must still be the independent best-response evaluation.
    game = GameSpec("fig2").materialize()
    response, _, _ = best_response(game, report.plan)
    assert row.search_ev == pytest.approx(
        expected_payoffs(game, report.plan, response)[0], abs=1e-6)


def test_config_validation_and_json_round_trip():
    with pytest.raises(GameError, match="alpha"):
        ExperimentConfig(games=(GameSpec("fig2"),), alpha=2.0).validate()
    with pytest.raises(GameError, match="beta"):
        ExperimentConfig(games=(GameSpec("fig2"),), beta=0.5).validate()
    with pytest.raises(GameError, match="no games"):
        ExperimentConfig(games=()).validate()
    with pytest.raises(GameError, match="time limits"):
        ExperimentConfig(games=(GameSpec("fig2"),),
                         subgame_time_limit=0.0).validate()
    config = ExperimentConfig.from_json("""
        {"games": [{"family": "twostage", "n": 2, "M": 2, "m": 2,
                    "kappa": 0.1, "seed": 7}],
         "blueprint": "stage-sse", "scheme": "two-stage",
         "alpha": 0.25, "beta": 2.0, "seed": 7}
    """)
    assert config.games[0].family == "twostage"
    assert dict(config.games[0].params)["kappa"] == 0.1
    assert config.blueprint_method == "stage-sse"
    assert config.alpha == 0.25 and config.beta == 2.0
    assert config.games[0].describe().startswith("twostage(")
