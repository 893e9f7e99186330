"""``run_single`` evaluates the blueprint against the best response the
search preamble already computed, instead of computing it again."""

import pytest

from stackelberg_search import harness, response, search
from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.harness import (
    ExperimentConfig,
    GameSpec,
    evaluate_leader,
    run_single,
    safe_search,
)
from stackelberg_search.search import partition_subgames

CASES = (
    ({"family": "twostage", "seed": 3}, "stage-sse", "two-stage", None),
    ({"family": "goofspiel", "n": 3}, "zerosum", "goofspiel", 2),
)


@pytest.mark.parametrize("spec,method,scheme,m", CASES,
                         ids=[c[0]["family"] for c in CASES])
def test_run_single_computes_best_response_values_twice(monkeypatch, spec,
                                                        method, scheme, m):
    game = GameSpec.from_dict(spec).materialize()
    config = ExperimentConfig(games=(GameSpec.from_dict(spec),),
                              blueprint_method=method, scheme=scheme,
                              scheme_m=m)
    calls = []
    original = response.compute_brvs

    def counting(game, plan):
        calls.append(plan)
        return original(game, plan)

    monkeypatch.setattr(response, "compute_brvs", counting)
    monkeypatch.setattr(search, "compute_brvs", counting)
    row, _ = run_single(game, config, "case")
    # Once for the blueprint in the search preamble, once for the composed
    # plan's exact re-evaluation.
    assert len(calls) == 2
    monkeypatch.undo()
    blueprint = make_blueprint(game, method).plan
    assert row.blueprint_ev == evaluate_leader(game, blueprint)


def test_full_game_solve_reuses_the_best_response_values(monkeypatch):
    spec = {"family": "twostage", "seed": 3}
    game = GameSpec.from_dict(spec).materialize()
    config = ExperimentConfig(games=(GameSpec.from_dict(spec),),
                              blueprint_method="stage-sse", scheme="two-stage",
                              solve_full_game=True)
    calls = []
    original = response.compute_brvs

    def counting(game, plan):
        calls.append(plan)
        return original(game, plan)

    monkeypatch.setattr(response, "compute_brvs", counting)
    monkeypatch.setattr(search, "compute_brvs", counting)
    monkeypatch.setattr(harness, "compute_brvs", counting)
    row, _ = run_single(game, config, "case")
    # The blueprint's values once, shared by both searches, then one exact
    # re-evaluation each for the composed and the whole-game plan.
    assert len(calls) == 3
    monkeypatch.undo()
    blueprint = make_blueprint(game, "stage-sse").plan
    whole = safe_search(game, blueprint,
                        partition_subgames(game, "whole-game"))
    assert row.full_game_ev == evaluate_leader(game, whole.plan)
