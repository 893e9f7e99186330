"""``run_single`` evaluates the blueprint against the best response the
search preamble already computed, instead of computing it again."""

import pytest

from stackelberg_search import response, search
from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.harness import (
    ExperimentConfig,
    GameSpec,
    evaluate_leader,
    run_single,
)

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
