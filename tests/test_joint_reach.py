"""The joint-reach rows of the subgame MILPs, and the solve figures that
show their effect.

* The rows cut off no integer solution: every model of the digest set that
  solves uncapped in well under a second reaches the optimum pinned before
  the rows existed (computed from the models without them).
* With the realized-value rows they close the relaxation: under the
  zero-sum blueprint every reachable Leduc n=3 model, and 13 of Goofspiel
  n=4 m=3's 16, is proven optimal at the root without a MIP call, while the
  warm-start incumbents stay where they were.  (The root bounds of Leduc
  subgames 0 and 64 were 0.602 and 0.291 before either kind of row.)
* Each solution carries its root bound and HiGHS's node count, and
  ``cli search`` writes both, with the bound gap, into its subgame files.
"""

from __future__ import annotations

import json

import pytest

from stackelberg_search import solver
from stackelberg_search.blueprint import (
    make_blueprint,
    stage_sse_blueprint,
    uniform_blueprint,
)
from stackelberg_search.cli import main
from stackelberg_search.games import (
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    generate,
    goofspiel_game,
    leduc_game,
    two_stage_game,
)
from stackelberg_search.search import (
    build_constrained_milp,
    build_full_milp,
    partition_subgames,
    prepare_search,
)
from stackelberg_search.solver import GAP_TOL, OPTIMAL, solve_milp


def _models(game, blueprint, partition):
    """index -> model of every reachable subgame."""
    context = prepare_search(game, blueprint, partition)
    return {sub.index: build_constrained_milp(
                game, sub, context.quantities[sub.index],
                context.bounds[sub.index], context.brvs)
            for sub in partition
            if context.quantities[sub.index].eta is not None}


def _goofspiel():
    game = goofspiel_game(GoofspielSpec(n=3))
    return _models(game, uniform_blueprint(game).plan,
                   partition_subgames(game, "goofspiel", m=2))


def _leduc():
    game = leduc_game(LeducSpec(n=2, rho=0.1))
    return _models(game, uniform_blueprint(game).plan,
                   partition_subgames(game, "leduc"))


def _two_stage():
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=4))
    models = _models(game, stage_sse_blueprint(game).plan,
                     partition_subgames(game, "two-stage"))
    models["full"] = build_full_milp(game)
    return models


# Uncapped optima of the models without the joint-reach rows, by subgame.
# Leduc n=2's other 24 subgames do not close within 5 s either way.
PINNED_OPTIMA = {
    "goofspiel-n3-m2-uniform": (_goofspiel, {
        **{i: 0.0 for i in range(27)},
        0: 0.2222222222222222, 3: 0.14814814814814814,
        16: 0.1111111111111111, 20: 0.1111111111111111,
        23: 0.07407407407407407}),
    "leduc-n2-uniform": (_leduc, {
        i: 0.0 for i in (0, 1, 2, 3, 8, 9, 10, 11, 24, 25, 26, 27,
                         32, 33, 34, 35, 40, 41, 42, 43)}),
    "twostage-seed4-stage-sse": (_two_stage, {
        4: 1.9743739068671853, 5: 1.461891501002508, 6: 0.0, 7: 0.0,
        "full": 3.497425018926357}),
}


@pytest.mark.parametrize("name", PINNED_OPTIMA)
def test_joint_reach_rows_keep_every_pinned_optimum(name):
    build, optima = PINNED_OPTIMA[name]
    models = build()
    for index, value in optima.items():
        model = models[index]
        solution = solve_milp(model.problem, warm=model.warm)
        assert solution.status == OPTIMAL, index
        assert abs(solution.objective - value) <= GAP_TOL * (1 + abs(value)), \
            (index, solution.objective, value)
        assert solution.root_bound >= solution.objective - 1e-9, index


def _forbid_milp(*args, **kwargs):
    raise AssertionError("the MIP solver was called")


def _closed_at_the_root(models, indices):
    """index -> objective, each solve proven optimal at the root."""
    objectives = {}
    for index in indices:
        model = models[index]
        solution = solve_milp(model.problem, warm=model.warm)
        assert solution.status == OPTIMAL, index
        # With no MIP run the objective is the warm start's own LP.
        assert solution.root_bound - solution.objective <= \
            GAP_TOL * (1.0 + abs(solution.objective)), index
        assert solution.mip_nodes == 0, index
        objectives[index] = solution.objective
    return objectives


@pytest.fixture(scope="module")
def leduc3():
    game = generate("leduc", n=3, rho=0.1)
    return _models(game, make_blueprint(game, "zerosum").plan,
                   partition_subgames(game, "leduc"))


@pytest.mark.parametrize("index,ceiling,warm", [
    (0, 0.25, 0.001625), (64, 0.15, -0.014242)])
def test_joint_reach_rows_tighten_the_leduc_root_bound(leduc3, index,
                                                       ceiling, warm):
    model = leduc3[index]
    # No time left after the root: the root closes on the warm start, so
    # the spent limit does not matter.
    solution = solve_milp(model.problem, warm=model.warm, time_limit=0.0)
    assert solution.status == OPTIMAL
    assert solution.objective == pytest.approx(warm, abs=1e-6)
    # The bound meets the objective, up to the LP's rounding.
    assert solution.objective - 1e-9 <= solution.root_bound <= ceiling
    assert solution.root_bound == pytest.approx(warm, abs=1e-6)
    assert solution.mip_nodes == 0


def test_every_leduc_model_closes_at_the_root(monkeypatch, leduc3):
    assert len(leduc3) == 54
    monkeypatch.setattr(solver, "milp", _forbid_milp)
    _closed_at_the_root(leduc3, leduc3)


def test_goofspiel_models_close_at_the_root(monkeypatch):
    game = generate("goofspiel", n=4)
    models = _models(game, make_blueprint(game, "zerosum").plan,
                     partition_subgames(game, "goofspiel", m=3))
    monkeypatch.setattr(solver, "milp", _forbid_milp)
    _closed_at_the_root(
        models, (0, 1, 2, 3, 20, 21, 23, 40, 41, 42, 61, 62, 63))


def test_root_closed_goofspiel_subgame_reports_no_mip_nodes():
    game = generate("goofspiel", n=4)
    model = _models(game, make_blueprint(game, "zerosum").plan,
                    partition_subgames(game, "goofspiel", m=3))[0]
    solution = solve_milp(model.problem, warm=model.warm)
    assert solution.status == OPTIMAL
    assert solution.mip_nodes == 0
    assert solution.root_bound == pytest.approx(solution.objective,
                                                abs=GAP_TOL)


def test_cli_search_writes_the_solve_figures(tmp_path):
    game_path = tmp_path / "game.json"
    plan_path = tmp_path / "blueprint.json"
    out_dir = tmp_path / "out"
    assert main(["generate", "--family", "fig3", "--out", str(game_path)]) == 0
    assert main(["blueprint", "--game", str(game_path), "--method", "fixed",
                 "--out", str(plan_path)]) == 0
    assert main(["search", "--game", str(game_path), "--blueprint",
                 str(plan_path), "--out", str(out_dir)]) == 0
    first, second = (json.loads((out_dir / f"subgame-000{i}.json")
                                .read_text()) for i in (0, 1))
    assert second["twin_of"] == 0
    for key in ("bound_gap", "root_bound", "mip_nodes"):
        assert second[key] == first[key]
    assert first["root_bound"] >= 0.0 and first["bound_gap"] >= 0.0
    assert isinstance(first["mip_nodes"], int)
