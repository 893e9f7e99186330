"""Subgames whose MILPs match an earlier subgame's reuse its solution.

safe_search digests every subgame model (solver.fingerprint); a model
whose digest equals a lower subgame's takes that twin's solution once it
passes the model's own feasibility, bound and payoff checks, and is solved
on its own otherwise.
"""

from __future__ import annotations

import json
import logging
import sys
import threading

import numpy as np
import pytest

from stackelberg_search import harness
from stackelberg_search.blueprint import (
    fixed_blueprint,
    make_blueprint,
    uniform_blueprint,
)
from stackelberg_search.cli import main
from stackelberg_search.efg import FOLLOWER, LEADER, TreeBuilder
from stackelberg_search.games import (
    LeducSpec,
    generate,
    leduc_game,
    shared_exit_game,
)
from stackelberg_search.harness import safe_search
from stackelberg_search.search import (
    SubgameSolution,
    blueprint_local_plan,
    build_constrained_milp,
    partition_subgames,
    prepare_search,
    reuse_solution,
    solve_subgame,
)
from stackelberg_search.solver import (
    GAP_TOL,
    OPTIMAL,
    fingerprint,
)

# Suit-mirrored public states of Leduc n=3 (rho 0.1, zero-sum blueprint):
# the blueprint plays mirrored sequences alike, so each of the 54 reachable
# subgames (all but 48-59) pairs with its suit mirror.
LEDUC3_TWINS = [(k, k + 1) for k in range(0, 48, 2)] + [(60, 61), (62, 63),
                                                         (64, 65)]


def _models(game, blueprint, partition):
    context = prepare_search(game, blueprint, partition)
    for sub in partition:
        q = context.quantities[sub.index]
        if q.eta is not None:
            yield build_constrained_milp(game, sub, q,
                                         context.bounds[sub.index],
                                         context.brvs)


def _twin_pairs(models):
    representatives, pairs = {}, []
    for model in models:
        index = model.subgame.index
        twin = representatives.setdefault(
            fingerprint(model.problem, model.warm), index)
        if twin != index:
            pairs.append((twin, index))
    return pairs


def test_leduc_n3_zero_sum_models_form_the_twenty_seven_mirror_pairs():
    game = leduc_game(LeducSpec(n=3, rho=0.1))
    blueprint = make_blueprint(game, "zerosum").plan
    partition = partition_subgames(game, "leduc")
    assert _twin_pairs(_models(game, blueprint, partition)) == LEDUC3_TWINS


# Twins found per input, pinned so that a build-order change that splits a
# mirror pair shows.
@pytest.mark.parametrize("family, params, method, m, twins", [
    ("leduc", {"n": 2, "rho": 0.1}, "uniform", None, 22),
    ("goofspiel", {"n": 4}, "zerosum", 2, 13),
    ("goofspiel", {"n": 3}, "uniform", 2, 3),
], ids=["leduc2-uniform", "goofspiel4-m2-zerosum", "goofspiel3-m2-uniform"])
def test_twin_counts(family, params, method, m, twins):
    game = generate(family, **params)
    blueprint = make_blueprint(game, method).plan
    partition = partition_subgames(game, family, m=m)
    assert len(_twin_pairs(_models(game, blueprint, partition))) == twins


@pytest.fixture(scope="module")
def leduc2():
    """Leduc n=2 under its zero-sum blueprint, restricted to the leduc
    scheme's subgames 4-7 (two twin pairs that solve in milliseconds;
    subgames 0-3 take tens of seconds uncapped).  Bounds and quantities are
    per subgame, so these four models are the full partition's."""
    game = leduc_game(LeducSpec(n=2, rho=0.1))
    blueprint = make_blueprint(game, "zerosum").plan
    groups = [list(sub.initial)
              for sub in partition_subgames(game, "leduc").subgames[4:8]]
    return game, blueprint, partition_subgames(game, "explicit",
                                                initial_nodes=groups)


def test_reused_solutions_match_direct_solves_of_their_own_models(leduc2):
    game, blueprint, partition = leduc2
    report = safe_search(game, blueprint, partition)
    assert [s.twin_of for s in report.solutions] == [None, 0, None, 2]
    assert report.n_reused == 2
    models = {m.subgame.index: m for m in _models(game, blueprint, partition)}
    for solution in report.solutions:
        if solution.twin_of is None:
            continue
        direct = solve_subgame(game, models[solution.index], blueprint)
        assert solution.status == direct.status == OPTIMAL
        assert solution.objective == pytest.approx(direct.objective,
                                                   abs=GAP_TOL)
        assert not solution.used_fallback


def test_worker_pool_reuses_the_same_twins(leduc2):
    game, blueprint, partition = leduc2
    seq = safe_search(game, blueprint, partition)
    par = safe_search(game, blueprint, partition, workers=2)
    assert par.plan.probs.tobytes() == seq.plan.probs.tobytes()
    assert [s.twin_of for s in par.solutions] == \
        [s.twin_of for s in seq.solutions]


def _mirrored_exits(k: int, patterns: int):
    """Chance picks one of k branches; in each the follower exits or goes on
    to a leader choice whose payoffs repeat every `patterns` branches, so
    branches i and i + patterns pose the same subgame."""
    b = TreeBuilder()
    root = b.chance(None, [1.0 / k] * k, [f"b{i}" for i in range(k)])
    heads = []
    for i in range(k):
        follower = b.player(root, FOLLOWER, f"F{i}", ["exit", "stay"])
        b.terminal(follower, 0.0, 0.0)
        heads.append(b.player(follower, FOLLOWER, f"head{i}", ["go"]))
        leader = b.player(heads[-1], LEADER, f"L{i}", ["u", "v"])
        b.terminal(leader, 1.0 + i % patterns, 1.0)
        b.terminal(leader, 2.0 + i % patterns, -1.0)
    return b.build(metadata={"name": "mirrored-exits",
                             "subgames": [[h] for h in heads]})


def test_worker_pool_under_fast_thread_switching_finds_each_twin():
    game = _mirrored_exits(12, 3)
    blueprint = uniform_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    seq = safe_search(game, blueprint, partition)
    expected = [None, None, None] + [i % 3 for i in range(3, 12)]
    assert [s.twin_of for s in seq.solutions] == expected
    results = []
    worker = threading.Thread(
        target=lambda: results.append(
            safe_search(game, blueprint, partition, workers=6)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "worker pool deadlocked"
    par = results[0]
    assert [s.twin_of for s in par.solutions] == expected
    assert par.plan.probs.tobytes() == seq.plan.probs.tobytes()


# The cheap cases run on the shared-exit demo, whose two subgames are
# identical copies under the bundled blueprint.


@pytest.fixture
def shared_exit():
    game = shared_exit_game()
    return game, fixed_blueprint(game).plan, partition_subgames(game,
                                                                "metadata")


def _count_solves(monkeypatch):
    solved = []
    original = harness.solve_subgame

    def counting(game, model, blueprint, time_limit=None):
        solved.append(model.subgame.index)
        return original(game, model, blueprint, time_limit=time_limit)

    monkeypatch.setattr(harness, "solve_subgame", counting)
    return solved


def test_shared_exit_twin_is_reused_and_logged(shared_exit, monkeypatch,
                                               caplog):
    solved = _count_solves(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="stackelberg_search.harness"):
        report = safe_search(*shared_exit)
    assert solved == [0]
    first, second = report.solutions
    assert (first.twin_of, second.twin_of) == (None, 0)
    assert second.status == first.status == OPTIMAL
    assert second.objective == pytest.approx(first.objective, abs=1e-12)
    assert [r.getMessage() for r in caplog.records] == [
        "subgame 1 reuses the solution of its twin 0"]


def test_perturbed_bound_is_solved_on_its_own(shared_exit, monkeypatch):
    original = harness.build_constrained_milp

    def perturbed(game, sub, *args):
        model = original(game, sub, *args)
        if sub.index == 1:
            var, side = _bounded_v(model)
            side[var] += 1e-9
        return model

    monkeypatch.setattr(harness, "build_constrained_milp", perturbed)
    solved = _count_solves(monkeypatch)
    report = safe_search(*shared_exit)
    assert solved == [0, 1]
    assert [s.twin_of for s in report.solutions] == [None, None]


def _bounded_v(model):
    """A follower-value column with a finite head bound, and the list (the
    LP's lower or upper) that holds that bound."""
    lp = model.problem.lp
    var = next(var for var in model.v_vars.values()
               if np.isfinite(lp.lower[var]) or np.isfinite(lp.upper[var]))
    return var, lp.lower if np.isfinite(lp.lower[var]) else lp.upper


def _same_digest(first, second):
    return fingerprint(first.problem, first.warm) == \
        fingerprint(second.problem, second.warm)


def test_head_bounds_of_zero_and_minus_zero_have_equal_digests(shared_exit):
    game, blueprint, partition = shared_exit
    models = list(_models(game, blueprint, partition))
    for model, value in zip(models, (0.0, -0.0)):
        var, side = _bounded_v(model)
        side[var] = value
    assert _same_digest(*models)


def test_finite_bound_never_matches_an_infinite_one(shared_exit):
    game, blueprint, partition = shared_exit
    first, second = _models(game, blueprint, partition)
    var, side = _bounded_v(first)
    side[var] = 0.0
    var, side = _bounded_v(second)
    side[var] = -np.inf if side is second.problem.lp.lower else np.inf
    assert not _same_digest(first, second)


def test_twins_with_infinite_bounds_have_equal_digests(shared_exit):
    game, blueprint, partition = shared_exit
    first, second = _models(game, blueprint, partition)
    lp = first.problem.lp
    assert np.isinf(lp.lower + lp.upper).any()
    assert _same_digest(first, second)


def test_twin_of_a_fallback_is_solved_on_its_own(shared_exit, monkeypatch):
    original = harness.solve_subgame
    solved = []

    def failing_first(game, model, blueprint, time_limit=None):
        solved.append(model.subgame.index)
        if model.subgame.index == 0:
            sub = model.subgame
            return SubgameSolution(
                index=0, status="WarmStartFailed", objective=float("nan"),
                local_plan=blueprint_local_plan(game, sub, blueprint),
                assignment=None, wall_time=0.0, bound_gap=float("inf"))
        return original(game, model, blueprint, time_limit=time_limit)

    monkeypatch.setattr(harness, "solve_subgame", failing_first)
    report = safe_search(*shared_exit)
    assert solved == [0, 1]
    assert [s.twin_of for s in report.solutions] == [None, None]
    assert report.solutions[1].status == OPTIMAL


def test_assignment_violating_a_twin_row_is_rejected(shared_exit,
                                                     monkeypatch):
    game, blueprint, partition = shared_exit
    original = harness.solve_subgame
    solved = []

    def tampering(game, model, blueprint, time_limit=None):
        solved.append(model.subgame.index)
        solution = original(game, model, blueprint, time_limit=time_limit)
        if model.subgame.index == 0:
            # A follower value variable is free, so shifting it breaks only
            # its value rows, no column bound.
            x = solution.assignment.copy()
            x[next(iter(model.v_vars.values()))] += 1.0
            solution.assignment = x
        return solution

    monkeypatch.setattr(harness, "solve_subgame", tampering)
    report = safe_search(game, blueprint, partition)
    assert solved == [0, 1]
    assert [s.twin_of for s in report.solutions] == [None, None]
    assert report.solutions[1].status == OPTIMAL


def test_reuse_checks_the_twin_assignment_against_the_own_model(shared_exit):
    game, blueprint, partition = shared_exit
    first, second = _models(game, blueprint, partition)
    solution = solve_subgame(game, first, blueprint)
    reused = reuse_solution(game, second, solution)
    assert reused is not None and reused.twin_of == 0
    assert reused.bound_gap == max(
        0.0, solution.objective + solution.bound_gap - reused.objective)
    for var, shift in ((next(iter(second.v_vars.values())), 1.0),
                       (second.problem.binaries[0], 0.5),
                       (next(iter(second.p_vars.values())), 2.0)):
        x = solution.assignment.copy()
        x[var] += shift
        bad = SubgameSolution(**{**vars(solution), "assignment": x})
        assert reuse_solution(game, second, bad) is None
    fallback = SubgameSolution(**{**vars(solution), "assignment": None})
    assert reuse_solution(game, second, fallback) is None
    assert np.array_equal(reused.assignment, solution.assignment)


def test_cli_search_reports_twins(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    plan_path = tmp_path / "blueprint.json"
    out_dir = tmp_path / "out"
    assert main(["generate", "--family", "fig3", "--out", str(game_path)]) == 0
    assert main(["blueprint", "--game", str(game_path), "--method", "fixed",
                 "--out", str(plan_path)]) == 0
    assert main(["search", "--game", str(game_path), "--blueprint",
                 str(plan_path), "--out", str(out_dir)]) == 0
    assert "2 subgames, 0 fallbacks, 1 reused from a twin" in \
        capsys.readouterr().out
    twin_of = [json.loads((out_dir / f"subgame-000{i}.json").read_text())
               ["twin_of"] for i in (0, 1)]
    assert twin_of == [None, 0]
