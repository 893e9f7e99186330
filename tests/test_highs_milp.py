"""The contract of ``solve_milp`` on real subgame models.

* A warm start that already meets the root relaxation bound is proven
  optimal there, without a call to HiGHS's MIP solver, even when the time
  limit ran out during the root LP.
* A solve stopped by its time limit returns an incumbent at least as good as
  its warm start, a gap that covers the true optimum, and stops near the
  limit.
* Binaries in a returned assignment are exactly 0.0 or 1.0.
* The MIP seam, ``solver.milp``, runs on the problem's one HiGHS model and
  returns what scipy's public ``milp`` returns on the same rows, bit for
  bit; scipy stays the oracle, as for LPs in test_highs_lp.py.  An LP run
  after a MIP on that model is the LP a fresh model runs, and a cap on a
  model that has already run LPs still holds.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from stackelberg_search import solver
from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.games import generate
from stackelberg_search.harness import ExperimentConfig, run_single
from stackelberg_search.search import (
    build_constrained_milp,
    partition_subgames,
    prepare_search,
)
from stackelberg_search.solver import (
    INCUMBENT_TIME_LIMIT,
    OPTIMAL,
    LinearProgram,
    MilpProblem,
    solve_lp,
    solve_milp,
)

# The HiGHS MIP heuristics every model runs without.
HEURISTICS_OFF = ("mip_heuristic_run_rins", "mip_heuristic_run_rens",
                  "mip_heuristic_run_feasibility_jump")


def _models(family, method="zerosum", **kwargs):
    m = kwargs.pop("m", None)
    game = generate(family, **kwargs)
    blueprint = make_blueprint(game, method).plan
    partition = partition_subgames(game, family, m=m)
    context = prepare_search(game, blueprint, partition)

    def model(index):
        sub = partition.subgames[index]
        assert sub.index == index
        return build_constrained_milp(game, sub, context.quantities[index],
                                      context.bounds[index],
                                      context.brvs)

    return model


@pytest.fixture(scope="module")
def goofspiel():
    return _models("goofspiel", n=4, m=3)


@pytest.fixture(scope="module")
def leduc():
    return _models("leduc", n=3, rho=0.1)


@pytest.fixture(scope="module")
def leduc_uniform():
    """Leduc under the uniform blueprint: subgames 6 and 30 still run into
    a 0.5 s cap, where the zero-sum blueprint's close at the root."""
    return _models("leduc", "uniform", n=3, rho=0.1)


@pytest.fixture
def milp_calls(monkeypatch):
    calls = []
    original = solver.milp

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "milp", counting)
    return calls


def _forbid_milp(*args, **kwargs):
    raise AssertionError("the MIP solver was called")


def _warm_lp_objective(problem, warm):
    """The LP with the warm start's binaries fixed, solved on its own."""
    lower = list(problem.lp.lower)
    upper = list(problem.lp.upper)
    for var in problem.binaries:
        lower[var] = upper[var] = float(round(warm[var]))
    solution = solve_lp(dataclasses.replace(problem.lp, lower=lower,
                                            upper=upper))
    assert solution.status == OPTIMAL
    return solution.objective


def _assert_exact_binaries(problem, solution):
    assert solution.assignment is not None
    values = solution.assignment[list(problem.binaries)]
    assert np.all((values == 0.0) | (values == 1.0))


def test_integral_root_needs_no_mip(monkeypatch):
    lp = LinearProgram()
    a = lp.add_var("a", 0.0, 1.0, objective=1.0)
    lp.add_constraint({a: 1.0}, "<=", 1.0)
    monkeypatch.setattr(solver, "milp", _forbid_milp)
    sol = solve_milp(MilpProblem(lp, (a,)), warm=np.array([1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == 1.0


def test_warm_start_optimal_at_the_root_needs_no_mip(monkeypatch, goofspiel):
    model = goofspiel(0)
    monkeypatch.setattr(solver, "milp", _forbid_milp)
    sol = solve_milp(model.problem, warm=model.warm)
    assert sol.status == OPTIMAL
    assert sol.bound_gap <= solver.GAP_TOL * (1.0 + abs(sol.objective))
    assert sol.objective == _warm_lp_objective(model.problem, model.warm)


def test_root_closure_outranks_a_spent_time_limit(monkeypatch, goofspiel):
    model = goofspiel(0)
    monkeypatch.setattr(solver, "milp", _forbid_milp)
    sol = solve_milp(model.problem, warm=model.warm, time_limit=1e-9)
    assert sol.status == OPTIMAL
    assert sol.bound_gap <= solver.GAP_TOL * (1.0 + abs(sol.objective))


def test_every_solve_goes_through_the_module_bindings(monkeypatch, goofspiel,
                                                      milp_calls):
    """Patching solver.linprog and solver.milp sees every LP and MIP, as
    perfbench's LP count and cap check need."""
    lps = []
    original = solver.linprog

    def counting(*args, **kwargs):
        lps.append(kwargs.get("bounds"))
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "linprog", counting)
    lp = LinearProgram()
    a = lp.add_var("a", 0.0, 1.0, objective=1.0)
    lp.add_constraint({a: 1.0}, "<=", 1.0)
    solve_lp(lp)
    assert (len(lps), len(milp_calls)) == (1, 0)

    lps.clear()
    model = goofspiel(0)
    solve_milp(model.problem, warm=model.warm)
    assert len(lps) >= 2    # the warm start's fixed-binary LP and the root
    assert milp_calls == []


def test_capped_solve_is_sandwiched_and_stops_near_its_cap(leduc_uniform,
                                                          milp_calls):
    model = leduc_uniform(30)
    cap = 0.5
    capped = solve_milp(model.problem, warm=model.warm, time_limit=cap)
    assert capped.status == INCUMBENT_TIME_LIMIT
    assert milp_calls and 0.0 < milp_calls[0]["time_limit"] <= cap
    assert capped.wall_time <= cap + 1.0
    assert capped.objective >= \
        _warm_lp_objective(model.problem, model.warm) - 1e-9
    _assert_exact_binaries(model.problem, capped)

    uncapped = solve_milp(model.problem, warm=model.warm)
    assert uncapped.status == OPTIMAL
    assert capped.objective <= uncapped.objective + 1e-6
    assert uncapped.objective <= capped.objective + capped.bound_gap + 1e-6


@pytest.mark.parametrize("family,index,time_limit", [
    ("goofspiel", 0, None), ("leduc_uniform", 30, 0.5),
    ("leduc", 6, None), ("leduc", 31, None), ("leduc_uniform", 6, 0.5)])
def test_returned_binaries_are_exactly_zero_or_one(request, family, index,
                                                   time_limit):
    model = request.getfixturevalue(family)(index)
    sol = solve_milp(model.problem, warm=model.warm, time_limit=time_limit)
    _assert_exact_binaries(model.problem, sol)
    cold = solve_milp(model.problem, time_limit=time_limit or 5.0)
    if cold.assignment is not None:
        _assert_exact_binaries(model.problem, cold)


def _scipy_milp(problem):
    """scipy's milp on the problem's rows, as one LinearConstraint, with the
    model's MIP options.  scipy passes the three heuristic switches to
    HiGHS verbatim and warns that it does not know them."""
    matrix, lower, upper = problem._rows
    integrality = np.zeros(problem.lp.n_vars)
    integrality[list(problem.binaries)] = 1
    with pytest.warns(RuntimeWarning, match="Unrecognized options detected"):
        return milp(-np.asarray(problem.lp.objective),
                    integrality=integrality,
                    bounds=Bounds(problem.lp.lower, problem.lp.upper),
                    constraints=LinearConstraint(matrix, lower, upper),
                    options={"mip_rel_gap": solver.GAP_TOL,
                             **{name: False for name in HEURISTICS_OFF}})


@pytest.mark.parametrize("index,nodes", [(22, 4), (43, 4), (60, 8)])
def test_mip_seam_matches_scipy_milp_bit_for_bit(goofspiel, index, nodes):
    problem = goofspiel(index).problem
    status, x, dual_bound, mip_nodes = solver.milp(
        problem._highs, np.asarray(problem.lp.lower),
        np.asarray(problem.lp.upper), problem.binaries)
    info = problem._highs.getInfo()
    assert problem._highs.getOptionValue("mip_rel_gap")[1] == solver.GAP_TOL
    expected = _scipy_milp(problem)
    assert (status, expected.status) == (OPTIMAL, 0)
    assert x.tobytes() == expected.x.tobytes()
    assert np.float64(info.objective_function_value).tobytes() == \
        np.float64(expected.fun).tobytes()
    assert np.float64(-dual_bound).tobytes() == \
        np.float64(expected.mip_dual_bound).tobytes()
    assert mip_nodes == expected.mip_node_count == nodes


def test_an_lp_after_a_mip_is_a_fresh_models_lp(goofspiel):
    problem = goofspiel(22).problem
    lower = np.asarray(problem.lp.lower)
    upper = np.asarray(problem.lp.upper)
    solver.milp(problem._highs, lower, upper, problem.binaries,
                time_limit=30.0)
    assert problem._highs.getOptionValue("time_limit")[1] == np.inf
    status, (objective, x), iterations = solver.linprog(problem._highs,
                                                        lower, upper)
    fresh = MilpProblem(problem.lp, problem.binaries)
    expected_status, (expected_objective, expected_x), expected_iterations \
        = solver.linprog(fresh._highs, lower, upper)
    assert status == expected_status == OPTIMAL
    assert x.tobytes() == expected_x.tobytes()
    assert objective == expected_objective
    assert iterations == expected_iterations


def test_a_cap_holds_on_a_model_that_has_run_lps(leduc_uniform, milp_calls):
    """HiGHS's time limit counts one run, not the model's life."""
    model = leduc_uniform(30)
    problem = model.problem
    lower = np.asarray(problem.lp.lower)
    upper = np.asarray(problem.lp.upper)
    for _ in range(20):
        assert solver.linprog(problem._highs, lower, upper)[0] == OPTIMAL
    cap = 0.5
    capped = solve_milp(problem, warm=model.warm, time_limit=cap)
    assert capped.status == INCUMBENT_TIME_LIMIT
    assert len(milp_calls) == 1
    assert capped.wall_time <= cap + 1.0


def _mip_settings(model):
    return [model.getOptionValue(name)[1]
            for name in ("mip_rel_gap", *HEURISTICS_OFF)]


def test_highs_knows_the_heuristic_switches():
    """A HiGHS that renamed a switch would fail here, not run with it on."""
    options = solver.highs.HighsOptions()
    assert [getattr(options, name) for name in HEURISTICS_OFF] == \
        [True, True, True]    # HiGHS's defaults, which every model turns off


def test_every_mip_runs_with_the_settings_and_keeps_them(monkeypatch,
                                                         goofspiel):
    """Before and after each solver.milp run, on subgame, whole-game and
    cold solves alike; _retype's reset must leave them alone."""
    expected = [solver.GAP_TOL, False, False, False]
    runs = []
    original = solver.milp

    def checking(model, *args, **kwargs):
        assert _mip_settings(model) == expected
        result = original(model, *args, **kwargs)
        assert _mip_settings(model) == expected
        runs.append(result[0])
        return result

    monkeypatch.setattr(solver, "milp", checking)
    path = Path(__file__).resolve().parent.parent / "demos" \
        / "two_stage_batch.json"
    config = ExperimentConfig.from_json(path.read_text(encoding="utf-8"))
    for spec in config.games:
        run_single(spec.materialize(), config, spec.describe())
    problem = goofspiel(22).problem
    solve_milp(problem)
    solve_milp(problem, time_limit=5.0)
    assert len(runs) > 2 and set(runs) == {OPTIMAL}


@pytest.mark.parametrize("index", [22, 43, 60])
def test_a_cold_mip_reaches_the_warm_started_optimum(goofspiel, milp_calls,
                                                     index):
    """Without feasibility jump a MIP with no warm start still finds an
    incumbent, and the optimum."""
    model = goofspiel(index)
    warm = solve_milp(model.problem, warm=model.warm)
    cold = solve_milp(model.problem)
    assert (warm.status, cold.status) == (OPTIMAL, OPTIMAL)
    assert len(milp_calls) == 2
    assert cold.objective == warm.objective
    _assert_exact_binaries(model.problem, cold)


def test_a_capped_cold_mip_still_finds_an_incumbent(leduc_uniform,
                                                    milp_calls):
    """Uniform subgame 30 with no warm start: HiGHS's central rounding finds
    an incumbent at the root, about 0.2 s into the run on 2 shared cores, so
    a 0.5 s cap ends with one rather than with none."""
    model = leduc_uniform(30)
    cold = solve_milp(model.problem, time_limit=0.5)
    assert cold.status == INCUMBENT_TIME_LIMIT
    assert len(milp_calls) == 1
    _assert_exact_binaries(model.problem, cold)
    assert solver.satisfies(model.problem, cold.assignment)
    assert cold.objective <= cold.root_bound
    assert 0.0 < cold.bound_gap < np.inf
