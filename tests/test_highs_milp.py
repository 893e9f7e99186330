"""The contract of ``solve_milp`` on real subgame models.

* A warm start that already meets the root relaxation bound is proven
  optimal there, without a call to HiGHS's MIP solver, even when the time
  limit ran out during the root LP.
* A solve stopped by its time limit returns an incumbent at least as good as
  its warm start, a gap that covers the true optimum, and stops near the
  limit.
* Binaries in a returned assignment are exactly 0.0 or 1.0.
"""

import dataclasses

import numpy as np
import pytest

from stackelberg_search import solver
from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.games import generate
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
                                      context.bounds[index], blueprint,
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
        calls.append(kwargs.get("options"))
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
