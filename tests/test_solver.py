"""LP backend behavior and branch-and-bound correctness."""

from __future__ import annotations

import dataclasses
import itertools
import re

import numpy as np
import pytest

from stackelberg_search import solver
from stackelberg_search.solver import (
    GAP_TOL,
    INCUMBENT_TIME_LIMIT,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MilpProblem,
    SolverError,
    solve_lp,
    solve_milp,
)


def test_lp_single_variable():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, np.inf, objective=1.0)
    lp.add_constraint({x: 1.0}, "<=", 3.0)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0)


def test_lp_two_variables():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, np.inf, objective=1.0)
    y = lp.add_var("y", 0.0, np.inf, objective=1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(1.0)


def test_lp_matching_pennies_value():
    # max v subject to v <= x1 - x2, v <= x2 - x1, x1 + x2 = 1.
    lp = LinearProgram()
    v = lp.add_var("v", -np.inf, np.inf, objective=1.0)
    x1 = lp.add_var("x1", 0.0, 1.0)
    x2 = lp.add_var("x2", 0.0, 1.0)
    lp.add_constraint({v: 1.0, x1: -1.0, x2: 1.0}, "<=", 0.0)
    lp.add_constraint({v: 1.0, x1: 1.0, x2: -1.0}, "<=", 0.0)
    lp.add_constraint({x1: 1.0, x2: 1.0}, "==", 1.0)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_lp_infeasible_and_unbounded_statuses():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, np.inf, objective=0.0)
    lp.add_constraint({x: 1.0}, ">=", 2.0)
    lp.add_constraint({x: 1.0}, "<=", 1.0)
    assert solve_lp(lp).status == INFEASIBLE

    lp2 = LinearProgram()
    lp2.add_var("x", 0.0, np.inf, objective=1.0)
    assert solve_lp(lp2).status == UNBOUNDED


def test_milp_knapsack():
    lp = LinearProgram()
    a = lp.add_var("a", 0.0, 1.0, objective=3.0)
    b = lp.add_var("b", 0.0, 1.0, objective=2.0)
    lp.add_constraint({a: 1.0, b: 1.0}, "<=", 1.0)
    sol = solve_milp(MilpProblem(lp, (a, b)))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.value(a) == pytest.approx(1.0)
    assert sol.value(b) == pytest.approx(0.0, abs=1e-9)


def test_milp_integral_relaxation_short_circuits():
    lp = LinearProgram()
    a = lp.add_var("a", 0.0, 1.0, objective=1.0)
    lp.add_constraint({a: 1.0}, "<=", 1.0)
    sol = solve_milp(MilpProblem(lp, (a,)))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.bound_gap <= GAP_TOL


def _random_milp(seed: int) -> MilpProblem:
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    k = int(rng.integers(2, 7))
    j = int(rng.integers(0, 3))
    bins = [lp.add_var(f"z{i}", 0.0, 1.0, objective=float(rng.normal()))
            for i in range(k)]
    for i in range(j):
        lp.add_var(f"x{i}", 0.0, 2.0, objective=float(rng.normal()))
    for _ in range(int(rng.integers(1, 4))):
        coeffs = {v: float(rng.uniform(-1, 1))
                  for v in range(lp.n_vars) if rng.random() < 0.8}
        if coeffs:
            lp.add_constraint(coeffs, "<=", float(rng.uniform(0.2, 2.0)))
    return MilpProblem(lp, tuple(bins))


def _enumerate_optimum(problem: MilpProblem) -> float:
    best = -np.inf
    for pattern in itertools.product([0.0, 1.0], repeat=len(problem.binaries)):
        lower = list(problem.lp.lower)
        upper = list(problem.lp.upper)
        for var, val in zip(problem.binaries, pattern):
            lower[var] = upper[var] = val
        sol = solve_lp(dataclasses.replace(problem.lp, lower=lower,
                                           upper=upper))
        if sol.status == OPTIMAL:
            best = max(best, sol.objective)
    return best


def test_milp_matches_enumeration_on_random_instances():
    for seed in range(20):
        problem = _random_milp(seed)
        sol = solve_milp(problem)
        expected = _enumerate_optimum(problem)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(expected, abs=1e-6)
        # Binaries are integral in the returned assignment.
        for var in problem.binaries:
            assert abs(sol.value(var) - round(sol.value(var))) <= 1e-6


def test_milp_warm_start_is_accepted_and_not_worse():
    problem = _random_milp(7)
    cold = solve_milp(problem)
    warm_assignment = cold.assignment
    warm = solve_milp(problem, warm=warm_assignment)
    assert warm.status == OPTIMAL
    assert warm.objective >= cold.objective - 1e-9


def test_milp_timeout_returns_incumbent_from_warm_start():
    problem = _random_milp(3)
    base = solve_milp(problem)
    # All zeros is feasible (every row is <= a positive bound) and leaves a
    # root gap; a warm start the root proves optimal is Optimal at any cap.
    timed = solve_milp(problem, warm=np.zeros(problem.lp.n_vars),
                       time_limit=0.0)
    assert timed.status == INCUMBENT_TIME_LIMIT
    assert timed.assignment is not None
    assert timed.objective <= base.objective + 1e-9

    bare = solve_milp(problem, time_limit=0.0)
    assert bare.status == INCUMBENT_TIME_LIMIT
    assert bare.assignment is None


def _infeasible_milp() -> MilpProblem:
    lp = LinearProgram()
    a = lp.add_var("a", 0.0, 1.0, objective=1.0)
    lp.add_constraint({a: 1.0}, ">=", 2.0)
    return MilpProblem(lp, (a,))


@pytest.mark.parametrize("make,warm,time_limit,status,has_assignment", [
    (lambda: _random_milp(3), False, None, OPTIMAL, True),
    (lambda: _random_milp(3), True, 0.0, INCUMBENT_TIME_LIMIT, True),
    (lambda: _random_milp(3), False, 0.0, INCUMBENT_TIME_LIMIT, False),
    (_infeasible_milp, False, None, INFEASIBLE, False),
], ids=["optimal", "capped-warm", "capped-cold", "infeasible"])
def test_an_assignment_implies_an_incumbent_status(make, warm, time_limit,
                                                   status, has_assignment):
    """An assignment comes only with OPTIMAL or INCUMBENT_TIME_LIMIT; the
    converse fails for a spent cap with no warm start."""
    problem = make()
    solution = solve_milp(problem, time_limit=time_limit,
                          warm=np.zeros(problem.lp.n_vars) if warm else None)
    assert solution.status == status
    assert (solution.assignment is not None) == has_assignment
    assert solution.assignment is None or \
        solution.status in (OPTIMAL, INCUMBENT_TIME_LIMIT)


def test_milp_infeasible_detected():
    assert solve_milp(_infeasible_milp()).status == INFEASIBLE


def test_milp_rejects_unbounded_binary_declaration():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 5.0, objective=1.0)
    with pytest.raises(SolverError, match="lacks"):
        MilpProblem(lp, (x,))


def test_milp_deterministic_assignments():
    problem = _random_milp(12)
    a = solve_milp(problem)
    b = solve_milp(problem)
    assert a.objective == b.objective
    assert np.array_equal(a.assignment, b.assignment)


def _forbid_lp(*args, **kwargs):
    raise AssertionError("an LP reached HiGHS")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", [
    solve_lp, lambda lp: solve_milp(MilpProblem(lp, ()))])
def test_non_finite_coefficient_is_refused_before_any_lp(monkeypatch, bad,
                                                         solve):
    monkeypatch.setattr(solver, "linprog", _forbid_lp)
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 1.0, objective=1.0)
    y = lp.add_var("y", 0.0, 1.0)
    lp.add_constraint({x: 1.0}, "<=", 1.0, name="fine")
    with pytest.raises(SolverError,
                       match="constraint 'broken': non-finite coefficient"):
        lp.add_constraint({x: 1.0, y: bad}, ">=", 0.0, name="broken")
        solve(lp)


def test_bad_relation_is_refused_when_added():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 1.0)
    with pytest.raises(SolverError, match="bad relation '<'"):
        lp.add_constraint({x: 1.0}, "<", 1.0, name="strict")
    assert lp.rows == []


def _one_variable_lp(objective=1.0, lower=0.0, upper=1.0, rhs=1.0):
    lp = LinearProgram()
    x = lp.add_var("x", lower, upper, objective=objective)
    lp.add_constraint({x: 1.0}, "<=", rhs, name="cap")
    return lp


@pytest.mark.parametrize("lp,message", [
    (_one_variable_lp(objective=np.nan), "variable 'x': non-finite objective"),
    (_one_variable_lp(objective=np.inf), "variable 'x': non-finite objective"),
    (_one_variable_lp(rhs=np.nan),
     "constraint 'cap': non-finite right-hand side"),
    (_one_variable_lp(rhs=np.inf),
     "constraint 'cap': non-finite right-hand side"),
    (_one_variable_lp(rhs=-np.inf),
     "constraint 'cap': non-finite right-hand side"),
    (_one_variable_lp(lower=np.nan), "variable 'x': NaN bound"),
    (_one_variable_lp(upper=np.nan), "variable 'x': NaN bound"),
], ids=["nan-objective", "inf-objective", "nan-rhs", "inf-rhs", "-inf-rhs",
        "nan-lower", "nan-upper"])
@pytest.mark.parametrize("solve", [
    solve_lp, lambda lp: solve_milp(MilpProblem(lp, ()))])
def test_non_finite_lp_data_is_refused_before_any_lp(monkeypatch, lp,
                                                     message, solve):
    monkeypatch.setattr(solver, "linprog", _forbid_lp)
    with pytest.raises(SolverError, match=re.escape(message)):
        solve(lp)


def test_non_finite_data_is_refused_by_the_incumbent_check():
    with pytest.raises(SolverError, match="non-finite right-hand side"):
        solver.satisfies(MilpProblem(_one_variable_lp(rhs=np.nan), ()),
                         np.zeros(1))


def test_infinite_column_bounds_stay_legal():
    solution = solve_lp(_one_variable_lp(lower=-np.inf, upper=np.inf))
    assert (solution.status, solution.objective) == (OPTIMAL, 1.0)
    unbounded = _one_variable_lp(objective=-1.0, lower=-np.inf, upper=np.inf)
    assert solve_lp(unbounded).status == UNBOUNDED
