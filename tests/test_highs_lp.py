"""The LP seam, ``solver.linprog``, against scipy.

Every LP and MIP of a problem runs on one HiGHS model of it, passed once
through scipy's private binding ``scipy.optimize._highspy._core``, which
ships with the methods used here from scipy 1.17 (pyproject.toml's floor).
test_highs_milp.py checks the MIP seam the same way.

* The binding has every method and field solver.py uses; there is no
  fallback path, so a scipy without them must fail here, loudly.
* pyproject.toml's Python floor is not below the installed scipy's, so an
  install at the floor can resolve scipy.
* The seam returns the vertex scipy's public ``linprog(method="highs")``
  returns on the same rows, bit for bit: on every reachable Leduc
  n=2 subgame model (its root LP and its warm start's fixed-binary LP,
  several on one model) and on Goofspiel n=4's zero-sum blueprint LP.
  scipy stays the oracle, as in test_subgame_oracle.py.
* Infeasible and unbounded LPs report those statuses, and any other HiGHS
  model status is a SolverError.
"""

from __future__ import annotations

import importlib.metadata
import tomllib
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from stackelberg_search import blueprint as blueprint_module
from stackelberg_search import solver
from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.games import generate
from stackelberg_search.search import (
    build_constrained_milp,
    partition_subgames,
    prepare_search,
)
from stackelberg_search.solver import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MilpProblem,
    SolverError,
    solve_lp,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCIPY_FLOOR = "scipy>=1.17"
# What solver.py reads of the binding.
HIGHS_METHODS = ("passOptions", "passModel", "changeColsBounds",
                 "changeColsIntegrality", "setOptionValue", "clearSolver",
                 "run", "getModelStatus", "modelStatusToString", "getInfo",
                 "getSolution")
FIELDS = {
    highs.HighsLp: ("num_col_", "num_row_", "col_cost_", "col_lower_",
                    "col_upper_", "row_lower_", "row_upper_", "a_matrix_"),
    highs.HighsSparseMatrix: ("num_col_", "num_row_", "format_", "start_",
                              "index_", "value_"),
    highs.HighsOptions: ("presolve", "simplex_strategy", "mip_rel_gap",
                         "output_flag", "log_to_console"),
    highs.HighsInfo: ("objective_function_value", "simplex_iteration_count",
                      "mip_dual_bound", "mip_node_count",
                      "primal_solution_status"),
    highs.HighsSolution: ("col_value",),
}


def test_the_binding_has_everything_the_solver_calls():
    assert f'"{SCIPY_FLOOR}"' in PYPROJECT.read_text(encoding="utf-8")
    missing = [name for name in HIGHS_METHODS
               if not callable(getattr(highs._Highs, name, None))]
    missing += [f"{kind.__name__}.{name}"
                for kind, names in FIELDS.items() for name in names
                if not hasattr(kind, name)]
    assert missing == [], f"scipy's HiGHS binding lacks {missing}; " \
                          f"solver.py needs {SCIPY_FLOOR}"
    for status in ("kOptimal", "kInfeasible", "kUnbounded", "kTimeLimit"):
        assert hasattr(highs.HighsModelStatus, status)
    for kind in ("kContinuous", "kInteger"):
        assert hasattr(highs.HighsVarType, kind)
    assert hasattr(highs.MatrixFormat, "kColwise")
    assert hasattr(highs.HighsStatus, "kError")
    assert hasattr(highs, "kSolutionStatusFeasible")


def _python_floor(spec: str) -> tuple[int, ...]:
    """The version a requires-python specifier's ">=" clause names."""
    (floor,) = [part.strip()[2:] for part in spec.split(",")
                if part.strip().startswith(">=")]
    return tuple(int(part) for part in floor.split("."))


def test_the_python_floor_is_not_below_scipys():
    with PYPROJECT.open("rb") as handle:
        ours = tomllib.load(handle)["project"]["requires-python"]
    theirs = importlib.metadata.metadata("scipy")["Requires-Python"]
    assert _python_floor(ours) >= _python_floor(theirs), \
        f"pyproject.toml requires-python {ours}, scipy {theirs}"


def _scipy_lp(problem: MilpProblem, lower, upper):
    """(objective, x) of scipy's linprog on the problem's rows, split into
    linprog's two systems on a finite row lower bound."""
    matrix, row_lower, row_upper = problem._rows
    equal = np.isfinite(row_lower)
    res = linprog(-np.asarray(problem.lp.objective), A_ub=matrix[~equal],
                  b_ub=row_upper[~equal], A_eq=matrix[equal],
                  b_eq=row_upper[equal],
                  bounds=np.column_stack([lower, upper]), method="highs")
    assert res.status == 0, res.message
    return -res.fun, res.x


def _assert_same_vertex(problem: MilpProblem, lower, upper):
    status, (objective, x), _ = solver.linprog(problem._highs, lower, upper)
    expected_objective, expected_x = _scipy_lp(problem, lower, upper)
    assert status == OPTIMAL
    assert np.float64(objective).tobytes() == \
        np.float64(expected_objective).tobytes()
    assert x.tobytes() == expected_x.tobytes()


def test_subgame_lps_match_scipy_bit_for_bit():
    game = generate("leduc", n=2)
    blueprint = make_blueprint(game, "zerosum").plan
    partition = partition_subgames(game, "leduc")
    context = prepare_search(game, blueprint, partition)
    reachable = [sub for sub in partition.subgames
                 if context.quantities[sub.index].eta is not None]
    assert len(reachable) == 8
    for sub in reachable:
        model = build_constrained_milp(
            game, sub, context.quantities[sub.index],
            context.bounds[sub.index], context.brvs)
        problem = model.problem
        lower = np.array(problem.lp.lower)
        upper = np.array(problem.lp.upper)
        fixed_lower, fixed_upper = lower.copy(), upper.copy()
        binaries = list(problem.binaries)
        fixed_lower[binaries] = fixed_upper[binaries] = \
            np.round(model.warm[binaries])
        # Root, fixed, root again: each LP on the one model starts cold.
        for bounds in ((lower, upper), (fixed_lower, fixed_upper),
                       (lower, upper)):
            _assert_same_vertex(problem, *bounds)


def test_goofspiel_blueprint_lp_matches_scipy_bit_for_bit(monkeypatch):
    captured = []

    def capture(lp):
        captured.append(lp)
        raise SolverError("captured")

    monkeypatch.setattr(blueprint_module, "solve_lp", capture)
    with pytest.raises(SolverError, match="captured"):
        make_blueprint(generate("goofspiel", n=4), "zerosum")
    problem = MilpProblem(captured[0], ())
    _assert_same_vertex(problem, np.array(problem.lp.lower),
                        np.array(problem.lp.upper))


def test_infeasible_and_unbounded_lps_report_their_status():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, np.inf, objective=1.0)
    lp.add_constraint({x: 1.0}, "<=", 1.0)
    lp.add_constraint({x: 1.0}, ">=", 2.0)
    infeasible = solve_lp(lp)
    assert (infeasible.status, infeasible.assignment) == (INFEASIBLE, None)

    lp = LinearProgram()
    x = lp.add_var("x", 0.0, np.inf, objective=1.0)
    y = lp.add_var("y", 0.0, np.inf)
    lp.add_constraint({x: 1.0, y: -1.0}, "<=", 1.0)
    unbounded = solve_lp(lp)
    assert (unbounded.status, unbounded.assignment) == (UNBOUNDED, None)


class _UndecidedModel:
    """A HiGHS model stand-in whose run ends unbounded-or-infeasible."""

    def changeColsBounds(self, *args):
        pass

    def clearSolver(self):
        pass

    def run(self):
        return highs.HighsStatus.kOk

    def getModelStatus(self):
        return highs.HighsModelStatus.kUnboundedOrInfeasible

    def modelStatusToString(self, status):
        return "Primal infeasible or unbounded"


def test_any_other_model_status_is_a_solver_error():
    with pytest.raises(SolverError, match="LP backend failure: Primal "
                                          "infeasible or unbounded"):
        solver.linprog(_UndecidedModel(), np.zeros(1), np.ones(1))
