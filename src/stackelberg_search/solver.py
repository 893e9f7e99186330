"""Linear programs and mixed-integer solves, both on HiGHS.

Each problem is passed to HiGHS once, as one model built through scipy's
bundled binding, and every solve of it runs on that model from a cold
start: each LP, and each MIP, which is HiGHS's branch-and-cut with the
binaries made integer for that one run.  Around it this module adds warm
starts as initial incumbents, an optimality proof at the root when the warm
start already meets the relaxation bound, wall-clock limits with anytime
incumbents, and binaries that come back exactly 0 or 1.  HiGHS is
deterministic, so two runs on the same problem produce the same solution
whenever no time limit truncates the search.

The MIP runs at a relative gap of GAP_TOL and without three of HiGHS's
primal heuristics: the RINS and RENS sub-MIPs and feasibility jump.  A
subgame MILP is small (Goofspiel n=4 m=3 subgames keep 63 binaries after
presolve) and its root bound is often the optimum already, so those
heuristics spent most of the MIP time there while the tree search alone
reaches the same optimum.  Under a time limit they can hold a better
incumbent at the cap, so a capped search may return a slightly different
plan.  A cold MIP still gets its first incumbent from HiGHS's root
rounding or its tree; a warm start gives solve_milp one before HiGHS runs.

A LinearProgram keeps its constraints as one coordinate matrix.  A
MilpProblem assembles them once into HiGHS's rows, lower <= A x <= upper,
which its model, its solves and satisfies() (the one check an incumbent
must pass) all read.  Every LP runs through this module's ``linprog`` and
every MIP through its ``milp``; both names are looked up at each call, so
patching them sees every LP and MIP.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

FEAS_TOL = 1e-6
GAP_TOL = 1e-6

OPTIMAL = "Optimal"
INCUMBENT_TIME_LIMIT = "IncumbentTimeLimit"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
# The HiGHS model statuses a run may end in; any other is a backend failure.
# Only a MIP has a time limit; it may stop there with or without incumbent.
_STATUS = {highs.HighsModelStatus.kOptimal: OPTIMAL,
           highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           highs.HighsModelStatus.kUnbounded: UNBOUNDED,
           highs.HighsModelStatus.kTimeLimit: INCUMBENT_TIME_LIMIT}


class SolverError(RuntimeError):
    pass


@dataclass
class LinearProgram:
    """A maximization LP built incrementally.

    Variables are dense integer ids.  The constraints are one coordinate
    matrix in insertion order: entry k puts coef[k] at (row[k], col[k]), so
    each row's entries are contiguous and in the order they were added.
    Each row also has a relation ("<=", ">=" or "=="), a right-hand side
    and a name.  The numbers are checked for finiteness when a MilpProblem
    assembles them, not here.
    """

    names: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    row: list[int] = field(default_factory=list)
    col: list[int] = field(default_factory=list)
    coef: list[float] = field(default_factory=list)
    relation: list[str] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def rows(self) -> list[tuple[list[int], list[float], str, float, str]]:
        """A copy of the constraints, one (variables, coefficients,
        relation, rhs, name) tuple per row."""
        ends = np.searchsorted(self.row, range(1, len(self.rhs) + 1))
        return [(self.col[a:b], self.coef[a:b], rel, rhs, name)
                for a, b, rel, rhs, name in zip(
                    [0, *ends], ends, self.relation, self.rhs, self.row_names)]

    def add_var(self, name: str, lower: float = 0.0, upper: float = np.inf,
                objective: float = 0.0) -> int:
        if lower > upper:
            raise SolverError(f"variable {name}: lower {lower} > upper {upper}")
        self.names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        return len(self.names) - 1

    def add_constraint(self, coeffs: dict[int, float], relation: str,
                       rhs: float, name: str = "") -> None:
        if relation not in ("<=", ">=", "=="):
            raise SolverError(f"bad relation {relation!r}")
        k = len(self.rhs)
        for var, coef in coeffs.items():
            if coef != 0.0:
                self.row.append(k)
                self.col.append(var)
                self.coef.append(float(coef))
        self.relation.append(relation)
        self.rhs.append(float(rhs))
        self.row_names.append(name)


@dataclass(frozen=True)
class MilpProblem:
    """An LP whose listed variables must be 0 or 1, assembled for HiGHS.

    The constraints in HiGHS's row form, lower <= A x <= upper, are built
    from the LP's coordinate matrix on first use and kept: first the "<="
    and ">=" rows in the LP's order (">=" rows negated, lower -inf), then
    the "==" rows (lower = upper = rhs).  Every LP and MIP solve of the
    problem and every satisfies() check reads that one assembly.  So the LP
    must not change once a MilpProblem wraps it: wrap a changed copy
    (dataclasses.replace) in a new MilpProblem instead.
    """

    lp: LinearProgram
    binaries: tuple[int, ...]

    def __post_init__(self) -> None:
        for var in self.binaries:
            if not (self.lp.lower[var] >= -FEAS_TOL
                    and self.lp.upper[var] <= 1.0 + FEAS_TOL):
                raise SolverError(
                    f"binary variable {self.lp.names[var]} lacks [0,1] bounds")

    @cached_property
    def _rows(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """(A, lower, upper), A a CSR matrix.  Every solve and check reads
        this first, so the LP's numbers are checked here: coefficients,
        right-hand sides and the objective must be finite, and column
        bounds must not be NaN (an infinite bound is legal)."""
        lp = self.lp
        row = np.asarray(lp.row, dtype=np.intp)
        coef = np.asarray(lp.coef, dtype=np.float64)
        rhs = np.asarray(lp.rhs, dtype=np.float64)
        _refuse("constraint", lp.row_names, row[~np.isfinite(coef)],
                "non-finite coefficient")
        _refuse("constraint", lp.row_names, np.flatnonzero(~np.isfinite(rhs)),
                "non-finite right-hand side")
        _refuse("variable", lp.names,
                np.flatnonzero(~np.isfinite(lp.objective)),
                "non-finite objective")
        _refuse("variable", lp.names,
                np.flatnonzero(np.isnan(lp.lower) | np.isnan(lp.upper)),
                "NaN bound")
        relation = np.asarray(lp.relation, dtype="U2")
        sign = np.where(relation == ">=", -1.0, 1.0)
        order = np.argsort(relation == "==", kind="stable")
        position = np.argsort(order)    # each LP row's place in A
        matrix = sp.csr_matrix(
            (sign[row] * coef, (position[row], np.asarray(lp.col, np.intp))),
            shape=(len(order), lp.n_vars))
        upper = (sign * rhs)[order]
        lower = np.where(relation[order] == "==", upper, -np.inf)
        return matrix, lower, upper

    @cached_property
    def _highs(self) -> highs._Highs:
        """The LP as one HiGHS model: the objective negated (HiGHS
        minimizes), the matrix in CSC form, and its options."""
        lp = self.lp
        model = highs.HighsLp()
        matrix, model.row_lower_, model.row_upper_ = self._rows
        matrix = matrix.tocsc()
        model.num_col_ = model.a_matrix_.num_col_ = lp.n_vars
        model.num_row_ = model.a_matrix_.num_row_ = matrix.shape[0]
        model.col_cost_ = -np.asarray(lp.objective)
        model.col_lower_ = np.asarray(lp.lower)
        model.col_upper_ = np.asarray(lp.upper)
        model.a_matrix_.format_ = highs.MatrixFormat.kColwise
        model.a_matrix_.start_ = matrix.indptr
        model.a_matrix_.index_ = matrix.indices
        model.a_matrix_.value_ = matrix.data
        solver = highs._Highs()
        options = highs.HighsOptions()
        # scipy linprog's settings.  Presolve and the dual simplex decide
        # which optimal vertex HiGHS returns; other choices return others.
        options.presolve = "on"
        options.simplex_strategy = 1    # dual simplex
        options.mip_rel_gap = GAP_TOL
        # Branch and cut without the RINS and RENS sub-MIPs and
        # feasibility jump, which cost most of a subgame's MIP time
        # (module docstring).
        options.mip_heuristic_run_rins = False
        options.mip_heuristic_run_rens = False
        options.mip_heuristic_run_feasibility_jump = False
        options.output_flag = options.log_to_console = False
        if solver.passOptions(options) == highs.HighsStatus.kError or \
                solver.passModel(model) == highs.HighsStatus.kError:
            raise SolverError("HiGHS refused the LP")
        return solver

    def _solve_lp(self, pattern: Optional[np.ndarray] = None,
                  ) -> tuple[str, Optional[tuple[float, np.ndarray]], int]:
        """The status of the relaxation, with every binary fixed at its
        rounded value in pattern if one is given; its (objective, x) when
        it is optimal; and its simplex iterations."""
        lower, upper = np.array(self.lp.lower), np.array(self.lp.upper)
        if pattern is not None:
            for var in self.binaries:
                lower[var] = upper[var] = round(float(pattern[var]))
        return linprog(self._highs, lower, upper)


def _refuse(kind: str, names: list[str], bad: np.ndarray,
            message: str) -> None:
    """Raise a SolverError naming the first of the bad rows or columns."""
    if bad.size:
        raise SolverError(f"{kind} {names[bad[0]]!r}: {message}")


@dataclass
class MilpSolution:
    """One solve's outcome.  An assignment implies status OPTIMAL or
    INCUMBENT_TIME_LIMIT; the converse fails: a MIP cap spent before any
    incumbent, with no warm start, ends INCUMBENT_TIME_LIMIT with none."""

    status: str
    objective: float
    assignment: Optional[np.ndarray]
    bound_gap: float
    wall_time: float
    # solve_milp's LP relaxation optimum (nan when it solved none), the
    # number of branch-and-bound nodes HiGHS explored (0 when it ran no MIP)
    # and the simplex iterations of the LPs it ran through linprog.
    root_bound: float = float("nan")
    mip_nodes: int = 0
    lp_iterations: int = 0

    def value(self, var: int) -> float:
        if self.assignment is None:
            raise SolverError("solution carries no assignment")
        return float(self.assignment[var])


# ---------------------------------------------------------------------------
# Model digests and assignment checks


def fingerprint(problem: MilpProblem, warm: np.ndarray) -> bytes:
    """A sha256 digest of a MILP and its warm start, taken in build order.

    It covers the counts, the binaries, the coordinate matrix's rows,
    columns and coefficients, the relations, the right-hand sides, the
    objective, both column-bound arrays (infinities included) and the warm
    start, so two models share a digest only when they are equal bit for
    bit, -0.0 and 0.0 alike.  Twins must be built with their columns and
    rows in the same order; search.build_constrained_milp owns that order.
    """
    lp = problem.lp
    digest = hashlib.sha256()
    for part in ([lp.n_vars, len(lp.rhs), len(lp.coef), len(problem.binaries)],
                 problem.binaries, lp.row, lp.col):
        digest.update(np.asarray(part, dtype=np.int64).tobytes())
    digest.update("".join(lp.relation).encode())
    for part in (lp.objective, lp.coef, lp.rhs, lp.lower, lp.upper, warm):
        digest.update((np.asarray(part, dtype=np.float64) + 0.0).tobytes())
    return digest.digest()


def satisfies(problem: MilpProblem, x: np.ndarray) -> bool:
    """Whether x meets every row and column bound within FEAS_TOL and sets
    every binary to exactly 0 or 1."""
    lp = problem.lp
    if not np.all(np.isfinite(x)):
        return False
    if np.any(x < np.asarray(lp.lower) - FEAS_TOL) or \
            np.any(x > np.asarray(lp.upper) + FEAS_TOL):
        return False
    binary = x[list(problem.binaries)]
    if not np.all((binary == 0.0) | (binary == 1.0)):
        return False
    matrix, lower, upper = problem._rows
    ax = matrix @ x
    return bool(np.all((ax >= lower - FEAS_TOL) & (ax <= upper + FEAS_TOL)))


# ---------------------------------------------------------------------------
# Solves, each a run on a problem's HiGHS model


def _run(model: highs._Highs, lower: np.ndarray, upper: np.ndarray,
         ) -> Optional[str]:
    """Run a problem's HiGHS model (MilpProblem._highs) within the given
    column bounds, from a cold start: no basis or solution of an earlier
    run is kept.  Returns the status, None if it is none of this module's."""
    model.changeColsBounds(len(lower), np.arange(len(lower), dtype=np.int32),
                           lower, upper)
    model.clearSolver()
    if model.run() == highs.HighsStatus.kError:
        return None
    return _STATUS.get(model.getModelStatus())


def linprog(model: highs._Highs, lower: np.ndarray, upper: np.ndarray,
            ) -> tuple[str, Optional[tuple[float, np.ndarray]], int]:
    """Solve the model as an LP (see _run).  Returns the status, (the LP's
    maximum, x) when optimal, and the simplex iterations spent."""
    status = _run(model, lower, upper)
    if status not in (OPTIMAL, INFEASIBLE, UNBOUNDED):
        raise SolverError("LP backend failure: " + model.modelStatusToString(
            model.getModelStatus()))
    info = model.getInfo()
    best = None
    if status == OPTIMAL:
        best = (float(-info.objective_function_value),
                np.array(model.getSolution().col_value))
    return status, best, int(info.simplex_iteration_count)


def milp(model: highs._Highs, lower: np.ndarray, upper: np.ndarray,
         binaries: tuple[int, ...], time_limit: Optional[float] = None,
         ) -> tuple[str, Optional[np.ndarray], float, int]:
    """Solve the model (see _run) with the binaries integer, for at most
    time_limit seconds.  Returns the status (HiGHS's own description when
    it is none of this module's), the incumbent x if HiGHS has one, the
    dual bound on the maximum and the branch-and-bound nodes explored.
    The model is left an LP with no time limit, as linprog expects it."""
    columns = np.asarray(binaries, dtype=np.int32)
    try:
        _retype(model, columns, highs.HighsVarType.kInteger, time_limit)
        status = _run(model, lower, upper) or \
            model.modelStatusToString(model.getModelStatus())
        info = model.getInfo()
        found = status in (OPTIMAL, INCUMBENT_TIME_LIMIT) and \
            info.primal_solution_status == highs.kSolutionStatusFeasible
        x = np.array(model.getSolution().col_value) if found else None
        return status, x, -info.mip_dual_bound, info.mip_node_count
    finally:
        _retype(model, columns, highs.HighsVarType.kContinuous, None)


def _retype(model: highs._Highs, columns: np.ndarray,
            kind: highs.HighsVarType, time_limit: Optional[float]) -> None:
    """Make the columns of the given kind and set the time limit."""
    if highs.HighsStatus.kError in (
            model.changeColsIntegrality(
                len(columns), columns,
                np.full(len(columns), int(kind), dtype=np.uint8)),
            model.setOptionValue("time_limit", np.inf if time_limit is None
                                 else float(time_limit))):
        raise SolverError("HiGHS refused an integrality or a time limit")


def solve_lp(lp: LinearProgram) -> MilpSolution:
    t0 = time.perf_counter()
    status, best, iterations = MilpProblem(lp, ())._solve_lp()
    return _finish(status, t0, best, best[0] if best else np.inf,
                   lp_iterations=iterations)


def _finish(status: str, started: float,
            best: Optional[tuple[float, np.ndarray]] = None,
            bound: float = np.inf, root_bound: float = float("nan"),
            mip_nodes: int = 0, lp_iterations: int = 0) -> MilpSolution:
    """The solution for an incumbent (objective, x), if any, whose value is
    bounded above by bound."""
    wall = time.perf_counter() - started
    if best is None:
        return MilpSolution(status, float("nan"), None, float("inf"), wall,
                            root_bound, mip_nodes, lp_iterations)
    objective, x = best
    return MilpSolution(status, objective, x, max(0.0, bound - objective),
                        wall, root_bound, mip_nodes, lp_iterations)


def solve_milp(problem: MilpProblem,
               warm: Optional[np.ndarray] = None,
               time_limit: Optional[float] = None) -> MilpSolution:
    """Maximize over the problem's binary variables with HiGHS.

    warm, if given, must be a feasible full assignment; its binary pattern is
    fixed and re-optimized to seed the incumbent, and the result is never
    worse than it.  time_limit bounds the whole call; on timeout the best
    incumbent is returned with the outstanding bound gap, unless the root
    LP has already proven the warm start optimal.
    """
    t0 = time.perf_counter()
    best, iterations = None, 0
    if warm is not None:
        _, best, iterations = problem._solve_lp(warm)
        if best is None:
            raise SolverError("warm start is infeasible")

    root_status, root, root_iterations = problem._solve_lp()
    iterations += root_iterations
    if root_status != OPTIMAL:
        return _finish(root_status, t0, lp_iterations=iterations)
    root_bound = root[0]
    if best is not None and \
            root_bound - best[0] <= GAP_TOL * (1.0 + abs(best[0])):
        return _finish(OPTIMAL, t0, best, root_bound, root_bound,
                       lp_iterations=iterations)
    time_left = None if time_limit is None \
        else time_limit - (time.perf_counter() - t0)
    if time_left is not None and time_left <= 0.0:
        return _finish(INCUMBENT_TIME_LIMIT, t0, best, root_bound, root_bound,
                       lp_iterations=iterations)

    status, x, dual_bound, nodes = milp(
        problem._highs, np.asarray(problem.lp.lower),
        np.asarray(problem.lp.upper), problem.binaries, time_limit=time_left)
    if x is not None:
        _, polished, polish_iterations = problem._solve_lp(x)
        iterations += polish_iterations
        if polished is None:
            raise SolverError("MIP solution is infeasible with its binaries "
                              "fixed")
        if best is None or polished[0] > best[0]:
            best = polished
    if best is None:
        if status not in (INCUMBENT_TIME_LIMIT, INFEASIBLE, UNBOUNDED):
            raise SolverError(f"MIP backend failure: {status}")
        return _finish(status, t0, root_bound=root_bound, mip_nodes=nodes,
                       lp_iterations=iterations)
    bound = root_bound
    if status in (OPTIMAL, INCUMBENT_TIME_LIMIT):
        bound = min(bound, dual_bound)
    return _finish(OPTIMAL if status == OPTIMAL else INCUMBENT_TIME_LIMIT, t0,
                   best, bound, root_bound, nodes, iterations)
