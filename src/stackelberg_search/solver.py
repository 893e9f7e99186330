"""Linear programs and mixed-integer solves, both on HiGHS.

Every LP goes through scipy's ``linprog``; the integer search (presolve,
cuts, branching, node selection) is HiGHS's branch-and-cut, called through
``scipy.optimize.milp``.  Around it this module adds warm starts as initial
incumbents, an optimality proof at the root when the warm start already
meets the relaxation bound (``milp`` takes no warm start), wall-clock limits
with anytime incumbents, and binaries that come back exactly 0 or 1.  HiGHS
is deterministic, so two runs on the same problem produce the same solution
whenever no time limit truncates the search.

A LinearProgram keeps its constraints as one coordinate matrix.  A
MilpProblem assembles it into HiGHS's two systems once; its solves and
satisfies(), the one check an incumbent must pass, all read that assembly.
The ``linprog`` and ``milp`` names of this module are looked up at each
call, so patching them sees every LP and MIP.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

FEAS_TOL = 1e-6
GAP_TOL = 1e-6
# Two fingerprints match when every number agrees to within this, relative
# to max(1, |number|).
TWIN_TOL = 1e-12

OPTIMAL = "Optimal"
INCUMBENT_TIME_LIMIT = "IncumbentTimeLimit"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
# scipy.optimize.milp status codes; linprog shares 0, 2 and 3 (its 1 is an
# iteration limit).
_STATUS = {0: OPTIMAL, 1: INCUMBENT_TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


class SolverError(RuntimeError):
    pass


@dataclass
class LinearProgram:
    """A maximization LP built incrementally.

    Variables are dense integer ids.  The constraints are one coordinate
    matrix in insertion order: entry k puts coef[k] at (row[k], col[k]), so
    each row's entries are contiguous and in the order they were added.
    Each row also has a relation ("<=", ">=" or "=="), a right-hand side
    and a name.  Coefficients are checked for finiteness when a MilpProblem
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

    The two constraint systems HiGHS takes, A_ub x <= b_ub (">=" rows
    negated) and A_eq x == b_eq, are built from the LP's coordinate matrix
    on first use and kept, in the LP's row order; every LP and MIP solve of
    the problem and every satisfies() check reads that one assembly.  So
    the LP must not change once a MilpProblem wraps it: wrap a changed copy
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
    def _systems(self):
        """(A_ub, b_ub, A_eq, b_eq); a matrix is None when it has no row."""
        lp = self.lp
        row = np.asarray(lp.row, dtype=np.intp)
        coef = np.asarray(lp.coef, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(coef))
        if bad.size:
            raise SolverError(f"constraint {lp.row_names[row[bad[0]]]!r}: "
                              f"non-finite coefficient")
        col = np.asarray(lp.col, dtype=np.intp)
        relation = np.asarray(lp.relation, dtype="U2")
        sign = np.where(relation == ">=", -1.0, 1.0)
        rhs = np.asarray(lp.rhs, dtype=np.float64)
        systems = []
        for in_system in (relation != "==", relation == "=="):
            number = np.cumsum(in_system) - 1  # row id within the system
            entries = in_system[row]
            n_rows = int(in_system.sum())
            matrix = sp.csr_matrix(
                (sign[row[entries]] * coef[entries],
                 (number[row[entries]], col[entries])),
                shape=(n_rows, lp.n_vars)) if n_rows else None
            systems += [matrix, sign[in_system] * rhs[in_system]]
        return tuple(systems)

    def _solve_lp(self, fixed: Optional[dict[int, float]] = None,
                  ) -> tuple[str, Optional[tuple[float, np.ndarray]]]:
        """The status of the relaxation with the given variables fixed, and
        its (objective, x) when it is optimal."""
        bounds = np.column_stack([self.lp.lower, self.lp.upper])
        for var, value in (fixed or {}).items():
            bounds[var] = value
        a_ub, b_ub, a_eq, b_eq = self._systems
        res = linprog(-np.asarray(self.lp.objective),  # linprog minimizes
                      A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if res.status not in (0, 2, 3):
            raise SolverError(f"LP backend failure: {res.message}")
        if res.status != 0:
            return _STATUS[res.status], None
        return OPTIMAL, (float(-res.fun), np.array(res.x))

    def _solve_mip(self, time_limit: Optional[float]):
        """milp with integrality on the binaries."""
        a_ub, b_ub, a_eq, b_eq = self._systems
        integrality = np.zeros(self.lp.n_vars)
        integrality[list(self.binaries)] = 1
        constraints = []
        if a_ub is not None:
            constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
        if a_eq is not None:
            constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
        options = {"mip_rel_gap": GAP_TOL}
        if time_limit is not None:
            options["time_limit"] = time_limit
        return milp(-np.asarray(self.lp.objective), integrality=integrality,
                    bounds=Bounds(self.lp.lower, self.lp.upper),
                    constraints=constraints, options=options)


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
    # solve_milp's LP relaxation optimum (nan when it solved none), and the
    # number of branch-and-bound nodes HiGHS explored (0 when it ran no MIP).
    root_bound: float = float("nan")
    mip_nodes: int = 0

    def value(self, var: int) -> float:
        if self.assignment is None:
            raise SolverError("solution carries no assignment")
        return float(self.assignment[var])


# ---------------------------------------------------------------------------
# Model fingerprints and assignment checks


@dataclass(frozen=True)
class Fingerprint:
    """A MILP and its warm start, reduced to what decides the solve.

    structure digests what must match exactly: the counts, the binaries,
    the coordinate matrix's rows and columns, the relations, which column
    bounds are infinite (and their sign) and the warm start.  numbers holds
    the objective, the coefficients, the right-hand sides and the finite
    column bounds (an infinite one as 0).  Both are taken in build order,
    so twins must be built with their columns and rows in the same order;
    search.build_constrained_milp owns that order.
    """

    structure: bytes
    numbers: np.ndarray

    def difference(self, other: "Fingerprint") -> Optional[float]:
        """The largest absolute difference between the numbers of two
        matching fingerprints; None when they do not match."""
        if self.structure != other.structure:
            return None
        diff = np.abs(self.numbers - other.numbers)
        if np.any(diff > TWIN_TOL * np.maximum(1.0, np.abs(self.numbers))):
            return None
        return float(diff.max(initial=0.0))


def fingerprint(problem: MilpProblem, warm: np.ndarray) -> Fingerprint:
    lp = problem.lp
    digest = hashlib.sha256()
    for part in ([lp.n_vars, len(lp.rhs), len(lp.coef), len(problem.binaries)],
                 problem.binaries, lp.row, lp.col):
        digest.update(np.asarray(part, dtype=np.int64).tobytes())
    digest.update("".join(lp.relation).encode())
    bounds = np.asarray([lp.lower, lp.upper], dtype=np.float64)
    infinite = np.isinf(bounds)
    for part in (np.where(infinite, bounds, 0.0), warm):
        digest.update(np.asarray(part, dtype=np.float64).tobytes())
    numbers = np.concatenate([np.asarray(part, dtype=np.float64)
                              for part in (lp.objective, lp.coef, lp.rhs)]
                             + [np.where(infinite, 0.0, bounds).ravel()])
    return Fingerprint(digest.digest(), numbers)


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
    a_ub, b_ub, a_eq, b_eq = problem._systems
    if a_ub is not None and np.any(a_ub @ x > b_ub + FEAS_TOL):
        return False
    return a_eq is None or bool(np.all(np.abs(a_eq @ x - b_eq) <= FEAS_TOL))


# ---------------------------------------------------------------------------
# LP solving


def solve_lp(lp: LinearProgram) -> MilpSolution:
    t0 = time.perf_counter()
    status, best = MilpProblem(lp, ())._solve_lp()
    return _finish(status, t0, best, best[0] if best else np.inf)


# ---------------------------------------------------------------------------
# Mixed-integer solves


def _fix_binaries(problem: MilpProblem,
                  x: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """Objective and assignment of the LP with every binary fixed at its
    rounded value in x; None if that LP is infeasible."""
    return problem._solve_lp({var: round(float(x[var]))
                              for var in problem.binaries})[1]


def _finish(status: str, started: float,
            best: Optional[tuple[float, np.ndarray]] = None,
            bound: float = np.inf, root_bound: float = float("nan"),
            mip_nodes: int = 0) -> MilpSolution:
    """The solution for an incumbent (objective, x), if any, whose value is
    bounded above by bound."""
    wall = time.perf_counter() - started
    if best is None:
        return MilpSolution(status, float("nan"), None, float("inf"), wall,
                            root_bound, mip_nodes)
    objective, x = best
    return MilpSolution(status, objective, x, max(0.0, bound - objective),
                        wall, root_bound, mip_nodes)


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
    best = None
    if warm is not None:
        best = _fix_binaries(problem, warm)
        if best is None:
            raise SolverError("warm start is infeasible")

    root_status, root = problem._solve_lp()
    if root_status != OPTIMAL:
        return _finish(root_status, t0)
    root_bound = root[0]
    if best is not None and \
            root_bound - best[0] <= GAP_TOL * (1.0 + abs(best[0])):
        return _finish(OPTIMAL, t0, best, root_bound, root_bound)
    time_left = None if time_limit is None \
        else time_limit - (time.perf_counter() - t0)
    if time_left is not None and time_left <= 0.0:
        return _finish(INCUMBENT_TIME_LIMIT, t0, best, root_bound, root_bound)

    res = problem._solve_mip(time_left)
    if res.x is not None:
        polished = _fix_binaries(problem, res.x)
        if polished is None:
            raise SolverError("MIP solution is infeasible with its binaries "
                              "fixed")
        if best is None or polished[0] > best[0]:
            best = polished
    nodes = int(res.mip_node_count or 0)
    if best is None:
        if res.status not in (1, 2, 3):
            raise SolverError(f"MIP backend failure: {res.message}")
        return _finish(_STATUS[res.status], t0, root_bound=root_bound,
                       mip_nodes=nodes)
    bound = root_bound
    if res.status in (0, 1) and res.mip_dual_bound is not None:
        bound = min(bound, -res.mip_dual_bound)
    return _finish(OPTIMAL if res.status == 0 else INCUMBENT_TIME_LIMIT, t0,
                   best, bound, root_bound, nodes)
