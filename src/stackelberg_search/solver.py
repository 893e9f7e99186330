"""Linear programs and mixed-integer solves, both on HiGHS.

Every LP goes through scipy's ``linprog``; the integer search (presolve,
cuts, branching, node selection) is HiGHS's branch-and-cut, called through
``scipy.optimize.milp``.  Around it this module adds warm starts as initial
incumbents, an optimality proof at the root when the warm start already
meets the relaxation bound (``milp`` takes no warm start), wall-clock limits
with anytime incumbents, and binaries that come back exactly 0 or 1.  HiGHS
is deterministic, so two runs on the same problem produce the same solution
whenever no time limit truncates the search.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
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
# scipy.optimize.milp status codes.
_MIP_STATUS = {0: OPTIMAL, 1: INCUMBENT_TIME_LIMIT, 2: INFEASIBLE,
               3: UNBOUNDED}


class SolverError(RuntimeError):
    pass


@dataclass
class LinearProgram:
    """A maximization LP built incrementally.

    Variables are dense integer ids; constraints hold sparse coefficient
    lists.  Relations are "<=", ">=", "==".
    """

    names: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    rows: list[tuple[list[int], list[float], str, float, str]] = \
        field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.names)

    def add_var(self, name: str, lower: float = 0.0, upper: float = np.inf,
                objective: float = 0.0) -> int:
        if lower > upper:
            raise SolverError(f"variable {name}: lower {lower} > upper {upper}")
        self.names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        return len(self.names) - 1

    def set_objective(self, var: int, coeff: float) -> None:
        self.objective[var] = float(coeff)

    def add_constraint(self, coeffs: dict[int, float], relation: str,
                       rhs: float, name: str = "") -> None:
        if relation not in ("<=", ">=", "=="):
            raise SolverError(f"bad relation {relation!r}")
        idx, val = [], []
        for var, coef in coeffs.items():
            if not np.isfinite(coef):
                raise SolverError(f"constraint {name!r}: non-finite coefficient")
            if coef != 0.0:
                idx.append(var)
                val.append(float(coef))
        self.rows.append((idx, val, relation, float(rhs), name))

    def dump(self) -> str:
        """Fixed-format text rendering for debugging."""
        out = ["maximize"]
        terms = [f"{c:+.12g} {self.names[i]}"
                 for i, c in enumerate(self.objective) if c != 0.0]
        out.append("  " + (" ".join(terms) if terms else "0"))
        out.append("subject to")
        for idx, val, rel, rhs, name in self.rows:
            lhs = " ".join(f"{v:+.12g} {self.names[i]}"
                           for i, v in zip(idx, val)) or "0"
            tag = f"  [{name}] " if name else "  "
            out.append(f"{tag}{lhs} {rel} {rhs:.12g}")
        out.append("bounds")
        for i, nm in enumerate(self.names):
            out.append(f"  {self.lower[i]:.12g} <= {nm} <= {self.upper[i]:.12g}")
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class MilpProblem:
    lp: LinearProgram
    binaries: tuple[int, ...]

    def __post_init__(self) -> None:
        for var in self.binaries:
            if not (self.lp.lower[var] >= -FEAS_TOL
                    and self.lp.upper[var] <= 1.0 + FEAS_TOL):
                raise SolverError(
                    f"binary variable {self.lp.names[var]} lacks [0,1] bounds")


@dataclass
class MilpSolution:
    status: str
    objective: float
    assignment: Optional[np.ndarray]
    bound_gap: float
    wall_time: float

    def value(self, var: int) -> float:
        if self.assignment is None:
            raise SolverError("solution carries no assignment")
        return float(self.assignment[var])


# ---------------------------------------------------------------------------
# Model fingerprints and assignment checks


@dataclass(frozen=True)
class Fingerprint:
    """A MILP and its warm start, reduced to what decides the solve.

    structure digests what must match exactly: the column count and bounds,
    the binaries, the warm start, and each row's variables and relation.
    numbers holds the objective, then the coefficients and right-hand sides.
    Rows are taken sorted by (variables, relation), so two models that add
    the same rows in a different order have the same fingerprint.
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
    rows = sorted(lp.rows, key=lambda row: (row[0], row[2]))
    lengths = [len(row[0]) for row in rows]
    digest = hashlib.sha256()
    for part in ([lp.n_vars, len(rows), len(problem.binaries)],
                 problem.binaries, lengths,
                 [i for row in rows for i in row[0]]):
        digest.update(np.asarray(part, dtype=np.int64).tobytes())
    for part in (lp.lower, lp.upper, warm):
        digest.update(np.asarray(part, dtype=np.float64).tobytes())
    digest.update("".join(row[2] for row in rows).encode())
    numbers = np.concatenate([
        np.asarray(lp.objective, dtype=np.float64),
        np.fromiter((v for row in rows for v in row[1]), dtype=np.float64,
                    count=sum(lengths)),
        np.fromiter((row[3] for row in rows), dtype=np.float64,
                    count=len(rows))])
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
    a_ub, b_ub, a_eq, b_eq = _split_rows(lp)
    if a_ub is not None and np.any(a_ub @ x > b_ub + FEAS_TOL):
        return False
    return a_eq is None or bool(np.all(np.abs(a_eq @ x - b_eq) <= FEAS_TOL))


# ---------------------------------------------------------------------------
# LP solving


def _split_rows(lp: LinearProgram):
    """COO triplets for the <= system (>= negated) and the == system."""
    ub_r, ub_c, ub_v, ub_rhs = [], [], [], []
    eq_r, eq_c, eq_v, eq_rhs = [], [], [], []
    for idx, val, rel, rhs, _ in lp.rows:
        if rel == "==":
            row = len(eq_rhs)
            eq_rhs.append(rhs)
            eq_r.extend([row] * len(idx))
            eq_c.extend(idx)
            eq_v.extend(val)
        else:
            sign = 1.0 if rel == "<=" else -1.0
            row = len(ub_rhs)
            ub_rhs.append(sign * rhs)
            ub_r.extend([row] * len(idx))
            ub_c.extend(idx)
            ub_v.extend([sign * v for v in val])
    n = lp.n_vars
    a_ub = sp.csr_matrix((ub_v, (ub_r, ub_c)), shape=(len(ub_rhs), n)) \
        if ub_rhs else None
    a_eq = sp.csr_matrix((eq_v, (eq_r, eq_c)), shape=(len(eq_rhs), n)) \
        if eq_rhs else None
    return a_ub, np.array(ub_rhs), a_eq, np.array(eq_rhs)


class _LpCore:
    """Pre-assembled matrices, so each LP only swaps variable bounds."""

    def __init__(self, lp: LinearProgram):
        self.a_ub, self.b_ub, self.a_eq, self.b_eq = _split_rows(lp)
        self.c = -np.array(lp.objective)  # linprog minimizes
        self.base_bounds = np.column_stack([lp.lower, lp.upper])

    def solve(self, overrides: Optional[dict[int, tuple[float, float]]] = None):
        bounds = self.base_bounds
        if overrides:
            bounds = bounds.copy()
            for var, (lo, hi) in overrides.items():
                bounds[var, 0] = lo
                bounds[var, 1] = hi
        return linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub,
                       A_eq=self.a_eq, b_eq=self.b_eq, bounds=bounds,
                       method="highs")

    def solve_mip(self, binaries: tuple[int, ...],
                  time_limit: Optional[float]):
        integrality = np.zeros(len(self.c))
        integrality[list(binaries)] = 1
        constraints = []
        if self.a_ub is not None:
            constraints.append(LinearConstraint(self.a_ub, -np.inf, self.b_ub))
        if self.a_eq is not None:
            constraints.append(LinearConstraint(self.a_eq, self.b_eq,
                                                self.b_eq))
        options = {"mip_rel_gap": GAP_TOL}
        if time_limit is not None:
            options["time_limit"] = time_limit
        return milp(self.c, integrality=integrality,
                    bounds=Bounds(self.base_bounds[:, 0],
                                  self.base_bounds[:, 1]),
                    constraints=constraints, options=options)


def _status_from_linprog(res) -> str:
    if res.status == 0:
        return OPTIMAL
    if res.status == 2:
        return INFEASIBLE
    if res.status == 3:
        return UNBOUNDED
    raise SolverError(f"LP backend failure: {res.message}")


def solve_lp(lp: LinearProgram) -> MilpSolution:
    t0 = time.perf_counter()
    res = _LpCore(lp).solve()
    status = _status_from_linprog(res)
    if status != OPTIMAL:
        return MilpSolution(status, float("nan"), None, float("inf"),
                            time.perf_counter() - t0)
    return MilpSolution(OPTIMAL, float(-res.fun), np.array(res.x), 0.0,
                        time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Mixed-integer solves


def _fix_binaries(core: _LpCore, binaries: tuple[int, ...],
                  x: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """Objective and assignment of the LP with every binary fixed at its
    rounded value in x; None if that LP is infeasible."""
    res = core.solve({var: (round(float(x[var])),) * 2 for var in binaries})
    if _status_from_linprog(res) != OPTIMAL:
        return None
    return float(-res.fun), np.array(res.x)


def _finish(status: str, started: float,
            best: Optional[tuple[float, np.ndarray]] = None,
            bound: float = np.inf) -> MilpSolution:
    """The solution for an incumbent (objective, x), if any, whose value is
    bounded above by bound."""
    wall = time.perf_counter() - started
    if best is None:
        return MilpSolution(status, float("nan"), None, float("inf"), wall)
    objective, x = best
    return MilpSolution(status, objective, x, max(0.0, bound - objective),
                        wall)


def solve_milp(problem: MilpProblem,
               warm: Optional[np.ndarray] = None,
               time_limit: Optional[float] = None) -> MilpSolution:
    """Maximize over the problem's binary variables with HiGHS.

    warm, if given, must be a feasible full assignment; its binary pattern is
    fixed and re-optimized to seed the incumbent, and the result is never
    worse than it.  time_limit bounds the whole call; on timeout the best
    incumbent is returned with the outstanding bound gap.
    """
    t0 = time.perf_counter()
    core = _LpCore(problem.lp)
    binaries = problem.binaries

    best = None
    if warm is not None:
        best = _fix_binaries(core, binaries, warm)
        if best is None:
            raise SolverError("warm start is infeasible")

    root = core.solve()
    root_status = _status_from_linprog(root)
    if root_status != OPTIMAL:
        return _finish(root_status, t0)
    root_bound = float(-root.fun)
    time_left = None if time_limit is None \
        else time_limit - (time.perf_counter() - t0)
    if time_left is not None and time_left <= 0.0:
        return _finish(INCUMBENT_TIME_LIMIT, t0, best, root_bound)
    if best is not None and \
            root_bound - best[0] <= GAP_TOL * (1.0 + abs(best[0])):
        return _finish(OPTIMAL, t0, best, root_bound)

    res = core.solve_mip(binaries, time_left)
    if res.x is not None:
        polished = _fix_binaries(core, binaries, res.x)
        if polished is None:
            raise SolverError("MIP solution is infeasible with its binaries "
                              "fixed")
        if best is None or polished[0] > best[0]:
            best = polished
    if best is None:
        if res.status not in (1, 2, 3):
            raise SolverError(f"MIP backend failure: {res.message}")
        return _finish(_MIP_STATUS[res.status], t0)
    bound = root_bound
    if res.status in (0, 1) and res.mip_dual_bound is not None:
        bound = min(bound, -res.mip_dual_bound)
    return _finish(OPTIMAL if res.status == 0 else INCUMBENT_TIME_LIMIT, t0,
                   best, bound)
