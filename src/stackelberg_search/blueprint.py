"""Offline leader blueprints.

Four sources:
  * zero_sum_blueprint — the leader's side of a sequence-form Nash LP on a
    zero-sum surrogate of the game (the surrogate may replace the payoffs,
    e.g. tie-splitting bids or removing a rake), optionally over only the
    plans that given automorphisms leave unchanged (make_blueprint passes
    Leduc's suit swaps).
  * stage_sse_blueprint — for two-stage games: commit via the multiple-LP
    Stackelberg solution of the first-stage matrix alone, then play uniformly
    in every second-stage infoset.
  * uniform_blueprint — uniform behavior everywhere (baseline/fallback).
  * fixed_blueprint — the pure plan a fixture bundles in its metadata.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    Automorphism,
    BehavioralStrategy,
    GameError,
    GameTree,
    RealizationPlan,
    automorphisms,
    behavioral_to_realization,
    payoff_tables,
    renormalize_flow,
    uniform_plan,
)
from stackelberg_search.solver import (
    OPTIMAL,
    LinearProgram,
    SolverError,
    solve_lp,
)

ZERO_SUM_TOL = 1e-9


@dataclass
class Blueprint:
    plan: RealizationPlan
    provenance: str  # ZeroSumNE | StageSSE | Uniform | Fixed
    # What made the plan; "symmetries" counts the automorphisms it was
    # restricted to respect (0 unless a zero-sum LP applied some).
    source: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.source.setdefault("symmetries", 0)


def zero_sum_blueprint(game: GameTree,
                       surrogate_u1: np.ndarray | None = None,
                       symmetries: Collection[Automorphism] = (),
                       ) -> Blueprint:
    """Sequence-form maximin leader strategy of a zero-sum (surrogate) game.

    Maximizes the dual value of the follower's flow system:
        max v_root
        s.t. leader flow constraints on r_1,
             v_root + sum of root-infoset values <= g(r_1, empty),
             (child infoset values) - v_I <= g(r_1, sigma)  for sigma = (I, a).

    Given automorphisms of the surrogate game, the LP runs over the plans
    and values they leave unchanged: one column per orbit of leader
    sequences and of follower infosets, and one row per orbit of leader
    infosets and of follower sequences (an orbit's rows are equal once its
    columns are shared).  This keeps the value: the maximin solutions form
    a convex set that every automorphism maps onto itself, so averaging one
    over the group the automorphisms generate gives a symmetric one.  (It
    does not carry over to Stackelberg commitments, whose average can lose
    value.)
    """
    if surrogate_u1 is None:
        _, _, _, _, u1, u2 = game.leaf_arrays()
        if np.max(np.abs(u1 + u2)) > ZERO_SUM_TOL:
            raise GameError(
                "game is not zero-sum; pass surrogate leader payoffs")
    lp, r_vars = _maximin_lp(game, surrogate_u1, symmetries)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise SolverError(f"zero-sum LP ended with status {sol.status}")
    tp1 = game.treeplex(LEADER)
    plan = RealizationPlan(LEADER, np.clip(sol.assignment[r_vars], 0.0, 1.0))
    plan.check_flow(tp1, tol=1e-6)
    renormalize_flow(tp1, plan.probs)
    plan.check_flow(tp1)
    return Blueprint(plan, "ZeroSumNE", {
        "game": game.metadata.get("name", "?"),
        "surrogate_value": sol.objective,
        "symmetries": len(symmetries),
    })


def _maximin_lp(game: GameTree, surrogate_u1: np.ndarray | None,
                symmetries: Collection[Automorphism],
                ) -> tuple[LinearProgram, list[int]]:
    """zero_sum_blueprint's LP, and the column of each leader sequence."""
    tp1 = game.treeplex(LEADER)
    tp2 = game.treeplex(FOLLOWER)
    # Each id's orbit, named by its lowest member.
    orbit_r1 = _orbits([sym.leader_seq for sym in symmetries],
                       tp1.n_sequences)
    orbit_r2 = _orbits([sym.follower_seq for sym in symmetries],
                       tp2.n_sequences)
    orbit_inf = _orbits([sym.infoset for sym in symmetries],
                        len(game.infosets))

    lp = LinearProgram()
    r_vars: list[int] = []      # per leader sequence, its orbit's column
    for s, head in enumerate(orbit_r1):
        r_vars.append(lp.add_var(f"r1[{tp1.seq_label(s)}]", 0.0, 1.0)
                      if head == s else r_vars[head])
    v_root = lp.add_var("v[root]", -np.inf, np.inf, objective=1.0)
    v_inf = {i: lp.add_var(f"v[I{i}]", -np.inf, np.inf)
             for i in tp2.infoset_ids if orbit_inf[i] == i}
    v_inf.update((i, v_inf[orbit_inf[i]]) for i in tp2.infoset_ids
                 if orbit_inf[i] != i)
    lp.add_constraint({r_vars[0]: 1.0}, "==", 1.0, name="r1-root")
    for infoset in tp1.infoset_ids:
        if orbit_inf[infoset] == infoset:
            coeffs = {r_vars[tp1.entry_seq[infoset]]: 1.0}
            for seq in tp1.actions_of(infoset):
                _add(coeffs, r_vars[seq], -1.0)
            lp.add_constraint(coeffs, "==", 0.0, name=f"r1-flow-{infoset}")

    # Per follower sequence: its value, its child infosets', its payoffs;
    # None where the sequence shares its orbit head's row.
    dual_rows = [{v_root: 1.0}] + [
        {v_inf[seq.parent_infoset]: -1.0} for seq in tp2.sequences[1:]]
    for s2, head in enumerate(orbit_r2):
        if head != s2:
            dual_rows[s2] = None
    for s2, coeffs in enumerate(dual_rows):
        if coeffs is not None:
            for child in tp2.children_infosets.get(s2, ()):
                _add(coeffs, v_inf[child], 1.0)
    for (s1, s2), g in payoff_tables(game, surrogate_u1).items():
        if dual_rows[s2] is not None:
            _add(dual_rows[s2], r_vars[s1], -g[0])
    for s2, coeffs in enumerate(dual_rows):
        if coeffs is not None:
            lp.add_constraint(coeffs, "<=", 0.0,
                              name=f"dual-{tp2.seq_label(s2)}")
    return lp, r_vars


def _orbits(images: list[np.ndarray], size: int) -> list[int]:
    """The lowest id in each id's orbit under the group the permutations
    images generate (each id itself when there are none)."""
    lowest = np.arange(size)
    while True:
        merged = lowest
        for image in images:
            merged = np.minimum(merged, merged[image])
        if np.array_equal(merged, lowest):
            return lowest.tolist()
        lowest = merged


def _add(coeffs: dict[int, float], var: int, value: float) -> None:
    """Add value to var's coefficient; a shared column sums its terms."""
    coeffs[var] = coeffs.get(var, 0.0) + value


def stage_sse_blueprint(game: GameTree) -> Blueprint:
    """Commit to the first-stage matrix SSE; play uniformly afterwards."""
    root = game.node(game.root)
    if game.metadata.get("name") != "two-stage" or root.player != LEADER:
        raise GameError("stage blueprint requires a two-stage game")
    shape = (len(root.actions), len(game.node(root.children[0]).actions))
    a1, a2 = (_stage1_matrix(game, key, shape)
              for key in ("stage1_leader", "stage1_follower"))
    x, value, chosen = sse_of_matrix_game(a1, a2)

    probs: dict[int, np.ndarray] = {root.infoset: x}
    for infoset in game.player_infosets(LEADER):
        if infoset.id != root.infoset:
            probs[infoset.id] = np.full(len(infoset.actions),
                                        1.0 / len(infoset.actions))
    plan = behavioral_to_realization(
        game, BehavioralStrategy(LEADER, probs))
    return Blueprint(plan, "StageSSE", {
        "game": game.metadata.get("name", "?"),
        "stage1_value": value,
        "stage1_follower_action": chosen,
    })


def _stage1_matrix(game: GameTree, key: str,
                   shape: tuple[int, int]) -> np.ndarray:
    """The metadata's stage-1 payoff matrix under key: one row per leader
    action at the root and one column per follower action below it."""
    raw = game.metadata.get(key)
    rows, cols = shape
    if not (isinstance(raw, list) and len(raw) == rows and all(
            isinstance(row, list) and len(row) == cols and all(
                type(v) in (int, float) and math.isfinite(v) for v in row)
            for row in raw)):
        raise GameError(f"metadata {key} must be a {rows}x{cols} matrix of "
                        f"finite numbers, not {raw!r}")
    return np.array(raw, dtype=np.float64)


def sse_of_matrix_game(u1: np.ndarray, u2: np.ndarray,
                       ) -> tuple[np.ndarray, float, int]:
    """Multiple-LP Stackelberg solution of a matrix game.

    One LP per follower action b: maximize the leader's payoff over mixed
    strategies for which b is a best response.  Returns the best (x, value)
    and the supporting follower action (lowest index on ties).
    """
    n, m = u1.shape
    best: tuple[np.ndarray, float, int] | None = None
    for b in range(m):
        lp = LinearProgram()
        xs = [lp.add_var(f"x{a}", 0.0, 1.0, objective=float(u1[a, b]))
              for a in range(n)]
        lp.add_constraint({v: 1.0 for v in xs}, "==", 1.0)
        for other in range(m):
            if other != b:
                lp.add_constraint(
                    {xs[a]: float(u2[a, b] - u2[a, other]) for a in range(n)},
                    ">=", 0.0)
        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            continue
        if best is None or sol.objective > best[1] + 1e-9:
            x = np.clip(sol.assignment[:n], 0.0, 1.0)
            best = (x / x.sum(), sol.objective, b)
    if best is None:
        raise SolverError("no follower action is ever a best response")
    return best


def uniform_blueprint(game: GameTree) -> Blueprint:
    return Blueprint(uniform_plan(game, LEADER), "Uniform",
                     {"game": game.metadata.get("name", "?")})


def fixed_blueprint(game: GameTree) -> Blueprint:
    """The pure leader plan named by the game's metadata: blueprint_actions
    maps leader infoset ids (as strings) to action indices, and an infoset
    it leaves out plays uniformly."""
    actions = game.metadata.get("blueprint_actions")
    if actions is None:
        raise GameError("game metadata bundles no blueprint_actions")
    if not isinstance(actions, dict):
        raise GameError(f"metadata blueprint_actions must be an object, not "
                        f"{actions!r}")
    infosets = {str(infoset.id): infoset
                for infoset in game.player_infosets(LEADER)}
    for key, choice in actions.items():
        if not (key in infosets and type(choice) is int
                and 0 <= choice < len(infosets[key].actions)):
            raise GameError(f"metadata blueprint_actions: bad entry {key!r}: "
                            f"{choice!r} (keys are leader infoset ids, "
                            f"values their action indices)")
    probs: dict[int, np.ndarray] = {}
    for key, infoset in infosets.items():
        dist = np.zeros(len(infoset.actions))
        if key in actions:
            dist[actions[key]] = 1.0
        else:
            dist[:] = 1.0 / len(infoset.actions)
        probs[infoset.id] = dist
    plan = behavioral_to_realization(game, BehavioralStrategy(LEADER, probs))
    return Blueprint(plan, "Fixed", {"game": game.metadata.get("name", "?")})


def make_blueprint(game: GameTree, method: str) -> Blueprint:
    """Dispatch used by the CLI and the experiment harness."""
    if method == "zerosum":
        name = game.metadata.get("name")
        if name == "goofspiel":
            from stackelberg_search.games import goofspiel_surrogate_payoffs
            return zero_sum_blueprint(game, goofspiel_surrogate_payoffs(game))
        if name == "leduc":
            from stackelberg_search.games import (
                declared_symmetries,
                leduc_surrogate_payoffs,
            )
            u1 = leduc_surrogate_payoffs(game)
            return zero_sum_blueprint(game, u1, automorphisms(
                game, declared_symmetries(game), u1))
        return zero_sum_blueprint(game)
    if method == "stage-sse":
        return stage_sse_blueprint(game)
    if method == "uniform":
        return uniform_blueprint(game)
    if method == "fixed":
        return fixed_blueprint(game)
    raise GameError(f"unknown blueprint method {method!r}")
