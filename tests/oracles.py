"""Brute-force oracles for tiny games, used only by the tests.

``enumerate_pure_plans`` and ``count_pure_plans`` list a player's reduced
pure plans; ``sse_oracle`` finds the exact commitment value by one linear
program per follower pure plan.  All are exponential in the game: keep
them to games with a handful of pure strategies.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    GameTree,
    RealizationPlan,
    renormalize_flow,
)
from stackelberg_search.solver import (
    OPTIMAL,
    LinearProgram,
    SolverError,
    solve_lp,
)


def enumerate_pure_plans(game: GameTree, player: int) -> Iterator[RealizationPlan]:
    """All reduced pure realization plans of a player, in deterministic order.

    Off-path information sets carry probability zero (reduced form), so the
    count is the product over reachable infosets of their action counts, not
    an exponential over all infosets.  Plans are built one at a time, so the
    first ones come at once even when the count is astronomical.
    """
    tp = game.treeplex(player)

    def expand(infosets: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Every choice of sequences below the given sibling infosets; the
        first infoset varies slowest."""
        if not infosets:
            yield ()
            return
        for seq in tp.actions_of(infosets[0]):
            for below in expand(tp.children_infosets.get(seq, ())):
                for rest in expand(infosets[1:]):
                    yield (seq,) + below + rest

    for chosen in expand(tp.children_infosets.get(0, ())):
        probs = np.zeros(tp.n_sequences)
        probs[0] = 1.0
        for seq in chosen:
            probs[seq] = 1.0
        yield RealizationPlan(player, probs)


def count_pure_plans(game: GameTree, player: int) -> int:
    tp = game.treeplex(player)

    def expand(seq_id: int) -> int:
        total = 1
        for infoset in tp.children_infosets.get(seq_id, ()):
            total *= sum(expand(seq) for seq in tp.actions_of(infoset))
        return total

    return expand(0)


def sse_oracle(game: GameTree) -> tuple[float, RealizationPlan]:
    """Exact leader commitment value by enumerating follower pure plans.

    For each reduced pure follower plan, a linear program maximizes the
    leader's payoff over plans for which that response is (weakly) a best
    response; the best LP value over all plans is the commitment optimum.
    Exponential in the follower's decision structure — keep it to games with
    a handful of follower strategies (it is the test oracle, not the solver).
    """
    tp1 = game.treeplex(LEADER)
    tp2 = game.treeplex(FOLLOWER)
    _, s1, s2, reach, u1, u2 = game.leaf_arrays()
    best: tuple[float, Optional[np.ndarray]] = (-np.inf, None)

    for response in enumerate_pure_plans(game, FOLLOWER):
        lp = LinearProgram()
        r_vars = [lp.add_var(f"r1[{s}]", 0.0, 1.0)
                  for s in range(tp1.n_sequences)]
        v_vars = {i: lp.add_var(f"v[{i}]", -np.inf, np.inf)
                  for i in tp2.infoset_ids}
        lp.add_constraint({r_vars[0]: 1.0}, "==", 1.0)
        for infoset in tp1.infoset_ids:
            coeffs = {r_vars[tp1.entry_seq[infoset]]: 1.0}
            for seq in tp1.actions_of(infoset):
                coeffs[r_vars[seq]] = coeffs.get(r_vars[seq], 0.0) - 1.0
            lp.add_constraint(coeffs, "==", 0.0)

        # Upper-bound recursion: v_I >= value of each action sequence.
        terms: dict[int, dict[int, float]] = {}
        for k in range(len(reach)):
            terms.setdefault(int(s2[k]), {})
            var = r_vars[int(s1[k])]
            terms[int(s2[k])][var] = terms[int(s2[k])].get(var, 0.0) \
                + float(reach[k] * u2[k])
        for infoset in tp2.infoset_ids:
            for seq in tp2.actions_of(infoset):
                coeffs = {v_vars[infoset]: 1.0}
                for child in tp2.children_infosets.get(seq, ()):
                    coeffs[v_vars[child]] = coeffs.get(v_vars[child], 0.0) - 1.0
                for var, g in terms.get(seq, {}).items():
                    coeffs[var] = coeffs.get(var, 0.0) - g
                lp.add_constraint(coeffs, ">=", 0.0)

        # The enumerated response must achieve the root best-response value.
        achieved: dict[int, float] = {}
        for k in range(len(reach)):
            if response.probs[int(s2[k])] > 0.5:
                var = r_vars[int(s1[k])]
                achieved[var] = achieved.get(var, 0.0) + float(reach[k] * u2[k])
        coeffs = dict(achieved)
        for infoset in tp2.children_infosets.get(0, ()):
            coeffs[v_vars[infoset]] = coeffs.get(v_vars[infoset], 0.0) - 1.0
        # Leaves the follower cannot avoid (empty sequence) appear on both
        # sides; subtracting them here cancels their achieved-value terms.
        for var, g in terms.get(0, {}).items():
            coeffs[var] = coeffs.get(var, 0.0) - g
        lp.add_constraint(coeffs, ">=", 0.0)

        for k in range(len(reach)):
            if response.probs[int(s2[k])] > 0.5:
                var = r_vars[int(s1[k])]
                lp.objective[var] += float(reach[k] * u1[k])

        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            continue
        if sol.objective > best[0] + 1e-12:
            best = (sol.objective, sol.assignment[: tp1.n_sequences])
    if best[1] is None:
        raise SolverError("oracle found no inducible follower response")
    plan = RealizationPlan(LEADER, np.clip(best[1], 0.0, 1.0))
    renormalize_flow(tp1, plan.probs)
    plan.check_flow(tp1)
    return best[0], plan
