"""An independent oracle for the bounded subgame MILPs.

On random small games with random explicit partitions (rooted at player
nodes, as in test_safety_property.py) and random blueprints, the uncapped
optimum of every reachable subgame's model equals a brute-force value.  The
oracle enumerates the follower's pure plans inside the subgame; for each it
solves one LP over the leader's local plan in which that plan is a best
response below every head and the head bounds hold, and it takes the best
LP value.  It reads only the game, the subgame's quantities and its bounds,
none of the model's rows.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stackelberg_search.efg import FOLLOWER, LEADER
from stackelberg_search.games import random_small_game
from stackelberg_search.response import NEG_INF
from stackelberg_search.search import (
    LOWER,
    build_constrained_milp,
    partition_subgames,
    prepare_search,
)
from stackelberg_search.solver import OPTIMAL, solve_milp
from test_safety_property import explicit_partitions, random_blueprint


def _leaves(game, sub, columns):
    """(leaf, leader form, follower choices) per leaf of the subgame: the
    leaf's local leader reach as a coefficient vector over the columns plus
    a constant, and the follower's (infoset, action) pairs inside."""
    tp1 = game.treeplex(LEADER)
    out = []
    stack = [(h, None, ()) for h in sub.initial]
    while stack:
        nid, seq1, choices = stack.pop()
        node = game.node(nid)
        if node.is_terminal:
            form = np.zeros(len(columns) + 1)
            form[-1 if seq1 is None else columns[seq1]] = 1.0
            out.append((nid, form, choices))
            continue
        for a, child in enumerate(node.children):
            if node.kind == "player" and node.player == LEADER:
                stack.append((child, tp1.actions_of(node.infoset)[a], choices))
            elif node.kind == "player":
                stack.append((child, seq1, choices + ((node.infoset, a),)))
            else:
                stack.append((child, seq1, choices))
    return out


def brute_force_optimum(game, sub, quantities, bounds) -> float:
    tp1 = game.treeplex(LEADER)
    columns = {seq: k for k, seq in enumerate(
        s for i in sub.infosets[LEADER] for s in tp1.actions_of(i))}
    n = len(columns)
    # Leader flow: each local infoset's actions sum to its entry, or to 1.
    a_eq, b_eq = [], []
    for infoset in sub.infosets[LEADER]:
        row = np.zeros(n)
        row[[columns[s] for s in tp1.actions_of(infoset)]] = 1.0
        entry = tp1.entry_seq[infoset]
        if entry in columns:
            row[columns[entry]] -= 1.0
        a_eq.append(row)
        b_eq.append(0.0 if entry in columns else 1.0)

    leaves = _leaves(game, sub, columns)
    follower = sub.infosets[FOLLOWER]
    plans = [dict(zip(follower, actions)) for actions in itertools.product(
        *(range(len(game.infoset(i).actions)) for i in follower))]

    def reached(plan, choices):
        return all(plan[i] == a for i, a in choices)

    def value(plan, head):
        """The follower's value below the head, as a form over columns."""
        return sum((quantities.ctilde[z] * game.node(z).payoffs[1] * form
                    for z, form, choices in leaves
                    if choices and choices[0][0] == head
                    and reached(plan, choices)), np.zeros(n + 1))

    one = np.eye(n + 1)[-1]    # the constant term of a form
    best = -np.inf
    for plan in plans:
        objective = sum((quantities.cj[z] * game.node(z).payoffs[0] * form
                         for z, form, choices in leaves
                         if reached(plan, choices)), np.zeros(n + 1))
        # rows @ [r1, 1] >= 0
        rows = []
        for head in sub.heads[FOLLOWER]:
            own = value(plan, head)
            rows.extend(own - value(other, head) for other in plans)
            if head in bounds.bounds:
                direction, bound = bounds.bounds[head]
                if direction == LOWER and bound != NEG_INF:
                    rows.append(own - bound * one)
                elif direction != LOWER:
                    rows.append(bound * one - own)
        rows = np.array(rows).reshape(-1, n + 1)
        if n == 0:
            if np.all(rows[:, -1] >= -1e-9):
                best = max(best, objective[-1])
            continue
        res = linprog(-objective[:n], A_ub=-rows[:, :n], b_ub=rows[:, -1],
                      A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                      bounds=(0.0, 1.0), method="highs")
        if res.status == 0:
            best = max(best, -res.fun + objective[-1])
    return best


@settings(max_examples=30, deadline=None)
@given(game_seed=st.integers(0, 2**31 - 1),
       choice=st.integers(0, 2**31 - 1),
       blueprint_seed=st.integers(0, 2**31 - 1),
       pure_share=st.sampled_from([0.0, 0.5, 1.0]),
       alpha=st.floats(0.0, 1.0))
def test_bounded_subgame_optimum_matches_brute_force(game_seed, choice,
                                                     blueprint_seed,
                                                     pure_share, alpha):
    candidates = explicit_partitions(game_seed)
    game = random_small_game(game_seed)
    partition = partition_subgames(
        game, "explicit",
        initial_nodes=candidates[choice % len(candidates)])
    blueprint = random_blueprint(game, blueprint_seed, pure_share)
    context = prepare_search(game, blueprint, partition, alpha)
    for sub in partition:
        q = context.quantities[sub.index]
        if q.eta is None:
            continue
        bounds = context.bounds[sub.index]
        model = build_constrained_milp(game, sub, q, bounds,
                                       context.brvs)
        solution = solve_milp(model.problem, warm=model.warm)
        assert solution.status == OPTIMAL
        oracle = brute_force_optimum(game, sub, q, bounds)
        assert abs(solution.objective - oracle) <= \
            1e-6 * (1.0 + abs(oracle)), (sub.index, solution.objective, oracle)
