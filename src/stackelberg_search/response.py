"""Exact follower best response, best-response values, and the trunk.

The follower best-responds to a fixed leader plan by a single bottom-up pass
over its treeplex.  Values are chance-weighted: the value of a sequence is
the sum of the leader-plan-weighted payoff terms it closes plus the values of
the information sets hanging below it, so no division by reach ever happens.

Ties in follower value (within TIE_TOL) break toward the larger leader value
and then toward the lowest action index — the Stackelberg convention, applied
with a tolerance so float noise cannot flip branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    GameError,
    GameTree,
    RealizationPlan,
    payoff_tables,
)

TIE_TOL = 1e-9
NEG_INF = float("-inf")


@dataclass
class BrvTable:
    """Chance-weighted best-response values for every follower sequence/infoset.

    second_value holds the runner-up sequence value per infoset (-inf for
    single-action infosets); leader_seq/leader_inf carry the leader's value
    under the tie-broken response, which downstream consumers use to stay
    consistent with best_response.
    """

    brv_seq: dict[int, float]
    brv_inf: dict[int, float]
    best_action: dict[int, int]
    second_value: dict[int, float]
    leader_seq: dict[int, float]
    leader_inf: dict[int, float]
    root_follower_value: float
    root_leader_value: float


def compute_brvs(game: GameTree, r_leader: RealizationPlan) -> BrvTable:
    tp2 = game.treeplex(FOLLOWER)
    r_leader.check_flow(game.treeplex(LEADER))
    r1 = r_leader.probs
    # Per follower sequence, the (leader, follower) values of the leaves it
    # closes, weighted by the leader's plan; add.at sums in table order.
    table = payoff_tables(game)
    pairs = np.array(list(table), dtype=np.int64)
    closed = np.zeros((tp2.n_sequences, 2))
    np.add.at(closed, pairs[:, 1],
              r1[pairs[:, 0], None] * np.array(list(table.values())))

    brv_seq: dict[int, float] = {}
    brv_inf: dict[int, float] = {}
    best_action: dict[int, int] = {}
    second_value: dict[int, float] = {}
    leader_seq: dict[int, float] = {}
    leader_inf: dict[int, float] = {}

    def seq_value(seq_id: int) -> tuple[float, float]:
        lv, fv = closed[seq_id]
        for infoset in tp2.children_infosets.get(seq_id, ()):
            fv += brv_inf[infoset]
            lv += leader_inf[infoset]
        return fv, lv

    # Children before parents.
    for infoset in reversed(tp2.infoset_ids):
        choices = []
        for seq in tp2.actions_of(infoset):
            fv, lv = seq_value(seq)
            brv_seq[seq] = fv
            leader_seq[seq] = lv
            choices.append((seq, fv, lv))
        best = choices[0]
        for cand in choices[1:]:
            if cand[1] > best[1] + TIE_TOL:
                best = cand
            elif cand[1] > best[1] - TIE_TOL and cand[2] > best[2] + TIE_TOL:
                best = cand
        brv_inf[infoset] = best[1]
        leader_inf[infoset] = best[2]
        best_action[infoset] = best[0]
        others = [fv for seq, fv, _ in choices if seq != best[0]]
        second_value[infoset] = max(others) if others else NEG_INF

    root_fv, root_lv = seq_value(0)
    brv_seq[0] = root_fv
    leader_seq[0] = root_lv
    return BrvTable(brv_seq, brv_inf, best_action, second_value,
                    leader_seq, leader_inf, root_fv, root_lv)


def best_response(game: GameTree, r_leader: RealizationPlan,
                  brvs: Optional[BrvTable] = None,
                  ) -> tuple[RealizationPlan, float, float]:
    """The follower's pure tie-broken best response and both players' values."""
    if brvs is None:
        brvs = compute_brvs(game, r_leader)
    tp2 = game.treeplex(FOLLOWER)
    probs = np.zeros(tp2.n_sequences)
    probs[0] = 1.0
    for infoset in tp2.infoset_ids:
        if probs[tp2.entry_seq[infoset]] > 0.5:
            probs[brvs.best_action[infoset]] = 1.0
    plan = RealizationPlan(FOLLOWER, probs)
    plan.check_flow(tp2)
    return plan, brvs.root_follower_value, brvs.root_leader_value


def compute_trunk(game: GameTree, r_2bp: RealizationPlan) -> frozenset[int]:
    """The follower infosets the pure plan r_2bp reaches with probability 1."""
    tp2 = game.treeplex(FOLLOWER)
    r_2bp.check_flow(tp2)
    if not r_2bp.is_pure():
        raise GameError("trunk is defined for pure follower plans only")
    return frozenset(
        infoset for infoset in tp2.infoset_ids
        if r_2bp.probs[tp2.entry_seq[infoset]] > 0.5
    )
