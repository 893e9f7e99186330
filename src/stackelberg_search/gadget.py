"""Recast a bounded subgame as a standalone game ("gadget") and solve it.

The gadget wraps a subgame's subtrees under a fresh chance root weighted by
the blueprint's entry distribution, and gives the follower an explicit
take-it-or-leave-it decision at every head group: a terminate action worth
exactly the group's bound, or continue into the real subtrees.  Lower-bounded
(trunk) groups make terminate ruinous for the leader, so an optimal leader
keeps the follower's continuation value above the bound; upper-bounded groups
poison the leader's continuation payoffs instead, so the leader needs the
follower to terminate, which the follower only does while its continuation
value stays below the bound.  An off-the-shelf commitment solver on the
gadget then reproduces the bounded refinement.

Head groups are heads sharing the follower's entry sequence: the follower
cannot tell members of a group apart when deciding whether the subgame is
still worth entering, so the terminate payoff encodes the group's summed
bound, spread evenly over the group's initial states and divided by each
state's entry weight so the chance root cancels out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    GameError,
    GameTree,
    TreeBuilder,
)
from stackelberg_search.response import NEG_INF
from stackelberg_search.search import (
    LOWER,
    NO_BOUNDS,
    UPPER,
    BoundsMap,
    Subgame,
    SubgameQuantities,
    build_full_milp,
    extract_leader_plan,
)
from stackelberg_search.solver import (
    INCUMBENT_TIME_LIMIT,
    OPTIMAL,
    MilpSolution,
    SolverError,
    solve_milp,
)

SENTINEL_SCALE = 1e6


def group_heads(game: GameTree, sub: Subgame) -> dict[int, tuple[int, ...]]:
    """Follower head infosets keyed by their shared entry sequence."""
    tp2 = game.treeplex(FOLLOWER)
    groups: dict[int, list[int]] = {}
    for infoset in sub.heads[FOLLOWER]:
        groups.setdefault(tp2.entry_seq[infoset], []).append(infoset)
    return {entry: tuple(sorted(heads))
            for entry, heads in sorted(groups.items())}


@dataclass
class GadgetGame:
    """A transformed subgame plus the maps back to the original."""

    game: GameTree
    subgame_index: int
    eta: float
    sentinel: float
    seq_map: dict[int, int]        # gadget leader seq -> original seq
    aux_infosets: dict[int, int]   # entry seq -> gadget aux infoset id
    kept_initial: tuple[int, ...]
    dropped_initial: tuple[int, ...]


def transform_subgame(game: GameTree, sub: Subgame,
                      quantities: SubgameQuantities,
                      bounds: BoundsMap) -> GadgetGame:
    """Build the gadget for one subgame.

    NO_BOUNDS (what naive_search passes) yields the unbounded transform:
    the subgame under its entry distribution with no termination structure,
    which is exactly the greedy ("pretend the follower plays to reach")
    re-solving baseline.  Any other bounds map, even an empty one (a
    subgame without follower heads), is a bounded transform.
    """
    if quantities.eta is None:
        raise GameError(
            f"subgame {sub.index}: the blueprint never enters it, so there "
            f"is no entry distribution to re-solve against")
    total_omega = sum(quantities.omega.values())
    kept = [h for h in sub.initial if quantities.omega[h] > 0.0]
    dropped = [h for h in sub.initial if quantities.omega[h] <= 0.0]
    if dropped:
        warnings.warn(
            f"subgame {sub.index}: dropping {len(dropped)} initial state(s) "
            f"with zero blueprint reach", stacklevel=2)

    sentinel = SENTINEL_SCALE * (
        1.0 + max((abs(game.node(z).payoffs[0]) for z in sub.terminals),
                  default=0.0)
        + max((abs(game.node(z).payoffs[1]) for z in sub.terminals),
              default=0.0))

    # Attribute every head member to its initial state; group the kept
    # initial states by the follower entry sequence of the heads they feed.
    initial_set = set(sub.initial)
    kept_set = set(kept)
    groups = group_heads(game, sub)

    def initial_ancestor(nid: int) -> int:
        while nid not in initial_set:
            nid = game.node(nid).parent
        return nid

    group_of_initial: dict[int, int] = {}
    group_initials: dict[int, set[int]] = {}
    surviving_heads: dict[int, set[int]] = {}
    for entry, heads in groups.items():
        for infoset in heads:
            for member in game.infoset(infoset).members:
                h = initial_ancestor(member)
                if quantities.pre2[h] != entry:
                    raise GameError(
                        f"subgame {sub.index}: head infoset {infoset} entry "
                        f"disagrees with its initial state {h}")
                if h in kept_set:
                    group_of_initial[h] = entry
                    group_initials.setdefault(entry, set()).add(h)
                    surviving_heads.setdefault(entry, set()).add(infoset)

    # Per group: bound direction and summed value, None when unbounded.
    group_info: dict[int, Optional[tuple[str, float]]] = {}
    for entry, heads in groups.items():
        alive = sorted(surviving_heads.get(entry, ()))
        bounded = [i for i in alive if i in bounds.bounds]
        if not bounded:
            group_info[entry] = None
            continue
        if len(bounded) != len(alive):
            raise GameError(
                f"subgame {sub.index}: bounds cover only part of the head "
                f"group entered by sequence {entry}")
        directions = {bounds.bounds[i][0] for i in bounded}
        if len(directions) != 1:
            raise GameError(
                f"subgame {sub.index}: mixed bound directions in the head "
                f"group entered by sequence {entry}")
        total = sum(bounds.bounds[i][1] for i in bounded)
        direction = directions.pop()
        if direction == LOWER and total == NEG_INF:
            group_info[entry] = None  # vacuous
        else:
            group_info[entry] = (direction, total)

    def follower_entry_factor(h: int) -> float:
        for z in sub.terminals:
            if quantities.pre2[z] == quantities.pre2[h] and \
                    quantities.ctilde[z] > 0.0:
                return quantities.cj[z] / quantities.ctilde[z]
        return 1.0

    b = TreeBuilder()
    root = b.chance(None, [quantities.omega[h] / total_omega for h in kept],
                    [f"enter-{h}" for h in kept])

    def copy(parent: int, nid: int, poison: bool, neutral: bool) -> None:
        node = game.node(nid)
        if node.is_terminal:
            u1 = -sentinel if poison else \
                (0.0 if neutral else node.payoffs[0])
            b.terminal(parent, u1, node.payoffs[1])
            return
        if node.kind == "chance":
            new = b.chance(parent, node.chance_probs, node.actions)
        else:
            new = b.player(parent, node.player, ("orig", node.infoset),
                           node.actions)
        for child in node.children:
            copy(new, child, poison, neutral)

    for h in kept:
        entry = group_of_initial.get(h)
        info = group_info.get(entry) if entry is not None else None
        if info is None:
            # No termination decision here.  When bounds are in force and
            # the blueprint response avoids this branch entirely (and no
            # follower choice inside could bring it back), its true weight
            # in the leader's objective is zero — neutralize the payoffs so
            # the gadget cannot invent value there.
            neutral = bounds is not NO_BOUNDS and entry is None \
                and follower_entry_factor(h) == 0.0
            copy(root, h, poison=False, neutral=neutral)
            continue
        direction, total = info
        aux = b.player(root, FOLLOWER, ("aux", entry),
                       ("terminate", "continue"))
        share = total / (quantities.omega[h] * len(group_initials[entry]))
        terminate_u1 = -sentinel if direction == LOWER else 0.0
        b.terminal(aux, terminate_u1, share)
        copy(aux, h, poison=direction == UPPER, neutral=False)

    gadget = b.build(metadata={
        "name": "gadget",
        "base": game.metadata.get("name"),
        "subgame": sub.index,
    })

    tp_orig = game.treeplex(LEADER)
    tp_gadget = gadget.treeplex(LEADER)
    seq_map: dict[int, int] = {}
    for infoset in sub.infosets[LEADER]:
        gadget_infoset = b.infoset_id(("orig", infoset))
        if gadget_infoset is None:
            continue  # every member sat under a dropped initial state
        for g_seq, o_seq in zip(tp_gadget.actions_of(gadget_infoset),
                                tp_orig.actions_of(infoset)):
            seq_map[g_seq] = o_seq
    aux_infosets = {entry: b.infoset_id(("aux", entry))
                    for entry, info in group_info.items()
                    if info is not None and b.infoset_id(("aux", entry))
                    is not None}
    return GadgetGame(game=gadget, subgame_index=sub.index,
                      eta=quantities.eta, sentinel=sentinel, seq_map=seq_map,
                      aux_infosets=aux_infosets, kept_initial=tuple(kept),
                      dropped_initial=tuple(dropped))


@dataclass
class GadgetSolution:
    value: float                   # on the original objective scale
    local_plan: dict[int, float]   # original leader seq -> probability
    gadget: GadgetGame
    solution: MilpSolution


def solve_via_gadget(game: GameTree, sub: Subgame,
                     quantities: SubgameQuantities,
                     bounds: BoundsMap) -> GadgetSolution:
    """Commitment-solve the gadget and map the result back.

    The gadget's objective carries the entry-normalization factor eta;
    dividing it back out puts the value on the same scale as the direct
    bounded-refinement program, so the two agree to solver tolerance.
    """
    gg = transform_subgame(game, sub, quantities, bounds)
    model = build_full_milp(gg.game)
    solution = solve_milp(model.problem, warm=model.warm)
    if solution.status not in (OPTIMAL, INCUMBENT_TIME_LIMIT) or \
            solution.assignment is None:
        raise SolverError(
            f"gadget for subgame {sub.index}: solver returned "
            f"{solution.status}")
    value = solution.objective / gg.eta
    if value < -gg.sentinel / 4.0:
        raise SolverError(
            f"gadget for subgame {sub.index}: a termination sentinel leaked "
            f"into the objective; the bounds are mutually inconsistent")
    gadget_plan = extract_leader_plan(gg.game, model, solution)
    local_plan = {orig: float(gadget_plan.probs[g])
                  for g, orig in gg.seq_map.items()}
    return GadgetSolution(value=value, local_plan=local_plan, gadget=gg,
                          solution=solution)
