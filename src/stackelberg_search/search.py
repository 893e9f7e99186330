"""Safe subgame re-solving: partitions, bounds, and the Stackelberg MILPs.

A subgame is a union of subtrees that play can never leave, closed under both
players' information sets.  Re-solving a subgame in isolation is unsafe: the
follower anticipates the leader's refinement and may change behavior *before*
the subgame.  Safety is restored by bounding the follower's value at every
head information set of each subgame — lower bounds where the follower's
best response to the blueprint actually goes (the trunk), upper bounds
everywhere else — and refining the leader's plan subject to those bounds.

Values here are chance-weighted throughout and, inside a subgame, weighted by
the leader's blueprint reach ("the follower plays to reach the subgame"):

    ctilde(z) = chance(z) * r1_bp(prefix of the leader's sequence to z taken
                                  outside the subgame)

The objective scale additionally multiplies the follower's blueprint
best-response reach:

    cj(z) = ctilde(z) * r2_bp(outside prefix of the follower's sequence)

ctilde drives the follower-value recursion and the bounds (so bounds bind
even where the blueprint response never goes); cj drives the leader's
objective.  Mixing the two up makes the upper bounds vacuous and the
refinement unsafe.

Each subgame MILP has joint-reach and realized-value rows and no big-M.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    GameError,
    GameTree,
    RealizationPlan,
    renormalize_flow,
    uniform_plan,
)
from stackelberg_search.response import (
    NEG_INF,
    BrvTable,
    best_response,
    compute_brvs,
    compute_trunk,
)
from stackelberg_search.solver import (
    LinearProgram,
    MilpProblem,
    MilpSolution,
    SolverError,
    satisfies,
    solve_milp,
)

LOWER = "lower"
UPPER = "upper"


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Subgame:
    index: int
    initial: tuple[int, ...]
    # Every node inside -> the initial state it lies below, in walk order
    # (initial states ascending, each subtree depth-first).  Play enters
    # the subgame only through its initial states, so a node's sequences
    # outside the subgame are its initial state's.
    entry: dict[int, int]
    terminals: tuple[int, ...]
    infosets: dict[int, tuple[int, ...]]  # player -> infoset ids inside
    heads: dict[int, tuple[int, ...]]     # player -> head infoset ids
    # player -> inside id -> the head above it (itself at a head), in
    # top-down order: sorted by entry sequence, so parents come first.
    head_of: dict[int, dict[int, int]]

    @property
    def nodes(self):
        """The node ids inside, a set-like view of entry."""
        return self.entry.keys()


@dataclass(frozen=True)
class SubgamePartition:
    subgames: tuple[Subgame, ...]

    def __len__(self) -> int:
        return len(self.subgames)

    def __iter__(self):
        return iter(self.subgames)


def _build_subgame(game: GameTree, index: int, initial: list[int],
                   owner: dict[int, int]) -> Subgame:
    """Walk the subtrees below initial once, claiming each node in owner
    (node -> subgame index, shared by the whole partition)."""
    initial = sorted(initial)
    entry: dict[int, int] = {}
    member_infosets: dict[int, set[int]] = {LEADER: set(), FOLLOWER: set()}
    for h in initial:
        stack = [h]
        while stack:
            nid = stack.pop()
            if nid in owner:
                raise GameError(
                    f"node {nid}: duplicated across initial states"
                    if owner[nid] == index else
                    f"node {nid} belongs to subgames {owner[nid]} and {index}")
            owner[nid], entry[nid] = index, h
            node = game.node(nid)
            if node.kind == "player":
                member_infosets[node.player].add(node.infoset)
            stack.extend(node.children)
    terminals = tuple(sorted(n for n in entry if game.node(n).is_terminal))
    infosets: dict[int, tuple[int, ...]] = {}
    heads: dict[int, tuple[int, ...]] = {}
    head_of: dict[int, dict[int, int]] = {}
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        inside_set = member_infosets[player]
        for infoset_id in inside_set:
            outside = [m for m in game.infosets[infoset_id].members
                       if m not in entry]
            if outside:
                raise GameError(
                    f"subgame {index}: infoset {infoset_id} straddles the "
                    f"boundary (members {sorted(outside)} outside)")
        infosets[player] = tuple(sorted(inside_set))
        # Entry sequence ids grow down the treeplex, so a parent inside is
        # mapped before its children; an infoset with none is a head.
        own = head_of[player] = {}
        for i in sorted(infosets[player], key=tp.entry_seq.__getitem__):
            own[i] = own.get(tp.sequences[tp.entry_seq[i]].parent_infoset, i)
        heads[player] = tuple(sorted(i for i, h in own.items() if i == h))
    return Subgame(index=index, initial=tuple(initial), entry=entry,
                   terminals=terminals, infosets=infosets, heads=heads,
                   head_of=head_of)


def partition_subgames(game: GameTree, scheme: str, *,
                       m: Optional[int] = None,
                       initial_nodes: Optional[list[list[int]]] = None,
                       ) -> SubgamePartition:
    """Build the partition named by the scheme.

    Schemes: "whole-game", "metadata" (fixture-bundled roots), "explicit"
    (initial_nodes given), "two-stage", "goofspiel" (needs m = rounds left),
    "leduc" (round-two public states).  m and initial_nodes are refused
    on any scheme but the one that reads them.
    """
    for key, value, reader in (("m", m, "goofspiel"),
                               ("initial_nodes", initial_nodes, "explicit")):
        if value is not None and scheme != reader:
            raise GameError(f"the {scheme!r} scheme does not read {key!r}; "
                            f"only {reader!r} does")
    name = game.metadata.get("name")
    if scheme == "whole-game":
        groups = [[game.root]]
    elif scheme == "explicit":
        if not initial_nodes:
            raise GameError("explicit scheme needs initial_nodes")
        groups = _checked_groups(game, initial_nodes, "initial_nodes")
    elif scheme == "metadata":
        groups = game.metadata.get("subgames")
        if not groups:
            raise GameError("game metadata bundles no subgames")
        groups = _checked_groups(game, groups, "metadata subgames")
    elif scheme == "two-stage":
        if name != "two-stage":
            raise GameError("two-stage scheme needs a two-stage game")
        groups = [[child]
                  for node in game.nodes if node.kind == "chance"
                  for child in node.children]
    elif scheme == "goofspiel":
        groups = _goofspiel_groups(game, m)
    elif scheme == "leduc":
        groups = _leduc_groups(game)
    else:
        raise GameError(f"unknown partition scheme {scheme!r}")
    owner: dict[int, int] = {}
    subgames = tuple(_build_subgame(game, i, group, owner)
                     for i, group in enumerate(groups))
    if scheme in ("explicit", "metadata"):
        for sub in subgames:
            _check_protected(game, sub)
    return SubgamePartition(subgames)


def _check_protected(game: GameTree, sub: Subgame) -> None:
    """Refuse a subgame whose refinement no head bound can keep safe.

    That is a subgame with a terminal the follower reaches through an action
    taken outside it, below a leader action inside it, with no follower
    infoset inside on the way: the refinement then changes what the
    follower's earlier choice earns, and no head bound holds that choice in
    place.  The built-in schemes never form such subgames, so only the
    user-supplied ones are checked.
    """
    tp1, tp2 = game.treeplex(LEADER), game.treeplex(FOLLOWER)
    inside1, inside2 = set(sub.infosets[LEADER]), set(sub.infosets[FOLLOWER])
    for z in sub.terminals:
        if tp2.node_seq[z] != 0 \
                and _local_seq(tp2, z, inside2) == _CONST_ONE \
                and _local_seq(tp1, z, inside1) != _CONST_ONE:
            raise GameError(
                f"subgame {sub.index}: terminal {z} follows a follower action "
                f"outside the subgame and a leader action inside it, with no "
                f"follower infoset inside to bound; the search cannot keep it "
                f"safe")


def _checked_groups(game: GameTree, groups, source: str) -> list[list[int]]:
    """Subgame roots from outside input: non-empty lists of node ids."""
    n = len(game.nodes)
    if not isinstance(groups, list) or not all(
            isinstance(g, list) and g and all(
                isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n
                for v in g) for g in groups):
        raise GameError(f"{source} must be a list of non-empty lists of node "
                        f"ids in 0..{n - 1}")
    return groups


def _goofspiel_groups(game: GameTree, m: Optional[int]) -> list[list[int]]:
    """The nodes 2(n - m) player levels below each root child, keyed by
    the first n - m characters of its perm label (n is the label's length)
    and the action labels on the path: prizes revealed, then bids made."""
    if game.metadata.get("name") != "goofspiel":
        raise GameError("goofspiel scheme needs a goofspiel game")
    if m is None:
        raise GameError("goofspiel scheme needs m (rounds remaining)")
    root = game.node(game.root)
    n = len(root.actions[0]) if root.actions else 0
    if not 1 <= m <= n:
        raise GameError("m must lie in 1..n")
    if m == n:
        return [[game.root]]
    done = n - m
    groups: dict[tuple, list[int]] = {}

    def walk(nid: int, key: tuple) -> None:
        if len(key) == 1 + 2 * done:
            groups.setdefault(key, []).append(nid)
            return
        node = game.node(nid)
        for label, child in zip(node.actions, node.children):
            walk(child, key + (label,))

    for label, child in zip(root.actions, root.children):
        walk(child, (label[:done],))
    return [groups[key] for key in sorted(groups)]


def _leduc_groups(game: GameTree) -> list[list[int]]:
    if game.metadata.get("name") != "leduc":
        raise GameError("leduc scheme needs a leduc game")
    groups: dict[tuple, list[int]] = {}

    def line_of(nid: int) -> str:
        # Concatenate round-one betting actions on the path to the node.
        moves = []
        node = game.node(nid)
        while node.parent is not None:
            parent = game.node(node.parent)
            if parent.kind == "player":
                moves.append(parent.actions[parent.children.index(node.id)])
            node = parent
        return "".join(reversed(moves))

    for node in game.nodes:
        if node.kind != "chance" or node.parent is None:
            continue
        if game.node(node.parent).kind != "player":
            continue  # dealing chance, not the board
        line = line_of(node.id)
        for label, child in zip(node.actions, node.children):
            board = int(label[1:])
            groups.setdefault((line, board), []).append(child)
    return [groups[key] for key in sorted(groups)]


# ---------------------------------------------------------------------------
# Blueprint-derived quantities per subgame


@dataclass
class SubgameQuantities:
    """Reach-derived scalars of one subgame under a blueprint + response."""

    index: int
    omega: dict[int, float]          # initial state -> leader*chance reach
    eta: Optional[float]             # 1 / sum(omega), None when unreachable
    ctilde: dict[int, float]         # terminal -> chance * leader-bp reach
    cj: dict[int, float]             # terminal -> ctilde * follower-bp reach


def compute_subgame_quantities(game: GameTree, partition: SubgamePartition,
                               r1_bp: RealizationPlan,
                               r2_bp: RealizationPlan,
                               ) -> list[SubgameQuantities]:
    tp1 = game.treeplex(LEADER)
    tp2 = game.treeplex(FOLLOWER)
    reach = game.chance_reach()
    out = []
    for sub in partition:
        omega = {h: float(reach[h] * r1_bp.probs[tp1.node_seq[h]])
                 for h in sub.initial}
        ctilde: dict[int, float] = {}
        cj: dict[int, float] = {}
        for z in sub.terminals:
            # The outside sequences of z are its initial state's.
            h = sub.entry[z]
            ct = float(reach[z] * r1_bp.probs[tp1.node_seq[h]])
            ctilde[z] = ct
            cj[z] = ct * float(r2_bp.probs[tp2.node_seq[h]])
        total_omega = sum(omega.values())
        eta = (1.0 / total_omega) if total_omega > 0.0 else None
        out.append(SubgameQuantities(sub.index, omega, eta, ctilde, cj))
    return out


# ---------------------------------------------------------------------------
# Bound generation


@dataclass
class BoundsMap:
    """Per head follower infoset: a lower (trunk) or upper bound on its value.

    Values are chance-and-blueprint weighted (the ctilde scale), exactly like
    best-response values.  -inf lower bounds are legal and vacuous.
    """

    bounds: dict[int, tuple[str, float]]


# No head bound at all; transform_subgame tells it from a subgame's own
# empty map by identity.
NO_BOUNDS = BoundsMap({})


@dataclass
class BoundsTrace:
    """The lb/ub argument at every visited sequence and information set."""

    seq: dict[int, tuple[str, float]] = field(default_factory=dict)
    infoset: dict[int, tuple[str, float]] = field(default_factory=dict)


def compute_bounds(game: GameTree, brvs: BrvTable, trunk: frozenset[int],
                   partition: SubgamePartition, alpha: float = 0.5,
                   beta: float = 1.0,
                   ) -> tuple[dict[int, BoundsMap], BoundsTrace]:
    """Head bounds via slack-splitting over the follower treeplex.

    One parents-first pass over tp2.infoset_ids carries a lower (trunk) or
    upper argument from each sequence to the infosets below it.  The
    follower's best-response values leave slack between what the response
    achieves and what a bound must permit; the slack is split evenly among
    parallel information sets (scaled by beta along the trunk).  At a
    subgame head the argument is frozen as its bound, and nothing below a
    head is visited.  Elsewhere on the trunk the best action carries the
    branch-point bound down as a lower argument and every other action as
    an upper one; alpha interpolates that bound between the second-best (0)
    and best (1) action values.  beta must be a finite number >= 1: an
    infinite one turns zero slack into NaN.
    """
    if not 0.0 <= alpha <= 1.0:
        raise GameError("alpha must lie in [0, 1]")
    if not 1.0 <= beta < np.inf:
        raise GameError(f"beta must be a finite number >= 1, not {beta!r}")
    tp2 = game.treeplex(FOLLOWER)
    head_owner: dict[int, int] = {}
    for sub in partition:
        for infoset in sub.heads[FOLLOWER]:
            head_owner[infoset] = sub.index
    result = {sub.index: BoundsMap({}) for sub in partition}
    trace = BoundsTrace()

    def branch_bound(infoset: int, lb: float) -> float:
        v_star = brvs.brv_inf[infoset]
        v_second = brvs.second_value[infoset]
        if alpha == 1.0:
            term = v_star
        elif v_second == NEG_INF:
            term = NEG_INF
        else:
            term = alpha * v_star + (1.0 - alpha) * v_second
        return max(term, lb)

    trace.seq[0] = (LOWER, NEG_INF)
    for infoset in tp2.infoset_ids:
        entry = tp2.entry_seq[infoset]
        if entry not in trace.seq:
            continue  # below a head
        direction, value = trace.seq[entry]
        v, n = brvs.brv_inf[infoset], len(tp2.children_infosets[entry])
        if direction == LOWER:
            arg = v - beta * (brvs.brv_seq[entry] - value) / n
        else:
            arg = v + (value - brvs.brv_seq[entry]) / n
        trace.infoset[infoset] = (direction, arg)
        if infoset in head_owner:
            result[head_owner[infoset]].bounds[infoset] = (direction, arg)
        elif direction == LOWER:
            bound = branch_bound(infoset, arg)
            chosen = brvs.best_action[infoset]
            for seq in tp2.actions_of(infoset):
                trace.seq[seq] = (LOWER if seq == chosen else UPPER, bound)
        else:
            for seq in tp2.actions_of(infoset):
                trace.seq[seq] = (UPPER, arg)

    # Sanity: directions must agree with trunk membership, and the blueprint
    # response must satisfy every bound (lower <= BRV at trunk heads, upper
    # >= BRV elsewhere).
    for sub in partition:
        for infoset, (direction, value) in result[sub.index].bounds.items():
            in_trunk = infoset in trunk
            if (direction == LOWER) != in_trunk:
                raise GameError(
                    f"bound direction at infoset {infoset} contradicts trunk")
            brv = brvs.brv_inf[infoset]
            # Written so that a NaN bound fails.
            if direction == LOWER and not value <= brv + 1e-9:
                raise GameError(f"infeasible lower bound at {infoset}")
            if direction == UPPER and not value >= brv - 1e-9:
                raise GameError(f"infeasible upper bound at {infoset}")
    return result, trace


@dataclass
class SearchContext:
    """Everything the per-subgame solves need from the blueprint."""

    brvs: BrvTable
    response: RealizationPlan         # the follower's best response
    quantities: list[SubgameQuantities]
    bounds: dict[int, BoundsMap]
    trace: BoundsTrace


def prepare_search(game: GameTree, blueprint: RealizationPlan,
                   partition: SubgamePartition, alpha: float = 0.5,
                   beta: float = 1.0, *,
                   brvs: Optional[BrvTable] = None) -> SearchContext:
    """Best-response values, response and trunk, subgame quantities, bounds.

    `brvs`, when given, must be compute_brvs(game, blueprint); it is used
    as is."""
    if brvs is None:
        brvs = compute_brvs(game, blueprint)
    response, _, _ = best_response(game, blueprint, brvs)
    trunk = compute_trunk(game, response)
    quantities = compute_subgame_quantities(game, partition, blueprint,
                                            response)
    bounds, trace = compute_bounds(game, brvs, trunk, partition, alpha, beta)
    return SearchContext(brvs, response, quantities, bounds, trace)


# ---------------------------------------------------------------------------
# MILP assembly

# Leaves with no in-subgame decision variable for a player take the constant
# 1 in its place; this sentinel marks that case.
_CONST_ONE = -1


def _local_seq(tp, node_id: int, inside: set[int]) -> int:
    """Deepest in-subgame sequence on the path to node_id.

    A subgame holds every descendant of its nodes and no infoset straddles
    it, so the player's last action on the path is inside it, or none is.
    """
    seq = int(tp.node_seq[node_id])
    return seq if tp.sequences[seq].parent_infoset in inside else _CONST_ONE


@dataclass
class SubgameModel:
    """A constrained-refinement MILP plus the maps to read its solution."""

    problem: MilpProblem
    subgame: Subgame
    r1_vars: dict[int, int]          # leader global seq id -> LP var
    r2_vars: dict[int, int]          # follower global seq id -> LP var
    v_vars: dict[int, int]           # follower infoset -> LP var
    p_vars: dict[int, int]           # terminal node -> LP var
    leaf_seq1: dict[int, int]        # terminal -> local leader seq or _CONST_ONE
    leaf_seq2: dict[int, int]        # terminal -> local follower seq or _CONST_ONE
    warm: np.ndarray


def build_constrained_milp(game: GameTree, sub: Subgame,
                           quantities: SubgameQuantities,
                           bounds: BoundsMap,
                           brvs: BrvTable) -> SubgameModel:
    """The bounded refinement program over one subgame's local sequences.

    Maximizes the leader's full-game payoff contribution of the subgame
    subject to: sequence-form flow for both players (a head's entry is the
    constant 1), value rows v_I >= sum(child v) + sum(g2 * r1) per action
    of I, each head's bound as a bound on its v_I column, joint-reach rows
    that couple the two players' flows (Bosansky & Cermak, AAAI 2015), and
    realized-value rows (after Cermak et al., AAAI 2016):

    - each inner node h has a reach x(h) in [0, 1], fixed to 1 at the
      initial states; a leaf's reach is its p(z);
    - a chance node's children have its reach;
    - a player node's children's reaches sum to its own, and each child c
      is capped by the acting player's sequence to c (always local: the
      acting infoset lies inside the subgame);
    - each leaf has the McCormick row p(z) >= r1 + r2 - 1 over its local
      sequences, a side with none being the constant 1;
    - each follower head I has sum(ctilde * u2 * p(z)) >= v_I over the
      leaves below I.

    There is no big-M.  The caps p(z) <= r1 and p(z) <= r2 follow from the
    chain p(z) <= x(c) <= r_i(seq).  At any integer r2 the McCormick row
    and the caps force p(z) = r1 * r2 on every leaf, so the realized row's
    left side is the follower's value of its chosen pure plan below I.  The
    value rows give v_I >= BR(I), and a chosen plan never beats BR(I), so
    all three are equal.  Then x(h) = r1(h) * r2(h) meets every reach row,
    so the integer feasible set and the optimum are unchanged; only the
    relaxation tightens.
    """
    tp1 = game.treeplex(LEADER)
    tp2 = game.treeplex(FOLLOWER)
    lp = LinearProgram()

    inside1 = set(sub.infosets[LEADER])
    inside2 = set(sub.infosets[FOLLOWER])

    # Local action sequences and flow rows of both players: a head's entry
    # is the constant 1, any other infoset's an inside action.
    seq_vars: dict[int, dict[int, int]] = {LEADER: {}, FOLLOWER: {}}
    for player, tag in ((LEADER, "r1"), (FOLLOWER, "r2")):
        tp, own = game.treeplex(player), seq_vars[player]
        for infoset in sub.infosets[player]:
            for seq in tp.actions_of(infoset):
                own[seq] = lp.add_var(f"{tag}[{tp.seq_label(seq)}]", 0.0, 1.0)
        for infoset in sub.infosets[player]:
            coeffs = {own[seq]: -1.0 for seq in tp.actions_of(infoset)}
            if infoset in sub.heads[player]:
                lp.add_constraint(coeffs, "==", -1.0,
                                  name=f"{tag}-head-{infoset}")
            else:
                coeffs[own[tp.entry_seq[infoset]]] = 1.0
                lp.add_constraint(coeffs, "==", 0.0,
                                  name=f"{tag}-flow-{infoset}")
    r1_vars, r2_vars = seq_vars[LEADER], seq_vars[FOLLOWER]

    # Follower values on the ctilde scale; a head's bound bounds its column.
    outside = bounds.bounds.keys() - set(sub.infosets[FOLLOWER])
    if outside:
        raise GameError(f"bound for infoset {min(outside)} outside subgame")
    v_vars: dict[int, int] = {}
    for infoset in sub.infosets[FOLLOWER]:
        direction, value = bounds.bounds.get(infoset, (LOWER, -np.inf))
        low, up = (value, np.inf) if direction == LOWER else (-np.inf, value)
        v_vars[infoset] = lp.add_var(f"v[I{infoset}]", low, up)

    leaf_seq1 = {z: _local_seq(tp1, z, inside1) for z in sub.terminals}
    leaf_seq2 = {z: _local_seq(tp2, z, inside2) for z in sub.terminals}

    # Group the g2 terms of each local follower sequence.
    g2_terms: dict[int, list[tuple[int, float]]] = {}
    for z in sub.terminals:
        s2 = leaf_seq2[z]
        if s2 == _CONST_ONE:
            # No follower infoset inside on the path: no row reads its g2.
            continue
        weight = quantities.ctilde[z] * game.node(z).payoffs[1]
        if weight != 0.0:
            g2_terms.setdefault(s2, []).append((z, weight))

    for infoset in sub.infosets[FOLLOWER]:
        for seq in tp2.actions_of(infoset):
            # v_I - sum(child v) - sum(g2 * r1) >= const
            coeffs = {v_vars[infoset]: 1.0}
            const = 0.0
            for child in tp2.children_infosets.get(seq, ()):
                if child in v_vars:
                    coeffs[v_vars[child]] = coeffs.get(v_vars[child], 0.0) - 1.0
            for z, weight in g2_terms.get(seq, ()):
                s1 = leaf_seq1[z]
                if s1 == _CONST_ONE:
                    const += weight
                else:
                    var = r1_vars[s1]
                    coeffs[var] = coeffs.get(var, 0.0) - weight
            lp.add_constraint(coeffs, ">=", const,
                              name=f"value-{tp2.seq_label(seq)}")

    # Leaf probabilities and the objective.
    p_vars = {z: lp.add_var(f"p[z{z}]", 0.0, 1.0,
                            objective=quantities.cj[z] * game.node(z).payoffs[0])
              for z in sub.terminals}

    # Realized follower value per head: sum(g2 * p) below it covers v_I.
    head_of = sub.head_of[FOLLOWER]
    realized = {head: {v_vars[head]: -1.0} for head in sub.heads[FOLLOWER]}
    for s2, terms in g2_terms.items():
        realized[head_of[tp2.sequences[s2].parent_infoset]].update(
            (p_vars[z], weight) for z, weight in terms)
    for head, coeffs in realized.items():
        lp.add_constraint(coeffs, ">=", 0.0, name=f"realized-I{head}")

    # Joint reach: x(h) per inner node, 1 at the initial states; a leaf's
    # reach is its p(z).  Sorted node ids give mirrored subgames the same
    # columns and rows in the same order (solver.fingerprint).
    reach = dict(p_vars)
    for h in sorted(sub.nodes):
        if h not in reach:
            low = 1.0 if h in sub.initial else 0.0
            reach[h] = lp.add_var(f"x[h{h}]", low, 1.0)
    for h in sorted(sub.nodes):
        node = game.node(h)
        if node.kind == "chance":
            for c in node.children:
                lp.add_constraint({reach[c]: 1.0, reach[h]: -1.0}, "==", 0.0,
                                  name=f"reach-eq-h{c}")
        elif node.kind == "player":
            tp, own = game.treeplex(node.player), seq_vars[node.player]
            coeffs = {reach[h]: -1.0}
            for c in node.children:
                coeffs[reach[c]] = 1.0
                lp.add_constraint(
                    {reach[c]: 1.0, own[int(tp.node_seq[c])]: -1.0},
                    "<=", 0.0, name=f"reach-cap-h{c}")
            lp.add_constraint(coeffs, "==", 0.0, name=f"reach-sum-h{h}")
    for z in sub.terminals:
        # McCormick: p(z) >= r1 + r2 - 1, a constant-one side moved right.
        coeffs, rhs = {p_vars[z]: 1.0}, -1.0
        for s, own in ((leaf_seq1[z], r1_vars), (leaf_seq2[z], r2_vars)):
            if s == _CONST_ONE:
                rhs += 1.0
            else:
                coeffs[own[s]] = -1.0
        lp.add_constraint(coeffs, ">=", rhs, name=f"reach-lo-z{z}")

    problem = MilpProblem(lp, tuple(sorted(r2_vars.values())))

    # Warm start: the blueprint response's binary pattern (best-response
    # action below every inside infoset it reaches, zeros elsewhere).
    warm = np.zeros(lp.n_vars)
    reached = {tp2.entry_seq[i] for i in sub.heads[FOLLOWER]}
    for infoset in head_of:  # parents first
        if tp2.entry_seq[infoset] in reached:
            chosen = brvs.best_action[infoset]
            warm[r2_vars[chosen]] = 1.0
            reached.add(chosen)
    return SubgameModel(problem=problem, subgame=sub, r1_vars=r1_vars,
                        r2_vars=r2_vars, v_vars=v_vars, p_vars=p_vars,
                        leaf_seq1=leaf_seq1, leaf_seq2=leaf_seq2, warm=warm)


def build_full_milp(game: GameTree,
                    r1_warm: Optional[RealizationPlan] = None) -> SubgameModel:
    """The unconstrained commitment program over the whole game: the model
    of the whole-game partition's one subgame.  Its follower heads are the
    root infosets, on the trunk with infinite slack above them, so every
    head bound is a vacuous -inf lower bound.  The optional plan (uniform
    when none is given) only seeds the warm start: no sequence precedes
    the root, so the quantities are chance reach whatever the plan."""
    partition = partition_subgames(game, "whole-game")
    r1 = r1_warm if r1_warm is not None else uniform_plan(game, LEADER)
    context = prepare_search(game, r1, partition)
    return build_constrained_milp(game, partition.subgames[0],
                                  context.quantities[0], context.bounds[0],
                                  context.brvs)


# ---------------------------------------------------------------------------
# Subgame solving


SKIPPED_UNREACHABLE = "SkippedUnreachable"
WARM_START_FAILED = "WarmStartFailed"


@dataclass(kw_only=True)
class SubgameSolution(MilpSolution):
    """A subgame's solve (objective: its leader full-game contribution;
    wall_time: every attempt) plus its own facts.  A subgame with no
    assignment (skipped, or no usable incumbent) keeps the blueprint."""

    index: int
    local_plan: dict[int, float]      # leader seq id -> head-normalized prob
    # Size of this subgame's own model; 0 when no model was built.
    n_vars: int = 0
    n_rows: int = 0
    n_binaries: int = 0
    twin_of: Optional[int] = None     # subgame whose solution was reused

    @property
    def used_fallback(self) -> bool:
        return self.assignment is None


def _model_sizes(model: SubgameModel) -> dict[str, int]:
    """The model's variable, row and binary counts, as SubgameSolution
    fields."""
    lp = model.problem.lp
    return {"n_vars": lp.n_vars, "n_rows": len(lp.rhs),
            "n_binaries": len(model.problem.binaries)}


def blueprint_local_plan(game: GameTree, sub: Subgame,
                         r1_bp: RealizationPlan) -> dict[int, float]:
    """The blueprint itself, renormalized to 1 at each leader head."""
    tp1 = game.treeplex(LEADER)
    order = sub.head_of[LEADER]
    local = {seq: float(r1_bp.probs[seq])
             for infoset in order for seq in tp1.actions_of(infoset)}
    renormalize_flow(tp1, local, order, sub.heads[LEADER])
    return local


def keep_blueprint(game: GameTree, sub: Subgame, r1_bp: RealizationPlan,
                   solution: MilpSolution, **sizes: int) -> SubgameSolution:
    """The record of a skipped subgame, or of a solve with no assignment:
    solution's figures, the blueprint as local plan, and sizes (the
    model's, if one was built)."""
    return SubgameSolution(**vars(solution), index=sub.index,
                           local_plan=blueprint_local_plan(game, sub, r1_bp),
                           **sizes)


def solve_subgame(game: GameTree, model: SubgameModel,
                  r1_bp: RealizationPlan,
                  time_limit: Optional[float] = None) -> SubgameSolution:
    """Solve one subgame model; fall back to the blueprint on failure.

    A warm solve that raises is retried cold (WARM_START_FAILED if that
    raises too), and wall_time counts both.  With no incumbent the record
    keeps the blueprint (keep_blueprint), so search can never do worse than
    not searching.  An incumbent that violates a row or bound of its model
    (a head bound, say) beyond tolerance, or whose objective is not the
    payoff of the strategy it encodes, is a solver defect and raises.
    """
    sub = model.subgame
    sizes = _model_sizes(model)
    started = time.perf_counter()
    try:
        solution = solve_milp(model.problem, warm=model.warm,
                              time_limit=time_limit)
    except SolverError:
        # Degenerate numerics in the warm pattern; retry cold.
        try:
            solution = solve_milp(model.problem, time_limit=time_limit)
        except SolverError:
            solution = MilpSolution(WARM_START_FAILED, float("nan"), None,
                                    float("inf"), 0.0)
        solution.wall_time = time.perf_counter() - started
    if solution.assignment is None:
        return keep_blueprint(game, sub, r1_bp, solution, **sizes)
    local, defect = _read_incumbent(game, model, solution)
    if defect is not None:
        raise SolverError(f"subgame {sub.index}: {defect} (solver bug)")
    return SubgameSolution(**vars(solution), index=sub.index,
                           local_plan=local, **sizes)


def reuse_solution(game: GameTree, model: SubgameModel,
                   twin: SubgameSolution) -> Optional[SubgameSolution]:
    """A twin subgame's incumbent as this model's solution, if it passes
    this model's own checks; None otherwise.

    The twin must have an assignment (a fallback has none) that passes the
    checks solve_subgame applies to a fresh incumbent: every row, column
    bound and binary of this model (solver.satisfies), then the payoff
    recompute.  The record is the twin's, with this subgame's facts and
    objective; the gap is what separates that from the twin's bound,
    objective + gap.
    """
    started = time.perf_counter()
    if twin.assignment is None:
        return None
    objective = float(np.dot(model.problem.lp.objective, twin.assignment))
    solution = replace(
        twin, objective=objective,
        bound_gap=max(0.0, twin.objective + twin.bound_gap - objective),
        index=model.subgame.index, twin_of=twin.index, **_model_sizes(model))
    solution.local_plan, defect = _read_incumbent(game, model, solution)
    if defect is not None:
        return None
    solution.wall_time = time.perf_counter() - started
    return solution


def _read_incumbent(game: GameTree, model: SubgameModel,
                    solution: MilpSolution,
                    ) -> tuple[dict[int, float], Optional[str]]:
    """The head-normalized local leader plan an incumbent encodes, and
    what is wrong with the incumbent (None when it meets every row, column
    bound and binary of its model, head bounds included, and its objective
    is the payoff of the strategy it encodes)."""
    sub = model.subgame
    if not satisfies(model.problem, solution.assignment):
        return {}, "incumbent violates a row, bound or binary of its model"
    local = {}
    for seq, var in model.r1_vars.items():
        local[seq] = float(np.clip(solution.assignment[var], 0.0, 1.0))
    # Scrub solver round-off so local flow is exact, heads at 1.
    renormalize_flow(game.treeplex(LEADER), local, sub.head_of[LEADER],
                     sub.heads[LEADER])
    recomputed = _incumbent_payoff(model, solution, local)
    if abs(recomputed - solution.objective) > 1e-6:
        return local, (f"incumbent objective {solution.objective!r} "
                       f"disagrees with the payoff {recomputed!r} of the "
                       f"strategy it encodes")
    return local, None


def _incumbent_payoff(model: SubgameModel, solution: MilpSolution,
                      local: dict[int, float]) -> float:
    """The leader payoff encoded by an incumbent, recomputed from scratch.

    Walks the subgame terminals and multiplies each one's objective weight by
    the scrubbed local leader realization and the incumbent's binary follower
    realization, bypassing the solver's own objective bookkeeping.
    """
    objective = model.problem.lp.objective
    total = 0.0
    for z, p_var in model.p_vars.items():
        weight = objective[p_var]
        if weight == 0.0:
            continue
        s1 = model.leaf_seq1[z]
        f1 = 1.0 if s1 == _CONST_ONE else local[s1]
        s2 = model.leaf_seq2[z]
        f2 = 1.0 if s2 == _CONST_ONE \
            else float(solution.assignment[model.r2_vars[s2]] > 0.5)
        total += weight * f1 * f2
    return total
