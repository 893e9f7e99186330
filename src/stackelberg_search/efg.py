"""Two-player extensive-form games with chance, and their sequence form.

The game tree is a flat list of nodes (chance / player / terminal) with
information sets over player nodes.  Player 0 is the leader (the committing
player), player 1 the follower.  Perfect recall is required and checked.

The sequence form of a player is a *treeplex*: a tree alternating sequences
(ordered lists of the player's own actions) and information sets, rooted at
the empty sequence.  Mixed strategies live on it as realization plans
``r(sigma)`` with ``r(empty) = 1`` and, at every infoset ``I`` with entry
sequence ``sigma``, ``r(sigma) = sum_a r(sigma a)``.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

LEADER = 0
FOLLOWER = 1
CHANCE = -1

PLAYER_NAMES = {LEADER: "leader", FOLLOWER: "follower", CHANCE: "chance"}

# Flow-constraint / probability tolerance.  Solver-facing comparisons use a
# looser 1e-6; see solver.py.
FLOW_TOL = 1e-9
CHANCE_TOL = 1e-12


@contextmanager
def _collector_paused():
    """Hold off CPython's cyclic garbage collector while a game is built.

    A build makes a few hundred thousand acyclic records (named tuples of
    ints, strings and tuples), which the collector would otherwise rescan
    many times over while they are made.  Reference counting still frees
    everything; only the cycle scans stop.  On exit the collector is
    re-enabled only if it was enabled on entry, so a caller that disabled
    it keeps it disabled.  Used as a decorator, it pauses for each call.

    The switch is process-wide.  A thread that starts a build while
    another thread's build holds the collector off finds it disabled and
    leaves it so; the collector comes back when the build that paused it
    ends, even if the other build is still running.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class GameError(ValueError):
    """Raised for structurally invalid games or mismatched plans."""


class GameNode(NamedTuple):
    """One node of the game tree.

    kind: "chance", "player" or "terminal".
    player: LEADER or FOLLOWER for player nodes (CHANCE for chance nodes).
    infoset: game-level infoset id for player nodes, else None.
    chance_probs: outcome probabilities for chance nodes, else ().
    payoffs: (leader utility, follower utility) for terminals, else (0, 0).
    """

    id: int
    kind: str
    parent: Optional[int] = None
    player: int = CHANCE
    infoset: Optional[int] = None
    actions: tuple[str, ...] = ()
    children: tuple[int, ...] = ()
    chance_probs: tuple[float, ...] = ()
    payoffs: tuple[float, float] = (0.0, 0.0)

    @property
    def is_terminal(self) -> bool:
        return self.kind == "terminal"


class InfoSet(NamedTuple):
    """An information set: the acting player cannot tell its members apart."""

    id: int
    player: int
    actions: tuple[str, ...]
    members: tuple[int, ...]


@dataclass
class GameTree:
    """Immutable-after-construction game tree plus cached sequence form."""

    nodes: list[GameNode]
    infosets: list[InfoSet]
    root: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._treeplexes: dict[int, "Treeplex"] = {}
        self._leaf_arrays = None
        self._valid = False  # set by require_valid once validation passes
        # Sequence numbering per player, left by validate_game for
        # build_treeplex.
        self._numbering: dict[int, tuple] = {}

    # -- basic accessors -------------------------------------------------

    def node(self, node_id: int) -> GameNode:
        return self.nodes[node_id]

    def infoset(self, infoset_id: int) -> InfoSet:
        return self.infosets[infoset_id]

    def terminals(self) -> Iterator[GameNode]:
        return (n for n in self.nodes if n.is_terminal)

    def player_infosets(self, player: int) -> list[InfoSet]:
        return [i for i in self.infosets if i.player == player]

    def chance_reach(self) -> np.ndarray:
        """Chance probability of every node's path (1 where no chance acts)."""
        reach = np.ones(len(self.nodes))
        for node in self.nodes:
            if node.kind == "chance":
                for child, prob in zip(node.children, node.chance_probs):
                    reach[child] = reach[node.id] * prob
            else:
                for child in node.children:
                    reach[child] = reach[node.id]
        return reach

    def treeplex(self, player: int) -> "Treeplex":
        if player not in self._treeplexes:
            with _collector_paused():
                self._treeplexes[player] = build_treeplex(self, player)
        return self._treeplexes[player]

    def leaf_arrays(self):
        """(leaf ids, leader seq, follower seq, chance reach, u1, u2) arrays."""
        if self._leaf_arrays is None:
            tp1, tp2 = self.treeplex(LEADER), self.treeplex(FOLLOWER)
            reach = self.chance_reach()
            leaves = [n for n in self.nodes if n.is_terminal]
            ids = np.array([n.id for n in leaves], dtype=np.int64)
            self._leaf_arrays = (
                ids,
                tp1.node_seq[ids],
                tp2.node_seq[ids],
                reach[ids],
                np.array([n.payoffs[0] for n in leaves]),
                np.array([n.payoffs[1] for n in leaves]),
            )
        return self._leaf_arrays


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def validate_game(game: GameTree) -> ValidationReport:
    """Structural checks: links, chance normalization, finite numbers,
    infosets, perfect recall.

    Returns a report listing every violation (with node ids) rather than
    raising; downstream operations refuse games whose report is not ok.
    Perfect recall is read off the walk that numbers both players'
    sequences (_number_sequences); a game that passes keeps that numbering
    for build_treeplex.
    """
    report = ValidationReport()
    nodes = game.nodes
    n = len(nodes)
    n_infosets = len(game.infosets)
    isfinite = math.isfinite
    for position, node in enumerate(nodes):
        nid, kind, _, player, infoset, actions, children, probs, payoffs = node
        if nid != position and (nid < 0 or nid >= n or nodes[nid] is not node):
            report.add(f"node {nid}: id does not match position")
            continue
        if kind == "terminal":
            if actions or children:
                report.add(f"node {nid}: terminal with actions/children")
            if not all(map(isfinite, payoffs)):
                report.add(f"node {nid}: non-finite payoff")
            continue
        if len(actions) != len(children) or not actions:
            report.add(f"node {nid}: actions/children mismatch")
        for child in children:
            if child < 0 or child >= n:
                report.add(f"node {nid}: child {child} out of range")
            elif nodes[child].parent != nid:
                report.add(f"node {nid}: child {child} parent link broken")
        if kind == "chance":
            if len(probs) != len(actions):
                report.add(f"node {nid}: chance probs/actions mismatch")
            elif abs(sum(probs) - 1.0) > CHANCE_TOL:
                report.add(f"node {nid}: chance normalization "
                           f"(sum = {sum(probs)!r})")
            if any(p < 0 for p in probs):
                report.add(f"node {nid}: negative chance probability")
            if not all(map(isfinite, probs)):
                report.add(f"node {nid}: non-finite chance probability")
        elif kind == "player":
            if player not in (LEADER, FOLLOWER):
                report.add(f"node {nid}: bad player {player}")
            if infoset is None or not (0 <= infoset < n_infosets):
                report.add(f"node {nid}: missing/bad infoset id")
        else:
            report.add(f"node {nid}: unknown kind {kind!r}")

    # Tree-ness: every non-root node reachable exactly once from its parent.
    order, twice = _preorder(game)
    if twice is not None:
        report.add(f"node {twice}: reached twice (not a tree)")
    if len(order) < n:
        seen = set(order)
        for node in nodes:
            if node.id not in seen:
                report.add(f"node {node.id}: unreachable from root")

    # Infoset consistency.
    for iid, owner, actions, members in game.infosets:
        for member in members:
            if member >= n:
                report.add(f"infoset {iid}: member {member} out of range")
                continue
            node = nodes[member]
            if node.kind != "player" or node.infoset != iid:
                report.add(f"infoset {iid}: node {member} not a member back-ref")
            elif node.player != owner:
                report.add(f"infoset {iid}: node {member} owned by other player")
            elif node.actions != actions:
                report.add(f"infoset {iid}: node {member} action list differs")

    if report.ok:
        hist, blocks = _number_sequences(game, order)
        # Perfect recall: an infoset's members share the owner's own history.
        for iid, owner, _, members in game.infosets:
            if len(members) > 1:
                own = hist[owner]
                first = own[members[0]]
                for member in members:
                    if own[member] != first:
                        report.add(
                            f"infoset {iid}: perfect recall violated, members "
                            f"{sorted(members)} reached by different "
                            f"own-histories")
                        break
        if report.ok:
            game._numbering = {LEADER: (hist[LEADER], blocks[LEADER]),
                               FOLLOWER: (hist[FOLLOWER], blocks[FOLLOWER])}
    return report


def _preorder(game: GameTree) -> tuple[list[int], Optional[int]]:
    """Node ids in depth-first preorder from the root, children in their
    listed order, up to the first node reached twice (returned second; None
    in a tree).  Child ids outside 0..n-1 are skipped."""
    nodes = game.nodes
    n = len(nodes)
    seen = bytearray(n)
    order: list[int] = []
    stack = [game.root]
    while stack:
        nid = stack.pop()
        if not 0 <= nid < n:
            continue
        if seen[nid]:
            return order, nid
        seen[nid] = 1
        order.append(nid)
        stack.extend(reversed(nodes[nid].children))
    return order, None


def _number_sequences(game: GameTree, order: list[int]):
    """Both players' own-history ids per node, and their sequence blocks.

    hist[p][h] stands for player p's own history on entering node h: the
    (infoset, action index) pairs of p's nodes above h.  Walking the nodes
    in preorder, the first visit of a (history, infoset) pair opens a block
    of consecutive ids, one per action, and the children of p's node get the
    ids of their actions.  So two nodes share an id exactly when their own
    histories are equal.  Under perfect recall each infoset opens one block,
    the blocks open in DFS order and the ids are the sequence ids; blocks[p]
    maps (entry id, infoset) to the block's first id, in opening order.
    """
    nodes = game.nodes
    hist = ([0] * len(nodes), [0] * len(nodes))
    blocks: tuple[dict, dict] = ({}, {})
    size = [1, 1]
    for h in order:
        node = nodes[h]
        if node.kind == "player":
            player = node.player
            own, other = hist[player], hist[1 - player]
            key = (own[h], node.infoset)
            first = blocks[player].get(key)
            if first is None:
                first = blocks[player][key] = size[player]
                size[player] += len(node.children)
            theirs = other[h]
            for child in node.children:
                own[child] = first
                other[child] = theirs
                first += 1
        else:
            h0, h1 = hist[0][h], hist[1][h]
            for child in node.children:
                hist[0][child] = h0
                hist[1][child] = h1
    return hist, blocks


def require_valid(game: GameTree) -> None:
    """Raise unless the game validates; a game that passed is not rechecked."""
    if game._valid:
        return
    report = validate_game(game)
    if not report.ok:
        raise GameError("invalid game: " + "; ".join(report.violations[:5]))
    game._valid = True


# ---------------------------------------------------------------------------
# Treeplex / sequence form


class Sequence(NamedTuple):
    """One sequence of a player: parent sequence extended by one action.

    id 0 is always the empty sequence (parent_infoset None, action None).
    """

    id: int
    owner: int
    parent_infoset: Optional[int]
    action_index: Optional[int]
    parent_seq: Optional[int]
    label: str = ""


@dataclass
class Treeplex:
    """Sequence-form structure of one player.

    node_seq[h] is the id of the player's sequence *on entering* node h (the
    actions taken at the player's own infosets strictly above h).

    infoset_ids lists the infosets in DFS discovery order, which is top-down:
    every infoset comes after the infoset whose action leads to it.  Walks
    that need parents before children iterate it directly, and reversed it
    puts children first.
    """

    owner: int
    sequences: list[Sequence]
    infoset_ids: list[int]                      # this player's infosets, top-down
    entry_seq: dict[int, int]                   # infoset id -> seq id of seq(I)
    infoset_actions: dict[int, tuple[int, ...]]  # infoset id -> seq ids of its actions
    children_infosets: dict[int, tuple[int, ...]]  # seq id -> infosets I with seq(I)=sigma
    node_seq: np.ndarray                        # per game node

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    def seq_label(self, seq_id: int) -> str:
        return self.sequences[seq_id].label or "()"

    def actions_of(self, infoset_id: int) -> tuple[int, ...]:
        """Sequence ids extending this infoset's entry sequence, by action index."""
        return self.infoset_actions[infoset_id]

    @cached_property
    def flow_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Entry seq per infoset, and the infoset's index per seq 1..n-1."""
        ids = self.infoset_ids
        entry = np.array([self.entry_seq[i] for i in ids], dtype=np.int64)
        sizes = [len(self.infoset_actions[i]) for i in ids]
        return entry, np.repeat(np.arange(len(ids)), sizes)


def build_treeplex(game: GameTree, player: int) -> Treeplex:
    """The player's sequences and infoset structure, numbered in DFS order.

    The numbering is validate_game's (_number_sequences); this turns it into
    sequence records with labels and the per-infoset and per-sequence maps.
    """
    if player not in (LEADER, FOLLOWER):
        raise GameError(f"treeplex is only defined for players, got {player}")
    require_valid(game)
    numbering = game._numbering.pop(player, None)
    if numbering is None:  # this player's treeplex was built before
        hist, blocks = _number_sequences(game, _preorder(game)[0])
        numbering = hist[player], blocks[player]
    hist, blocks = numbering

    sequences = [Sequence(0, player, None, None, None, "")]
    entry_seq: dict[int, int] = {}
    infoset_actions: dict[int, tuple[int, ...]] = {}
    for (entry, infoset), first in blocks.items():
        parent_label = sequences[entry].label
        prefix = parent_label + "/" if parent_label else ""
        actions = game.infosets[infoset].actions
        for idx, action in enumerate(actions):
            sequences.append(Sequence(first + idx, player, infoset, idx,
                                      entry, prefix + action))
        entry_seq[infoset] = entry
        infoset_actions[infoset] = tuple(range(first, first + len(actions)))
    children_infosets = dict.fromkeys(range(len(sequences)), ())
    for entry, infoset in blocks:
        children_infosets[entry] += (infoset,)

    return Treeplex(
        owner=player,
        sequences=sequences,
        infoset_ids=list(entry_seq),
        entry_seq=entry_seq,
        infoset_actions=infoset_actions,
        children_infosets=children_infosets,
        node_seq=np.array(hist, dtype=np.int64),
    )


def payoff_tables(game: GameTree, u1: Optional[np.ndarray] = None,
                  ) -> dict[tuple[int, int], np.ndarray]:
    """The sparse g tables: (leader seq, follower seq) -> chance-weighted payoffs.

    g_i(s1, s2) = sum over terminals z with seq pair (s1, s2) of u_i(z) * C(z),
    added in leaf order; pairs appear in the order of their first leaf.  u1,
    an array over node ids, replaces the leader's payoffs (a surrogate game).
    """
    ids, s1, s2, reach, leaf_u1, u2 = game.leaf_arrays()
    if u1 is not None:
        leaf_u1 = np.asarray(u1, dtype=float)[ids]
    table: dict[tuple[int, int], np.ndarray] = {}
    for key, g in zip(zip(s1.tolist(), s2.tolist()),
                      np.column_stack((leaf_u1 * reach, u2 * reach))):
        entry = table.get(key)
        if entry is None:
            table[key] = g
        else:
            entry += g
    return table


# ---------------------------------------------------------------------------
# Symmetry


class Automorphism(NamedTuple):
    """A map of a game onto itself, as int arrays over ids: node[h] is the
    image of node h, leader_seq[s] and follower_seq[s] of each player's
    sequence s, and infoset[i] of information set i."""

    node: np.ndarray
    leader_seq: np.ndarray
    follower_seq: np.ndarray
    infoset: np.ndarray


def automorphisms(game: GameTree, relabels: Iterable[dict[str, str]],
                  u1: Optional[np.ndarray] = None) -> list[Automorphism]:
    """The maps of relabellings of action and chance-outcome labels.

    Each relabelling permutes labels; a label it leaves out maps to itself.
    Its node map sends the root to itself and the child of h by label a to
    the child of h's image by label relabel(a), one tree level at a time.
    Raises GameError unless each map is an automorphism: one-to-one on the
    nodes, keeping each node's player (CHANCE at chance nodes and leaves),
    each leaf's chance reach, both players' payoffs and u1 (surrogate leader
    payoffs over node ids, if given), and mapping every information set onto
    one information set, so every sequence of either player onto one.
    """
    tp1, tp2 = game.treeplex(LEADER), game.treeplex(FOLLOWER)  # validates
    nodes = game.nodes
    n = len(nodes)
    # One entry per edge h -> child, grouped by h in id order, with a code
    # per label.
    children = list(map(attrgetter("children"), nodes))
    fan = np.fromiter(map(len, children), np.int64, n)
    head = np.repeat(np.arange(n), fan)
    m = len(head)
    child = np.fromiter(chain.from_iterable(children), np.int64, m)
    labels = list(chain.from_iterable(map(attrgetter("actions"), nodes)))
    codes = {a: k for k, a in enumerate(dict.fromkeys(labels))}
    label = np.fromiter(map(codes.__getitem__, labels), np.int64, m)
    # The edges top-down, by the depth of their child.
    parent = np.full(n, game.root)
    parent[child] = head
    depth, up = np.zeros(n, np.int64), parent
    while np.any(up != game.root):
        depth += up != game.root
        up = parent[up]
    top_down = np.argsort(depth[child], kind="stable")
    levels = np.split(top_down,
                      np.flatnonzero(np.diff(depth[child][top_down])) + 1)
    # (head, label) of each edge as one sorted key.
    by_key = np.argsort(head * len(codes) + label)
    key = (head * len(codes) + label)[by_key]

    # What a map must keep at each leaf: chance reach and payoffs.
    ids, _, _, reach, leaf_u1, leaf_u2 = game.leaf_arrays()
    columns = [reach, leaf_u1, leaf_u2]
    if u1 is not None:
        columns.append(np.asarray(u1, dtype=float)[ids])
    at_leaf = np.full((n, len(columns)), np.nan)  # nan off the leaves
    at_leaf[ids] = np.column_stack(columns)
    members = list(map(attrgetter("members"), game.infosets))
    infoset_of = np.full(n, -1, dtype=np.int64)
    infoset_of[np.fromiter(chain.from_iterable(members), np.int64)] = \
        np.repeat(np.arange(len(members)), list(map(len, members)))
    player = np.fromiter(map(attrgetter("player"), nodes), np.int64, n)

    maps = []
    for relabel in relabels:
        if sorted(relabel) != sorted(relabel.values()):
            raise GameError("relabelling is not a permutation of its labels")
        target = np.array([codes.get(relabel.get(a, a), -1) for a in codes])
        node_map = np.full(n, -1, dtype=np.int64)
        node_map[game.root] = game.root
        for edges in levels:
            want = node_map[head[edges]] * len(codes) + target[label[edges]]
            at = np.minimum(np.searchsorted(key, want), m - 1)
            bad = np.flatnonzero((key[at] != want)
                                 | (target[label[edges]] < 0))
            if bad.size:
                h = head[edges[bad[0]]]
                raise GameError(f"relabelling maps node {h}'s actions to "
                                f"none of node {node_map[h]}'s")
            node_map[child[edges]] = child[by_key[at]]
        if not _is_permutation(node_map) or np.any(player[node_map] != player):
            raise GameError("relabelling does not map the nodes one-to-one "
                            "onto nodes of the same player")
        bad = np.flatnonzero(np.any(at_leaf[node_map[ids]] != at_leaf[ids],
                                    axis=1))
        if bad.size:
            raise GameError(f"relabelling changes the chance reach or the "
                            f"payoffs of terminal {ids[bad[0]]}")
        infoset_map = _induced_map(infoset_of, node_map, len(game.infosets))
        leader_seq, follower_seq = (_induced_map(tp.node_seq, node_map,
                                                 tp.n_sequences)
                                    for tp in (tp1, tp2))
        if infoset_map is None or leader_seq is None or follower_seq is None:
            raise GameError("relabelling splits an information set")
        maps.append(Automorphism(node_map, leader_seq, follower_seq,
                                 infoset_map))
    return maps


def _is_permutation(ids: np.ndarray) -> bool:
    return bool(np.all(ids >= 0)) and bool(
        np.all(np.bincount(ids, minlength=len(ids)) == 1))


def _induced_map(key: np.ndarray, node_map: np.ndarray,
                 size: int) -> Optional[np.ndarray]:
    """The permutation m of 0..size-1 with m[key[h]] = key[node_map[h]] at
    every node h with key[h] >= 0, or None if there is none."""
    at = np.flatnonzero(key >= 0)
    mapped = np.full(size, -1, dtype=np.int64)
    mapped[key[at]] = key[node_map[at]]
    if np.array_equal(mapped[key[at]], key[node_map[at]]) \
            and _is_permutation(mapped):
        return mapped
    return None


# ---------------------------------------------------------------------------
# Strategies


@dataclass
class RealizationPlan:
    """A mixed strategy in sequence form: probs indexed by sequence id."""

    owner: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)

    def check_flow(self, treeplex: Treeplex, tol: float = FLOW_TOL) -> None:
        if self.owner != treeplex.owner:
            raise GameError("plan owner does not match treeplex owner")
        if len(self.probs) != treeplex.n_sequences:
            raise GameError(
                f"plan has {len(self.probs)} sequences, game expects "
                f"{treeplex.n_sequences}: plan belongs to a different game"
            )
        if not np.all(np.isfinite(self.probs)):
            raise GameError("non-finite sequence probability")
        if abs(self.probs[0] - 1.0) > tol:
            raise GameError(f"empty sequence has probability {self.probs[0]!r}")
        if np.any(self.probs < -tol):
            raise GameError("negative sequence probability")
        # bincount sums each action block left to right, starting from 0.0.
        entry, block = treeplex.flow_blocks
        total = np.bincount(block, self.probs[1:], minlength=len(entry))
        bad = np.flatnonzero(np.abs(self.probs[entry] - total) > tol)
        if bad.size:
            k = bad[0]
            raise GameError(f"flow violated at infoset {treeplex.infoset_ids[k]}: "
                            f"{self.probs[entry[k]]!r} vs {total[k]!r}")

    def is_pure(self, tol: float = FLOW_TOL) -> bool:
        return bool(np.all((np.abs(self.probs) < tol)
                           | (np.abs(self.probs - 1.0) < tol)))


def renormalize_flow(tp: Treeplex, probs, infosets: Optional[Iterable[int]] = None,
                     heads: Iterable[int] = ()) -> None:
    """Scrub round-off in place so flow holds exactly, top-down.

    Each infoset's action probabilities are rescaled to sum to its entry
    value, or set uniform when they sum to zero or less.  With no infosets
    given the whole plan is scrubbed: probs[0] becomes 1 and every infoset
    is visited.  Otherwise only the given infosets are, parents first; a head
    enters with value 1, any other infoset with the scrubbed value of its
    entry sequence.
    """
    if infosets is None:
        probs[0] = 1.0
        infosets = tp.infoset_ids
    heads = set(heads)
    for infoset in infosets:
        entry = 1.0 if infoset in heads else probs[tp.entry_seq[infoset]]
        seqs = tp.actions_of(infoset)
        total = sum(probs[s] for s in seqs)
        if total <= 0.0:
            for s in seqs:
                probs[s] = entry / len(seqs)
        else:
            scale = entry / total
            for s in seqs:
                probs[s] *= scale


@dataclass
class BehavioralStrategy:
    """Action distributions per infoset of one player."""

    owner: int
    probs: dict[int, np.ndarray]


def uniform_behavioral(game: GameTree, player: int) -> BehavioralStrategy:
    probs = {
        i.id: np.full(len(i.actions), 1.0 / len(i.actions))
        for i in game.player_infosets(player)
    }
    return BehavioralStrategy(player, probs)


def behavioral_to_realization(game: GameTree, bs: BehavioralStrategy) -> RealizationPlan:
    tp = game.treeplex(bs.owner)
    probs = np.zeros(tp.n_sequences)
    probs[0] = 1.0
    for infoset in tp.infoset_ids:
        entry = probs[tp.entry_seq[infoset]]
        dist = bs.probs[infoset]
        for idx, seq in enumerate(tp.actions_of(infoset)):
            probs[seq] = entry * dist[idx]
    return RealizationPlan(bs.owner, probs)


def realization_to_behavioral(game: GameTree, plan: RealizationPlan) -> BehavioralStrategy:
    """b(a | I) = r(seq(I) a) / r(seq(I)); uniform where r(seq(I)) = 0."""
    tp = game.treeplex(plan.owner)
    plan.check_flow(tp)
    probs = {}
    for infoset in tp.infoset_ids:
        entry = plan.probs[tp.entry_seq[infoset]]
        seqs = tp.actions_of(infoset)
        if entry > FLOW_TOL:
            probs[infoset] = np.array([plan.probs[s] / entry for s in seqs])
        else:
            probs[infoset] = np.full(len(seqs), 1.0 / len(seqs))
    return BehavioralStrategy(plan.owner, probs)


def uniform_plan(game: GameTree, player: int) -> RealizationPlan:
    return behavioral_to_realization(game, uniform_behavioral(game, player))


def expected_payoffs(game: GameTree, r_leader: RealizationPlan,
                     r_follower: RealizationPlan) -> tuple[float, float]:
    """Exact bilinear payoff sum over terminals (order-independent)."""
    if r_leader.owner != LEADER or r_follower.owner != FOLLOWER:
        raise GameError("expected_payoffs wants (leader plan, follower plan)")
    tp1, tp2 = game.treeplex(LEADER), game.treeplex(FOLLOWER)
    r_leader.check_flow(tp1)
    r_follower.check_flow(tp2)
    _, s1, s2, reach, u1, u2 = game.leaf_arrays()
    weight = reach * r_leader.probs[s1] * r_follower.probs[s2]
    return float(weight @ u1), float(weight @ u2)


# ---------------------------------------------------------------------------
# Construction helper


class TreeBuilder:
    """Incremental game-tree construction with named infosets.

    Children must be added after their parent; node ids are assigned in call
    order, so building in DFS order gives DFS ids.  Infosets are keyed by
    arbitrary hashable labels and numbered in first-use order.  Nodes are
    kept as columns indexed by node id; build() makes each GameNode once.
    Members of one infoset share one action tuple.
    """

    def __init__(self) -> None:
        self._nodes: list[str] = []             # kind, per node id
        self._parents: list[Optional[int]] = []
        self._players: list[int] = []
        self._infosets: list[Optional[int]] = []
        self._actions: list[tuple[str, ...]] = []
        self._probs: list[tuple[float, ...]] = []
        self._payoffs: list[tuple[float, float]] = []
        self._infoset_ids: dict = {}
        # Per infoset id: actions and owner.
        self._infoset_actions: list[tuple[str, ...]] = []
        self._infoset_players: list[int] = []

    def _new_node(self, parent: Optional[int], kind: str, player: int,
                  infoset: Optional[int], actions: tuple[str, ...],
                  probs: tuple[float, ...],
                  payoffs: tuple[float, float]) -> int:
        node_id = len(self._nodes)
        if parent is not None and not 0 <= parent < node_id:
            raise GameError(f"parent {parent} of node {node_id} does not exist")
        self._nodes.append(kind)
        self._parents.append(parent)
        self._players.append(player)
        self._infosets.append(infoset)
        self._actions.append(actions)
        self._probs.append(probs)
        self._payoffs.append(payoffs)
        return node_id

    def chance(self, parent: Optional[int], probs: Iterable[float],
               labels: Optional[Iterable[str]] = None) -> int:
        probs = tuple(float(p) for p in probs)
        labels = tuple(labels) if labels is not None else tuple(
            f"o{k}" for k in range(len(probs)))
        return self._new_node(parent, "chance", CHANCE, None, labels, probs,
                              (0.0, 0.0))

    def player(self, parent: Optional[int], player: int, infoset_key,
               actions: Iterable[str]) -> int:
        actions = tuple(actions)
        iid = self._infoset_ids.get(infoset_key)
        if iid is None:
            iid = self._infoset_ids[infoset_key] = len(self._infoset_players)
            self._infoset_actions.append(actions)
            self._infoset_players.append(player)
        elif self._infoset_actions[iid] != actions:
            raise GameError(f"infoset {infoset_key!r}: inconsistent action lists")
        elif self._infoset_players[iid] != player:
            raise GameError(f"infoset {infoset_key!r}: inconsistent owner")
        return self._new_node(parent, "player", player, iid,
                              self._infoset_actions[iid], (), (0.0, 0.0))

    def terminal(self, parent: Optional[int], u1: float, u2: float) -> int:
        return self._new_node(parent, "terminal", CHANCE, None, (), (),
                              (float(u1), float(u2)))

    def infoset_id(self, infoset_key) -> Optional[int]:
        """The id assigned to a key, or None if no node ever used it."""
        return self._infoset_ids.get(infoset_key)

    def build(self, metadata: Optional[dict] = None) -> GameTree:
        n, n_infosets = len(self._nodes), len(self._infoset_players)
        nodes = list(map(GameNode._make, zip(
            range(n), self._nodes, self._parents, self._players,
            self._infosets, self._actions, _group_ids(self._parents, n),
            self._probs, self._payoffs)))
        infosets = list(map(InfoSet._make, zip(
            range(n_infosets), self._infoset_players, self._infoset_actions,
            _group_ids(self._infosets, n_infosets))))
        game = GameTree(nodes=nodes, infosets=infosets,
                        metadata=dict(metadata or {}))
        require_valid(game)
        return game


def _group_ids(keys: list[Optional[int]], n_groups: int) -> list[tuple[int, ...]]:
    """For each group g < n_groups, the ids i with keys[i] == g, ascending.

    A None key is in no group.  One stable sort in numpy groups every id
    at once, with no Python list grown per group.
    """
    key = np.array(keys, dtype=float)  # None becomes nan
    ids = np.flatnonzero(~np.isnan(key))
    key = key[ids].astype(np.int64)
    grouped = ids[np.argsort(key, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(key, minlength=n_groups)).tolist()
    groups = []
    start = 0
    for end in ends:
        groups.append(tuple(grouped[start:end]))
        start = end
    return groups
