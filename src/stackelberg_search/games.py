"""Benchmark games, demo fixtures, and the JSON game-file format.

Fixtures:
  * two_subgame_exit_game — chance splits left/right; on each side the
    follower exits for a fixed payoff or enters a one-decision subgame.
    Re-solving a subgame greedily makes the follower flip its exit choices.
  * shared_exit_game — the follower decides once whether to exit *before*
    chance splits into two subgames, so greedy re-solving in either subgame
    leaks value through the shared exit.
  * bounds_demo_game — a follower-only tree whose hand-computable
    best-response values exercise every branch of bound generation.
  * kuhn_game — standard three-card Kuhn poker, leader as first player.

Generators (seeded, reproducible):
  * two_stage_game — general-sum matrix game, then a chance-selected
    secondary matrix game; simultaneous moves encoded by information hiding.
  * goofspiel_game — bidding for prizes 0..n-1 revealed in an order drawn by
    chance; ties discard the prize (general-sum), bids public after each round.
  * leduc_game — two-suit Leduc hold'em with a rake on the winner.
  * random_small_game — assorted tiny games for oracle cross-checks.

All randomness uses numpy's default PCG64 generator seeded explicitly, so the
same seed always yields a bit-identical game file.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from stackelberg_search.efg import (
    CHANCE,
    FOLLOWER,
    LEADER,
    GameError,
    GameNode,
    GameTree,
    InfoSet,
    TreeBuilder,
    _collector_paused,
    require_valid,
)

GAMEFILE_VERSION = 1

# ---------------------------------------------------------------------------
# JSON game files

_TOP_KEYS = {"version", "players", "nodes", "metadata"}
_NODE_KEYS = {
    "terminal": {"id", "kind", "payoffs"},
    "chance": {"id", "kind", "actions", "chance_probs", "children"},
    "player": {"id", "kind", "player", "infoset", "actions", "children"},
}


def serialize_game(game: GameTree) -> str:
    """Deterministic JSON text: sorted keys, nodes in id order."""
    require_valid(game)
    nodes = []
    for node in game.nodes:
        if node.is_terminal:
            rec = {"id": node.id, "kind": "terminal",
                   "payoffs": list(node.payoffs)}
        elif node.kind == "chance":
            rec = {"id": node.id, "kind": "chance",
                   "actions": list(node.actions),
                   "chance_probs": list(node.chance_probs),
                   "children": list(node.children)}
        else:
            rec = {"id": node.id, "kind": "player",
                   "player": "leader" if node.player == LEADER else "follower",
                   "infoset": node.infoset,
                   "actions": list(node.actions),
                   "children": list(node.children)}
        nodes.append(rec)
    doc = {
        "version": GAMEFILE_VERSION,
        "players": ["leader", "follower"],
        "nodes": nodes,
        "metadata": game.metadata,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class GameFileError(GameError):
    """Schema violation; message carries the JSON path of the offender."""


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise GameFileError(f"{path}: {message}")


def _typed(value, kinds=(int, float)) -> bool:
    """Of the given types; a boolean is never a number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@_collector_paused()
def parse_game(text: str) -> GameTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"$: not valid JSON ({exc})") from None
    _require(isinstance(doc, dict), "$", "document must be an object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"$.{sorted(unknown)[0]}" if unknown else "$",
             "unknown field")
    _require(doc.get("version") == GAMEFILE_VERSION, "$.version",
             f"expected {GAMEFILE_VERSION}")
    _require(doc.get("players") == ["leader", "follower"], "$.players",
             'expected ["leader", "follower"]')
    raw_nodes = doc.get("nodes")
    _require(isinstance(raw_nodes, list) and raw_nodes, "$.nodes",
             "must be a non-empty array")
    metadata = doc.get("metadata", {})
    _require(isinstance(metadata, dict), "$.metadata", "must be an object")

    for i, rec in enumerate(raw_nodes):
        path = f"$.nodes[{i}]"
        _require(isinstance(rec, dict), path, "must be an object")
        kind = rec.get("kind")
        _require(isinstance(kind, str) and kind in _NODE_KEYS, f"{path}.kind",
                 "expected terminal|chance|player")
        allowed = _NODE_KEYS[kind]
        unknown = set(rec) - allowed
        _require(not unknown, f"{path}.{sorted(unknown)[0]}" if unknown else path,
                 "unknown field")
        missing = allowed - set(rec)
        _require(not missing, f"{path}.{sorted(missing)[0]}" if missing else path,
                 "missing field")
        _require(_typed(rec["id"], int) and rec["id"] == i, f"{path}.id",
                 f"expected {i} (dense id order)")
    # Each node's fields after id and parent; the parents come from the
    # children lists, so GameNode records are made once all are read.
    fields: list[tuple] = [None] * len(raw_nodes)  # type: ignore[list-item]
    parents: dict[int, int] = {}
    for i, rec in enumerate(raw_nodes):
        path = f"$.nodes[{i}]"
        kind = rec["kind"]
        if kind == "terminal":
            pay = rec["payoffs"]
            _require(isinstance(pay, list) and len(pay) == 2
                     and all(map(_typed, pay)), f"{path}.payoffs",
                     "expected [leader, follower] numbers")
            fields[i] = ("terminal", CHANCE, None, (), (), (),
                         (float(pay[0]), float(pay[1])))
            continue
        children = rec["children"]
        _require(isinstance(children, list) and children, f"{path}.children",
                 "must be a non-empty array")
        for child in children:
            _require(_typed(child, int) and 0 <= child < len(raw_nodes),
                     f"{path}.children", f"child {child} out of range")
            _require(child not in parents, f"{path}.children",
                     f"node {child} has two parents")
            parents[child] = i
        _require(isinstance(rec["actions"], list) and all(
            isinstance(a, str) for a in rec["actions"]),
            f"{path}.actions", "expected an array of strings")
        actions = tuple(rec["actions"])
        if kind == "chance":
            probs = rec["chance_probs"]
            _require(isinstance(probs, list) and all(map(_typed, probs)),
                     f"{path}.chance_probs", "expected an array of numbers")
            fields[i] = ("chance", CHANCE, None, actions, tuple(children),
                         tuple(float(p) for p in probs), (0.0, 0.0))
        else:
            _require(rec["player"] in ("leader", "follower"), f"{path}.player",
                     "expected leader|follower")
            _require(_typed(rec["infoset"], int) and rec["infoset"] >= 0,
                     f"{path}.infoset", "expected a non-negative integer")
            player = LEADER if rec["player"] == "leader" else FOLLOWER
            fields[i] = ("player", player, rec["infoset"], actions,
                         tuple(children), (), (0.0, 0.0))
    nodes = [GameNode(i, kind, parents.get(i), *rest)
             for i, (kind, *rest) in enumerate(fields)]

    # Rebuild infosets by grouping player nodes.
    members: dict[int, list[int]] = {}
    for n in nodes:
        if n.kind == "player":
            members.setdefault(n.infoset, []).append(n.id)
    ids = sorted(members)
    _require(ids == list(range(len(ids))), "$.nodes", "infoset ids not dense")
    infosets = [
        InfoSet(id=iid, player=nodes[members[iid][0]].player,
                actions=nodes[members[iid][0]].actions,
                members=tuple(members[iid]))
        for iid in ids
    ]
    game = GameTree(nodes=nodes, infosets=infosets, metadata=metadata)
    require_valid(game)
    return game


def save_game(game: GameTree, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_game(game))


def load_game(path: str) -> GameTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


# ---------------------------------------------------------------------------
# Demo fixtures


def two_subgame_exit_game() -> GameTree:
    """Chance picks left/right; the follower exits or enters that side's subgame.

    Left exit pays (0, 0); inside the left subgame the leader picks between
    (1, 1) and (2, -1).  Right exit pays (2, 2); inside the right subgame the
    leader picks between (0, 0) and (1, 4).  The bundled blueprint (leader
    plays the first option on both sides) is worth 1.5 to the leader: the
    follower stays left and exits right.  Greedily re-solving either subgame
    for the leader flips both follower choices and drops the leader to 0.5.
    """
    b = TreeBuilder()
    root = b.chance(None, [0.5, 0.5], ["left", "right"])
    fl = b.player(root, FOLLOWER, "F-left", ["exit", "stay"])
    b.terminal(fl, 0.0, 0.0)
    head_l = b.player(fl, FOLLOWER, "head-left", ["go"])
    ll = b.player(head_l, LEADER, "L-left", ["u", "v"])
    b.terminal(ll, 1.0, 1.0)
    b.terminal(ll, 2.0, -1.0)
    fr = b.player(root, FOLLOWER, "F-right", ["exit", "stay"])
    b.terminal(fr, 2.0, 2.0)
    head_r = b.player(fr, FOLLOWER, "head-right", ["go"])
    lr = b.player(head_r, LEADER, "L-right", ["u", "v"])
    b.terminal(lr, 0.0, 0.0)
    b.terminal(lr, 1.0, 4.0)
    return b.build(metadata={
        "name": "two-subgame-exit",
        "subgames": [[head_l], [head_r]],
        # Bundled blueprint: leader infoset id -> pure action index.
        "blueprint_actions": {"2": 0, "5": 0},
    })


def shared_exit_game() -> GameTree:
    """The follower exits once up front, or enters one of two chance-split subgames.

    Exit pays (0, 0).  After staying, chance picks one of two identical
    subgames where the leader chooses between (1, 1) and (2, -1).  The bundled
    blueprint (leader plays the first option in both subgames) is worth 1.0;
    re-solving either subgame greedily makes staying unattractive and the
    follower exits for 0.
    """
    b = TreeBuilder()
    root = b.player(None, FOLLOWER, "F", ["exit", "stay"])
    b.terminal(root, 0.0, 0.0)
    mid = b.chance(root, [0.5, 0.5], ["a", "b"])
    heads = []
    for side in ("a", "b"):
        head = b.player(mid, FOLLOWER, f"head-{side}", ["go"])
        leader = b.player(head, LEADER, f"L-{side}", ["u", "v"])
        b.terminal(leader, 1.0, 1.0)
        b.terminal(leader, 2.0, -1.0)
        heads.append(head)
    return b.build(metadata={
        "name": "shared-exit",
        "subgames": [[heads[0]], [heads[1]]],
        "blueprint_actions": {"2": 0, "4": 0},
    })


def bounds_demo_game() -> GameTree:
    """Follower-only tree for exercising bound generation.

    The leader never acts, so the blueprint is trivial and every follower
    value is a hand-computable chance-weighted sum.  Terminal follower
    payoffs are scaled inversely to the chance reach so all best-response
    values come out as exact dyadic rationals.  Two subgames are bundled:
    one mixing reached heads with an unreached one, and one mixing an
    unreached head with a reached one, so bound generation must emit both
    lower and upper bounds.
    """
    b = TreeBuilder()
    root = b.player(None, FOLLOWER, "B", ["take", "C"])
    b.terminal(root, 0.0, 3.0)
    split = b.chance(root, [0.5, 0.5], ["dl", "dr"])
    d = b.player(split, FOLLOWER, "D", ["E", "F", "G"])
    e_split = b.chance(d, [0.5, 0.5], ["el", "er"])
    e1 = b.player(e_split, FOLLOWER, "head-e1", ["go"])
    b.terminal(e1, 0.0, 4.0)
    e2 = b.player(e_split, FOLLOWER, "head-e2", ["go"])
    b.terminal(e2, 0.0, 4.0)
    f1 = b.player(d, FOLLOWER, "head-f", ["go"])
    b.terminal(f1, 0.0, 0.0)
    g1 = b.player(d, FOLLOWER, "head-g", ["go"])
    b.terminal(g1, 0.0, -2.0)
    h = b.player(split, FOLLOWER, "H", ["I", "J"])
    i1 = b.player(h, FOLLOWER, "head-i", ["go"])
    b.terminal(i1, 0.0, 6.0)
    j_split = b.chance(h, [0.5, 0.5], ["jl", "jr"])
    kl = b.player(j_split, FOLLOWER, "KL", ["K", "L"])
    b.terminal(kl, 0.0, 6.0)
    b.terminal(kl, 0.0, 4.0)
    b.terminal(j_split, 0.0, 4.0)
    return b.build(metadata={
        "name": "bounds-demo",
        "subgames": [[e1, e2, f1], [g1, i1]],
        "blueprint_actions": {},
    })


def kuhn_game() -> GameTree:
    """Three-card Kuhn poker; the leader moves first.  Zero-sum, value -1/18."""
    b = TreeBuilder()
    cards = ["J", "Q", "K"]
    root = b.chance(None, [1.0 / 3] * 3, cards)
    for c1 in range(3):
        others = [c for c in range(3) if c != c1]
        deal2 = b.chance(root, [0.5, 0.5], [cards[c] for c in others])
        for c2 in others:
            _kuhn_betting(b, deal2, c1, c2)
    return b.build(metadata={"name": "kuhn"})


def _kuhn_betting(b: TreeBuilder, parent: int, c1: int, c2: int) -> None:
    def showdown(bet: float) -> tuple[float, float]:
        sign = 1.0 if c1 > c2 else -1.0
        return sign * bet, -sign * bet

    p1 = b.player(parent, LEADER, ("L", c1, ""), ["check", "bet"])
    # check line
    p2c = b.player(p1, FOLLOWER, ("F", c2, "check"), ["check", "bet"])
    b.terminal(p2c, *showdown(1.0))
    p1cb = b.player(p2c, LEADER, ("L", c1, "check/bet"), ["fold", "call"])
    b.terminal(p1cb, -1.0, 1.0)
    b.terminal(p1cb, *showdown(2.0))
    # bet line
    p2b = b.player(p1, FOLLOWER, ("F", c2, "bet"), ["fold", "call"])
    b.terminal(p2b, 1.0, -1.0)
    b.terminal(p2b, *showdown(2.0))


# ---------------------------------------------------------------------------
# Two-stage matrix games


@dataclass(frozen=True)
class TwoStageSpec:
    """First-stage n x n matrix game, then one of M secondary m x m games.

    Chance picks the secondary game j with probability
    kappa * X[j, a1] + (1 - kappa) / M, where a1 is the leader's first-stage
    action and each column of X is drawn uniform then normalized.
    All payoff entries are i.i.d. uniform on [0, 2]; terminal payoffs are the
    sum of the two stage payoffs.
    """

    n: int
    M: int
    m: int
    kappa: float
    seed: int

    def validate(self) -> None:
        if min(self.n, self.M, self.m) < 1:
            raise GameError("two-stage sizes must be >= 1")
        if not 0.0 <= self.kappa <= 1.0:
            raise GameError("kappa must lie in [0, 1]")
        if self.seed < 0:
            raise GameError(f"two-stage seed must be >= 0, not {self.seed}")


def two_stage_game(spec: TwoStageSpec) -> GameTree:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    # Draw order is part of the format: X columns, stage-1 payoffs (leader,
    # follower), stage-2 payoffs (leader, follower).
    x_cols = rng.uniform(0.0, 1.0, size=(spec.M, spec.n))
    x_cols /= x_cols.sum(axis=0, keepdims=True)
    a1_pay = rng.uniform(0.0, 2.0, size=(spec.n, spec.n, 2))
    a2_pay = rng.uniform(0.0, 2.0, size=(spec.M, spec.m, spec.m, 2))

    b = TreeBuilder()
    root = b.player(None, LEADER, "stage1-leader",
                    [f"a{i}" for i in range(spec.n)])
    for a1 in range(spec.n):
        fo = b.player(root, FOLLOWER, "stage1-follower",
                      [f"b{i}" for i in range(spec.n)])
        probs = spec.kappa * x_cols[:, a1] + (1.0 - spec.kappa) / spec.M
        for b1 in range(spec.n):
            ch = b.chance(fo, probs, [f"g{j}" for j in range(spec.M)])
            for j in range(spec.M):
                l2 = b.player(ch, LEADER, ("s2L", a1, b1, j),
                              [f"c{i}" for i in range(spec.m)])
                for a2 in range(spec.m):
                    f2 = b.player(l2, FOLLOWER, ("s2F", a1, b1, j),
                                  [f"d{i}" for i in range(spec.m)])
                    for b2 in range(spec.m):
                        u1 = a1_pay[a1, b1, 0] + a2_pay[j, a2, b2, 0]
                        u2 = a1_pay[a1, b1, 1] + a2_pay[j, a2, b2, 1]
                        b.terminal(f2, u1, u2)
    return b.build(metadata={
        "name": "two-stage",
        "params": {"n": spec.n, "M": spec.M, "m": spec.m,
                   "kappa": spec.kappa, "seed": spec.seed},
        # Stage-1 payoff matrices, recorded so the stage-only blueprint can
        # work from the exact entries (terminals only carry stage sums).
        "stage1_leader": a1_pay[:, :, 0].tolist(),
        "stage1_follower": a1_pay[:, :, 1].tolist(),
    })


# ---------------------------------------------------------------------------
# Goofspiel


@dataclass(frozen=True)
class GoofspielSpec:
    """Bidding game over prizes valued 0..n-1, order drawn by chance.

    Both players hold bid cards 1..n.  Each round one prize is revealed,
    players bid a card simultaneously (higher card wins the prize, ties
    discard it), and both bids become public.  The seed only tags the game
    file; the prize order is part of the tree, not the generator.
    """

    n: int
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= self.n <= 5:
            raise GameError("goofspiel supported for 1 <= n <= 5")


def goofspiel_game(spec: GoofspielSpec) -> GameTree:
    spec.validate()
    n = spec.n
    perms = list(itertools.permutations(range(n)))
    b = TreeBuilder()
    root = b.chance(None, [1.0 / len(perms)] * len(perms),
                    ["".join(str(p) for p in perm) for perm in perms])

    moves: dict[tuple, tuple] = {}  # hand -> (bid labels, (card, rest)...)

    def moves_of(hand: tuple) -> tuple:
        entry = moves.get(hand)
        if entry is None:
            entry = moves[hand] = (
                tuple(f"bid{c}" for c in hand),
                tuple((c, hand[:i] + hand[i + 1:]) for i, c in enumerate(hand)))
        return entry

    def play(parent: int, perm, round_idx: int, hand1, hand2,
             won1: float, won2: float, bids: tuple) -> None:
        prize = perm[round_idx]
        seen = perm[: round_idx + 1]
        last = round_idx + 1 == n
        labels1, moves1 = moves_of(hand1)
        labels2, moves2 = moves_of(hand2)
        lead = b.player(parent, LEADER, ("L", seen, bids), labels1)
        for c1, rest1 in moves1:
            foll = b.player(lead, FOLLOWER, ("F", seen, bids), labels2)
            for c2, rest2 in moves2:
                w1 = won1 + (prize if c1 > c2 else 0.0)
                w2 = won2 + (prize if c2 > c1 else 0.0)
                if last:
                    b.terminal(foll, w1, w2)
                else:
                    play(foll, perm, round_idx + 1, rest1, rest2, w1, w2,
                         bids + ((c1, c2),))

    hand = tuple(range(1, n + 1))
    for perm in perms:
        play(root, perm, 0, hand, hand, 0.0, 0.0, ())
    return b.build(metadata={
        "name": "goofspiel",
        "params": {"n": n, "seed": spec.seed},
        "perms": [list(p) for p in perms],
    })


def goofspiel_surrogate_payoffs(game: GameTree) -> np.ndarray:
    """Zero-sum leader payoffs for the tie-splitting variant.

    Splitting each tied prize evenly and centering the constant sum yields
    leader payoff (u1 - u2) / 2 at every terminal.  Returned as an array over
    all node ids (zero at non-terminals).
    """
    if game.metadata.get("name") != "goofspiel":
        raise GameError("not a goofspiel game")
    out = np.zeros(len(game.nodes))
    for node in game.terminals():
        out[node.id] = 0.5 * (node.payoffs[0] - node.payoffs[1])
    return out


# ---------------------------------------------------------------------------
# Leduc hold'em

# Betting-round state machine: states are strings over k/b/r; a round ends at
# "kk", a call, or a fold.  A bet plus up to four raises are allowed (five
# bet units per round).
_MAX_BETS = 5


# Both helpers are cached: a round has only a few dozen betting states, and
# the tuples they return are immutable.
@functools.cache
def _betting_actions(state: str) -> tuple[str, ...]:
    if state in ("", "k"):
        return ("k", "b")
    bets = state.count("b") + state.count("r")
    if bets >= _MAX_BETS:
        return ("f", "c")
    return ("f", "c", "r")


@functools.cache
def _betting_units(state: str) -> tuple[int, int]:
    """Bet units put in by (first mover, second mover) along the state."""
    units = [0, 0]
    for i, move in enumerate(state):
        actor = i % 2
        if move in ("b", "r"):
            units[actor] = units[1 - actor] + 1
        elif move == "c":
            units[actor] = units[1 - actor]
    return units[0], units[1]


@dataclass(frozen=True)
class LeducSpec:
    """Two-suit Leduc hold'em with rake rho on the winner.

    n ranks (2n distinguishable cards), ante 1, bet size 2 in round one and 4
    in round two, at most five bet units per round.  The winner of pot share
    x receives (1 - rho) * x; the loser pays x in full; equal ranks tie for 0.
    """

    n: int
    rho: float

    def validate(self) -> None:
        if self.n < 2:
            raise GameError("leduc needs at least 2 ranks")
        if not 0.0 <= self.rho < 1.0:
            raise GameError("rho must lie in [0, 1)")


def leduc_game(spec: LeducSpec) -> GameTree:
    spec.validate()
    n_cards = 2 * spec.n
    cards = list(range(n_cards))
    b = TreeBuilder()
    root = b.chance(None, [1.0 / n_cards] * n_cards,
                    [f"c{c}" for c in cards])

    def rank(card: int) -> int:
        return card // 2

    def payoff(c1: int, c2: int, board: int, folder: int | None,
               units1: tuple[int, int], units2: tuple[int, int]) -> tuple[float, float]:
        contrib = [1 + 2 * units1[p] + 4 * units2[p] for p in range(2)]
        if folder is not None:
            winner = 1 - folder
            x = float(contrib[folder])
        else:
            r1, r2, rb = rank(c1), rank(c2), rank(board)
            if r1 == r2:
                return 0.0, 0.0
            if r1 == rb:
                winner = 0
            elif r2 == rb:
                winner = 1
            else:
                winner = 0 if r1 > r2 else 1
            x = float(contrib[1 - winner])
        win_pay = (1.0 - spec.rho) * x
        return (win_pay, -x) if winner == 0 else (-x, win_pay)

    def bet_round2(parent: int, c1: int, c2: int, board: int, line1: str,
                   state: str) -> None:
        if state.endswith("f"):
            folder = (len(state) - 1) % 2
            b.terminal(parent, *payoff(c1, c2, board, folder,
                                       _betting_units(line1),
                                       _betting_units(state[:-1])))
            return
        if state == "kk" or state.endswith("c"):
            b.terminal(parent, *payoff(c1, c2, board, None,
                                       _betting_units(line1),
                                       _betting_units(state)))
            return
        actor = len(state) % 2
        card = c1 if actor == 0 else c2
        actions = _betting_actions(state)
        node = b.player(parent, LEADER if actor == 0 else FOLLOWER,
                        ("r2", actor, card, board, line1, state), actions)
        for move in actions:
            bet_round2(node, c1, c2, board, line1, state + move)

    def bet_round1(parent: int, c1: int, c2: int, state: str) -> None:
        if state.endswith("f"):
            folder = (len(state) - 1) % 2
            b.terminal(parent, *payoff(c1, c2, -1, folder,
                                       _betting_units(state[:-1]), (0, 0)))
            return
        if state == "kk" or state.endswith("c"):
            boards = [c for c in cards if c not in (c1, c2)]
            ch = b.chance(parent, [1.0 / len(boards)] * len(boards),
                          [f"b{c}" for c in boards])
            for board in boards:
                bet_round2(ch, c1, c2, board, state, "")
            return
        actor = len(state) % 2
        card = c1 if actor == 0 else c2
        actions = _betting_actions(state)
        node = b.player(parent, LEADER if actor == 0 else FOLLOWER,
                        ("r1", actor, card, state), actions)
        for move in actions:
            bet_round1(node, c1, c2, state + move)

    for c1 in cards:
        deal2 = b.chance(root, [1.0 / (n_cards - 1)] * (n_cards - 1),
                         [f"c{c}" for c in cards if c != c1])
        for c2 in cards:
            if c2 != c1:
                bet_round1(deal2, c1, c2, "")
    return b.build(metadata={
        "name": "leduc",
        "params": {"n": spec.n, "rho": spec.rho},
    })


def leduc_surrogate_payoffs(game: GameTree) -> np.ndarray:
    """Zero-sum leader payoffs for the unraked (rho = 0) variant.

    The loser's payoff is unscaled by the rake, so the zero-sum leader payoff
    at each terminal is -u2 (equivalently +x to whoever won the pot).
    """
    if game.metadata.get("name") != "leduc":
        raise GameError("not a leduc game")
    out = np.zeros(len(game.nodes))
    for node in game.terminals():
        out[node.id] = -node.payoffs[1]
    return out


def declared_symmetries(game: GameTree) -> list[dict[str, str]]:
    """The chance-outcome relabellings a game declares as automorphisms.

    Leduc's payoffs read only ranks, so it declares one per rank k: swap
    the two suits of that rank, as dealt (c{2k} <-> c{2k+1}) and as the
    board (b{2k} <-> b{2k+1}).  They are derived from the metadata's name
    and params, never stored, so a saved game's bytes do not carry them.
    Every other game declares none.  efg.automorphisms checks a declared
    relabelling before anything uses it.
    """
    if game.metadata.get("name") != "leduc":
        return []
    params = game.metadata.get("params")
    n = params.get("n") if isinstance(params, dict) else None
    if not isinstance(n, int) or n < 2:
        raise GameError(f"leduc metadata names no rank count params.n "
                        f"(got {n!r})")
    swaps = []
    for k in range(n):
        swap = {}
        for kind in "cb":
            low, high = f"{kind}{2 * k}", f"{kind}{2 * k + 1}"
            swap[low], swap[high] = high, low
        swaps.append(swap)
    return swaps


# ---------------------------------------------------------------------------
# Random small games for oracle cross-checks


def random_small_game(seed: int) -> GameTree:
    """A tiny random game with at most ten follower pure strategies.

    Cycles through four shapes: a plain matrix game, a chance-signalled
    matrix game, a two-level leader/follower/leader tree, and a
    follower-first tree.  Payoffs are i.i.d. uniform on [0, 2].
    """
    if seed < 0:
        raise GameError(f"random-small seed must be >= 0, not {seed}")
    rng = np.random.default_rng(seed)
    shape = seed % 4
    b = TreeBuilder()
    if shape == 0:
        # Simultaneous matrix game: follower has one infoset.
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 6))
        root = b.player(None, LEADER, "L", [f"a{i}" for i in range(n1)])
        for _ in range(n1):
            f = b.player(root, FOLLOWER, "F", [f"b{i}" for i in range(n2)])
            for _ in range(n2):
                b.terminal(f, rng.uniform(0, 2), rng.uniform(0, 2))
    elif shape == 1:
        # Chance signal seen by the leader only; follower sees the leader's
        # action but not the signal (4 follower pure strategies).
        probs = rng.dirichlet([2.0, 2.0])
        root = b.chance(None, probs, ["s0", "s1"])
        for s in range(2):
            ld = b.player(root, LEADER, f"L{s}", ["a0", "a1"])
            for a in range(2):
                f = b.player(ld, FOLLOWER, f"F{a}", ["b0", "b1"])
                for _ in range(2):
                    b.terminal(f, rng.uniform(0, 2), rng.uniform(0, 2))
    elif shape == 2:
        # Leader, then follower (sees the action), then leader again with an
        # information set that forgets the follower's reply but not its own.
        root = b.player(None, LEADER, "L1", ["a0", "a1"])
        for a in range(2):
            f = b.player(root, FOLLOWER, f"F{a}", ["b0", "b1"])
            for _ in range(2):
                l2 = b.player(f, LEADER, f"L2-{a}", ["c0", "c1"])
                for _ in range(2):
                    b.terminal(l2, rng.uniform(0, 2), rng.uniform(0, 2))
    else:
        # Follower moves first; the leader observes only a coarse signal.
        n2 = int(rng.integers(2, 4))
        root = b.player(None, FOLLOWER, "F", [f"b{i}" for i in range(n2)])
        for bi in range(n2):
            signal = min(bi, 1)
            ld = b.player(root, LEADER, f"L{signal}", ["a0", "a1"])
            for _ in range(2):
                b.terminal(ld, rng.uniform(0, 2), rng.uniform(0, 2))
    return b.build(metadata={"name": "random-small", "params": {"seed": seed}})


# ---------------------------------------------------------------------------
# Family registry (CLI + harness)


# The parameters generate() reads, by family, with their types.
FAMILY_PARAMS = {
    "twostage": {"n": int, "M": int, "m": int, "kappa": float, "seed": int},
    "goofspiel": {"n": int, "seed": int}, "leduc": {"n": int, "rho": float},
    "random-small": {"seed": int}}


@_collector_paused()
def generate(family: str, **kwargs) -> GameTree:
    """Build a game by family name; kwargs as in the CLI flags."""
    if family == "fig2":
        return two_subgame_exit_game()
    if family == "fig3":
        return shared_exit_game()
    if family == "bounds-demo":
        return bounds_demo_game()
    if family == "kuhn":
        return kuhn_game()
    if family == "twostage":
        return two_stage_game(TwoStageSpec(
            n=int(kwargs.get("n", 2)), M=int(kwargs.get("M", 2)),
            m=int(kwargs.get("m", 2)), kappa=float(kwargs.get("kappa", 0.0)),
            seed=int(kwargs.get("seed", 0))))
    if family == "goofspiel":
        return goofspiel_game(GoofspielSpec(n=int(kwargs.get("n", 4)),
                                            seed=int(kwargs.get("seed", 0))))
    if family == "leduc":
        return leduc_game(LeducSpec(n=int(kwargs.get("n", 3)),
                                    rho=float(kwargs.get("rho", 0.1))))
    if family == "random-small":
        return random_small_game(int(kwargs.get("seed", 0)))
    raise GameError(f"unknown game family {family!r}")
