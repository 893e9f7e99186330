"""The safety theorem under random blueprints and partitions.

Search never does worse than its blueprint (bounds at beta = 1), and the
gadget game reproduces every bounded subgame solve, whatever leader blueprint
the search starts from: Dirichlet behavior per infoset, sometimes made pure,
and any alpha in [0, 1].  On two-stage games the partition is one whose
validity is known, so a failure there is a defect of the search, not of the
partition.  On the random small games the partition is any explicit one, of
subgames rooted at player nodes, that partition_subgames accepts.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackelberg_search.efg import (
    FOLLOWER,
    LEADER,
    BehavioralStrategy,
    GameError,
    behavioral_to_realization,
)
from stackelberg_search.gadget import solve_via_gadget
from stackelberg_search.games import (
    TwoStageSpec,
    random_small_game,
    two_stage_game,
)
from stackelberg_search.harness import evaluate_leader, safe_search
from stackelberg_search.search import (
    build_constrained_milp,
    partition_subgames,
    prepare_search,
    solve_subgame,
)
from stackelberg_search.solver import OPTIMAL


def random_blueprint(game, seed: int, pure_share: float):
    """Dirichlet(1) behavior per leader infoset; a pure_share of the
    infosets put all their mass on their most likely action."""
    rng = np.random.default_rng(seed)
    probs = {}
    for infoset in game.player_infosets(LEADER):
        dist = rng.dirichlet(np.ones(len(infoset.actions)))
        if rng.random() < pure_share:
            dist = np.eye(len(infoset.actions))[int(np.argmax(dist))]
        probs[infoset.id] = dist
    return behavioral_to_realization(game, BehavioralStrategy(LEADER, probs))


@settings(max_examples=20, deadline=None)
@given(game_seed=st.integers(0, 2**31 - 1),
       kappa=st.sampled_from([0.0, 0.1, 0.9]),
       blueprint_seed=st.integers(0, 2**31 - 1),
       pure_share=st.sampled_from([0.0, 0.5, 1.0]),
       alpha=st.floats(0.0, 1.0))
def test_search_is_safe_and_gadget_matches_direct(game_seed, kappa,
                                                   blueprint_seed, pure_share,
                                                   alpha):
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=kappa,
                                       seed=game_seed))
    blueprint = random_blueprint(game, blueprint_seed, pure_share)
    partition = partition_subgames(game, "two-stage")

    report = safe_search(game, blueprint, partition, alpha=alpha)
    assert evaluate_leader(game, report.plan) >= \
        evaluate_leader(game, blueprint) - 1e-6

    context = prepare_search(game, blueprint, partition, alpha)
    for sub in partition:
        q = context.quantities[sub.index]
        if q.eta is None:
            continue
        model = build_constrained_milp(game, sub, q, context.bounds[sub.index],
                                       context.brvs)
        direct = solve_subgame(game, model, blueprint)
        assert direct.status == OPTIMAL
        via = solve_via_gadget(game, sub, q, context.bounds[sub.index])
        assert via.value == pytest.approx(direct.objective, abs=1e-6)


def _set_partitions(items):
    """Every way to split the items into non-empty groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for groups in _set_partitions(rest):
        yield [[first], *groups]
        for k in range(len(groups)):
            yield [*groups[:k], [first, *groups[k]], *groups[k + 1:]]


def explicit_partitions(seed: int) -> list:
    """Every explicit partition of random_small_game(seed) whose subgames
    are rooted at player nodes, none below another, that partition_subgames
    accepts and whose every subgame holds a player infoset."""
    game = random_small_game(seed)
    players = [n.id for n in game.nodes if n.kind == "player"]

    def above(nid):
        parent = game.node(nid).parent
        while parent is not None:
            yield parent
            parent = game.node(parent).parent

    accepted = []
    for size in range(1, len(players) + 1):
        for roots in itertools.combinations(players, size):
            if any(a in roots for r in roots for a in above(r)):
                continue
            for groups in _set_partitions(list(roots)):
                try:
                    partition = partition_subgames(game, "explicit",
                                                   initial_nodes=groups)
                except GameError:
                    continue
                if all(sub.infosets[LEADER] or sub.infosets[FOLLOWER]
                       for sub in partition):
                    accepted.append(groups)
    return accepted


@settings(max_examples=30, deadline=None)
@given(game_seed=st.integers(0, 2**31 - 1),
       choice=st.integers(0, 2**31 - 1),
       blueprint_seed=st.integers(0, 2**31 - 1),
       pure_share=st.sampled_from([0.0, 0.5, 1.0]),
       alpha=st.floats(0.0, 1.0))
def test_search_is_safe_on_random_explicit_partitions(game_seed, choice,
                                                      blueprint_seed,
                                                      pure_share, alpha):
    candidates = explicit_partitions(game_seed)
    assert candidates
    game = random_small_game(game_seed)
    partition = partition_subgames(
        game, "explicit",
        initial_nodes=candidates[choice % len(candidates)])
    blueprint = random_blueprint(game, blueprint_seed, pure_share)
    report = safe_search(game, blueprint, partition, alpha=alpha)
    assert evaluate_leader(game, report.plan) >= \
        evaluate_leader(game, blueprint) - 1e-6

    context = prepare_search(game, blueprint, partition, alpha)
    for sub in partition:
        q = context.quantities[sub.index]
        if q.eta is None:
            continue
        model = build_constrained_milp(game, sub, q, context.bounds[sub.index],
                                       context.brvs)
        direct = solve_subgame(game, model, blueprint)
        assert direct.status == OPTIMAL
        via = solve_via_gadget(game, sub, q, context.bounds[sub.index])
        assert via.value == pytest.approx(direct.objective, abs=1e-6)
