"""``enumerate_pure_plans`` is lazy and keeps its historical order.

``sse_oracle`` breaks ties by the first plan it sees, so the order is part
of the contract.  The reference below is the eager algorithm the generator
replaced: it builds every plan before the first one is returned.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from stackelberg_search.efg import FOLLOWER, LEADER
from stackelberg_search.games import generate

from oracles import count_pure_plans, enumerate_pure_plans

GAMES = [("kuhn", {}), ("twostage", {"seed": 0})] + \
    [("random-small", {"seed": s}) for s in range(5)]


def _eager_plans(game, player):
    tp = game.treeplex(player)

    def expand(seq_id):
        combos = [()]
        for infoset in tp.children_infosets.get(seq_id, ()):
            options = []
            for seq in tp.actions_of(infoset):
                for sub in expand(seq):
                    options.append((seq,) + sub)
            combos = [acc + opt for acc in combos for opt in options]
        return combos

    plans = []
    for chosen in expand(0):
        probs = np.zeros(tp.n_sequences)
        probs[0] = 1.0
        for seq in chosen:
            probs[seq] = 1.0
        plans.append(probs)
    return plans


@pytest.mark.parametrize("family,kwargs", GAMES,
                         ids=[f"{f}-{k.get('seed', '')}" for f, k in GAMES])
@pytest.mark.parametrize("player", [LEADER, FOLLOWER])
def test_lazy_enumeration_matches_the_eager_order(family, kwargs, player):
    game = generate(family, **kwargs)
    lazy = [plan.probs for plan in enumerate_pure_plans(game, player)]
    eager = _eager_plans(game, player)
    assert len(lazy) == len(eager) == count_pure_plans(game, player)
    for got, expected in zip(lazy, eager):
        assert np.array_equal(got, expected)


def test_first_plans_of_a_huge_game_need_little_memory():
    game = generate("goofspiel", n=3)
    assert count_pure_plans(game, FOLLOWER) >= 10 ** 5
    game.treeplex(FOLLOWER)  # built outside the measurement
    tracemalloc.start()
    try:
        first = list(itertools.islice(enumerate_pure_plans(game, FOLLOWER),
                                      3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == 3
    assert peak < 4 * 2 ** 20
    tp = game.treeplex(FOLLOWER)
    for plan in first:
        plan.check_flow(tp)
