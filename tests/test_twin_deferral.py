"""A twin found while its representative is still solving does not hold a
worker: safe_search sets it aside and settles it once the pool drains.
"""

from __future__ import annotations

import threading

from stackelberg_search import harness
from stackelberg_search.blueprint import uniform_blueprint
from stackelberg_search.harness import safe_search
from stackelberg_search.search import partition_subgames

from test_twin_reuse import _mirrored_exits

# Branch i mirrors branch i % 3.  Branch 3 goes second, so the second worker
# meets a twin of subgame 0 before it reaches representative 2 (branch 1).
ORDER = [0, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11]
TWIN_OF = [None, 0, None, None, 2, 3, 0, 2, 3, 0, 2, 3]


def test_worker_moves_past_a_twin_whose_representative_still_solves(
        monkeypatch):
    game = _mirrored_exits(12, 3)
    heads = [group[0] for group in game.metadata["subgames"]]
    partition = partition_subgames(
        game, "explicit", initial_nodes=[[heads[i]] for i in ORDER])
    blueprint = uniform_blueprint(game).plan
    seq = safe_search(game, blueprint, partition)
    assert [s.twin_of for s in seq.solutions] == TWIN_OF

    started = threading.Event()
    waited = []
    original = harness.solve_subgame

    def gated(game, model, blueprint, time_limit=None):
        # Subgame 0's solve lasts until subgame 2's starts, which the other
        # worker reaches only if subgame 1, a twin of 0, did not stop it.
        if model.subgame.index == 2:
            started.set()
        elif model.subgame.index == 0:
            waited.append(started.wait(timeout=10))
        return original(game, model, blueprint, time_limit=time_limit)

    monkeypatch.setattr(harness, "solve_subgame", gated)
    par = safe_search(game, blueprint, partition, workers=2)
    assert waited == [True], "subgame 2 did not start while 0 was solving"
    assert [s.twin_of for s in par.solutions] == TWIN_OF
    assert par.plan.probs.tobytes() == seq.plan.probs.tobytes()
