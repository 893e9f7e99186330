"""safe_search builds and matches subgame models in the calling thread, one
at a time when it has one worker.
"""

from __future__ import annotations

import gc
import threading
import weakref

from stackelberg_search import harness
from stackelberg_search.blueprint import uniform_blueprint
from stackelberg_search.harness import safe_search
from stackelberg_search.search import partition_subgames

from test_twin_reuse import _mirrored_exits

TWIN_OF = [None, None, None] + [i % 3 for i in range(3, 12)]


def _mirrored():
    game = _mirrored_exits(12, 3)
    return game, uniform_blueprint(game).plan, partition_subgames(game,
                                                                  "metadata")


def test_models_are_matched_in_the_calling_thread(monkeypatch):
    game, blueprint, partition = _mirrored()
    threads = []
    original = harness.fingerprint

    def recorded(problem, warm):
        threads.append(threading.current_thread())
        return original(problem, warm)

    monkeypatch.setattr(harness, "fingerprint", recorded)
    report = safe_search(game, blueprint, partition, workers=3)
    assert [s.twin_of for s in report.solutions] == TWIN_OF
    assert len(threads) == 12
    assert all(t is threading.main_thread() for t in threads)


def test_one_worker_holds_one_model_at_a_time(monkeypatch):
    game, blueprint, partition = _mirrored()
    built = []
    alive_at_build = []
    original = harness.build_constrained_milp

    def tracked(*args):
        gc.collect()
        alive_at_build.append([ref().subgame.index for ref in built
                               if ref() is not None])
        model = original(*args)
        built.append(weakref.ref(model))
        return model

    monkeypatch.setattr(harness, "build_constrained_milp", tracked)
    report = safe_search(game, blueprint, partition)
    assert [s.twin_of for s in report.solutions] == TWIN_OF
    assert alive_at_build == [[]] * 12
