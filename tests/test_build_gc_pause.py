"""Game builds hold off the cyclic garbage collector and restore its state.

``games.generate``, ``games.parse_game`` and ``GameTree.treeplex`` pause the
collector while they make their records; the digests in
``test_game_digest.py`` pin that the games themselves do not change.
"""

import gc

import pytest

from stackelberg_search.efg import FOLLOWER, LEADER
from stackelberg_search.games import GameFileError, generate, load_game


def test_goofspiel_build_starts_almost_no_collections():
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        game = generate("goofspiel", n=4)
        game.treeplex(LEADER)
        game.treeplex(FOLLOWER)
    finally:
        gc.callbacks.remove(count)
    # With the collector running throughout, this build starts over 500
    # collections; paused, at most one young one follows each build step.
    assert len(starts) < 10, starts


@pytest.mark.parametrize("text", ["{not json", '{"version": 1}'],
                         ids=["bad-json", "bad-schema"])
def test_collector_is_back_on_after_a_malformed_file(tmp_path, text):
    path = tmp_path / "game.json"
    path.write_text(text)
    assert gc.isenabled()
    with pytest.raises(GameFileError):
        load_game(str(path))
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled():
    gc.disable()
    try:
        game = generate("kuhn")
        game.treeplex(LEADER)
        game.treeplex(FOLLOWER)
        assert not gc.isenabled()
    finally:
        gc.enable()
