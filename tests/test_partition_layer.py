"""The partition layer: which nodes each subgame holds, and its entry reach.

The pin hashes, per case, each subgame's initial states, sorted nodes,
terminals, infosets, heads and head-of maps (dict order included), and the
float.hex of its omega, ctilde and cj in dict order.  These decide what
every search solves, so a refactor of the partition or the quantities must
leave them unchanged; a change that alters them on purpose updates the pin
and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from stackelberg_search.blueprint import make_blueprint
from stackelberg_search.efg import GameError
from stackelberg_search.games import generate, parse_game, serialize_game
from stackelberg_search.response import best_response
from stackelberg_search.search import (
    compute_subgame_quantities,
    partition_subgames,
)


def _layout(partition) -> list:
    """Each subgame's node sets and infoset maps, as plain ints in order."""
    def ints(values):
        return [int(v) for v in values]

    return [[sub.index, ints(sub.initial), ints(sorted(sub.nodes)),
             ints(sub.terminals),
             [[int(p), ints(ids)] for p, ids in sub.infosets.items()],
             [[int(p), ints(ids)] for p, ids in sub.heads.items()],
             [[int(p), [[int(i), int(h)] for i, h in own.items()]]
              for p, own in sub.head_of.items()]]
            for sub in partition]


def _digest(family, params, scheme, m, method) -> str:
    game = generate(family, **params)
    blueprint = make_blueprint(game, method).plan
    response, _, _ = best_response(game, blueprint)
    partition = partition_subgames(game, scheme, m=m)
    quantities = compute_subgame_quantities(game, partition, blueprint,
                                            response)
    h = hashlib.sha256(json.dumps(_layout(partition)).encode())
    for q in quantities:
        for values in (q.omega, q.ctilde, q.cj):
            h.update(json.dumps([[int(k), float(v).hex()]
                                 for k, v in values.items()]).encode())
    return h.hexdigest()


# (family, params, scheme, m, blueprint) -> sha256 of the partition and
# its quantities.
PINS = {
    ("goofspiel", (("n", 3),), "goofspiel", 1, "zerosum"):
        "95e033ed5d0deacca54a8a515126d9d96ebe9654f2a3d133653854abb7198b57",
    ("goofspiel", (("n", 3),), "goofspiel", 2, "zerosum"):
        "c5d61ba1fb4c4f0204da092c68e9db197039f3498595c9be397de26527d0b93e",
    ("goofspiel", (("n", 3),), "goofspiel", 3, "zerosum"):
        "dd1f65a7dd045ca3d6bad48c7a7adb67ff144c96d1f2c30ccb659defe1ae43db",
    ("goofspiel", (("n", 4),), "goofspiel", 3, "zerosum"):
        "f786b98cfbdc1ba35cb0e0035fb4f8f8c6a9553eec33d3b2546396492c8d95e8",
    ("leduc", (("n", 2),), "leduc", None, "zerosum"):
        "7e827b7f141505890a74ec86bb139b42c218a08e5302798814b8c7418373a095",
    ("leduc", (("n", 2),), "leduc", None, "uniform"):
        "6865f5a796545d1942a824bbb183a1f80b45a86bf873673f8eb5bbb34e9b3977",
    ("leduc", (("n", 3),), "leduc", None, "zerosum"):
        "e8a8f4cbf320ae9495fad39cc320b055e197fb78ac9b7d842ca14b8c153b5fc8",
    ("leduc", (("n", 3),), "leduc", None, "uniform"):
        "83bf5d0f4245a1707b635c2fc090636165486bcb767316900837c41510ece644",
    ("twostage", (("seed", 4),), "two-stage", None, "stage-sse"):
        "f3e3e4d8c44696052eb4da50271754e61414fb061de7537cc54acbc26aad315f",
    ("fig2", (), "metadata", None, "fixed"):
        "5a66e6428ae478cc99afc2ecbed6670df9daafd6bdf04cb31bc3b28a6a2b9c88",
    ("fig3", (), "metadata", None, "fixed"):
        "1762f4685970f8d90af1178d612adb6f6769a339531ee46f44ee6762dbf97733",
    ("bounds-demo", (), "metadata", None, "fixed"):
        "3633427a71a8e004b2c4f59e97723fdee6205a3a73352cf4150a2adc8c931113",
}


@pytest.mark.parametrize(
    "case", list(PINS),
    ids=[f"{c[0]}{''.join(str(v) for _, v in c[1])}-m{c[3]}-{c[4]}"
         for c in PINS])
def test_partition_and_quantities_are_pinned(case):
    family, params, scheme, m, method = case
    assert _digest(family, dict(params), scheme, m, method) == PINS[case]


@pytest.mark.parametrize("edit", ["perms-deleted", "params-n-4"])
def test_goofspiel_scheme_reads_the_tree_not_the_metadata(edit):
    generated = generate("goofspiel", n=3)
    doc = json.loads(serialize_game(generated))
    if edit == "perms-deleted":
        del doc["metadata"]["perms"]
    else:
        doc["metadata"]["params"]["n"] = 4
    loaded = parse_game(json.dumps(doc))
    for m in (1, 2, 3):
        assert _layout(partition_subgames(loaded, "goofspiel", m=m)) == \
            _layout(partition_subgames(generated, "goofspiel", m=m))



@pytest.mark.parametrize("child_first", [False, True])
def test_a_group_holding_a_node_and_its_child_is_refused(child_first):
    game = generate("goofspiel", n=2)
    node = game.node(game.root).children[0]
    child = game.node(node).children[0]
    group = [child, node] if child_first else [node, child]
    with pytest.raises(GameError, match=f"node {child}: duplicated"):
        partition_subgames(game, "explicit", initial_nodes=[group])
