"""Golden digests of game construction: the game file and both treeplexes.

For each game the digests pin the exact bytes of ``serialize_game`` and every
field of both players' treeplexes: the sequence records (ids, owner, parent
infoset, action index, parent sequence, label), ``infoset_ids``,
``entry_seq``, ``infoset_actions`` and ``children_infosets`` (with their
insertion order) and the bytes of ``node_seq``.  A change to how games or
sequence forms are built must leave them unchanged; a change that alters a
game on purpose updates its digest and says why.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from stackelberg_search.efg import FOLLOWER, LEADER
from stackelberg_search.games import generate, serialize_game

CASES = {
    "fig2": ("fig2", {}),
    "fig3": ("fig3", {}),
    "bounds-demo": ("bounds-demo", {}),
    "kuhn": ("kuhn", {}),
    **{f"twostage-{s}": ("twostage", {"seed": s}) for s in range(3)},
    **{f"random-small-{s}": ("random-small", {"seed": s}) for s in range(5)},
    "goofspiel-3": ("goofspiel", {"n": 3}),
    "goofspiel-4": ("goofspiel", {"n": 4}),
    "leduc-2": ("leduc", {"n": 2}),
    "leduc-3": ("leduc", {"n": 3}),
}

# (sha256 of serialize_game, sha256 over both treeplexes), computed before
# game construction became a single pass over per-node columns.
DIGESTS = {
    "bounds-demo": ("057183f9e6cefec82ac2adf5d7860edfa49f39f800a98651e18eca308e669035",
                   "1d60ccf825d16bc7d0559cfe3f3704a5ca56c2df4b12866e300c492ef8984f44"),
    "fig2": ("1ec683a7d01e1e4fa765f26fc0cf94bc83a2b885076330f8e1f304e2d10663b7",
            "989d7c7977bb597ba2be1459bf14f12c2b719cdf22051ea873a69a100e19698c"),
    "fig3": ("e5495906dc9da463f6a94d32a428bf31491a9ad9ba950d333230eebef4ae235f",
            "2ab4a95b4a36bbee44a74c3488fb9c6623c791fe4f71b28e03138a1c91227964"),
    "goofspiel-3": ("4f0cbc67a267261618c2dcc168911771c8d198d9612ec98f3743148e7a84a128",
                   "4809a5a98dbbe8dac9e39c148a36cca6d3a2b20a068245c9bbca933926abd845"),
    "goofspiel-4": ("27d489beb153a69769c5bd33075b3989e998b6ffb48dca5aa2946323ddb8e85e",
                   "bc3f41fa2c2a2b1b5960f8eb22afc90aac17d29b3dcf8bd864169d3f51bdd0a6"),
    "kuhn": ("e026b2c0038b7a1cf9f1f465de6e3e5cdb6fa225bc9e3bbf26ae1b6bc24ae785",
            "cbde3456f47615a2e7ad91e4067a8347798e069d018b244b784ffb4735d975cd"),
    "leduc-2": ("249abfe7002bd37b4d14f13a654763825dd86065208de8e0bdabe7607ddb0b3f",
               "96aa4ec19444c8681a1a6475a6138c86316e3aac9c2e514e671f54b4183de727"),
    "leduc-3": ("6c2d921a3dfe01156546a3f10d353410a69d4b478884083a9e70957eb1c6feac",
               "7dbe747484c04651b6f0d9df84f39b35e7e560c960deabdcf27185bbbddf5e7d"),
    "random-small-0": ("c0d7ef4de672fcb18d582fce09546e94a5e6b896ca82af367acc774427d5b6ae",
                      "1f5872b074b2dfe05e863cafd371e4d7aac6b925517afe01ccc90189f161d2df"),
    "random-small-1": ("0726b31760bd73a3b3c90a4de71ea6a56dcad8632abda07e6e6476dc27c87b9f",
                      "1a387f8436a07d24d6ee174d25a7d3d59860ee08ff8f91a971597bb6ff0d4342"),
    "random-small-2": ("ba3c0b1d124b293d899593760f18a678420eaf66c6a91b3f81cb809bd00ea615",
                      "31596de20b9a51973b07ba1dbe1946c377c9db1263e78d025fcba34253aec51b"),
    "random-small-3": ("03dc2dfea340237b06320701145f3d1e8bf1b4904d746c7ea5783b293e280159",
                      "67a59ee7f6d9930e071616c141ae15352fbcd93d23bbe59d77bad322badbf014"),
    "random-small-4": ("a7d1f511e93dcf1aa643c58194ea6c914e53f35e44badde36edc87ce8f19dd2d",
                      "6c18fbd160f430fb20b435daac755f8199e012746311facf8c8d062f1344bb72"),
    "twostage-0": ("e29b65f65b03d83b8c7554989e2e02b4c17507581858704569d37c66f9c7a9c5",
                  "92e9531bffc8d76d68e0c1c2bb84d9f3676137f8a0f92398f0b8a08bdf5bd7a7"),
    "twostage-1": ("f0d928833dfb8b1e8ed63f1d5f0994c0a0bd94032b89c0c8b70b93b846f58d69",
                  "92e9531bffc8d76d68e0c1c2bb84d9f3676137f8a0f92398f0b8a08bdf5bd7a7"),
    "twostage-2": ("7eea4c5c2dc1721e78c961928198a7b16359e4595e3acc106ae11e794a76da60",
                  "92e9531bffc8d76d68e0c1c2bb84d9f3676137f8a0f92398f0b8a08bdf5bd7a7"),
}


def treeplex_digest(game) -> str:
    h = hashlib.sha256()
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        fields = {
            "owner": tp.owner,
            "sequences": [[s.id, s.owner, s.parent_infoset, s.action_index,
                           s.parent_seq, s.label] for s in tp.sequences],
            "infoset_ids": list(tp.infoset_ids),
            "entry_seq": list(tp.entry_seq.items()),
            "infoset_actions": [[i, list(a)]
                                for i, a in tp.infoset_actions.items()],
            "children_infosets": [[s, list(c)]
                                  for s, c in tp.children_infosets.items()],
        }
        h.update(json.dumps(fields).encode())
        h.update(tp.node_seq.dtype.str.encode())
        h.update(np.ascontiguousarray(tp.node_seq).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_game_construction_is_pinned(case):
    family, kwargs = CASES[case]
    game = generate(family, **kwargs)
    text = serialize_game(game)
    got = (hashlib.sha256(text.encode()).hexdigest(), treeplex_digest(game))
    assert got == DIGESTS[case]
