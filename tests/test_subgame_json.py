"""Golden output of `cli search`: every key and value of every
subgame-NNNN.json for Leduc n=2 under its zero-sum blueprint.

The run writes all three kinds of subgame record: 4 solved, 4 reused from a
twin and 36 skipped as unreachable.  The table pins each record's keys, in
order, and their scalar values; the digest pins the files byte for byte,
local plans and the signs of zeros included.  A change that alters the
records on purpose updates both and says why.
"""

from __future__ import annotations

import hashlib
import json

from stackelberg_search.cli import main

KEYS = ["subgame", "status", "used_fallback", "twin_of", "bound_gap",
        "root_bound", "mip_nodes", "lp_iterations", "n_vars", "n_rows",
        "n_binaries", "local_plan"]
SOLVED = {"status": "Optimal", "used_fallback": False, "mip_nodes": 0,
          "n_vars": 312, "n_rows": 480, "n_binaries": 48}
SKIPPED = {"status": "SkippedUnreachable", "used_fallback": True,
           "twin_of": None, "bound_gap": 0.0, "root_bound": None,
           "mip_nodes": 0, "lp_iterations": 0, "n_vars": 0, "n_rows": 0,
           "n_binaries": 0}
# Subgame -> (twin_of, bound_gap, root_bound) of the solved and reused ones.
SOLVES = {
    0: (None, 0.0, -0.024999999999999994),
    1: (0, 1.3877787807814457e-17, -0.024999999999999994),
    2: (None, 0.0, -0.02500000000000001),
    3: (2, 0.0, -0.02500000000000001),
    4: (None, 0.0, -0.0),
    5: (4, 0.0, -0.0),
    6: (None, 0.0, -0.0),
    7: (6, 0.0, -0.0),
}
# Subgame -> simplex iterations of its LPs; a twin's are its solve's.
LP_ITERATIONS = {0: 20, 1: 20, 2: 21, 3: 21, 4: 118, 5: 118, 6: 98, 7: 98}
N_SUBGAMES = 44
LOCAL_PLAN_SEQS = 48
# sha256 of every subgame file's bytes, in index order.
DIGEST = "a0dd85bb398ccbfa41368c12bb4520a2915d45fb5328d47a5afd9a7c029fb63d"


def _expected(index: int) -> dict:
    if index not in SOLVES:
        return SKIPPED
    twin_of, bound_gap, root_bound = SOLVES[index]
    return {**SOLVED, "twin_of": twin_of, "bound_gap": bound_gap,
            "root_bound": root_bound, "lp_iterations": LP_ITERATIONS[index]}


def test_leduc_search_writes_the_pinned_subgame_records(tmp_path, capsys):
    game, plan, out = (tmp_path / name
                       for name in ("game.json", "blueprint.json", "out"))
    assert main(["generate", "--family", "leduc", "--n", "2",
                 "--out", str(game)]) == 0
    assert main(["blueprint", "--game", str(game), "--method", "zerosum",
                 "--out", str(plan)]) == 0
    assert main(["search", "--game", str(game), "--blueprint", str(plan),
                 "--scheme", "leduc", "--out", str(out)]) == 0
    assert "44 subgames, 36 fallbacks, 4 reused from a twin" in \
        capsys.readouterr().out
    paths = sorted(out.glob("subgame-*.json"))
    assert [p.name for p in paths] == [f"subgame-{i:04d}.json"
                                       for i in range(N_SUBGAMES)]
    digest = hashlib.sha256()
    for index, path in enumerate(paths):
        text = path.read_bytes()
        digest.update(text)
        record = json.loads(text)
        assert list(record) == KEYS
        assert record.pop("subgame") == index
        local_plan = record.pop("local_plan")
        assert len(local_plan) == LOCAL_PLAN_SEQS
        assert record == _expected(index), index
    assert digest.hexdigest() == DIGEST
