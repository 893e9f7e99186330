"""Each SubgameSolution reports the size of its own subgame's model.

n_vars, n_rows and n_binaries are those of the model build_constrained_milp
gives for that subgame, for a fresh solve and for a reused twin alike; a
skipped subgame, which has no model, reports 0 for all three.  `cli search`
writes them into each subgame-NNNN.json.
"""

from __future__ import annotations

import json

import numpy as np

from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.cli import main
from stackelberg_search.efg import (
    LEADER,
    behavioral_to_realization,
    uniform_behavioral,
)
from stackelberg_search.games import (
    TwoStageSpec,
    shared_exit_game,
    two_stage_game,
)
from stackelberg_search.harness import safe_search
from stackelberg_search.search import (
    build_constrained_milp,
    partition_subgames,
    prepare_search,
)

SIZE_FIELDS = ("n_vars", "n_rows", "n_binaries")


def _expected_sizes(game, blueprint, partition) -> dict[int, tuple]:
    """(n_vars, n_rows, n_binaries) per subgame; zeros where none is built."""
    context = prepare_search(game, blueprint, partition)
    sizes = {}
    for sub in partition:
        q = context.quantities[sub.index]
        if q.eta is None:
            sizes[sub.index] = (0, 0, 0)
            continue
        model = build_constrained_milp(game, sub, q,
                                       context.bounds[sub.index],
                                       context.brvs)
        sizes[sub.index] = (model.problem.lp.n_vars,
                            len(model.problem.lp.rows),
                            len(model.problem.binaries))
    return sizes


def test_cli_search_writes_each_subgames_model_size(tmp_path, capsys):
    game_path = tmp_path / "fig3.json"
    plan_path = tmp_path / "blueprint.json"
    out_dir = tmp_path / "search-out"
    assert main(["generate", "--family", "fig3", "--out", str(game_path)]) == 0
    assert main(["blueprint", "--game", str(game_path), "--method", "fixed",
                 "--out", str(plan_path)]) == 0
    assert main(["search", "--game", str(game_path), "--blueprint",
                 str(plan_path), "--scheme", "metadata",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    game = shared_exit_game()
    blueprint = fixed_blueprint(game).plan
    expected = _expected_sizes(game, blueprint,
                               partition_subgames(game, "metadata"))
    records = [json.loads((out_dir / f"subgame-{i:04d}.json").read_text())
               for i in sorted(expected)]
    # The two mirrored subgames: the second reuses the first's solution and
    # still reports its own model, which has rows and binaries.
    assert [r["twin_of"] for r in records] == [None, 0]
    for record in records:
        got = tuple(record[name] for name in SIZE_FIELDS)
        assert got == expected[record["subgame"]]
        assert min(got) > 0


def test_skipped_subgames_report_no_model():
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.9, seed=1))
    bs = uniform_behavioral(game, LEADER)
    bs.probs[game.node(game.root).infoset] = np.array([1.0, 0.0])
    blueprint = behavioral_to_realization(game, bs)
    partition = partition_subgames(game, "two-stage")
    report = safe_search(game, blueprint, partition)
    expected = _expected_sizes(game, blueprint, partition)
    skipped = [s for s in report.solutions
               if s.status == "SkippedUnreachable"]
    assert len(skipped) == 4
    for solution in report.solutions:
        got = tuple(getattr(solution, name) for name in SIZE_FIELDS)
        assert got == expected[solution.index]
        assert (got == (0, 0, 0)) == (solution.status == "SkippedUnreachable")
