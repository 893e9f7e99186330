"""Golden digest of the subgame MILPs: every float of every model, hashed.

The digests pin the exact bytes of each model the search builds: variable
names and bounds, objective, rows (indices, coefficients, relation,
right-hand side, name), binaries and the warm-start vector.  A refactor that
claims bit-identical models must leave them unchanged; a change that alters
the model on purpose updates the digest and says why.

The blueprints need no solver (uniform), or their solver answer is a pure
vertex (the stage SSE of the chosen two-stage game), so the digests do not
depend on LP round-off.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from stackelberg_search.blueprint import stage_sse_blueprint, uniform_blueprint
from stackelberg_search.efg import LEADER
from stackelberg_search.games import (
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    goofspiel_game,
    leduc_game,
    two_stage_game,
)
from stackelberg_search.search import (
    build_constrained_milp,
    build_full_milp,
    partition_subgames,
    prepare_search,
)


def _update_model(h, model) -> None:
    lp = model.problem.lp
    h.update("\0".join(lp.names).encode())
    for column in (lp.lower, lp.upper, lp.objective):
        h.update(np.asarray(column, dtype="<f8").tobytes())
    for idx, val, rel, rhs, name in lp.rows:
        h.update(np.asarray(idx, dtype="<i8").tobytes())
        h.update(np.asarray(val, dtype="<f8").tobytes())
        h.update(np.asarray([rhs], dtype="<f8").tobytes())
        h.update(f"{rel}\0{name}\0".encode())
    h.update(np.asarray(model.problem.binaries, dtype="<i8").tobytes())
    h.update(np.asarray(model.warm, dtype="<f8").tobytes())


def _digest(game, blueprint, partition, full_game: bool = False):
    context = prepare_search(game, blueprint, partition)
    h = hashlib.sha256()
    n_models = 0
    for sub in partition:
        q = context.quantities[sub.index]
        if q.eta is None:
            continue
        _update_model(h, build_constrained_milp(
            game, sub, q, context.bounds[sub.index], context.brvs))
        n_models += 1
    if full_game:
        _update_model(h, build_full_milp(game))
        n_models += 1
    return n_models, h.hexdigest()


def _goofspiel():
    game = goofspiel_game(GoofspielSpec(n=3))
    partition = partition_subgames(game, "goofspiel", m=2)
    return _digest(game, uniform_blueprint(game).plan, partition)


def _leduc():
    game = leduc_game(LeducSpec(n=2, rho=0.1))
    partition = partition_subgames(game, "leduc")
    return _digest(game, uniform_blueprint(game).plan, partition)


def _two_stage():
    game = two_stage_game(TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=4))
    blueprint = stage_sse_blueprint(game).plan
    # The stage-one SSE of this game is pure, so it is exact whatever the LP.
    stage1 = game.treeplex(LEADER).actions_of(game.node(game.root).infoset)
    assert set(blueprint.probs[list(stage1)]) == {0.0, 1.0}
    partition = partition_subgames(game, "two-stage")
    return _digest(game, blueprint, partition, full_game=True)


# (builder, number of models, sha256) per configuration.
GOLDEN = {
    "goofspiel-n3-m2-uniform": (
        _goofspiel, 27,
        "5c8ed66472b1897cab9cad1dea24195cfc23ddc3ed397b4db1d447642d870534"),
    "leduc-n2-uniform": (
        _leduc, 44,
        "cad85aa62d31a625bebf80160f77b9b2f46b035afae9cf30ea96ef4e9ce4864f"),
    "twostage-seed4-stage-sse": (
        _two_stage, 5,
        "8237d8ec0a87189c12990e176b008a7f81219ead2448150bba858af19d8c9384"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_subgame_models_match_golden_digest(name):
    build, n_models, digest = GOLDEN[name]
    assert build() == (n_models, digest)
