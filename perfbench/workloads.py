"""The benchmark's workloads: which games, which pipeline settings, which
fixed facts their outputs must reproduce.

Every workload is a closed loop with one client: one process, ``workers=1``,
and the next game starts only after the previous one returns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from stackelberg_search.games import serialize_game
from stackelberg_search.harness import ExperimentConfig, GameSpec

SWEEP_GAMES = 100
SWEEP_KAPPAS = (0.0, 0.1, 0.9)
LEDUC_CAP_S = 1.0
GOOFSPIEL_CAP_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], ExperimentConfig]
    # Builds made and thrown away after each game run, so setup_s is a
    # median over several builds spread over the whole run, even when one
    # round fills it.
    extra_setups: int
    # Leader EV of the (seed-independent) blueprint, to 9 decimals.
    blueprint_ev: Optional[float] = None

    def config(self, seed: int) -> ExperimentConfig:
        config = self.make_config(seed)
        config.validate()
        return config


def _twostage_sweep(seed: int) -> ExperimentConfig:
    games = tuple(
        GameSpec.from_dict({"family": "twostage", "n": 2, "M": 2, "m": 2,
                            "kappa": SWEEP_KAPPAS[i % len(SWEEP_KAPPAS)],
                            "seed": seed + i})
        for i in range(SWEEP_GAMES))
    return ExperimentConfig(games=games, blueprint_method="stage-sse",
                            scheme="two-stage", solve_full_game=True,
                            seed=seed)


def _goofspiel_pipeline(seed: int) -> ExperimentConfig:
    # Goofspiel has no generator randomness: the seed changes nothing.
    return ExperimentConfig(
        games=(GameSpec.from_dict({"family": "goofspiel", "n": 4}),),
        blueprint_method="zerosum", scheme="goofspiel", scheme_m=2)


def _goofspiel_capped(seed: int) -> ExperimentConfig:
    # ROADMAP's Goofspiel workload.  Most of its time is cap time, so unlike
    # goofspiel-pipeline its run time barely moves with the machine's speed.
    return ExperimentConfig(
        games=(GameSpec.from_dict({"family": "goofspiel", "n": 4}),),
        blueprint_method="zerosum", scheme="goofspiel", scheme_m=3,
        subgame_time_limit=GOOFSPIEL_CAP_S)


def _leduc_capped(seed: int) -> ExperimentConfig:
    # Leduc has no generator randomness: the seed changes nothing.
    return ExperimentConfig(
        games=(GameSpec.from_dict({"family": "leduc", "n": 3, "rho": 0.1}),),
        blueprint_method="zerosum", scheme="leduc",
        subgame_time_limit=LEDUC_CAP_S)


WORKLOADS = {
    w.name: w for w in (
        Workload("twostage-sweep", _twostage_sweep, extra_setups=4),
        Workload("goofspiel-pipeline", _goofspiel_pipeline, extra_setups=1,
                 blueprint_ev=3.015151515),
        Workload("goofspiel-capped", _goofspiel_capped, extra_setups=2,
                 blueprint_ev=3.015151515),
        Workload("leduc-capped", _leduc_capped, extra_setups=2,
                 blueprint_ev=-0.118271952),
    )
}


def inputs_digest(config: ExperimentConfig) -> str:
    """SHA-256 over the serialized games a config materializes."""
    digest = hashlib.sha256()
    for spec in config.games:
        digest.update(serialize_game(spec.materialize()).encode())
    return digest.hexdigest()
