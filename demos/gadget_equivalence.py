"""The terminate/continue gadget enforces bounds without bound constraints.

A subgame plus its head bounds can be rebuilt as a standalone game: chance
deals the entry states with the blueprint's (normalized) reach, and before
each entry state the follower may "terminate" for a payoff equal to its
bound budget — so any refinement that would violate a bound makes terminate
the better response and scores the leader a huge negative sentinel.  Solving
that game with a plain commitment solver gives exactly the same value as the
directly bounded program; this demo shows both numbers side by side.

Run:  python3 demos/gadget_equivalence.py
"""

from __future__ import annotations

from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.gadget import solve_via_gadget, transform_subgame
from stackelberg_search.games import two_subgame_exit_game
from stackelberg_search.search import (
    build_constrained_milp,
    partition_subgames,
    prepare_search,
    solve_subgame,
)


def main():
    game = two_subgame_exit_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    context = prepare_search(game, blueprint, partition)
    quantities, bounds = context.quantities, context.bounds

    for sub in partition:
        q = quantities[sub.index]
        gadget = transform_subgame(game, sub, q, bounds[sub.index])
        root = gadget.game.node(gadget.game.root)
        print(f"--- subgame {sub.index} ---")
        print(f"entry states kept: {gadget.kept_initial}, "
              f"chance weights {tuple(round(p, 3) for p in root.chance_probs)}")
        for child in root.children:
            aux = gadget.game.node(child)
            terminate = gadget.game.node(aux.children[0])
            print(f"terminate payoffs: leader {terminate.payoffs[0]:.3g} "
                  f"(sentinel), follower {terminate.payoffs[1]:.3g} "
                  f"(bound budget)")

        model = build_constrained_milp(game, sub, q, bounds[sub.index],
                                       context.brvs)
        direct = solve_subgame(game, model, blueprint)
        via = solve_via_gadget(game, sub, q, bounds[sub.index])
        print(f"directly bounded program value: {direct.objective:.6f}")
        print(f"gadget commitment value:        {via.value:.6f}")
        print()


if __name__ == "__main__":
    main()
