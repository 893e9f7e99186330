"""How head-infoset bounds are carved out of best-response slack.

The fixture is a single-follower decision tree with two subgames whose head
infosets sit below a chain of follower choices.  Walking down from the root,
every branch keeps a budget: along the path the blueprint's best response
actually takes (the trunk), the budget is a *lower* bound the refinement must
still grant the follower; off the trunk it is an *upper* bound the
refinement must not exceed (or the follower would switch onto that path).
alpha interpolates each branch point between the follower's second-best (0)
and best (1) action values; beta multiplies the trunk slack and is unsafe
above 1.

Run:  python3 demos/bound_construction.py
"""

from __future__ import annotations

from stackelberg_search.blueprint import fixed_blueprint
from stackelberg_search.efg import FOLLOWER
from stackelberg_search.games import bounds_demo_game
from stackelberg_search.search import partition_subgames, prepare_search


def main():
    game = bounds_demo_game()
    blueprint = fixed_blueprint(game).plan
    partition = partition_subgames(game, "metadata")
    tp2 = game.treeplex(FOLLOWER)

    alphas = (0.0, 0.5, 1.0)
    contexts = [prepare_search(game, blueprint, partition, alpha, 1.0)
                for alpha in alphas]
    follower_value = contexts[0].brvs.root_follower_value

    print(f"follower best-response value at the root: {follower_value:.2f}")
    print()
    for alpha, context in zip(alphas, contexts):
        bounds, trace = context.bounds, context.trace
        print(f"--- alpha = {alpha} ---")
        print("visited follower sequences (direction, budget):")
        for seq, (direction, value) in sorted(trace.seq.items()):
            mark = "trunk" if direction == "lower" else "off  "
            print(f"  {mark}  {tp2.seq_label(seq):<8} {direction:>5}"
                  f"  {value:>7.2f}")
        print("frozen head bounds per subgame:")
        for index in sorted(bounds):
            for infoset, (direction, value) in sorted(
                    bounds[index].bounds.items()):
                rel = ">=" if direction == "lower" else "<="
                print(f"  subgame {index}: value(I{infoset}) {rel} "
                      f"{value:.2f}")
        print()
    print("Larger alpha keeps more of the best response's advantage in the")
    print("bounds (tighter for the leader, safer-looking for the follower);")
    print("alpha=0 only preserves what the second-best alternatives force.")


if __name__ == "__main__":
    main()
