"""The array flow check and the one payoff builder against plain loops.

The references below are the straightforward implementations: a Python loop
over infosets for the flow check, and per-caller sums of g over the leaves
for the payoff tables, the best-response values and the rows of the
zero-sum blueprint LP.  The library must agree with them bit for bit, and
with the same error messages.
"""

from __future__ import annotations

import numpy as np
import pytest

from stackelberg_search import blueprint as blueprint_module
from stackelberg_search.blueprint import uniform_blueprint, zero_sum_blueprint
from stackelberg_search.efg import (
    FLOW_TOL,
    FOLLOWER,
    LEADER,
    GameError,
    RealizationPlan,
    payoff_tables,
)
from stackelberg_search.games import (
    GoofspielSpec,
    LeducSpec,
    TwoStageSpec,
    goofspiel_game,
    goofspiel_surrogate_payoffs,
    kuhn_game,
    leduc_game,
    two_stage_game,
)
from stackelberg_search.response import TIE_TOL, compute_brvs
from stackelberg_search.solver import LinearProgram, SolverError

GAMES = {
    "kuhn": kuhn_game,
    "goofspiel-n3": lambda: goofspiel_game(GoofspielSpec(n=3)),
    "leduc-n2": lambda: leduc_game(LeducSpec(n=2, rho=0.1)),
}
TABLE_GAMES = dict(GAMES, **{"two-stage": lambda: two_stage_game(
    TwoStageSpec(n=2, M=2, m=2, kappa=0.1, seed=3))})


# ---------------------------------------------------------------------------
# Reference implementations


def reference_check_flow(plan, treeplex, tol=FLOW_TOL) -> None:
    """The per-infoset loop, for plans of the right owner and length."""
    if abs(plan.probs[0] - 1.0) > tol:
        raise GameError(f"empty sequence has probability {plan.probs[0]!r}")
    if np.any(plan.probs < -tol):
        raise GameError("negative sequence probability")
    for infoset in treeplex.infoset_ids:
        entry = plan.probs[treeplex.entry_seq[infoset]]
        total = sum(plan.probs[s] for s in treeplex.actions_of(infoset))
        if abs(entry - total) > tol:
            raise GameError(
                f"flow violated at infoset {infoset}: {entry!r} vs {total!r}")


def reference_payoff_tables(game):
    _, s1, s2, reach, u1, u2 = game.leaf_arrays()
    table = {}
    for k in range(len(reach)):
        key = (int(s1[k]), int(s2[k]))
        entry = table.get(key)
        if entry is None:
            table[key] = np.array([u1[k] * reach[k], u2[k] * reach[k]])
        else:
            entry[0] += u1[k] * reach[k]
            entry[1] += u2[k] * reach[k]
    return table


def reference_brvs(game, r_leader):
    """(brv_seq, brv_inf, best_action, second_value, leader_seq, leader_inf)."""
    tp2 = game.treeplex(FOLLOWER)
    terms = {}
    for (s1, s2), (g1, g2) in reference_payoff_tables(game).items():
        terms.setdefault(s2, []).append((s1, float(g1), float(g2)))
    r1 = r_leader.probs
    brv_seq, brv_inf, best_action, second_value = {}, {}, {}, {}
    leader_seq, leader_inf = {}, {}

    def seq_value(seq_id):
        fv = lv = 0.0
        for s1, g1, g2 in terms.get(seq_id, ()):
            fv += r1[s1] * g2
            lv += r1[s1] * g1
        for infoset in tp2.children_infosets.get(seq_id, ()):
            fv += brv_inf[infoset]
            lv += leader_inf[infoset]
        return fv, lv

    for infoset in reversed(tp2.infoset_ids):
        choices = []
        for seq in tp2.actions_of(infoset):
            fv, lv = seq_value(seq)
            brv_seq[seq] = fv
            leader_seq[seq] = lv
            choices.append((seq, fv, lv))
        best = choices[0]
        for cand in choices[1:]:
            if cand[1] > best[1] + TIE_TOL:
                best = cand
            elif cand[1] > best[1] - TIE_TOL and cand[2] > best[2] + TIE_TOL:
                best = cand
        brv_inf[infoset] = best[1]
        leader_inf[infoset] = best[2]
        best_action[infoset] = best[0]
        others = [fv for seq, fv, _ in choices if seq != best[0]]
        second_value[infoset] = max(others) if others else float("-inf")
    brv_seq[0], leader_seq[0] = seq_value(0)
    return brv_seq, brv_inf, best_action, second_value, leader_seq, leader_inf


def reference_dual_rows(game, surrogate_u1):
    """The zero-sum LP's dual rows, from a per-caller leader g table."""
    tp1, tp2 = game.treeplex(LEADER), game.treeplex(FOLLOWER)
    ids, s1, s2, reach, _, _ = game.leaf_arrays()
    values = np.asarray(surrogate_u1, dtype=float)[ids]
    table = {}
    for k in range(len(ids)):
        key = (int(s1[k]), int(s2[k]))
        table[key] = table.get(key, 0.0) + float(values[k] * reach[k])
    lp = LinearProgram()
    r_vars = [lp.add_var("r", 0.0, 1.0) for _ in range(tp1.n_sequences)]
    v_root = lp.add_var("v", -np.inf, np.inf)
    v_inf = {i: lp.add_var("v", -np.inf, np.inf) for i in tp2.infoset_ids}
    terms_by_s2 = {}
    for (a, b), g in table.items():
        terms_by_s2.setdefault(b, []).append((a, g))
    for seq in range(tp2.n_sequences):
        coeffs = {}
        if seq == 0:
            coeffs[v_root] = 1.0
        else:
            coeffs[v_inf[tp2.sequences[seq].parent_infoset]] = -1.0
        for child in tp2.children_infosets.get(seq, ()):
            coeffs[v_inf[child]] = coeffs.get(v_inf[child], 0.0) + 1.0
        for a, g in terms_by_s2.get(seq, ()):
            coeffs[r_vars[a]] = coeffs.get(r_vars[a], 0.0) - g
        lp.add_constraint(coeffs, "<=", 0.0, name=f"dual-{tp2.seq_label(seq)}")
    return lp.rows


def bits(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


# ---------------------------------------------------------------------------
# Flow check


def verdict(check, plan, tp):
    try:
        check(plan, tp)
    except GameError as exc:
        return str(exc)
    return None


def perturbed_plans(game, player, rng, count):
    """Flow-exact plans, some nudged at one sequence by sub- or
    super-tolerance amounts, some with a zeroed or doubled sequence."""
    tp = game.treeplex(player)
    base = [uniform_blueprint(game).plan.probs] if player == LEADER else []
    for _ in range(count):
        plan = np.zeros(tp.n_sequences)
        plan[0] = 1.0
        for infoset in tp.infoset_ids:
            seqs = tp.actions_of(infoset)
            dist = rng.dirichlet(np.ones(len(seqs)))
            if rng.random() < 0.3:
                dist = np.eye(len(seqs))[rng.integers(len(seqs))]
            plan[list(seqs)] = plan[tp.entry_seq[infoset]] * dist
        base.append(plan)
    for plan in base:
        yield plan
        for scale in (1e-12, 5e-10, 2e-9, 1e-6, 0.1):
            nudged = plan.copy()
            nudged[rng.integers(tp.n_sequences)] += scale * rng.choice([-1, 1])
            yield nudged
        broken = plan.copy()
        seq = rng.integers(1, tp.n_sequences)
        broken[seq] = 0.0 if rng.random() < 0.5 else 2.0 * broken[seq]
        yield broken


@pytest.mark.parametrize("name", GAMES)
def test_check_flow_matches_the_infoset_loop(name):
    game = GAMES[name]()
    rng = np.random.default_rng(7)
    seen = {True: 0, False: 0}
    for player in (LEADER, FOLLOWER):
        tp = game.treeplex(player)
        for probs in perturbed_plans(game, player, rng, 20):
            plan = RealizationPlan(player, probs)
            expected = verdict(reference_check_flow, plan, tp)
            got = verdict(RealizationPlan.check_flow, plan, tp)
            assert got == expected
            seen[expected is None] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["empty", "action", "everywhere"])
def test_check_flow_rejects_non_finite_probabilities(bad, where):
    game = GAMES["kuhn"]()
    tp = game.treeplex(LEADER)
    probs = uniform_blueprint(game).plan.probs.copy()
    if where == "empty":
        probs[0] = bad
    elif where == "action":
        probs[3] = bad
    else:
        probs[:] = bad
    with pytest.raises(GameError, match="non-finite"):
        RealizationPlan(LEADER, probs).check_flow(tp)


# ---------------------------------------------------------------------------
# Payoff tables and their readers


@pytest.mark.parametrize("name", TABLE_GAMES)
def test_payoff_tables_and_brvs_match_the_per_caller_sums(name):
    game = TABLE_GAMES[name]()
    table = payoff_tables(game)
    expected = reference_payoff_tables(game)
    assert list(table) == list(expected)
    assert all(bits(table[k]) == bits(expected[k]) for k in expected)

    rng = np.random.default_rng(11)
    plans = [uniform_blueprint(game).plan]
    for probs in perturbed_plans(game, LEADER, rng, 3):
        plan = RealizationPlan(LEADER, probs)
        if verdict(RealizationPlan.check_flow, plan,
                   game.treeplex(LEADER)) is None:
            plans.append(plan)
    for plan in plans:
        brvs = compute_brvs(game, plan)
        got = (brvs.brv_seq, brvs.brv_inf, brvs.best_action,
               brvs.second_value, brvs.leader_seq, brvs.leader_inf)
        for new, old in zip(got, reference_brvs(game, plan)):
            assert list(new) == list(old)
            assert bits(list(new.values())) == bits(list(old.values()))
        assert brvs.root_follower_value == brvs.brv_seq[0]
        assert brvs.root_leader_value == brvs.leader_seq[0]


def test_surrogate_zero_sum_rows_match_the_per_caller_sums(monkeypatch):
    game = goofspiel_game(GoofspielSpec(n=3))
    surrogate = goofspiel_surrogate_payoffs(game)
    captured = []

    def capture(lp):
        captured.append(lp)
        raise SolverError("captured")

    monkeypatch.setattr(blueprint_module, "solve_lp", capture)
    with pytest.raises(SolverError, match="captured"):
        zero_sum_blueprint(game, surrogate)
    rows = [r for r in captured[0].rows if r[4].startswith("dual-")]
    expected = reference_dual_rows(game, surrogate)
    assert len(rows) == len(expected)
    for (idx, val, rel, rhs, name), (e_idx, e_val, e_rel, e_rhs, e_name) \
            in zip(rows, expected):
        assert (idx, rel, name) == (e_idx, e_rel, e_name)
        assert bits(val) == bits(e_val) and bits([rhs]) == bits([e_rhs])


def test_zero_sum_check_still_guards_the_real_payoffs():
    game = goofspiel_game(GoofspielSpec(n=2))
    with pytest.raises(GameError, match="not zero-sum"):
        zero_sum_blueprint(game)
