"""Hand-built MDP fixtures and a seeded random MDP generator.

All terminal mass flows into the two shared terminal keys, and every row
carries some direct terminal mass so chains are absorbing and gamma = 1
stays well-posed.
"""
from __future__ import annotations

import random

import numpy as np

from .mdp import NOHELP, SuccessModel, TransitionModel, help_action, terminal_key, terminal_outcome

T_SUCC = terminal_key("terminal", "success")
T_FAIL = terminal_key("terminal", "failure")

HELP1 = help_action(1)


def _model(probs: dict) -> TransitionModel:
    support = set()
    for (s, _), row in probs.items():
        support.add(s)
        support.update(row)
    return TransitionModel(probs=probs, support=frozenset(support))


def _exact_success(model: TransitionModel, n_help: int) -> SuccessModel:
    """p(s, a) assuming nohelp continuation after the first branch.

    Solves the absorption system under the nohelp kernel, then pushes each
    branch's one-step law through it.
    """
    states = model.nonterminal_states()
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    P = np.zeros((n, n))
    b = np.zeros(n)
    for s in states:
        for s2, prob in model.row(s, NOHELP).items():
            if terminal_outcome(s2) == "success":
                b[index[s]] += prob
            elif s2 in index:
                P[index[s], index[s2]] += prob
    p_star = np.linalg.solve(np.eye(n) - P, b) if n else np.zeros(0)

    p: dict[tuple[str, str], float] = {}
    actions = [NOHELP] + [help_action(i) for i in range(1, n_help + 1)]
    for s in states:
        for a in actions:
            row = model.row(s, a)
            if row is None:
                continue
            val = 0.0
            for s2, prob in row.items():
                if terminal_outcome(s2) == "success":
                    val += prob
                elif s2 in index:
                    val += prob * p_star[index[s2]]
            p[(s, a)] = float(val)
    return SuccessModel(p=p, provenance="exact")


def mdp_a() -> tuple[TransitionModel, SuccessModel]:
    """One non-terminal state; nohelp succeeds 0.2, help succeeds 0.9."""
    probs = {
        ("s0", NOHELP): {T_SUCC: 0.2, T_FAIL: 0.8},
        ("s0", HELP1): {T_SUCC: 0.9, T_FAIL: 0.1},
    }
    model = _model(probs)
    return model, _exact_success(model, 1)


def mdp_b() -> tuple[TransitionModel, SuccessModel]:
    """Two-state chain with a usage step function at r = 0.2 and r = 0.7."""
    probs = {
        ("s0", NOHELP): {"s1": 1.0},
        ("s0", HELP1): {T_SUCC: 0.5, "s1": 0.5},
        ("s1", NOHELP): {T_SUCC: 0.1, T_FAIL: 0.9},
        ("s1", HELP1): {T_SUCC: 0.8, T_FAIL: 0.2},
    }
    model = _model(probs)
    return model, _exact_success(model, 1)


def corridor_mdp() -> tuple[TransitionModel, SuccessModel]:
    """Three-state corridor where success-score thresholding toggles.

    The trap state s1 self-loops under nohelp and only help advances to s2,
    but the base branch at s2 bounces back into the trap.  A threshold on
    state difficulty fires at s0/s1 (both score 1.0) yet not at s2 (0.7),
    so the thresholded policy ping-pongs s1 -> s2 -> s1 and leaks failures,
    while helping at s2 breaks the cycle.
    """
    probs = {
        ("s0", NOHELP): {"s1": 1.0},
        ("s0", HELP1): {"s1": 1.0},
        ("s1", NOHELP): {"s1": 0.8, T_FAIL: 0.2},
        ("s1", HELP1): {"s2": 0.9, T_FAIL: 0.1},
        ("s2", NOHELP): {T_SUCC: 0.3, "s1": 0.7},
        ("s2", HELP1): {T_SUCC: 0.9, T_FAIL: 0.1},
    }
    model = _model(probs)
    return model, _exact_success(model, 1)


def random_mdp(
    seed: int,
    n_states: int,
    n_help: int = 1,
    branching: tuple[int, int] = (2, 4),
) -> tuple[TransitionModel, SuccessModel]:
    """Seeded random absorbing MDP with nohelp/help1..K rows everywhere.

    Each row mixes 2-4 non-terminal successors with direct terminal mass;
    help rows are biased toward terminal success so the cost trade-off is
    non-trivial.
    """
    rng = random.Random(seed)
    states = [f"s{i:02d}" for i in range(n_states)]
    probs: dict[tuple[str, str], dict[str, float]] = {}
    actions = [NOHELP] + [help_action(i) for i in range(1, n_help + 1)]
    for s in states:
        for a in actions:
            m = rng.randint(*branching)
            succ_states = rng.sample(states, min(m, len(states)))
            weights = {s2: rng.uniform(0.1, 1.0) for s2 in succ_states}
            if a == NOHELP:
                weights[T_SUCC] = rng.uniform(0.05, 0.4)
            else:
                weights[T_SUCC] = rng.uniform(0.2, 0.9)
            weights[T_FAIL] = rng.uniform(0.05, 0.5)
            total = sum(weights.values())
            row = {s2: w / total for s2, w in weights.items()}
            # guard the sum-to-one invariant against rounding drift
            drift = 1.0 - sum(row.values())
            row[T_FAIL] += drift
            probs[(s, a)] = row
    model = _model(probs)
    return model, _exact_success(model, n_help)
