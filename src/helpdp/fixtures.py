"""Hand-built MDP fixtures, seeded random MDP generators, and
``truncate_counts``, which drops states from a count table for coverage
ablations.

All terminal mass flows into the two shared terminal keys, and every row
carries some direct terminal mass so chains are absorbing and gamma = 1
stays well-posed.  The planner takes finite-horizon models only, whose
states form no cycle: ``mdp_a``, ``mdp_b``, ``corridor_ladder`` and
``layered_mdp``.  ``corridor_mdp`` and ``random_mdp`` hold cycles; they
serve the oracle's own tests and the planner's refusal of a cyclic model.
"""
from __future__ import annotations

import random

import numpy as np

from .mdp import (NOHELP, CountTable, SuccessModel, TransitionModel, help_action, terminal_key,
                  terminal_outcome)

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


def corridor_ladder(horizon: int = 5) -> tuple[TransitionModel, SuccessModel]:
    """``corridor_mdp`` unrolled over steps t = 1..``horizon``: s0 at t = 0,
    then ``s1|t=...`` and ``s2|t=...``, each row's mass on s1 or s2 moving
    to step t + 1 and, past the horizon, to failure.

    Thresholding still toggles: it helps at s0 and at every s1 (score 1.0)
    but not at an s2 (0.7), so it spends calls that helping at s2 saves.
    """
    def at(s: str, t: int) -> str:
        return f"{s}|t={t}" if t <= horizon else T_FAIL

    def row(*pairs: tuple[str, float]) -> dict[str, float]:
        out: dict[str, float] = {}
        for s2, p in pairs:  # s1 or s2 past the horizon adds to T_FAIL
            out[s2] = out.get(s2, 0.0) + p
        return out

    probs = {("s0", NOHELP): row((at("s1", 1), 1.0)), ("s0", HELP1): row((at("s1", 1), 1.0))}
    for t in range(1, horizon + 1):
        probs.update({
            (at("s1", t), NOHELP): row((at("s1", t + 1), 0.8), (T_FAIL, 0.2)),
            (at("s1", t), HELP1): row((at("s2", t + 1), 0.9), (T_FAIL, 0.1)),
            (at("s2", t), NOHELP): row((T_SUCC, 0.3), (at("s1", t + 1), 0.7)),
            (at("s2", t), HELP1): row((T_SUCC, 0.9), (T_FAIL, 0.1)),
        })
    model = _model(probs)
    return model, _exact_success(model, 1)


def _random_row(rng: random.Random, succ_states: list[str], a: str, branching: tuple[int, int]) -> dict[str, float]:
    """A ``branching`` count of ``succ_states`` (as many as there are, if
    fewer) mixed with direct terminal mass; help rows are biased toward
    terminal success so the cost trade-off is non-trivial."""
    m = rng.randint(*branching)
    weights = {s2: rng.uniform(0.1, 1.0) for s2 in rng.sample(succ_states, min(m, len(succ_states)))}
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
    return row


def random_mdp(
    seed: int,
    n_states: int,
    n_help: int = 1,
    branching: tuple[int, int] = (2, 4),
) -> tuple[TransitionModel, SuccessModel]:
    """Seeded random absorbing MDP with nohelp/help1..K rows everywhere,
    whose rows may reach any state, so it holds cycles (``_random_row``)."""
    rng = random.Random(seed)
    states = [f"s{i:02d}" for i in range(n_states)]
    actions = [NOHELP] + [help_action(i) for i in range(1, n_help + 1)]
    model = _model({(s, a): _random_row(rng, states, a, branching) for s in states for a in actions})
    return model, _exact_success(model, n_help)


def layered_mdp(
    seed: int,
    n_states: int,
    n_help: int = 1,
    layers: int = 4,
    branching: tuple[int, int] = (2, 4),
) -> tuple[TransitionModel, SuccessModel]:
    """Seeded random finite-horizon MDP with nohelp/help1..K rows
    everywhere: state ``s{i}`` lies in layer i * ``layers`` // ``n_states``,
    and each row mixes up to 2-4 states of later layers with direct terminal
    mass (``_random_row``), so a row of the last layer is terminal only and
    the states form no cycle."""
    rng = random.Random(seed)
    states = [f"s{i:02d}" for i in range(n_states)]
    layer = [i * layers // n_states for i in range(n_states)]
    actions = [NOHELP] + [help_action(i) for i in range(1, n_help + 1)]
    probs = {}
    for s, t in zip(states, layer):
        later = [s2 for s2, t2 in zip(states, layer) if t2 > t]
        for a in actions:
            probs[(s, a)] = _random_row(rng, later, a, branching)
    model = _model(probs)
    return model, _exact_success(model, n_help)


def truncate_counts(
    table: CountTable, fraction: float, seed: int, keep: str = "random"
) -> CountTable:
    """Drop all rows for a fraction of source states (coverage ablation).

    ``keep="random"`` removes a uniform subset; ``keep="frequent"`` retains
    the most-visited states, mimicking coverage loss in the tail.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if keep == "random":
        states = sorted({s for (s, _, _), _ in table.items()})
        rng = random.Random(seed)
        rng.shuffle(states)
    elif keep == "frequent":
        totals: dict[str, int] = {}
        for (s, _, _), c in table.items():
            totals[s] = totals.get(s, 0) + c
        states = sorted(totals, key=lambda s: (-totals[s], s))
    else:
        raise ValueError(f"unknown keep mode {keep!r}")
    kept = set(states[: max(1, round(fraction * len(states)))])
    out = CountTable()
    for (s, a, s2), c in table.items():
        if s in kept:
            out.record(s, a, s2, c)
    return out
