"""Array core of the planner: the compiled model, the branch values, the
policy rule, the Jacobi sweeps and the exact polish.

This is the one module of the package that imports numpy and scipy, and
only ``planner.solve`` and ``planner.reward_search`` import it, when they
are called; every other command runs without either library.

The model is compiled once into action-indexed arrays over the A = K + 1
actions (nohelp, help1..helpK) and the n non-terminal states: one sparse
(A*n, n) matrix whose row a*n + s holds the non-terminal successors of s
under action a, and an (A, n) array of the mass that reaches terminal
success.  They are made from a ``planner.ModelRows``, which
``planner.model_rows`` has laid out and checked for cycles, so this module
only computes: on an acyclic model the sweeps settle within the longest
path's length plus two, every policy's evaluation system is nonsingular,
and every fixed point is polished.

A sweep keeps S and M side by side in one (n, 1 + K) array X, so one sparse
product ``P @ X`` gives the branch values of every action, (A, n, 1 + K),
and the rest of the sweep is a few whole-array operations per action: each
state's chosen pair a * n + s indexes its row of the branch values, which
becomes its row of the next X.  The arithmetic is that of a sweep over S
and M apart (``oracle.sweep_fixed_point``, which the tests hold it to bit
for bit): each branch value sums its row of ``P`` in CSR order and then
adds its success mass or unit of usage, and each action's value is
S_br - r @ M_br.  The solution tables are built from whole arrays too.
The compiled model keeps the exact evaluation of each policy it has
factorized, so a policy is factorized once however many probes reach it.
An entry is keyed by the policy in one byte per state and holds one
read-only (1 + K, n) array, S in row 0 and M^i in row i, allocated before
the policy's factor so that the freed factor's memory can go back to the
system (``_exact_eval``).
Tunable constants are read from ``planner`` at call time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np
from scipy import sparse
from scipy.sparse import linalg

from . import planner
from .mdp import action_order, terminal_outcome


@dataclass
class _Compiled:
    states: list[str]
    index: dict[str, int]
    actions: list[str]
    n_help: int
    P: sparse.csr_matrix  # (A*n, n); row a*n + s: non-terminal -> non-terminal mass of s under a
    succ: np.ndarray  # (A, n); mass reaching terminal success
    terminals: list[str]  # sorted terminal keys of the support
    pairs: np.ndarray  # (A, n); entry (a, s) is a * n + s, the row of P of the pair
    base: np.ndarray  # (A, n, 1 + K); [succ | 1 in help a's own usage column, 0 elsewhere]
    # policy key -> read-only exact (S, M) of that policy, views of one (1 + K, n) array; see _exact_eval
    evals: dict[bytes, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _compile(rows: planner.ModelRows, n_help: int) -> _Compiled:
    """The arrays of a model laid out as rows."""
    if rows.n_help != n_help:
        raise planner.PlannerError(f"model rows are laid out for K={rows.n_help}, not K={n_help}")
    actions = action_order(n_help)
    shape = (len(actions), len(rows.states))
    P = sparse.csr_matrix((rows.vals, (rows.rows, rows.cols)), shape=(shape[0] * shape[1], shape[1]))
    succ = np.array(rows.succ, dtype=float).reshape(shape)
    base = np.zeros(shape + (1 + n_help,))
    base[:, :, 0] = succ
    for a in range(1, shape[0]):
        base[a, :, a] = 1.0
    return _Compiled(states=rows.states, index={s: i for i, s in enumerate(rows.states)}, actions=actions,
                     n_help=n_help, P=P, succ=succ, terminals=rows.terminals,
                     pairs=np.arange(shape[0] * shape[1]).reshape(shape), base=base)


def _branch_values(comp: _Compiled, X: np.ndarray) -> np.ndarray:
    """One synchronous application of the piecewise recursions per branch.

    ``X`` is (n, 1 + K): S in column 0 and M^i in column i.  Returns Y,
    shape (A, n, 1 + K), whose Y[a] is the same layout for branch a: one
    sparse product ``P @ X`` gives every branch of S and M, and ``base``
    adds S's success mass and the help_i branch's immediate unit of usage
    for intervention i.  Its zeros change no bit: a CSR row sum starts at
    +0.0, so it is never -0.0.
    """
    Y = (comp.P @ X).reshape(comp.base.shape)
    Y += comp.base
    return Y


def _select_value_consistent(comp: _Compiled, r: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Each state's chosen pair a * n + s (its row of ``P``) under the costs
    ``r``: help iff dS > r.dM, handled as a branch-value comparison so all
    sign cases of (dS, dM) resolve without division; ties (within rounding
    noise) keep nohelp, ties among helps keep the lowest index."""
    Q = Y[:, :, 0] - r @ Y[:, :, 1:].transpose(0, 2, 1)  # (A, n); Q[a] = S_br[a] - r @ M_br[a]
    best, best_q = comp.pairs[0], Q[0]
    for a in range(1, len(Q)):
        mask = Q[a] > best_q + planner.TIE_TOL
        best = np.where(mask, comp.pairs[a], best)
        best_q = np.where(mask, Q[a], best_q)
    return best


def _exact_eval(
    comp: _Compiled, cfg: planner.RewardConfig, choice: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (S, M) for a fixed policy via one sparse LU factorization.

    (S, M) depend on the policy alone, not on the costs r, so each distinct
    policy is factorized once per compiled model: a repeat (a probe
    of ``reward_search`` that lands on a policy seen before, or the final
    evaluation of the policy ``_polish`` has just evaluated) returns the
    stored arrays.  An entry is keyed by ``choice`` in the narrowest
    unsigned integer that holds K, one byte per state for K < 256, and holds
    one read-only (1 + K, n) array, S in row 0 and M^i in row i, of which S
    and M are views, so that no caller can alter them.  The array is
    allocated before the policy's matrix and its factor, and ``lu.solve``'s
    results are copied into it: an entry made after the factor would sit
    above the factor's freed memory and keep the allocator from returning
    it, about 1 MB per paper-scale policy.
    """
    key = choice.astype(np.min_scalar_type(cfg.n_help)).tobytes()
    hit = comp.evals.get(key)
    if hit is not None:
        return hit
    n = len(comp.states)
    entry = np.empty((1 + cfg.n_help, n))  # before the factor (see the docstring)
    idx = np.arange(n)
    P_pi = comp.P[choice * n + idx]  # each state's chosen-action row
    A = (sparse.identity(n, format="csc") - P_pi).tocsc()
    lu = linalg.splu(A)  # nonsingular: on an acyclic model A is unit triangular up to the state order
    entry[0] = lu.solve(comp.succ[choice, idx])
    for i in range(1, 1 + cfg.n_help):
        entry[i] = lu.solve((choice == i).astype(float))
    entry.flags.writeable = False
    comp.evals[key] = hit = entry[0], entry[1:]
    return hit


def _polish(comp: _Compiled, cfg: planner.RewardConfig, choice: np.ndarray) -> np.ndarray:
    """Exact polish: evaluate the policy by linear solve, re-derive it from
    the exact values, repeat until stable (finite, usually 1-2 rounds; a
    policy seen before also ends it).  The returned policy is, unless the
    100 rounds ran out, the last one evaluated, so the caller's own
    ``_exact_eval`` of it is a lookup."""
    n = len(comp.states)
    r = np.asarray(cfg.r)
    seen: set[bytes] = set()
    for _ in range(100):
        S, M = _exact_eval(comp, cfg, choice)
        new_choice = _select_value_consistent(comp, r, _branch_values(comp, np.column_stack((S, M.T)))) // n
        if np.array_equal(new_choice, choice):
            break
        key = new_choice.tobytes()
        if key in seen:
            break
        seen.add(key)
        choice = new_choice
    return choice


# (S, M, choice, iterations) of one fixed point, over comp.states
_Core = tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _fixed_point(comp: _Compiled, cfg: planner.RewardConfig) -> _Core:
    """Jacobi sweeps, then the exact polish.  A sweep takes each state's
    chosen row of the branch values as a whole: S and M of the next sweep
    are one (n, 1 + K) array."""
    A, n = comp.succ.shape
    r = np.asarray(cfg.r)
    X = np.zeros((n, 1 + cfg.n_help))
    for iterations in count(1):
        Y = _branch_values(comp, X)
        pairs = _select_value_consistent(comp, r, Y)
        new_X = Y.reshape(A * n, X.shape[1]).take(pairs, axis=0)
        delta = float(np.max(np.abs(new_X - X), initial=0.0))
        X = new_X
        if delta < planner.EPSILON:
            break

    choice = _polish(comp, cfg, pairs // n)
    S, M = _exact_eval(comp, cfg, choice)
    return S, M, choice, iterations


def _to_solution(comp: _Compiled, cfg: planner.RewardConfig, core: _Core) -> planner.Solution:
    """String-keyed tables of one fixed point, terminal states included."""
    S, M, choice, iterations = core
    states, actions = comp.states, comp.actions
    usage = dict(zip(states, zip(*M.tolist())))
    succ_tbl = dict(zip(states, S.tolist()))
    # one dot product r @ M[:, j] per state: r @ M as a whole sums in another order
    value = dict(zip(states, (S - (np.asarray(cfg.r) @ M.T[:, :, None])[:, 0]).tolist()))
    policy = dict(zip(states, [actions[c] for c in choice.tolist()]))
    for s in comp.terminals:
        win = 1.0 if terminal_outcome(s) == "success" else 0.0
        usage[s] = (0.0,) * cfg.n_help
        succ_tbl[s] = win
        value[s] = win
    return planner.Solution(
        usage=usage,
        success=succ_tbl,
        policy=policy,
        value=value,
        r=tuple(cfg.r),
        iterations_run=iterations,
        converged=True,
    )
