"""Array core of the planner: the compiled model, the branch values, the
policy rule, the Jacobi sweeps and the exact polish.

This is the one module of the package that imports numpy and scipy, and
only ``planner.solve`` and ``planner.reward_search`` import it, when they
are called; every other command runs without either library.

The model is compiled once into action-indexed arrays over the A = K + 1
actions (nohelp, help1..helpK) and the n non-terminal states: one sparse
(A*n, n) matrix whose row a*n + s holds the non-terminal successors of s
under action a, and an (A, n) array of the mass that reaches terminal
success.  One builder makes them from a ``planner.ModelRows``: the ``solve``
and ``search`` commands read those rows straight from ``counts.jsonl``
(``pipeline.solvable_rows``), and a ``TransitionModel`` is first laid out as
rows by ``_rows``.  Branch values are (A, n) for S and (A, K, n) for M, so a
policy is a choice vector indexing them directly.  The compiled model keeps the
exact evaluation of each policy it has factorized, so a policy is
factorized once however many probes reach it.  Tunable constants are read
from ``planner`` at call time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg

from . import planner
from .mdp import TransitionModel, action_order, terminal_outcome


@dataclass
class _Compiled:
    states: list[str]
    index: dict[str, int]
    actions: list[str]
    n_help: int
    P: sparse.csr_matrix  # (A*n, n); row a*n + s: non-terminal -> non-terminal mass of s under a
    succ: np.ndarray  # (A, n); mass reaching terminal success
    terminals: list[str]  # sorted terminal keys of the support
    # choice bytes -> read-only exact (S, M) of that policy; see _exact_eval
    evals: dict[bytes, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _rows(model: TransitionModel, n_help: int) -> planner.ModelRows:
    """``model`` in the solver's layout; every state needs every action row."""
    states = model.nonterminal_states()
    index = {s: i for i, s in enumerate(states)}
    actions = action_order(n_help)
    n = len(states)
    rows, cols, vals = [], [], []
    succ = [0.0] * (len(actions) * n)
    exits = [0] * (len(actions) * n)
    for ai, a in enumerate(actions):
        for s in states:
            row = model.row(s, a)
            if row is None:
                raise planner.PlannerError(f"missing action row ({s!r}, {a!r})")
            at = ai * n + index[s]
            for s2, p in row.items():
                outcome = terminal_outcome(s2)
                if outcome is not None:
                    exits[at] += 1
                    if outcome == "success":
                        succ[at] += p
                else:
                    rows.append(at)
                    cols.append(index[s2])
                    vals.append(p)
    terminals = sorted(s for s in model.support if terminal_outcome(s) is not None)
    return planner.ModelRows(states=states, terminals=terminals, n_help=n_help, rows=rows, cols=cols,
                             vals=vals, succ=succ, exits=exits, observed=n)


def _compile(model: TransitionModel | planner.ModelRows, n_help: int) -> _Compiled:
    """The arrays of a model, given as rows or laid out as rows first."""
    rows = model if isinstance(model, planner.ModelRows) else _rows(model, n_help)
    if rows.n_help != n_help:
        raise planner.PlannerError(f"model rows are laid out for K={rows.n_help}, not K={n_help}")
    actions = action_order(n_help)
    shape = (len(actions), len(rows.states))
    # explicit zeros stay stored, so the sparsity pattern is the row support
    P = sparse.csr_matrix((rows.vals, (rows.rows, rows.cols)), shape=(shape[0] * shape[1], shape[1]))
    comp = _Compiled(states=rows.states, index={s: i for i, s in enumerate(rows.states)}, actions=actions,
                     n_help=n_help, P=P, succ=np.array(rows.succ, dtype=float).reshape(shape),
                     terminals=rows.terminals)
    _check_absorbing(comp, np.array(rows.exits, dtype=int).reshape(shape))
    return comp


def _check_absorbing(comp: _Compiled, exits: np.ndarray) -> None:
    """Reject a model on which some policy admits a terminal-free recurrent
    class: undiscounted S and M are undefined there, and the policy's
    evaluation system is singular.

    A nonempty set B of non-terminal states is trapping iff every s in B has
    some action whose whole successor support stays inside B.  One worklist
    pass over the edges finds the largest such B: ``out`` counts the
    successors of each (action, state) outside the live set (terminals
    always are); a state leaves once no action has ``out == 0``.
    """
    n = len(comp.states)
    # column j lists the pairs a * n + s with an edge s -a-> j
    into = comp.P.tocsc()
    preds, bounds = into.indices.tolist(), into.indptr.tolist()
    out = exits.ravel().tolist()
    keeps = np.count_nonzero(exits == 0, axis=0).tolist()  # actions with out == 0
    work = [i for i, k in enumerate(keeps) if k == 0]
    while work:
        j = work.pop()
        for pair in preds[bounds[j]:bounds[j + 1]]:
            out[pair] += 1
            if out[pair] == 1:
                i = pair % n
                keeps[i] -= 1
                if keeps[i] == 0:
                    work.append(i)
    alive = [s for s, k in zip(comp.states, keeps) if k]
    if alive:
        raise planner.PlannerError(f"improper chain: trapping non-terminal states {alive[:5]}")


def _branch_values(comp: _Compiled, S: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous application of the piecewise recursions per branch.

    Returns S_br (shape (A, n)) and M_br (shape (A, K, n)); the help_i
    branch of M adds the immediate unit of usage for intervention i.
    """
    A, n, K = len(comp.actions), len(comp.states), comp.n_help
    S_br = (comp.P @ S).reshape(A, n) + comp.succ
    M_br = (comp.P @ M.T).reshape(A, n, K).transpose(0, 2, 1)
    M_br[np.arange(1, K + 1), np.arange(K)] += 1.0
    return S_br, M_br


def _select_value_consistent(cfg: planner.RewardConfig, S_br: np.ndarray, M_br: np.ndarray) -> np.ndarray:
    # help iff dS > r.dM, handled as a branch-value comparison so all sign
    # cases of (dS, dM) resolve without division; ties (within rounding
    # noise) keep nohelp, ties among helps keep the lowest index.
    r = np.asarray(cfg.r)
    best = np.zeros(S_br.shape[1], dtype=int)
    best_q = S_br[0] - r @ M_br[0]
    for ai in range(1, len(S_br)):
        q = S_br[ai] - r @ M_br[ai]
        mask = q > best_q + planner.TIE_TOL
        best[mask] = ai
        best_q = np.where(mask, q, best_q)
    return best


def _exact_eval(
    comp: _Compiled, cfg: planner.RewardConfig, choice: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (S, M) for a fixed policy via one sparse LU factorization.

    (S, M) depend on the policy alone, not on the costs r, so each distinct
    policy is factorized once per compiled model: a repeat (a probe
    of ``reward_search`` that lands on a policy seen before, or the final
    evaluation of the policy ``_polish`` has just evaluated) returns the
    stored arrays, which are read-only so that no caller can alter them.
    """
    n = len(comp.states)
    if n == 0:
        return np.zeros(0), np.zeros((cfg.n_help, 0))
    key = choice.tobytes()
    hit = comp.evals.get(key)
    if hit is not None:
        return hit
    idx = np.arange(n)
    P_pi = comp.P[choice * n + idx]  # each state's chosen-action row
    A = (sparse.identity(n, format="csc") - P_pi).tocsc()
    try:
        lu = linalg.splu(A)
    except RuntimeError as exc:  # singular factor
        raise planner.PlannerError(f"singular policy-evaluation system: {exc}") from exc
    S = lu.solve(comp.succ[choice, idx])
    M = np.zeros((cfg.n_help, n))
    for i in range(cfg.n_help):
        ind = (choice == i + 1).astype(float)
        M[i] = lu.solve(ind)
    S.flags.writeable = M.flags.writeable = False
    comp.evals[key] = S, M
    return S, M


def _polish(comp: _Compiled, cfg: planner.RewardConfig, choice: np.ndarray) -> np.ndarray:
    """Exact polish: evaluate the policy by linear solve, re-derive it from
    the exact values, repeat until stable (finite, usually 1-2 rounds; a
    policy seen before also ends it).  The returned policy is, unless the
    100 rounds ran out, the last one evaluated, so the caller's own
    ``_exact_eval`` of it is a lookup."""
    seen: set[bytes] = set()
    for _ in range(100):
        new_choice = _select_value_consistent(cfg, *_branch_values(comp, *_exact_eval(comp, cfg, choice)))
        if np.array_equal(new_choice, choice):
            break
        key = new_choice.tobytes()
        if key in seen:
            break
        seen.add(key)
        choice = new_choice
    return choice


# (S, M, choice, iterations, converged) of one fixed point, over comp.states
_Core = tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]


def _fixed_point(comp: _Compiled, cfg: planner.RewardConfig) -> _Core:
    """Jacobi sweeps, then the exact polish."""
    n = len(comp.states)
    idx = np.arange(n)
    S = np.zeros(n)
    M = np.zeros((cfg.n_help, n))
    converged = False
    for iterations in range(1, planner.MAX_SWEEPS + 1):
        S_br, M_br = _branch_values(comp, S, M)
        choice = _select_value_consistent(cfg, S_br, M_br)
        new_S = S_br[choice, idx]
        new_M = M_br[choice, :, idx].T
        delta = max(float(np.max(np.abs(new_M - M), initial=0.0)),
                    float(np.max(np.abs(new_S - S), initial=0.0)))
        S, M = new_S, new_M
        if delta < planner.EPSILON:
            converged = True
            break

    if converged:
        choice = _polish(comp, cfg, choice)
    S, M = _exact_eval(comp, cfg, choice)
    return S, M, choice, iterations, converged


def _to_solution(comp: _Compiled, cfg: planner.RewardConfig, core: _Core) -> planner.Solution:
    """String-keyed tables of one fixed point, terminal states included."""
    S, M, choice, iterations, converged = core
    r = np.asarray(cfg.r)
    usage = {s: tuple(float(M[i, j]) for i in range(cfg.n_help)) for s, j in comp.index.items()}
    succ_tbl = {s: float(S[j]) for s, j in comp.index.items()}
    value = {s: float(S[j] - r @ M[:, j]) for s, j in comp.index.items()}
    policy = {s: comp.actions[choice[j]] for s, j in comp.index.items()}
    for s in comp.terminals:
        win = 1.0 if terminal_outcome(s) == "success" else 0.0
        usage[s] = tuple(0.0 for _ in range(cfg.n_help))
        succ_tbl[s] = win
        value[s] = win
    return planner.Solution(
        usage=usage,
        success=succ_tbl,
        policy=policy,
        value=value,
        r=tuple(cfg.r),
        iterations_run=iterations,
        converged=converged,
    )
