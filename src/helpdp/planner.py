"""Offline DP core: usage/policy fixed-point iteration, the V = S - r.M
decomposition, and binary reward search against a usage budget.

The fixed point is computed in two stages: synchronous (Jacobi) sweeps of
the usage/policy recursion until the max-norm change drops below
``EPSILON``, then an exact polish that evaluates the stabilized policy by a
sparse linear solve and re-derives the policy from the exact values until
it stops changing.  The polish removes the iteration tail, so converged
solutions satisfy the value decomposition to ~1e-12.  A solve that has not
converged after ``MAX_SWEEPS`` sweeps is returned with ``converged`` False.

The model is compiled once into action-indexed arrays over the A = K + 1
actions (nohelp, help1..helpK) and the n non-terminal states: one sparse
(A*n, n) matrix whose row a*n + s holds the non-terminal successors of s
under action a, and an (A, n) array of the mass that reaches terminal
success.  Branch values are (A, n) for S and (A, K, n) for M, so a policy
is a choice vector indexing them directly.  ``reward_search`` compiles once
per search and runs every probe on those arrays, and the compiled model
keeps the exact evaluation of each policy it has factorized, so a policy is
factorized once however many probes reach it; string keys appear only in
the ``Solution`` tables.  scipy is imported by the functions that build or
factor those arrays, so importing this module does not load it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

from .mdp import SuccessModel, TransitionModel, action_order, terminal_outcome

DM_ZERO_TOL = 1e-9  # |dM| below this defaults the paper-literal rule to nohelp
TIE_TOL = 1e-12  # branch values closer than this count as a tie (nohelp wins)
EPSILON = 1e-8  # the sweeps stop once no S or M entry changes by this much
MAX_SWEEPS = 10_000  # a fixed point still moving after this many sweeps is unconverged


class PlannerError(ValueError):
    pass


class BudgetInfeasibleError(PlannerError):
    def __init__(self, budget: float, usage_at_hi: float, r_hi: float) -> None:
        super().__init__(
            f"budget infeasible within bounds: E[U]={usage_at_hi:.6g} > C={budget:.6g} at r={r_hi:.6g}"
        )
        self.budget = budget
        self.usage_at_hi = usage_at_hi
        self.r_hi = r_hi


@dataclass(frozen=True)
class RewardConfig:
    """Per-help costs and policy rule.

    ``r`` holds one nonnegative cost per intervention type; ``variant``
    selects the policy rule ('value_consistent' default, 'paper_literal'
    for the published threshold with success-weighted usage differences).
    Nothing is discounted, since the budget counts intervention calls and M
    is that count only undiscounted: ``gamma`` accepts 1.0 alone, so callers
    that spell the discount out keep working.
    """

    r: tuple[float, ...]
    gamma: float = 1.0
    variant: str = "value_consistent"

    def __post_init__(self) -> None:
        if not self.r:
            raise PlannerError("at least one help cost is required")
        if any(ri < 0 for ri in self.r):
            raise PlannerError(f"help costs must be >= 0, got {self.r}")
        if self.gamma != 1.0:
            raise PlannerError(f"gamma is fixed at 1.0, got {self.gamma}")
        if self.variant not in ("value_consistent", "paper_literal"):
            raise PlannerError(f"unknown variant {self.variant!r}")

    @property
    def n_help(self) -> int:
        return len(self.r)

    @property
    def reads_success(self) -> bool:
        """Only the paper-literal rule reads a success model."""
        return self.variant == "paper_literal"


@dataclass(frozen=True)
class Solution:
    """Converged usage/success/policy tables plus the value function."""

    usage: dict[str, tuple[float, ...]]
    success: dict[str, float]
    policy: dict[str, str]
    value: dict[str, float]
    r: tuple[float, ...]
    variant: str
    iterations_run: int
    converged: bool
    expected_usage: tuple[float, ...] | None = None

    @property
    def n_help(self) -> int:
        return len(self.r)


@dataclass
class _Compiled:
    states: list[str]
    index: dict[str, int]
    actions: list[str]
    n_help: int
    P: sparse.csr_matrix  # (A*n, n); row a*n + s: non-terminal -> non-terminal mass of s under a
    succ: np.ndarray  # (A, n); mass reaching terminal success
    # choice bytes -> read-only exact (S, M) of that policy; see _exact_eval
    evals: dict[bytes, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _compile(model: TransitionModel, n_help: int) -> _Compiled:
    from scipy import sparse

    states = model.nonterminal_states()
    index = {s: i for i, s in enumerate(states)}
    actions = action_order(n_help)
    n = len(states)
    rows, cols, vals = [], [], []
    succ = np.zeros((len(actions), n))
    exits = np.zeros((len(actions), n), dtype=int)  # terminal successors per (action, state)
    for ai, a in enumerate(actions):
        for s in states:
            row = model.row(s, a)
            if row is None:
                raise PlannerError(f"missing action row ({s!r}, {a!r})")
            i = index[s]
            for s2, p in row.items():
                outcome = terminal_outcome(s2)
                if outcome is not None:
                    exits[ai, i] += 1
                    if outcome == "success":
                        succ[ai, i] += p
                else:
                    rows.append(ai * n + i)
                    cols.append(index[s2])
                    vals.append(p)
    # explicit zeros stay stored, so the sparsity pattern is the row support
    P = sparse.csr_matrix((vals, (rows, cols)), shape=(len(actions) * n, n))
    comp = _Compiled(states=states, index=index, actions=actions, n_help=n_help, P=P, succ=succ)
    _check_absorbing(comp, exits)
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
        raise PlannerError(f"improper chain: trapping non-terminal states {alive[:5]}")


def _success_arrays(
    comp: _Compiled, cfg: RewardConfig, success: SuccessModel | None
) -> np.ndarray | None:
    """(A, n) success estimates, for the rules that read them."""
    if not cfg.reads_success:
        return None
    if success is None:
        raise PlannerError("paper_literal variant requires a success model")
    out = np.empty((len(comp.actions), len(comp.states)))
    for ai, a in enumerate(comp.actions):
        for s, i in comp.index.items():
            if not success.has(s, a):
                raise PlannerError(f"no success estimate for ({s!r}, {a!r})")
            out[ai, i] = success.get(s, a)
    return out


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


def _select_value_consistent(cfg: RewardConfig, S_br: np.ndarray, M_br: np.ndarray) -> np.ndarray:
    # help iff dS > r.dM, handled as a branch-value comparison so all sign
    # cases of (dS, dM) resolve without division; ties (within rounding
    # noise) keep nohelp, ties among helps keep the lowest index.
    r = np.asarray(cfg.r)
    best = np.zeros(S_br.shape[1], dtype=int)
    best_q = S_br[0] - r @ M_br[0]
    for ai in range(1, len(S_br)):
        q = S_br[ai] - r @ M_br[ai]
        mask = q > best_q + TIE_TOL
        best[mask] = ai
        best_q = np.where(mask, q, best_q)
    return best


def _select_paper_literal(cfg: RewardConfig, M_br: np.ndarray, p: np.ndarray) -> np.ndarray:
    # help_i passes iff r_i < dp_i / dM_i with dM_i = p_i M_i^i - p_0 M_0^i;
    # among passing helps the lowest combined cost r.M wins (ties
    # keep the lowest index), and with none passing nohelp stays
    K = cfg.n_help
    helps = np.arange(K)
    dp = p[1:] - p[0]
    dM = p[1:] * M_br[helps + 1, helps] - p[0] * M_br[0]
    usable = np.abs(dM) >= DM_ZERO_TOL
    passing = usable & (np.asarray(cfg.r)[:, None] < dp / np.where(usable, dM, 1.0))
    cost = sum(cfg.r[j] * M_br[1:, j] for j in range(K))
    best = np.argmin(np.where(passing, cost, np.inf), axis=0)
    return np.where(passing.any(axis=0), best + 1, 0)


def _select(
    cfg: RewardConfig, S_br: np.ndarray, M_br: np.ndarray, p: np.ndarray | None
) -> np.ndarray:
    if cfg.variant == "paper_literal":
        return _select_paper_literal(cfg, M_br, p)
    return _select_value_consistent(cfg, S_br, M_br)


def _exact_eval(
    comp: _Compiled, cfg: RewardConfig, choice: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (S, M) for a fixed policy via one sparse LU factorization.

    (S, M) depend on the policy alone, not on the costs r, so each distinct
    policy is factorized once per compiled model: a repeat (a probe
    of ``reward_search`` that lands on a policy seen before, or the final
    evaluation of the policy ``_polish`` has just evaluated) returns the
    stored arrays, which are read-only so that no caller can alter them.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

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
        lu = splu(A)
    except RuntimeError as exc:  # singular factor
        raise PlannerError(f"singular policy-evaluation system: {exc}") from exc
    S = lu.solve(comp.succ[choice, idx])
    M = np.zeros((cfg.n_help, n))
    for i in range(cfg.n_help):
        ind = (choice == i + 1).astype(float)
        M[i] = lu.solve(ind)
    S.flags.writeable = M.flags.writeable = False
    comp.evals[key] = S, M
    return S, M


def _polish(comp: _Compiled, cfg: RewardConfig, choice: np.ndarray, reselect: Callable) -> np.ndarray:
    """Exact polish: evaluate the policy by linear solve, re-derive it from
    the exact values with ``reselect(S, M)``, repeat until stable (finite,
    usually 1-2 rounds; a policy seen before also ends it).  The returned
    policy is, unless the 100 rounds ran out, the last one evaluated, so
    the caller's own ``_exact_eval`` of it is a lookup."""
    seen: set[bytes] = set()
    for _ in range(100):
        new_choice = reselect(*_exact_eval(comp, cfg, choice))
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


def _fixed_point(comp: _Compiled, cfg: RewardConfig, p: np.ndarray | None) -> _Core:
    """Array core of the solver: Jacobi sweeps, then the exact polish."""
    n = len(comp.states)
    idx = np.arange(n)
    S = np.zeros(n)
    M = np.zeros((cfg.n_help, n))
    converged = False
    for iterations in range(1, MAX_SWEEPS + 1):
        S_br, M_br = _branch_values(comp, S, M)
        choice = _select(cfg, S_br, M_br, p)
        new_S = S_br[choice, idx]
        new_M = M_br[choice, :, idx].T
        delta = max(float(np.max(np.abs(new_M - M), initial=0.0)),
                    float(np.max(np.abs(new_S - S), initial=0.0)))
        S, M = new_S, new_M
        if delta < EPSILON:
            converged = True
            break

    if converged:
        choice = _polish(
            comp, cfg, choice, lambda S, M: _select(cfg, *_branch_values(comp, S, M), p)
        )
    S, M = _exact_eval(comp, cfg, choice)
    return S, M, choice, iterations, converged


def _to_solution(model: TransitionModel, comp: _Compiled, cfg: RewardConfig, core: _Core) -> Solution:
    """String-keyed tables of one fixed point, terminal states included."""
    S, M, choice, iterations, converged = core
    r = np.asarray(cfg.r)
    usage = {s: tuple(float(M[i, j]) for i in range(cfg.n_help)) for s, j in comp.index.items()}
    succ_tbl = {s: float(S[j]) for s, j in comp.index.items()}
    value = {s: float(S[j] - r @ M[:, j]) for s, j in comp.index.items()}
    policy = {s: comp.actions[choice[j]] for s, j in comp.index.items()}
    for s in sorted(model.support):
        outcome = terminal_outcome(s)
        if outcome is not None:
            win = 1.0 if outcome == "success" else 0.0
            usage[s] = tuple(0.0 for _ in range(cfg.n_help))
            succ_tbl[s] = win
            value[s] = win
    return Solution(
        usage=usage,
        success=succ_tbl,
        policy=policy,
        value=value,
        r=tuple(cfg.r),
        variant=cfg.variant,
        iterations_run=iterations,
        converged=converged,
    )


def solve(model: TransitionModel, success: SuccessModel | None, cfg: RewardConfig) -> Solution:
    """Usage/policy fixed point for any number K >= 1 of interventions."""
    comp = _compile(model, cfg.n_help)
    p = _success_arrays(comp, cfg, success)
    return _to_solution(model, comp, cfg, _fixed_point(comp, cfg, p))


def expected_usage(sol: Solution, starts: Sequence[str]) -> tuple[float, ...]:
    """Mean per-intervention usage over every given start: the budget's one
    definition.  A start with no usage entry (off the model) adds 0, since
    the helper's nohelp fallback spends nothing there."""
    if not starts:
        raise PlannerError("no start states")
    acc = np.zeros(sol.n_help)
    for s in starts:
        u = sol.usage.get(s)
        if u is not None:
            acc += np.asarray(u)
    return tuple(float(x) for x in acc / len(starts))


def decomposition_residual(sol: Solution) -> float:
    """max_s |V_s - (S_s - sum_i r_i M_s^i)| over all states."""
    r = np.asarray(sol.r)
    worst = 0.0
    for s, v in sol.value.items():
        resid = abs(v - (sol.success[s] - float(r @ np.asarray(sol.usage[s]))))
        worst = max(worst, resid)
    return worst


@dataclass(frozen=True)
class SearchResult:
    r: float
    solution: Solution  # its expected_usage is the E[U] at r
    trace: tuple[tuple[float, float], ...]  # probed (r, E[U]) pairs


def reward_search(
    model: TransitionModel,
    success: SuccessModel | None,
    budget: float,
    bounds: tuple[float, float],
    starts: Sequence[str],
    cfg: RewardConfig,
) -> SearchResult:
    """Bisect the help cost r until expected usage from the starts, as
    :func:`expected_usage` defines it, fits the budget.

    E[U](r) is a nonincreasing step function, so exact attainment of the
    budget is generally impossible; the result is the smallest probed
    feasible r, i.e. the maximal-usage feasible policy among probes, with
    the full probe trace attached.
    """
    r_lo, r_hi = bounds
    if r_lo < 0 or r_hi <= r_lo:
        raise PlannerError(f"bad bounds {bounds}")
    if budget < 0 or not np.isfinite(budget):
        raise PlannerError(f"budget must be finite and >= 0, got {budget}")
    if cfg.n_help != 1:
        raise PlannerError("reward_search bisects a single scalar cost (K=1)")

    comp = _compile(model, cfg.n_help)
    p = _success_arrays(comp, cfg, success)
    if not starts:
        raise PlannerError("no start states")
    # terminal and off-model starts add zero usage but stay in the mean
    cols = [comp.index[s] for s in starts if s in comp.index]
    trace: list[tuple[float, float]] = []

    def probe(r: float) -> tuple[_Core, float]:
        core = _fixed_point(comp, replace(cfg, r=(r,)), p)
        acc = 0.0  # added in start order, as expected_usage does, so E[U] is bit-equal
        for j in cols:
            acc += core[1][0, j]
        eu = float(acc / len(starts))
        trace.append((r, eu))
        return core, eu

    def result(r: float, core: _Core, eu: float) -> SearchResult:
        sol = replace(_to_solution(model, comp, replace(cfg, r=(r,)), core), expected_usage=(eu,))
        return SearchResult(r=r, solution=sol, trace=tuple(trace))

    core_hi, eu_hi = probe(r_hi)
    if eu_hi > budget:
        raise BudgetInfeasibleError(budget, eu_hi, r_hi)
    core_lo, eu_lo = probe(r_lo)
    if eu_lo <= budget:
        return result(r_lo, core_lo, eu_lo)

    lo, hi = r_lo, r_hi
    best_r, best_core, best_eu = r_hi, core_hi, eu_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        core, eu = probe(mid)
        if eu <= budget:
            hi, best_r, best_core, best_eu = mid, mid, core, eu
            if eu == budget:
                break
        else:
            lo = mid
        if hi - lo < 1e-12:
            break
    return result(best_r, best_core, best_eu)


def solution_to_dict(sol: Solution) -> dict:
    return {
        "r": list(sol.r),
        "gamma": 1.0,  # undiscounted; kept so solution.json keeps its bytes
        "variant": sol.variant,
        "converged": sol.converged,
        "iterations": sol.iterations_run,
        "expected_usage": list(sol.expected_usage) if sol.expected_usage else None,
        "policy": sol.policy,
        "usage": {s: list(u) for s, u in sol.usage.items()},
        "success": sol.success,
        "value": sol.value,
    }


def load_solution(path: str | Path) -> Solution:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return Solution(
        usage={s: tuple(u) for s, u in doc["usage"].items()},
        success=doc["success"],
        policy=doc["policy"],
        value=doc["value"],
        r=tuple(doc["r"]),
        variant=doc["variant"],
        iterations_run=doc["iterations"],
        converged=doc["converged"],
        expected_usage=tuple(doc["expected_usage"]) if doc.get("expected_usage") else None,
    )
