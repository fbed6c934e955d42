"""Offline DP core: usage/policy fixed-point iteration, the V = S - r.M
decomposition, and binary reward search against a usage budget.

The fixed point is computed in two stages: synchronous (Jacobi) sweeps of
the usage/policy recursion until the max-norm change drops below
``EPSILON``, then an exact polish that evaluates the stabilized policy by a
sparse linear solve and re-derives the policy from the exact values until
it stops changing.  The polish removes the iteration tail, so converged
solutions satisfy the value decomposition to ~1e-12.  A solve that has not
converged after ``MAX_SWEEPS`` sweeps is returned with ``converged`` False;
such a probe of ``reward_search`` raises.

Both run on arrays compiled from the model (see ``solver``).
``reward_search`` compiles once per search and runs every probe on those
arrays; string keys appear only in the ``Solution`` tables.  Either takes a
``TransitionModel`` or a ``ModelRows``: the model already laid out in the
solver's rows, which ``pipeline.solvable_rows`` reads straight from
``counts.jsonl`` for the ``solve`` and ``search`` commands.  This module
holds the types, the budget's definition and the solution files in plain
Python, and imports ``solver`` (numpy and scipy) only when ``solve`` or
``reward_search`` is called, or ``import_solver`` is, so every command that
does not solve runs without either library.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Sequence

from .mdp import (DataError, SuccessModel, TransitionModel, _dump, action_order, are_actions, are_numbers, check_table,
                  read_json)

TIE_TOL = 1e-12  # branch values closer than this count as a tie (nohelp wins)
EPSILON = 1e-8  # the sweeps stop once no S or M entry changes by this much
MAX_SWEEPS = 10_000  # a fixed point still moving after this many sweeps is unconverged
HELPER_MODES = ("all_states", "trajectory_only")  # how `annotate` distills a solution (pipeline.build_helper)


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
    """Per-help costs.

    ``r`` holds one nonnegative cost per intervention type.  Nothing is
    discounted, since the budget counts intervention calls and M
    is that count only undiscounted: ``gamma`` accepts 1.0 alone, so callers
    that spell the discount out keep working.
    """

    r: tuple[float, ...]
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not self.r:
            raise PlannerError("at least one help cost is required")
        if any(ri < 0 for ri in self.r):
            raise PlannerError(f"help costs must be >= 0, got {self.r}")
        if self.gamma != 1.0:
            raise PlannerError(f"gamma is fixed at 1.0, got {self.gamma}")

    @property
    def n_help(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class ModelRows:
    """A model in the solver's layout, in plain Python lists: the input that
    ``solver._compile`` turns into arrays.

    ``states`` are the sorted non-terminal states and ``terminals`` the sorted
    terminal keys of the support.  Over the A = K + 1 actions of
    ``action_order(n_help)``, pair (a, s) is entry a * n + s of ``succ`` (its
    mass reaching terminal success) and ``exits`` (its distinct terminal
    successors), and row a * n + s of the coordinate lists ``rows``, ``cols``
    and ``vals``, which hold its mass on each non-terminal successor.
    ``observed`` counts the non-terminal states the model was cut from: a
    fitted model's states before ``restrict_to_solvable`` kept ``states``.
    """

    states: list[str]
    terminals: list[str]
    n_help: int
    rows: list[int]
    cols: list[int]
    vals: list[float]
    succ: list[float]
    exits: list[int]
    observed: int


@dataclass(frozen=True)
class Solution:
    """Converged usage/success/policy tables plus the value function."""

    usage: dict[str, tuple[float, ...]]
    success: dict[str, float]
    policy: dict[str, str]
    value: dict[str, float]
    r: tuple[float, ...]
    iterations_run: int
    converged: bool
    expected_usage: tuple[float, ...] | None = None

    @property
    def n_help(self) -> int:
        return len(self.r)


def import_solver() -> None:
    """Import the array core (numpy and scipy) ahead of the first solve."""
    from . import solver  # noqa: F401


def solve(model: TransitionModel | ModelRows, success: SuccessModel | None, cfg: RewardConfig) -> Solution:
    """Usage/policy fixed point for any number K >= 1 of interventions.
    ``success`` is not read: it stays for callers that pass the pair
    ``env.exact_models`` returns."""
    from . import solver

    comp = solver._compile(model, cfg.n_help)
    return solver._to_solution(comp, cfg, solver._fixed_point(comp, cfg))


def expected_usage(sol: Solution, starts: Sequence[str]) -> tuple[float, ...]:
    """Mean per-intervention usage over every given start: the budget's one
    definition.  A start with no usage entry (off the model) adds 0, since
    the helper's nohelp fallback spends nothing there."""
    if not starts:
        raise PlannerError("no start states")
    acc = [0.0] * sol.n_help
    for s in starts:
        u = sol.usage.get(s)
        if u is not None:
            acc = [a + x for a, x in zip(acc, u, strict=True)]
    return tuple(a / len(starts) for a in acc)


def decomposition_residual(sol: Solution) -> float:
    """max_s |V_s - (S_s - sum_i r_i M_s^i)| over all states."""
    worst = 0.0
    for s, v in sol.value.items():
        cost = sum(ri * ui for ri, ui in zip(sol.r, sol.usage[s], strict=True))
        worst = max(worst, abs(v - (sol.success[s] - cost)))
    return worst


@dataclass(frozen=True)
class SearchResult:
    r: float
    solution: Solution  # its expected_usage is the E[U] at r
    trace: tuple[tuple[float, float], ...]  # probed (r, E[U]) pairs


def reward_search(
    model: TransitionModel | ModelRows,
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
    the full probe trace attached.  A probe that does not converge raises
    PlannerError, since its E[U] cannot steer the bisection.
    """
    r_lo, r_hi = bounds
    if r_lo < 0 or r_hi <= r_lo:
        raise PlannerError(f"bad bounds {bounds}")
    if budget < 0 or not math.isfinite(budget):
        raise PlannerError(f"budget must be finite and >= 0, got {budget}")
    if cfg.n_help != 1:
        raise PlannerError("reward_search bisects a single scalar cost (K=1)")
    if not starts:
        raise PlannerError("no start states")
    from . import solver

    comp = solver._compile(model, cfg.n_help)
    # terminal and off-model starts add zero usage but stay in the mean
    cols = [comp.index[s] for s in starts if s in comp.index]
    trace: list[tuple[float, float]] = []

    def probe(r: float) -> tuple[solver._Core, float]:
        core = solver._fixed_point(comp, replace(cfg, r=(r,)))
        if not core[4]:
            raise PlannerError(f"probe at r={r:.6g} did not converge in {core[3]} sweeps")
        acc = 0.0  # added in start order, as expected_usage does, so E[U] is bit-equal
        for j in cols:
            acc += core[1][0, j]
        eu = float(acc / len(starts))
        trace.append((r, eu))
        return core, eu

    def result(r: float, core: solver._Core, eu: float) -> SearchResult:
        sol = replace(solver._to_solution(comp, replace(cfg, r=(r,)), core), expected_usage=(eu,))
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
        "variant": "value_consistent",  # the one policy rule; kept for the same reason
        "converged": sol.converged,
        "iterations": sol.iterations_run,
        "expected_usage": list(sol.expected_usage) if sol.expected_usage else None,
        "policy": sol.policy,
        "usage": {s: list(u) for s, u in sol.usage.items()},
        "success": sol.success,
        "value": sol.value,
    }


def load_solution(path: str | Path) -> Solution:
    """The solution a ``solve`` or ``search`` run wrote to ``path``; a file
    that is not one raises DataError naming the path and the cause."""
    return read_json(path, _solution_from_dict)


def _solution_from_dict(doc: dict) -> Solution:
    """The inverse of ``solution_to_dict``.  ``r`` must be a non-empty list
    of numbers, whose length is K, and each table must map state keys to
    values of its shape; every check runs over a whole table at once."""
    r = doc["r"]
    if type(r) is not list or not r or not are_numbers(r):
        raise DataError(f"r must be a non-empty list of numbers, got {_dump(r)[:80]}")
    k = len(r)
    policy = check_table("policy", doc["policy"], f"actions of {action_order(k)}", lambda acts: are_actions(acts, k))
    usage = check_table("usage", doc["usage"], f"lists of {k} numbers", lambda us: (
        set(map(type, us)) <= {list} and set(map(len, us)) <= {k} and are_numbers(list(chain.from_iterable(us)))))
    return Solution(
        usage={s: tuple(u) for s, u in usage.items()},
        success=check_table("success", doc["success"], "numbers", are_numbers),
        policy=policy,
        value=check_table("value", doc["value"], "numbers", are_numbers),
        r=tuple(r),
        iterations_run=doc["iterations"],
        converged=doc["converged"],
        expected_usage=tuple(doc["expected_usage"]) if doc.get("expected_usage") else None,
    )
