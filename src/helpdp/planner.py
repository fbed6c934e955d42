"""Offline DP core: usage/policy fixed-point iteration, the V = S - r.M
decomposition, and binary reward search against a usage budget.

The planner takes finite-horizon models only: the edges between the
non-terminal states form no cycle, as every env state key carries its step
``t`` and every step advances it.  ``model_rows`` refuses a cyclic model.

The fixed point is computed in two stages: synchronous (Jacobi) sweeps of
the usage/policy recursion until the max-norm change drops below
``EPSILON``, then an exact polish that evaluates the stabilized policy by a
sparse linear solve and re-derives the policy from the exact values until
it stops changing.  On an acyclic model the sweeps settle within the
longest path's length plus two, and the polish removes the rounding tail,
so solutions satisfy the value decomposition to ~1e-12.

Both run on arrays compiled from the model (see ``solver``): each Jacobi
sweep is one sparse product of the transitions with S and M side by side,
and the ``Solution`` tables are built from whole arrays.  ``reward_search``
compiles once per search and runs every probe on those arrays; string keys
appear only in the ``Solution`` tables, built for the returned probe alone,
and a probe's E[U] sums its starts' usage as ``expected_usage`` does, in
start order.  Either takes a ``TransitionModel`` or a ``ModelRows``, the
model laid out in the solver's rows.  ``model_rows`` builds every
``ModelRows``: from a ``TransitionModel``'s rows once none is missing, and
from ``counts.jsonl``'s for the ``solve`` and ``search`` commands
(``pipeline.solvable_rows``); it keeps the states with every action row and
refuses a cyclic model.  This module holds the types, the row layout,
the budget's definition and the solution files in plain Python, and imports
``solver`` (numpy and scipy) only when ``solve`` or ``reward_search`` is
called, or ``import_solver`` is, so every command that does not solve runs
without either library.
"""
from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .mdp import (Checked, DataError, SuccessModel, TransitionModel, _dump, action_order, are_actions, are_numbers,
                  check_table, is_whole, read_json, terminal_outcome)

TIE_TOL = 1e-12  # branch values closer than this count as a tie (nohelp wins)
EPSILON = 1e-8  # the sweeps stop once no S or M entry changes by this much
HELPER_MODES = ("all_states", "trajectory_only")  # how `annotate` distills a solution (pipeline.build_helper)
UNKNOWN_FAILURE = "unknown|outcome=failure"  # model_rows' target for a successor off the kept states


class PlannerError(ValueError):
    pass


class BudgetInfeasibleError(PlannerError):
    """No help cost within the bounds fits the budget; the message carries
    the certificate: E[U] at the upper bound and the budget it exceeds."""


class _RewardConfig(NamedTuple):
    r: tuple[float, ...]
    gamma: float = 1.0


class RewardConfig(Checked, _RewardConfig):
    """Per-help costs.

    ``r`` holds one nonnegative cost per intervention type.  Nothing is
    discounted, since the budget counts intervention calls and M
    is that count only undiscounted: ``gamma`` accepts 1.0 alone, so callers
    that spell the discount out keep working.
    """

    __slots__ = ()

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


class ModelRows(NamedTuple):
    """A model in the solver's layout, in plain Python lists: the input that
    ``solver._compile`` turns into arrays.  ``model_rows`` builds it.

    ``states`` are the sorted non-terminal states and ``terminals`` the sorted
    terminal keys of the support.  Over the A = K + 1 actions of
    ``action_order(n_help)``, pair (a, s) is entry a * n + s of ``succ``, its
    mass reaching terminal success, and row a * n + s of the coordinate lists
    ``rows``, ``cols`` and ``vals``, which hold its mass on each non-terminal
    successor.
    """

    states: list[str]
    terminals: list[str]
    n_help: int
    rows: list[int]
    cols: list[int]
    vals: list[float]
    succ: list[float]


def model_rows(probs: Mapping[tuple[str, str], dict[str, float]], n_help: int, counts: bool = False) -> ModelRows:
    """The solver's layout of ``probs``, rows of (state, action) -> next
    state -> probability, whose probabilities are taken as they are.  With
    ``counts`` the rows hold counts instead, and each row it lays out, and
    no other, is divided in place by its total, as ``mdp.normalize``
    divides it.

    It keeps the states that have a row for every action of
    ``action_order(n_help)``; a successor that is neither kept nor terminal
    goes to ``UNKNOWN_FAILURE``, so the kept states form a complete chain.
    Rows of help types past ``n_help`` keep and drop no state and add only
    their terminal successors to ``terminals``.  Each row's successors are
    taken in sorted order.  Raises PlannerError when no state is kept, and
    when the kept states' successor edges hold a cycle (``_refuse_cyclic``).
    """
    actions = {a: ai for ai, a in enumerate(action_order(n_help))}
    coverage: dict[str, int] = {}
    for s, a in probs:
        if a in actions:
            coverage[s] = coverage.get(s, 0) + 1
    states = sorted(s for s, k in coverage.items() if k == len(actions))
    if not states:
        raise PlannerError("no state has full action coverage")
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    succ = [0.0] * (len(actions) * n)
    preds: list[list[int]] = [[] for _ in states]  # entry j: the state i of each edge i -a-> j
    out = [0] * n  # each state's edges to kept states
    outcome: dict[str, str] = {}  # terminal_outcome of each successor off the kept states
    for (s, a), row in probs.items():
        i = index.get(s)
        if i is None:
            continue
        ai = actions.get(a)
        at = None if ai is None else ai * n + i  # None: a help type past n_help
        if counts and at is not None:
            total = sum(row.values())
            for s2, c in row.items():
                row[s2] = c / total
        for s2 in sorted(row):
            j = index.get(s2)
            if j is not None:
                if at is not None:
                    rows.append(at)
                    cols.append(j)
                    vals.append(row[s2])
                    preds[j].append(i)
                    out[i] += 1
                continue
            o = outcome.get(s2)
            if o is None:
                o = outcome[s2] = terminal_outcome(s2) or "remapped"
            if at is not None and o == "success":
                succ[at] += row[s2]
    terminals = sorted({UNKNOWN_FAILURE if o == "remapped" else s2 for s2, o in outcome.items()})
    _refuse_cyclic(states, preds, out)
    return ModelRows(states=states, terminals=terminals, n_help=n_help, rows=rows, cols=cols, vals=vals,
                     succ=succ)


def _refuse_cyclic(states: list[str], preds: list[list[int]], out: list[int]) -> None:
    """Raise PlannerError unless the edges between the kept states are
    acyclic.  ``out`` counts each state's edges and ``preds`` lists their
    sources by target; ``out`` is consumed.

    A state is peeled once all its successors have been, so the states whose
    successors are all terminal go first; a state that is never peeled lies
    on or reaches a cycle.
    """
    peeled = [i for i, k in enumerate(out) if k == 0]
    for j in peeled:  # grows while it is read: each peeled state's sources may follow
        for i in preds[j]:
            out[i] -= 1
            if out[i] == 0:
                peeled.append(i)
    if len(peeled) < len(states):
        stuck = [s for s, k in zip(states, out) if k]
        raise PlannerError(f"cyclic model: states on or reaching a cycle {stuck[:5]}")


class Solution(NamedTuple):
    """Usage/success/policy tables plus the value function.  Every solve
    converges; ``converged`` stays because ``solution.json`` carries it, and
    ``pipeline.build_helper`` refuses a file that says false."""

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

    comp = solver._compile(_laid_out(model, cfg.n_help), cfg.n_help)
    return solver._to_solution(comp, cfg, solver._fixed_point(comp, cfg))


def _laid_out(model: TransitionModel | ModelRows, n_help: int) -> ModelRows:
    """``model`` as the solver's rows.  A TransitionModel must have every
    action row of every non-terminal state of its support, so that
    ``model_rows`` keeps all of them."""
    if isinstance(model, ModelRows):
        return model
    states = model.nonterminal_states()
    for a in action_order(n_help):
        for s in states:
            if model.row(s, a) is None:
                raise PlannerError(f"missing action row ({s!r}, {a!r})")
    return model_rows(model.probs, n_help)


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


class SearchResult(NamedTuple):
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
    the full probe trace attached.
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

    comp = solver._compile(_laid_out(model, cfg.n_help), cfg.n_help)
    # terminal and off-model starts add zero usage but stay in the mean
    cols = [comp.index[s] for s in starts if s in comp.index]
    trace: list[tuple[float, float]] = []

    def probe(r: float) -> tuple[solver._Core, float]:
        core = solver._fixed_point(comp, cfg._replace(r=(r,)))
        acc = 0.0  # added in start order, as expected_usage does, so E[U] is bit-equal
        for u in core[1][0].take(cols).tolist():
            acc += u
        eu = acc / len(starts)
        trace.append((r, eu))
        return core, eu

    def result(r: float, core: solver._Core, eu: float) -> SearchResult:
        sol = solver._to_solution(comp, cfg._replace(r=(r,)), core)._replace(expected_usage=(eu,))
        return SearchResult(r=r, solution=sol, trace=tuple(trace))

    core_hi, eu_hi = probe(r_hi)
    if eu_hi > budget:
        raise BudgetInfeasibleError(
            f"budget infeasible within bounds: E[U]={eu_hi:.6g} > C={budget:.6g} at r={r_hi:.6g}")
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
        "usage": sol.usage,  # tuples, which JSON writes as arrays
        "success": sol.success,
        "value": sol.value,
    }


def load_solution(path: str | Path) -> Solution:
    """The solution a ``solve`` or ``search`` run wrote to ``path``; a file
    that is not one raises DataError naming the path and the cause."""
    return read_json(path, _solution_from_dict)


def _solution_from_dict(doc: dict) -> Solution:
    """The inverse of ``solution_to_dict``.  ``r`` must be a non-empty list
    of numbers, whose length is K, ``converged`` a boolean, ``iterations``
    an integer, ``expected_usage`` null (or absent) or a list of K numbers,
    and each table must map state keys to values of its shape; every check
    runs over a whole table at once.  ``usage``, ``success`` and ``value``
    must have the same keys, and ``policy`` no key outside them."""
    r = doc["r"]
    if type(r) is not list or not r or not are_numbers(r):
        raise DataError(f"r must be a non-empty list of numbers, got {_dump(r)[:80]}")
    if type(doc["converged"]) is not bool:
        raise DataError(f"converged must be true or false, got {_dump(doc['converged'])[:80]}")
    if not is_whole(doc["iterations"]):
        raise DataError(f"iterations must be an integer, got {_dump(doc['iterations'])[:80]}")
    k = len(r)
    eu = doc.get("expected_usage")
    if eu is not None and not (type(eu) is list and len(eu) == k and are_numbers(eu)):
        raise DataError(f"expected_usage must be null or a list of {k} numbers, got {_dump(eu)[:80]}")
    policy = check_table("policy", doc["policy"], f"actions of {action_order(k)}", lambda acts: are_actions(acts, k))
    usage = check_table("usage", doc["usage"], f"lists of {k} numbers", lambda us: (
        set(map(type, us)) <= {list} and set(map(len, us)) <= {k} and are_numbers(list(chain.from_iterable(us)))))
    success = check_table("success", doc["success"], "numbers", are_numbers)
    value = check_table("value", doc["value"], "numbers", are_numbers)
    for name, table in (("success", success), ("value", value)):
        if table.keys() != usage.keys():
            raise DataError(f"{name} must have the keys of usage, got {_dump(min(table.keys() ^ usage.keys()))}")
    extra = policy.keys() - usage.keys()
    if extra:
        raise DataError(f"policy must have no key outside usage, got {_dump(min(extra))}")
    return Solution(
        usage={s: tuple(u) for s, u in usage.items()},
        success=success,
        policy=policy,
        value=value,
        r=tuple(r),
        iterations_run=doc["iterations"],
        converged=doc["converged"],
        expected_usage=None if eu is None else tuple(eu),
    )
