"""Independent verification engines: exhaustive policy enumeration, exact
linear policy evaluation, the exact truth of a deployed helper table from
one walk per task, a value-iteration reference solver, a plain-Python
backward pass over a finite-horizon model's rows, seeded Monte Carlo
estimators, the policy closure over a ``TransitionModel`` (the states a
helper keeps when it follows the policy from the train starts, the
comparator of acceptance test 9), and the sweep reference.

Kept deliberately separate from the planner: matrices are rebuilt densely
from the model dictionaries and solved by partial-pivot elimination, so a
planner bug cannot silently propagate into its own check.  The sweep
reference is the exception: it runs the solver's Jacobi sweeps, polish and
tables on the solver's own compiled model, with S and M as separate arrays
and a sparse product and a per-state loop for each, so that the solver's
one-product sweep and whole-array tables can be checked against it bit for
bit.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import env, planner
from .mdp import NOHELP, TransitionModel, action_order, help_action, is_terminal, terminal_outcome
from .planner import EPSILON, TIE_TOL, ModelRows, PlannerError, RewardConfig, Solution

if TYPE_CHECKING:
    from .solver import _Compiled, _Core

ENUMERATION_CAP = 12
VALUE_SWEEPS = 10_000  # value_iteration's sweeps at most, before its exact policy iteration


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class PolicyEvaluation:
    success: dict[str, float]
    usage: dict[str, tuple[float, ...]]
    value: dict[str, float]


def _dense_arrays(model: TransitionModel, actions: Sequence[str]):
    states = model.nonterminal_states()
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    P = {a: np.zeros((n, n)) for a in actions}
    succ = {a: np.zeros(n) for a in actions}
    for a in actions:
        for s in states:
            row = model.row(s, a)
            if row is None:
                raise OracleError(f"missing action row ({s!r}, {a!r})")
            for s2, prob in row.items():
                outcome = terminal_outcome(s2)
                if outcome == "success":
                    succ[a][index[s]] += prob
                elif outcome is None:
                    P[a][index[s], index[s2]] += prob
    return states, index, P, succ


def exact_policy_eval(
    model: TransitionModel, policy: dict[str, str], cfg: RewardConfig
) -> PolicyEvaluation:
    """Solve the linear S/M systems for a fixed deterministic policy."""
    actions = action_order(cfg.n_help)
    states, index, P, succ = _dense_arrays(model, actions)
    n = len(states)
    P_pi = np.zeros((n, n))
    succ_pi = np.zeros(n)
    help_ind = np.zeros((cfg.n_help, n))
    for s in states:
        if s not in policy:
            raise OracleError(f"policy missing state {s!r}")
        a = policy[s]
        i = index[s]
        P_pi[i] = P[a][i]
        succ_pi[i] = succ[a][i]
        if a != NOHELP:
            help_ind[actions.index(a) - 1, i] = 1.0
    A = np.eye(n) - P_pi
    try:
        rhs = np.column_stack([succ_pi] + [help_ind[i] for i in range(cfg.n_help)])
        sol = np.linalg.solve(A, rhs) if n else np.zeros((0, 1 + cfg.n_help))
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular policy-evaluation system: {exc}") from exc
    S = sol[:, 0]
    M = sol[:, 1:].T
    r = np.asarray(cfg.r)
    success = {s: float(S[index[s]]) for s in states}
    usage = {s: tuple(float(M[i, index[s]]) for i in range(cfg.n_help)) for s in states}
    value = {s: float(S[index[s]] - r @ M[:, index[s]]) for s in states}
    for s in sorted(model.support):
        outcome = terminal_outcome(s)
        if outcome is not None:
            win = 1.0 if outcome == "success" else 0.0
            success[s] = win
            usage[s] = tuple(0.0 for _ in range(cfg.n_help))
            value[s] = win
    return PolicyEvaluation(success=success, usage=usage, value=value)


def walk_truth(tasks: Sequence[env.Task], table: dict[str, str], eta: float,
               eta_strong: float) -> tuple[float, float]:
    """The exact mean success rate and help calls over ``tasks`` of the K = 1
    helper ``table`` (state key -> branch), deployed as ``eval`` deploys it:
    help1 plays the strong actor's law at ``eta_strong``, and nohelp, on the
    table or off it, the base actor's at ``eta``.  One ``env._walk`` per task
    gives its states in t order; a backward pass then takes each state after
    its successors, so no model is built."""
    laws = {NOHELP: (env._greedy_base, eta), help_action(1): (env._greedy_strong, eta_strong)}
    total_sr = total_u = 0.0
    for task in tasks:
        start = env.initial_state(task)
        rows, p_star = env._walk(start, eta)
        sr = {key: p for key, p in p_star.items() if key not in rows}  # a terminal's 1 or 0
        u = dict.fromkeys(sr, 0.0)
        for key, (state, kids) in reversed(rows.items()):
            branch = table.get(key, NOHELP)
            if branch not in laws:
                raise OracleError(f"branch {branch!r} of {key!r} is not one of {list(laws)}")
            greedy, noise = laws[branch]
            dist = env.action_distribution(greedy, state, noise).values()
            sr[key] = sum(p * sr[k] for p, k in zip(dist, kids))
            u[key] = (branch != NOHELP) + sum(p * u[k] for p, k in zip(dist, kids))
        total_sr += sr[start.key()]
        total_u += u[start.key()]
    return total_sr / len(tasks), total_u / len(tasks)


def value_iteration(
    model: TransitionModel, cfg: RewardConfig
) -> tuple[dict[str, float], dict[str, str]]:
    """Bellman-optimality reference solver under the planner's reward regime.

    Rewards: +1 at terminal success, 0 at failure, -r_i per help_i; an action
    must beat the earlier ones by more than ``TIE_TOL`` (nohelp wins ties).
    Dense value iteration to the planner's ``EPSILON``, then policy iteration
    on exact dense solves until the greedy policy is stable.
    """
    actions = action_order(cfg.n_help)
    states, index, P, succ = _dense_arrays(model, actions)
    n = len(states)
    idx = np.arange(n)
    rew = np.array([0.0] + [-ri for ri in cfg.r])
    P_all = np.stack([P[a] for a in actions])  # (A, n, n)
    succ_all = np.stack([succ[a] for a in actions])  # (A, n)

    def greedy(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Q = rew[:, None] + (P_all @ V + succ_all)
        choice = np.zeros(n, dtype=int)
        for ai in range(1, len(actions)):
            choice[Q[ai] > Q[choice, idx] + TIE_TOL] = ai
        return choice, Q[choice, idx]

    V = np.zeros(n)
    for _ in range(VALUE_SWEEPS):
        choice, new_V = greedy(V)
        delta = float(np.max(np.abs(new_V - V), initial=0.0))
        V = new_V
        if delta < EPSILON:
            break
    seen: set[bytes] = set()
    while True:
        A = np.eye(n) - P_all[choice, idx]
        try:
            V = np.linalg.solve(A, rew[choice] + succ_all[choice, idx])
        except np.linalg.LinAlgError as exc:
            raise OracleError(f"singular policy-evaluation system: {exc}") from exc
        seen.add(choice.tobytes())
        new_choice, _ = greedy(V)
        if new_choice.tobytes() in seen:
            break
        choice = new_choice

    values = {s: float(V[index[s]]) for s in states}
    policy = {s: actions[choice[index[s]]] for s in states}
    for s in sorted(model.support):
        outcome = terminal_outcome(s)
        if outcome is not None:
            values[s] = 1.0 if outcome == "success" else 0.0
    return values, policy


def postorder(succs: Sequence[Sequence[int]]) -> list[int] | None:
    """The nodes 0..n-1, each after all its successors (``succs[i]`` lists
    node i's), by a depth-first search from each node in turn; None if the
    search meets a cycle."""
    mark = [0] * len(succs)  # 0 unseen, 1 on the search path, 2 done
    order: list[int] = []
    for root in range(len(succs)):
        if mark[root]:
            continue
        mark[root] = 1
        path = [(root, iter(succs[root]))]
        while path:
            i, rest = path[-1]
            for j in rest:
                if mark[j] == 1:
                    return None
                if mark[j] == 0:
                    mark[j] = 1
                    path.append((j, iter(succs[j])))
                    break
            else:
                path.pop()
                mark[i] = 2
                order.append(i)
    return order


def backward_pass(rows: ModelRows, cfg: RewardConfig) -> tuple[list[float], list[list[float]], list[int]]:
    """The fixed point of a finite-horizon model in one pass over its rows,
    in plain Python: S, M (one list per help type) and the chosen action
    index of each of ``rows.states``.

    Each state is solved after all its successors (``postorder``), so its
    branch values are final: S_a sums mass times S over its row plus its
    success mass, and M_a^i sums mass times M^i plus 1 if a is help_i.  The
    actions are taken nohelp first, and one replaces the best so far iff its
    S_a - r.M_a exceeds the best's by more than ``TIE_TOL``, as
    ``solver._select_value_consistent`` does: ties keep nohelp, then the
    lowest help index.
    """
    n, K = len(rows.states), rows.n_help
    if cfg.n_help != K:
        raise OracleError(f"rows are laid out for K={K}, not K={cfg.n_help}")
    out: list[list[tuple[int, float]]] = [[] for _ in range((1 + K) * n)]  # pair a * n + s -> its row
    for at, j, p in zip(rows.rows, rows.cols, rows.vals):
        out[at].append((j, p))
    order = postorder([[j for a in range(1 + K) for j, _ in out[a * n + i]] for i in range(n)])
    if order is None:
        raise OracleError("the rows hold a cycle")
    S = [0.0] * n
    M = [[0.0] * n for _ in range(K)]
    choice = [0] * n
    for i in order:
        best = None
        for a in range(1 + K):
            row = out[a * n + i]
            s_a = sum(p * S[j] for j, p in row) + rows.succ[a * n + i]
            m_a = [sum(p * M[k][j] for j, p in row) + (a == k + 1) for k in range(K)]
            q = s_a - sum(r * m for r, m in zip(cfg.r, m_a))
            if best is None or q > best[0] + TIE_TOL:
                best = q, a, s_a, m_a
        _, choice[i], S[i], m_a = best
        for k in range(K):
            M[k][i] = m_a[k]
    return S, M, choice


@dataclass(frozen=True)
class EnumerationReport:
    starts: tuple[str, ...]
    policies: tuple[tuple[str, ...], ...]
    values: np.ndarray  # (n_policies, n_starts)
    best_policy: dict[str, str]
    best_value: dict[str, float]  # per start: max over all policies
    policy_count: int


def brute_force_optimal(
    model: TransitionModel, cfg: RewardConfig, starts: Sequence[str]
) -> EnumerationReport:
    """Enumerate every deterministic stationary policy and evaluate exactly."""
    states = model.nonterminal_states()
    if len(states) > ENUMERATION_CAP:
        raise OracleError(
            f"{len(states)} non-terminal states exceeds enumeration cap {ENUMERATION_CAP}"
        )
    actions = action_order(cfg.n_help)
    policies = []
    values = []
    best_mean = -np.inf
    best_policy: dict[str, str] = {}
    for combo in itertools.product(actions, repeat=len(states)):
        policy = dict(zip(states, combo))
        ev = exact_policy_eval(model, policy, cfg)
        row = [ev.value[s] for s in starts]
        policies.append(combo)
        values.append(row)
        mean = float(np.mean(row)) if row else 0.0
        if mean > best_mean:
            best_mean = mean
            best_policy = policy
    arr = np.asarray(values) if values else np.zeros((1, len(starts)))
    best_value = {s: float(arr[:, j].max()) for j, s in enumerate(starts)}
    return EnumerationReport(
        starts=tuple(starts),
        policies=tuple(policies),
        values=arr,
        best_policy=best_policy,
        best_value=best_value,
        policy_count=len(policies),
    )


@dataclass(frozen=True)
class MonteCarloEstimate:
    sr: float
    sr_se: float
    usage: tuple[float, ...]
    usage_se: tuple[float, ...]
    n: int


def monte_carlo_estimate(
    episode_fn: Callable[[random.Random], tuple[bool, Sequence[float]]],
    n: int,
    seed: int,
) -> MonteCarloEstimate:
    """Seeded mean/SE estimates of success rate and per-intervention usage.

    ``episode_fn`` runs one episode with the provided RNG and returns
    (success, usage_vector); episode i gets its own child RNG so estimates
    are reproducible and order-independent.
    """
    if n < 1:
        raise OracleError("n must be >= 1")
    wins = np.zeros(n)
    usage: np.ndarray | None = None
    for i in range(n):
        rng = random.Random(seed * 1_000_003 + i)
        won, u = episode_fn(rng)
        wins[i] = 1.0 if won else 0.0
        u = np.asarray(u, dtype=float)
        if usage is None:
            usage = np.zeros((n, len(u)))
        usage[i] = u
    assert usage is not None
    sr = float(wins.mean())
    sr_se = float(wins.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    u_mean = tuple(float(x) for x in usage.mean(axis=0))
    u_se = tuple(
        float(x) for x in (usage.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(usage.shape[1]))
    )
    return MonteCarloEstimate(sr=sr, sr_se=sr_se, usage=u_mean, usage_se=u_se, n=n)


def check_against_planner(report: EnumerationReport, planner_value: dict[str, float], tol: float = 1e-8) -> float:
    """Worst-case gap between planner values and enumerated optima at starts."""
    worst = 0.0
    for s in report.starts:
        worst = max(worst, abs(report.best_value[s] - planner_value[s]))
    if worst > tol:
        raise PlannerError(f"planner value deviates from enumeration by {worst:.3e}")
    return worst


def pi_star_closure(sol: Solution, model: TransitionModel, start: str) -> tuple[set[str], bool]:
    """Non-terminal states reached by following the solved policy from a
    start; the flag is False if the expansion leaves the model's support."""
    if is_terminal(start):
        return set(), True
    seen: set[str] = set()
    stack = [start]
    ok = True
    while stack:
        s = stack.pop()
        if s in seen or is_terminal(s):
            continue
        seen.add(s)
        a = sol.policy.get(s)
        row = model.row(s, a) if a is not None else None
        if row is None:
            ok = False
            continue
        stack.extend(row)
    return seen, ok


def trajectory_table(sol: Solution, model: TransitionModel, starts: Sequence[str]) -> dict[str, str]:
    """The table of a helper kept to the policy's closure over ``model``: the
    policy on every state reached from a start whose closure stays in the
    model's support."""
    table: dict[str, str] = {}
    for start in starts:
        reached, ok = pi_star_closure(sol, model, start)
        if ok:
            table.update((s, sol.policy[s]) for s in reached)
    return table


def sweep_branch_values(comp: _Compiled, S: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reference sweep's branch values: S_br (shape (A, n)) and M_br
    (shape (A, K, n)), one sparse product each; the help_i branch of M adds
    the immediate unit of usage for intervention i."""
    A, n, K = len(comp.actions), len(comp.states), comp.n_help
    S_br = (comp.P @ S).reshape(A, n) + comp.succ
    M_br = (comp.P @ M.T).reshape(A, n, K).transpose(0, 2, 1)
    M_br[np.arange(1, K + 1), np.arange(K)] += 1.0
    return S_br, M_br


def sweep_select(cfg: RewardConfig, S_br: np.ndarray, M_br: np.ndarray) -> np.ndarray:
    """The reference sweep's choice vector: help iff dS > r.dM as a
    branch-value comparison; ties keep nohelp, then the lowest help index."""
    r = np.asarray(cfg.r)
    best = np.zeros(S_br.shape[1], dtype=int)
    best_q = S_br[0] - r @ M_br[0]
    for ai in range(1, len(S_br)):
        q = S_br[ai] - r @ M_br[ai]
        mask = q > best_q + planner.TIE_TOL
        best[mask] = ai
        best_q = np.where(mask, q, best_q)
    return best


def sweep_fixed_point(comp: _Compiled, cfg: RewardConfig) -> _Core:
    """The reference for ``solver._fixed_point``: Jacobi sweeps over separate
    S and M, then the exact polish, whose policies ``solver._exact_eval``
    evaluates; returns (S, M, choice, iterations).  The tolerance is read
    from ``planner`` at call time, as the solver reads it."""
    from .solver import _exact_eval

    n = len(comp.states)
    idx = np.arange(n)
    S = np.zeros(n)
    M = np.zeros((cfg.n_help, n))
    for iterations in itertools.count(1):
        S_br, M_br = sweep_branch_values(comp, S, M)
        choice = sweep_select(cfg, S_br, M_br)
        new_S = S_br[choice, idx]
        new_M = M_br[choice, :, idx].T
        delta = max(float(np.max(np.abs(new_M - M), initial=0.0)),
                    float(np.max(np.abs(new_S - S), initial=0.0)))
        S, M = new_S, new_M
        if delta < planner.EPSILON:
            break

    seen: set[bytes] = set()
    for _ in range(100):
        new_choice = sweep_select(cfg, *sweep_branch_values(comp, *_exact_eval(comp, cfg, choice)))
        if np.array_equal(new_choice, choice) or new_choice.tobytes() in seen:
            break
        seen.add(new_choice.tobytes())
        choice = new_choice
    S, M = _exact_eval(comp, cfg, choice)
    return S, M, choice, iterations


def sweep_tables(comp: _Compiled, cfg: RewardConfig, core: _Core) -> Solution:
    """The reference for ``solver._to_solution``: the tables of one fixed
    point built state by state, terminal states included."""
    S, M, choice, iterations = core
    r = np.asarray(cfg.r)
    usage = {s: tuple(float(M[i, j]) for i in range(cfg.n_help)) for s, j in comp.index.items()}
    success = {s: float(S[j]) for s, j in comp.index.items()}
    value = {s: float(S[j] - r @ M[:, j]) for s, j in comp.index.items()}
    policy = {s: comp.actions[choice[j]] for s, j in comp.index.items()}
    for s in comp.terminals:
        win = 1.0 if terminal_outcome(s) == "success" else 0.0
        usage[s] = tuple(0.0 for _ in range(cfg.n_help))
        success[s] = win
        value[s] = win
    return Solution(usage=usage, success=success, policy=policy, value=value, r=tuple(cfg.r),
                    iterations_run=iterations, converged=True)
