"""End-to-end phases: randomized collection, model fitting, helper table
construction, evaluation metrics, and the threshold/self-regulation
baselines.

Episodes draw decision randomness and actor randomness from separate
child streams of the episode seed, so two behaviors that pick the same
branches produce byte-identical rollouts regardless of how many decision
draws each consumes.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Protocol, Sequence

from .env import EnvConfig, EnvState, Task, base_actor, env_step, episode_start, strong_actor
from .mdp import (
    NOHELP,
    SuccessModel,
    TransitionModel,
    action_order,
    help_action,
    help_index,
    is_terminal,
)
from .planner import Solution
from .rollouts import Episode, RolloutLog, Step

UNKNOWN_FAILURE = "unknown|outcome=failure"


class PipelineError(ValueError):
    pass


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit child seed: the hash of the label path ``master/part/...``."""
    digest = hashlib.sha256("/".join(map(str, (master,) + parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# (state key, decision stream, step index) -> branch
Decider = Callable[[str, random.Random, int], str]


class Intervention(Protocol):
    def act(self, state: EnvState, rng: random.Random) -> str: ...


class StrongActorIntervention:
    """Help executed by the low-noise actor that tracks the object."""

    def __init__(self, eta: float = EnvConfig.eta_strong) -> None:
        self.eta = eta

    def act(self, state: EnvState, rng: random.Random) -> str:
        return strong_actor(state, rng, self.eta)


class MctsIntervention:
    """Help executed by a depth-1 UCT pick over base-actor proposals.

    UCT = Q(s,a) + UCT_C * sqrt(ln N(s) / N(s,a)); unvisited pairs count as 1,
    ties break on proposal order, and the chosen pair's counts increment.
    Visit counts persist within an episode; a step executed by another
    policy adds UCT_OBSERVE_WEIGHT to its counts through :meth:`observe`.
    """

    UCT_C = 0.25  # exploration weight
    UCT_PROPOSALS = 5  # base-actor proposals per pick
    UCT_OBSERVE_WEIGHT = 5  # count weight of a step another policy executed

    def __init__(self, q_fn: Callable[[EnvState, str], float]) -> None:
        self.q_fn = q_fn
        self.reset()

    def reset(self) -> None:
        self.n_state: dict[str, int] = {}
        self.n_sa: dict[tuple[str, str], int] = {}

    def act(self, state: EnvState, rng: random.Random) -> str:
        candidates: list[str] = []
        for _ in range(self.UCT_PROPOSALS):
            # noise 1.0: every proposal is a uniform draw over the legal actions
            a = base_actor(state, rng, 1.0)
            if a not in candidates:
                candidates.append(a)
        key = state.key()
        ns = max(1, self.n_state.get(key, 0))
        best, best_score = candidates[0], -math.inf
        for a in candidates:
            nsa = max(1, self.n_sa.get((key, a), 0))
            score = self.q_fn(state, a) + self.UCT_C * math.sqrt(math.log(ns) / nsa)
            if score > best_score:
                best, best_score = a, score
        self._count(key, best, 1)
        return best

    def observe(self, state_key: str, env_action: str) -> None:
        self._count(state_key, env_action, self.UCT_OBSERVE_WEIGHT)

    def _count(self, key: str, action: str, weight: int) -> None:
        self.n_state[key] = self.n_state.get(key, 0) + weight
        self.n_sa[(key, action)] = self.n_sa.get((key, action), 0) + weight


def run_episode(
    task: Task,
    decide: Decider,
    interventions: Sequence[Intervention],
    seed: int,
    eta: float = EnvConfig.eta,
) -> Episode:
    """Roll one episode; the decider picks a branch at every step from the
    step's state key, which is computed once and also recorded."""
    rng_decide = random.Random(derive_seed(seed, "decide"))
    rng_act = random.Random(derive_seed(seed, "act"))
    for iv in interventions:
        reset = getattr(iv, "reset", None)
        if reset is not None:
            reset()
    observers = [
        (iv, observe) for iv in interventions
        if (observe := getattr(iv, "observe", None)) is not None
    ]
    state = episode_start(task)
    steps: list[Step] = []
    t = 0
    while not state.terminal:
        key = state.key()
        branch = decide(key, rng_decide, t)
        if branch == NOHELP:
            env_action = base_actor(state, rng_act, eta)
            executor = None
        else:
            idx = help_index(branch)
            if idx > len(interventions):
                raise PipelineError(f"unknown intervention index {idx}")
            executor = interventions[idx - 1]
            env_action = executor.act(state, rng_act)
        for iv, observe in observers:
            if iv is not executor:
                observe(key, env_action)
        steps.append(Step(key, branch, env_action))
        state = env_step(state, env_action)
        t += 1
    return Episode(
        task_id=task.task_id,
        seed=seed,
        steps=tuple(steps),
        final_state=state.key(),
        outcome=state.outcome or "failure",
        length=len(steps),
    )


def always(branch: str) -> Decider:
    def decide(key: str, rng: random.Random, t: int) -> str:
        return branch

    return decide


def baseline_random(p: Sequence[float]) -> Decider:
    """Fire intervention i with probability p_i each step, at most one."""
    p = tuple(p)
    if any(x < 0 for x in p) or sum(p) > 1.0 + 1e-12:
        raise PipelineError(f"bad intervention probabilities {p}")

    def decide(key: str, rng: random.Random, t: int) -> str:
        u = rng.random()
        acc = 0.0
        for i, pi in enumerate(p, start=1):
            acc += pi
            if u < acc:
                return help_action(i)
        return NOHELP

    return decide


def phase1_schedule(n_help: int) -> list[tuple[float, ...]]:
    """Default per-step intervention probabilities for collection runs."""
    singles = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    if n_help == 1:
        return [(p,) for p in singles]
    if n_help == 2:
        sched: list[tuple[float, ...]] = [(p, 0.0) for p in singles]
        sched += [(0.0, p) for p in singles if p > 0.0]
        sched += [(0.1, 0.1), (0.3, 0.3), (0.1, 0.3), (0.3, 0.1)]
        return sched
    raise PipelineError(f"no default schedule for {n_help} interventions")


# A forked collect worker takes about 10 ms to start and join, and sending
# an episode back costs about a third of playing it, so a second worker pays
# off only past about 500 episodes.
EPISODES_PER_WORKER = 500

# The inputs of the running collect_phase1; forked workers inherit them, so
# the interventions (the MCTS scorer is a closure) are never pickled.
_collect_job: tuple | None = None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _collect_slice(bounds: tuple[int, int]) -> list[Episode]:
    tasks, interventions, master_seed, schedule, n_seeds, eta = _collect_job
    episodes = []
    for task in tasks[bounds[0]:bounds[1]]:
        for probs in schedule:
            decide = baseline_random(probs)
            for rep in range(n_seeds):
                seed = derive_seed(master_seed, "phase1", task.task_id, probs, rep)
                episodes.append(run_episode(task, decide, interventions, seed, eta=eta))
    return episodes


def collect_phase1(
    tasks: Sequence[Task],
    interventions: Sequence[Intervention],
    master_seed: int,
    schedule: Sequence[tuple[float, ...]] | None = None,
    n_seeds: int = 3,
    eta: float = EnvConfig.eta,
) -> RolloutLog:
    """One episode per task x schedule entry x seed, everything recorded.

    The tasks are cut into one contiguous slice per worker, with one worker
    per usable CPU and at least ``EPISODES_PER_WORKER`` episodes each.  This
    process plays the first slice while forked processes play the others,
    and the slices are joined in task order; each episode depends only on
    its own seed, so the log is the same for any worker count."""
    global _collect_job
    if not tasks:
        raise PipelineError("empty taskset")
    if schedule is None:
        schedule = phase1_schedule(len(interventions))
    n_episodes = len(tasks) * len(schedule) * n_seeds
    workers = max(1, min(_usable_cpus(), n_episodes // EPISODES_PER_WORKER))
    bounds = [(len(tasks) * i // workers, len(tasks) * (i + 1) // workers) for i in range(workers)]
    _collect_job = (tasks, interventions, master_seed, schedule, n_seeds, eta)
    try:
        if workers == 1:
            slices = list(map(_collect_slice, bounds))
        else:
            import multiprocessing  # only here: a serial collect pays nothing for it

            with multiprocessing.get_context("fork").Pool(workers - 1) as pool:
                rest = pool.map_async(_collect_slice, bounds[1:], chunksize=1)
                slices = [_collect_slice(bounds[0]), *rest.get()]
    finally:
        _collect_job = None
    return RolloutLog([ep for episodes in slices for ep in episodes])


def restrict_to_solvable(model: TransitionModel, n_help: int) -> TransitionModel:
    """Close the model over states that carry the nohelp row and one row per
    help type 1..``n_help``; the run's intervention kind sets ``n_help``,
    so rows of other help types neither keep nor drop a state.

    Successors outside that set are pessimistically remapped to a shared
    failure terminal, so the planner sees a complete absorbing chain.
    """
    actions = action_order(n_help)
    solvable = {
        s for s in model.nonterminal_states()
        if all(model.row(s, a) is not None for a in actions)
    }
    if not solvable:
        raise PipelineError("no state has full action coverage")
    probs: dict[tuple[str, str], dict[str, float]] = {}
    support: set[str] = set(solvable)
    for (s, a), row in model.probs.items():
        if s not in solvable:
            continue
        out: dict[str, float] = {}
        for s2, p in row.items():
            if not is_terminal(s2) and s2 not in solvable:
                s2 = UNKNOWN_FAILURE
            out[s2] = out.get(s2, 0.0) + p
            support.add(s2)
        probs[(s, a)] = out
    return TransitionModel(probs=probs, support=frozenset(support))


HELPER_MODES = ("all_states", "trajectory_only")


@dataclass(frozen=True)
class HelperPolicy:
    """Lookup-table branch chooser distilled from a planner solution."""

    table: dict[str, str]
    training_mode: str  # "all_states" | "trajectory_only"
    fallback: str = NOHELP

    def decide(self, state_key: str) -> str:
        return self.table.get(state_key, self.fallback)

    def as_decider(self) -> Decider:
        def decide(key: str, rng: random.Random, t: int) -> str:
            return self.decide(key)

        return decide


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


def build_helper(
    sol: Solution,
    starts: Iterable[str] | None,
    model: TransitionModel | None,
    mode: str = "all_states",
) -> HelperPolicy:
    """Lookup table of the solved policy; only ``trajectory_only`` walks the
    model from the start keys, so ``all_states`` accepts None for both."""
    if not sol.converged:
        raise PipelineError("refusing to distill an unconverged solution")
    if mode not in HELPER_MODES:
        raise PipelineError(f"unknown helper mode {mode!r}")
    if mode == "all_states":
        return HelperPolicy(table=dict(sol.policy), training_mode=mode)
    table: dict[str, str] = {}
    for start in starts:
        reached, ok = pi_star_closure(sol, model, start)
        if not ok:
            continue
        for s in reached:
            table[s] = sol.policy[s]
    return HelperPolicy(table=table, training_mode=mode)


def split_seen_unseen(starts: dict[str, str], sol: Solution) -> tuple[list[str], list[str]]:
    """Partition task ids into seen (the start is terminal or has a policy
    entry) and unseen.  On a ``restrict_to_solvable`` model this is exactly
    the flag of :func:`pi_star_closure`: every policy state there has every
    action row and every successor is terminal or another policy state, so
    a closure from an entry never leaves the model, and one from a start
    off the policy leaves it at once."""
    seen_ids: list[str] = []
    unseen_ids: list[str] = []
    for task_id in sorted(starts):
        s = starts[task_id]
        (seen_ids if is_terminal(s) or s in sol.policy else unseen_ids).append(task_id)
    return seen_ids, unseen_ids


@dataclass(frozen=True)
class Metrics:
    sr: float
    spl: float
    length: float
    usage: tuple[float, ...]
    n_episodes: int
    expected_usage: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "SR": self.sr,
            "SPL": self.spl,
            "L": self.length,
            "U": list(self.usage),
            "EU": list(self.expected_usage) if self.expected_usage is not None else None,
            "episodes": self.n_episodes,
        }


def metrics_from_log(
    log: RolloutLog,
    tasks: Sequence[Task],
    n_help: int,
    expected: tuple[float, ...] | None = None,
) -> Metrics:
    if not len(log):
        raise PipelineError("no episodes")
    opt = {t.task_id: t.optimal_length for t in tasks}
    sr = spl = length = 0.0
    usage = [0.0] * n_help
    for ep in log:
        won = ep.outcome == "success"
        sr += won
        o = opt[ep.task_id]
        spl += (o / max(ep.length, o)) if won else 0.0
        length += ep.length
        for i, c in enumerate(ep.intervention_count(n_help)):
            usage[i] += c
    n = len(log)
    return Metrics(
        sr=sr / n,
        spl=spl / n,
        length=length / n,
        usage=tuple(u / n for u in usage),
        n_episodes=n,
        expected_usage=expected,
    )


def evaluate(
    decide: Decider,
    tasks: Sequence[Task],
    interventions: Sequence[Intervention],
    master_seed: int,
    n_seeds: int = 1,
    eta: float = EnvConfig.eta,
    expected: tuple[float, ...] | None = None,
    seed_salt: str = "eval",
) -> tuple[Metrics, RolloutLog]:
    if not tasks:
        raise PipelineError("empty taskset")
    log = RolloutLog()
    for task in tasks:
        for rep in range(n_seeds):
            seed = derive_seed(master_seed, seed_salt, task.task_id, rep)
            log.append(run_episode(task, decide, interventions, seed, eta=eta))
    return metrics_from_log(log, tasks, len(interventions), expected), log


def state_score(success: SuccessModel, state_key: str) -> float:
    """Difficulty score 1 - p(s) with p taken under the base branch."""
    return 1.0 - success.get(state_key, NOHELP)


def calibrate_threshold(scores: Sequence[float], percent: float) -> float:
    """Cutpoint such that the top ``percent`` of the scores strictly exceed
    it; percent 0 never fires, percent 100 always does."""
    if not scores:
        raise PipelineError("no calibration scores")
    if not 0.0 <= percent <= 100.0:
        raise PipelineError(f"percent must be in [0, 100], got {percent}")
    ranked = sorted(scores, reverse=True)
    k = round(percent / 100.0 * len(ranked))
    if k <= 0:
        return ranked[0] + 1.0
    if k >= len(ranked):
        return ranked[-1] - 1.0
    return 0.5 * (ranked[k - 1] + ranked[k])


def statewise_threshold_policy(
    success: SuccessModel, states: Iterable[str], threshold: float
) -> dict[str, str]:
    """Help wherever the difficulty score clears the threshold."""
    return {
        s: help_action(1) if state_score(success, s) > threshold else NOHELP
        for s in states
        if not is_terminal(s)
    }


def _episode_triggered(ep: Episode, success: SuccessModel, threshold: float) -> bool:
    return any(
        success.has(s.state, NOHELP) and state_score(success, s.state) > threshold for s in ep.steps
    )


def evaluate_taskwise_all_steps(
    success: SuccessModel,
    threshold: float,
    tasks: Sequence[Task],
    interventions: Sequence[Intervention],
    master_seed: int,
    n_seeds: int = 1,
    eta: float = EnvConfig.eta,
) -> tuple[Metrics, RolloutLog]:
    """Full base run first; a triggered task restarts fully assisted.

    The probe run's steps count toward L but its zero interventions keep U
    untouched; outcome and usage come from the assisted rerun.
    """
    if not tasks:
        raise PipelineError("empty taskset")
    log = RolloutLog()
    extra_len: dict[str, int] = {}
    for task in tasks:
        for rep in range(n_seeds):
            seed = derive_seed(master_seed, "taskwise", task.task_id, rep)
            probe = run_episode(task, always(NOHELP), interventions, seed, eta=eta)
            if probe.outcome != "success" and _episode_triggered(probe, success, threshold):
                rerun_seed = derive_seed(master_seed, "taskwise-restart", task.task_id, rep)
                final = run_episode(task, always(help_action(1)), interventions, rerun_seed, eta=eta)
                extra_len[final.episode_id] = probe.length
                log.append(final)
            else:
                log.append(probe)
    metrics = metrics_from_log(log, tasks, len(interventions))
    if extra_len:
        bonus = sum(extra_len.values()) / len(log)
        metrics = replace(metrics, length=metrics.length + bonus)
    return metrics, log


def taskwise_first_window_decider(
    success: SuccessModel, threshold: float, window: int = 6
) -> Decider:
    """Observe the first ``window`` steps, then commit to full help if any
    of them scored above threshold."""
    fired = {"value": False}

    def decide(key: str, rng: random.Random, t: int) -> str:
        if t == 0:
            fired["value"] = False
        if t < window:
            if success.has(key, NOHELP) and state_score(success, key) > threshold:
                fired["value"] = True
            return NOHELP
        return help_action(1) if fired["value"] else NOHELP

    return decide


@dataclass(frozen=True)
class SelfRegulationReport:
    threshold: float
    accuracy: float
    precision: float
    recall: float


def episode_difficulty(ep: Episode, score_fn: Callable[[str], float]) -> float:
    """Max difficulty score over the pre-final states of an episode."""
    scores = [score_fn(s.state) for s in ep.steps]
    if not scores:
        raise PipelineError(f"episode {ep.episode_id} has no steps")
    return max(scores)


def self_regulation_eval(
    score_fn: Callable[[str], float], val: RolloutLog, test: RolloutLog
) -> SelfRegulationReport:
    """Calibrate a halt threshold on validation accuracy, score the test
    split with success as the positive class."""

    def pairs(log: RolloutLog) -> list[tuple[float, bool]]:
        return [(episode_difficulty(ep, score_fn), ep.outcome == "success") for ep in log]

    val_pairs = pairs(val)
    if not val_pairs:
        raise PipelineError("empty validation split")
    labels = {won for _, won in val_pairs}
    if len(labels) < 2:
        raise PipelineError("validation split has a single outcome class")
    scores = sorted({s for s, _ in val_pairs})
    candidates = [scores[0] - 1.0]
    candidates += [0.5 * (a + b) for a, b in zip(scores, scores[1:])]
    candidates += [scores[-1] + 1.0]

    def accuracy(th: float, data: list[tuple[float, bool]]) -> float:
        hits = sum((s <= th) == won for s, won in data)
        return hits / len(data)

    threshold = max(candidates, key=lambda th: accuracy(th, val_pairs))
    test_pairs = pairs(test)
    if not test_pairs:
        raise PipelineError("empty test split")
    tp = sum(1 for s, won in test_pairs if s <= threshold and won)
    fp = sum(1 for s, won in test_pairs if s <= threshold and not won)
    fn = sum(1 for s, won in test_pairs if s > threshold and won)
    acc = accuracy(threshold, test_pairs)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return SelfRegulationReport(
        threshold=threshold, accuracy=acc, precision=precision, recall=recall
    )
