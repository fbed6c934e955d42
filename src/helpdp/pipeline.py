"""End-to-end phases: randomized collection, model fitting, helper table
construction, evaluation metrics, and the threshold/self-regulation
baselines.

Episodes draw decision randomness and actor randomness from separate
child streams of the episode seed, so two behaviors that pick the same
branches produce byte-identical rollouts regardless of how many decision
draws each consumes.

Phase-1 collection has two entry points over one slice player.
``write_phase1`` (the ``collect`` command) plays slices of the tasks in
forked workers and writes ``phase1.jsonl`` from the finished lines each
slice sends back, so no episode crosses a process boundary;
``collect_phase1`` plays the same episodes in this process and returns them
as a ``RolloutLog``, the episode-level reference for the tests.

Every worker process comes from ``fork_jobs``: ``collect``'s and ``eval``'s
episode slices and the ``counts.jsonl`` read of ``solve`` and ``search``.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, NoReturn, Protocol, Sequence, TypeVar

from .env import EnvConfig, EnvState, Task, base_actor, env_step, episode_start, strong_actor
from .mdp import (
    COUNT_FIELDS,
    NOHELP,
    DataError,
    SuccessModel,
    TransitionModel,
    _dump,
    action_order,
    are_actions,
    canonical_action,
    check_source,
    check_table,
    help_action,
    help_index,
    is_terminal,
    is_whole,
    read_json,
    read_jsonl,
    record_error,
    terminal_outcome,
    write_lines,
)
from .planner import HELPER_MODES, ModelRows, Solution
from .rollouts import Episode, RolloutLog, Step, episode_line

UNKNOWN_FAILURE = "unknown|outcome=failure"
T = TypeVar("T")


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


# fork_jobs starts and reaps a worker in about 3 ms in a process holding the
# paper-scale tasks, 7 ms on its first call, which imports pickle.  An eval
# worker's episodes cost 20 to 30 ms per 1,500 to send back and rebuild, and a
# collect worker's text less.  The bound was set when a worker of a
# multiprocessing pool took about 10 ms to start and join, so it is if
# anything high.
EPISODES_PER_WORKER = 500


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _task_slices(n_tasks: int, n_episodes: int) -> list[tuple[int, int]]:
    """Contiguous slices of the tasks, one per worker: one worker per usable
    CPU, with at least ``EPISODES_PER_WORKER`` episodes each."""
    workers = max(1, min(_usable_cpus(), n_episodes // EPISODES_PER_WORKER))
    return [(n_tasks * i // workers, n_tasks * (i + 1) // workers) for i in range(workers)]


def fork_jobs(jobs: Sequence[Callable[[], T]]) -> list[T]:
    """``[job() for job in jobs]``: the first job runs in this process while
    one forked child runs each of the others.

    A child inherits its job, closures included, so no job is pickled; it
    sends back its pickled result, or its exception, through its own pipe.
    The results come in input order.  A child's exception is raised here with
    its type, and a child that ends without a result (killed by a signal,
    say) raises PipelineError naming its exit status.  Every child is reaped
    before this returns or raises; once this raises, the children still
    running are killed first.  Only a call with more than one job forks, and
    only it imports pickle.  Fork before any thread starts: a forked child
    holds only the thread that forked it."""
    if len(jobs) < 2:
        return [job() for job in jobs]
    import pickle
    import signal

    pipes: list[io.BufferedReader] = []  # the read end of each child's pipe
    pids: list[int] = []
    running: set[int] = set()  # the children not yet reaped
    try:
        for job in jobs[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(job, w)
            finally:
                os.close(w)  # in this process only: _run_child never returns
            pids.append(pid)
            running.add(pid)
        results = [jobs[0]()]
        for i, (pid, pipe) in enumerate(zip(pids, pipes), start=2):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            if code:
                why = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
                raise PipelineError(f"forked worker {i} of {len(jobs)} (pid {pid}) {why} before sending its result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(job: Callable[[], object], w: int) -> NoReturn:
    """The forked side of ``fork_jobs``: write ``(True, result)`` or
    ``(False, exception)``, pickled, to ``w`` and exit at once, with status 0
    only once everything is written; nothing of the parent's (atexit
    handlers, buffered output, the caller's stack) runs here."""
    status = 1
    try:
        import pickle

        try:
            out = (True, job())
        except Exception as exc:
            out = (False, exc)
        try:
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, PipelineError(f"forked worker could not send its result: {exc!r}")))
        with open(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _checked_schedule(tasks: Sequence[Task], interventions: Sequence[Intervention],
                     schedule: Sequence[tuple[float, ...]] | None) -> Sequence[tuple[float, ...]]:
    """``schedule``, or the default one for ``interventions``; an empty
    taskset is refused."""
    if not tasks:
        raise PipelineError("empty taskset")
    return phase1_schedule(len(interventions)) if schedule is None else schedule


def _play_phase1(tasks: Sequence[Task], interventions: Sequence[Intervention], master_seed: int,
                 schedule: Sequence[tuple[float, ...]], n_seeds: int, eta: float) -> Iterator[Episode]:
    """The phase-1 episodes of ``tasks`` in order: one per task x schedule
    entry x seed, each drawing only from its own seed."""
    for task in tasks:
        for probs in schedule:
            decide = baseline_random(probs)
            for rep in range(n_seeds):
                seed = derive_seed(master_seed, "phase1", task.task_id, probs, rep)
                yield run_episode(task, decide, interventions, seed, eta=eta)


def collect_phase1(
    tasks: Sequence[Task],
    interventions: Sequence[Intervention],
    master_seed: int,
    schedule: Sequence[tuple[float, ...]] | None = None,
    n_seeds: int = 3,
    eta: float = EnvConfig.eta,
) -> RolloutLog:
    """One episode per task x schedule entry x seed, everything recorded and
    played in this process.  The episode-level reference for
    ``write_phase1``: ``collect_phase1(...).save(path, header)`` writes the
    file that ``write_phase1(path, header, ...)`` writes."""
    schedule = _checked_schedule(tasks, interventions, schedule)
    return RolloutLog(_play_phase1(tasks, interventions, master_seed, schedule, n_seeds, eta))


def write_phase1(
    path: str | os.PathLike,
    header: dict | None,
    tasks: Sequence[Task],
    interventions: Sequence[Intervention],
    master_seed: int,
    schedule: Sequence[tuple[float, ...]] | None = None,
    n_seeds: int = 3,
    eta: float = EnvConfig.eta,
) -> int:
    """Play ``collect_phase1``'s episodes and write them to ``path`` after
    ``header``, byte-equal to ``collect_phase1(...).save(path, header)``;
    returns the number of episodes.

    The tasks are cut into one contiguous slice per worker, with one worker
    per usable CPU and at least ``EPISODES_PER_WORKER`` episodes each.  This
    process plays the first slice while forked processes play the others
    (``fork_jobs``).  Each slice comes back as its finished lines
    (``episode_line``) in one string, so no episode crosses a process
    boundary, and a worker's exception is raised here with its type.  The
    header and the slices are written in task order once every slice has
    succeeded; a failed run writes nothing.  Each episode depends only on
    its own seed, so the file is the same for any worker count."""
    schedule = _checked_schedule(tasks, interventions, schedule)
    n_episodes = len(tasks) * len(schedule) * n_seeds

    def text(lo: int, hi: int) -> str:
        return "".join([episode_line(ep) + "\n"
                        for ep in _play_phase1(tasks[lo:hi], interventions, master_seed, schedule, n_seeds, eta)])

    texts = fork_jobs([partial(text, lo, hi) for lo, hi in _task_slices(len(tasks), n_episodes)])
    write_lines(path, texts, header)
    return n_episodes


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


def solvable_rows(path: str | os.PathLike, n_help: int) -> ModelRows:
    """``restrict_to_solvable(normalize(CountTable.load(path)), n_help)`` laid
    out as the solver's rows, read in one pass over ``counts.jsonl`` with no
    CountTable or TransitionModel built; ``solver._compile`` makes the same
    arrays of either.

    Each record is refused as ``CountTable.load`` refuses it, with its
    message naming the path and the record: a count that is not a positive
    integer, a state or next state that is not a string, a terminal source
    state, an unknown action.  States and actions are checked where they
    first appear, so an unhashable one is refused as a malformed record.
    Duplicate records add up.  An empty file raises "no data", as
    ``normalize`` does, and one with no state carrying every action row of
    0..``n_help`` raises ``restrict_to_solvable``'s PipelineError.  Each probability is a count over its row's total, and
    successors off the solvable states go to ``UNKNOWN_FAILURE``, as in
    ``restrict_to_solvable``; rows of help types past ``n_help`` add only
    their terminal successors to ``terminals``, as they add them to that
    model's support.  Each row's successors are taken in sorted order, as
    ``CountTable.items`` gives them, so the records may come in any order.
    """
    names: dict[str, str] = {}  # one object per state key, however many records repeat it
    table: dict[tuple[str, str], dict[str, int]] = {}  # (state, action) -> next -> count
    for rec in read_jsonl(path, "state"):
        try:
            s, a, s2, c = rec["state"], rec["action"], rec["next"], rec["count"]
            if not (is_whole(c) and c >= 1):
                raise DataError(f"count must be a positive integer, got {c!r}")
            row = table.get((s, a))
            if row is None:
                check_source(s)
                row = table[names.setdefault(s, s), canonical_action(a)] = {}
            name = names.get(s2)
            if name is None:
                if not isinstance(s2, str):
                    raise DataError(f"next must be a string, got {s2!r}")
                name = names[s2] = s2
            row[name] = row.get(name, 0) + c
        except (KeyError, TypeError, ValueError) as exc:  # DataError is a ValueError
            raise record_error(path, rec, COUNT_FIELDS, exc) from None
    if not table:
        raise DataError("no data")

    actions = {a: ai for ai, a in enumerate(action_order(n_help))}
    coverage: dict[str, int] = {}
    for s, a in table:
        if a in actions:
            coverage[s] = coverage.get(s, 0) + 1
    states = sorted(s for s, k in coverage.items() if k == len(actions))
    if not states:
        raise PipelineError("no state has full action coverage")
    index = {s: i for i, s in enumerate(states)}
    outcome = {s: o for s in names if (o := terminal_outcome(s)) is not None}
    n = len(states)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    succ = [0.0] * (len(actions) * n)
    exits = [0] * (len(actions) * n)
    terminals: set[str] = set()
    for (s, a), row in table.items():
        i = index.get(s)
        if i is None:
            continue
        ai = actions.get(a)
        at = None if ai is None else ai * n + i  # None: a help type past n_help
        total = sum(row.values())
        remapped = False
        for s2 in sorted(row):
            j = index.get(s2)
            if j is not None:
                if at is not None:
                    rows.append(at)
                    cols.append(j)
                    vals.append(row[s2] / total)
                continue
            o = outcome.get(s2)
            if o is None:
                remapped = True
                continue
            terminals.add(s2)
            if at is not None:
                exits[at] += 1
                if o == "success":
                    succ[at] += row[s2] / total
        if remapped:
            terminals.add(UNKNOWN_FAILURE)
            if at is not None and UNKNOWN_FAILURE not in row:
                exits[at] += 1
    return ModelRows(states=states, terminals=sorted(terminals), n_help=n_help, rows=rows, cols=cols,
                     vals=vals, succ=succ, exits=exits, observed=len(names) - len(outcome))


# solvable_rows reads about 25 MB of counts.jsonl a second, and a forked
# reader adds about 10 ms: importing pickle (4 ms), forking and reaping the
# worker (3 ms) and sending the rows back (1.5 ms per MB of file).  The bound
# was set when a multiprocessing pool added about 35 ms, so it is if anything
# high; it stays, so a file of configs/reference.json's size (136 KB) is read
# inline.
FORK_MIN_BYTES = 1_000_000


def read_solvable_rows(path: str | os.PathLike, n_help: int, meanwhile: Callable[[], object]) -> ModelRows:
    """``solvable_rows(path, n_help)``, with ``meanwhile()`` also run in this
    process.  From ``FORK_MIN_BYTES`` on, and with a second usable CPU, one
    forked worker (``fork_jobs``) reads the file while this process runs
    ``meanwhile``; the worker's exception is raised here with its type.
    Otherwise the file is read first and ``meanwhile`` runs after it.

    The worker is forked, as ``write_phase1``'s are: a spawned one starts
    a new interpreter and imports the package again, about 0.2 s more, which
    is about what the paper-scale read takes.  The commands fork before they
    import numpy, so no thread runs then."""
    read = partial(solvable_rows, path, n_help)
    if _usable_cpus() < 2 or os.path.getsize(path) < FORK_MIN_BYTES:
        rows = read()
        meanwhile()
        return rows
    return fork_jobs([meanwhile, read])[1]


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


def load_helper(path: str | os.PathLike, n_help: int) -> HelperPolicy:
    """The helper an ``annotate`` run wrote to ``path``, read for a run with
    ``n_help`` help types: ``table`` must map state keys to actions of
    ``action_order(n_help)``, ``fallback`` must be one of them and ``mode``
    one of ``HELPER_MODES``; any other file raises DataError naming the path."""
    actions = action_order(n_help)

    def parse(doc: dict) -> HelperPolicy:
        table = check_table("table", doc["table"], f"actions of {actions}", lambda acts: are_actions(acts, n_help))
        if not are_actions([doc["fallback"]], n_help):
            raise DataError(f"fallback must be one of {actions}, got {_dump(doc['fallback'])[:80]}")
        if doc["mode"] not in HELPER_MODES:
            raise DataError(f"mode must be one of {list(HELPER_MODES)}, got {_dump(doc['mode'])[:80]}")
        return HelperPolicy(table=table, training_mode=doc["mode"], fallback=doc["fallback"])

    return read_json(path, parse)


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


def _episode_fields(ep: Episode) -> tuple:
    """An episode as plain tuples and strings: a forked eval worker's
    episodes go through pickle and back in about a third of the time their
    Episode and Step objects take, and are rebuilt by
    ``_episode_from_fields``."""
    return ep.task_id, ep.seed, tuple(map(tuple, ep.steps)), ep.final_state, ep.outcome, ep.length


def _episode_from_fields(task_id, seed, steps, final_state, outcome, length) -> Episode:
    return Episode(task_id, seed, tuple(map(Step._make, steps)), final_state, outcome, length)


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
    """``n_seeds`` episodes of each task under ``decide``, logged in task
    order, and their metrics.  The tasks are cut into slices as
    ``write_phase1`` cuts them; this process plays the first while forked
    workers play the others and send their episodes back as plain tuples
    (``_episode_fields``).  Each episode draws only from its own seed, so the
    log is the same for any worker count."""
    if not tasks:
        raise PipelineError("empty taskset")

    def play(lo: int, hi: int) -> list[Episode]:
        return [run_episode(task, decide, interventions, derive_seed(master_seed, seed_salt, task.task_id, rep),
                            eta=eta)
                for task in tasks[lo:hi] for rep in range(n_seeds)]

    def ship(lo: int, hi: int) -> list[tuple]:
        return [_episode_fields(ep) for ep in play(lo, hi)]

    first, *rest = _task_slices(len(tasks), len(tasks) * n_seeds)
    played, *shipped = fork_jobs([partial(play, *first), *(partial(ship, lo, hi) for lo, hi in rest)])
    log = RolloutLog(played)
    for fields in shipped:
        log.episodes.extend([_episode_from_fields(*f) for f in fields])
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
