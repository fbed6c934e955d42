"""End-to-end phases: randomized collection, model fitting, helper table
construction, evaluation metrics, and the self-regulation evaluation.

Episodes draw decision randomness and actor randomness from separate
child streams of the episode seed, so two behaviors that pick the same
branches produce byte-identical rollouts regardless of how many decision
draws each consumes.  So the decision stream is seeded only for a decider
that can draw: ``always``, ``load_helper``'s decider and a law of
``baseline_random`` that puts all of [0, 1) on one branch never draw, are
marked ``draws = False`` (``_drawless``) and are handed None.

One episode loop (``_play``) plays the episodes of collection, evaluation,
the baselines and ``selfreg``, on the state graph ``env.episode_start``
keeps on each task, and returns the episode's ``(state key, branch, env
action)`` triples and final state; ``run_episode`` makes an ``Episode`` of
them.

Phase-1 collection has two entry points over one slice player, which
builds each schedule entry's decider and seed label once, and hashes the
seed label prefix of each (task, entry) once (``seeds_under``).
``write_phase1`` (the ``collect`` command) plays slices of the tasks in
forked workers.  Each formats its lines (``episode_line``) straight from
the triples, with no ``Step`` or ``Episode`` built, and sends them back as
one string; ``write_phase1`` writes ``phase1.jsonl`` from those strings,
so no episode crosses a process boundary.  ``collect_phase1`` plays the same
episodes in this process and returns them as a ``RolloutLog``, the
episode-level reference for the tests.

Evaluation keeps only what its metrics read: each episode of ``evaluate``
becomes one outcome row ``(task_id, won, spl_term, length, calls)``, and
``metrics`` sums rows, so ``eval`` takes its seen and unseen metrics from
subsets of the rows of one deployment.

A decider maps ``(state key, decision stream)`` to a branch; ``always``,
``baseline_random`` and the helper that ``load_helper`` reads are deciders.
An intervention is a callable ``(state, actor stream) -> env action``, such
as ``env.strong_actor`` with its noise bound or the picker of ``mcts_pick``.

Every worker process comes from ``fork_jobs``: ``collect``'s and ``eval``'s
episode slices and the reader of ``solve`` and ``search``, which takes the
solver's rows from ``counts.jsonl``, laid out and checked for cycles by
``planner.model_rows``, and then the start keys from ``tasks.jsonl``
(``read_solvable_rows``).
"""
from __future__ import annotations

import hashlib
import io
import itertools
import os
import random
from functools import partial
from typing import Callable, Iterator, NamedTuple, NoReturn, Sequence, TypeVar

from .env import ETA, EnvState, Task, base_actor, env_step, episode_start
from .mdp import (
    COUNT_FIELDS,
    NOHELP,
    DataError,
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
    write_lines,
)
from .planner import UNKNOWN_FAILURE, ModelRows, Solution, import_solver, model_rows
from .rollouts import Episode, RolloutLog, Step, episode_line

T = TypeVar("T")


class PipelineError(ValueError):
    pass


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit child seed: the hash of the label path ``master/part/...``."""
    return _seed_of(hashlib.sha256("/".join(map(str, (master,) + parts)).encode()))


def seeds_under(master: int, *parts) -> Callable[[object], int]:
    """``lambda last: derive_seed(master, *parts, last)``, with the label
    prefix ``master/part/.../`` hashed once and its hash state copied per
    call."""
    prefix = hashlib.sha256("/".join(map(str, (master,) + parts + ("",))).encode())

    def seed(last) -> int:
        h = prefix.copy()
        h.update(str(last).encode())
        return _seed_of(h)

    return seed


def _seed_of(h) -> int:
    return int.from_bytes(h.digest()[:8], "big") >> 1


Decider = Callable[[str, "random.Random | None"], str]  # (state key, decision stream) -> branch
Steps = list[tuple[str, str, str]]  # an episode's (state key, branch, env action) triples
Actor = Callable[[EnvState, random.Random], str]  # (state, actor stream) -> env action

PROPOSALS = 5  # base-actor proposals per MCTS pick


def mcts_pick(q: Callable[[EnvState, str], float]) -> Actor:
    """Help executed by a depth-1 pick over base-actor proposals: up to
    ``PROPOSALS`` distinct uniform proposals, of which the one with the
    highest ``q`` is executed; a tie goes to the earliest proposal."""

    def pick(state: EnvState, rng: random.Random) -> str:
        candidates: list[str] = []
        for _ in range(PROPOSALS):
            # noise 1.0: every proposal is a uniform draw over the legal actions
            a = base_actor(state, rng, 1.0)
            if a not in candidates:
                candidates.append(a)
        return max(candidates, key=lambda a: q(state, a))  # max keeps the first maximal item

    return pick


def run_episode(
    task: Task,
    decide: Decider,
    interventions: Sequence[Actor],
    seed: int,
    eta: float = ETA,
) -> Episode:
    """Roll one episode on the task's state graph (``env.episode_start``);
    the decider picks a branch at every step from the step's state key,
    which is also recorded.  A help branch's action comes from its
    intervention, a nohelp branch's from the base actor."""
    steps, end = _play(task, decide, _actors(interventions), seed, eta)
    return _episode(task, seed, steps, end)


def _actors(interventions: Sequence[Actor]) -> dict[str, Actor]:
    return {help_action(i): actor for i, actor in enumerate(interventions, start=1)}


def _play(task: Task, decide: Decider, actors: dict[str, Actor], seed: int, eta: float) -> tuple[Steps, EnvState]:
    """The episode loop: the steps of the episode of ``seed`` and its final
    state.  The actor stream is seeded from ``seed/act``; the decision
    stream, from ``seed/decide``, is seeded only for a decider that can
    draw, and a decider marked ``draws = False`` is handed None."""
    rng_decide = random.Random(derive_seed(seed, "decide")) if getattr(decide, "draws", True) else None
    rng_act = random.Random(derive_seed(seed, "act"))
    state = episode_start(task)
    steps: Steps = []
    while state.outcome is None:
        key = state.key()
        branch = decide(key, rng_decide)
        if branch == NOHELP:
            env_action = base_actor(state, rng_act, eta)
        else:
            actor = actors.get(branch)
            if actor is None:
                raise PipelineError(f"unknown intervention index {help_index(branch)}")
            env_action = actor(state, rng_act)
        steps.append((key, branch, env_action))
        state = env_step(state, env_action)
    return steps, state


def _episode(task: Task, seed: int, steps: Steps, end: EnvState) -> Episode:
    return Episode(task.task_id, seed, tuple(map(Step._make, steps)), end.key(), end.outcome, len(steps))


def _drawless(decide: Decider) -> Decider:
    """``decide``, marked as a decider that never uses its decision stream."""
    decide.draws = False
    return decide


def always(branch: str) -> Decider:
    return _drawless(lambda key, rng: branch)


def baseline_random(p: Sequence[float]) -> Decider:
    """Fire intervention i with probability p_i each step, at most one: the
    first i whose running sum p_1 + ... + p_i exceeds a uniform draw.  A law
    whose first positive running sum is at least 1, or that has none, takes
    one branch for every draw in [0, 1), and is ``always`` that branch."""
    p = tuple(p)
    if any(x < 0 for x in p) or sum(p) > 1.0 + 1e-12:
        raise PipelineError(f"bad intervention probabilities {p}")
    sums = list(itertools.accumulate(p, initial=0.0))[1:]  # 0.0 + p_1 + ... + p_i, summed as one draw's loop would
    arms = [(acc, help_action(i)) for i, acc in enumerate(sums, start=1)]
    first = next((arm for arm in arms if arm[0] > 0.0), None)
    if first is None:
        return always(NOHELP)
    if first[0] >= 1.0:
        return always(first[1])

    def decide(key: str, rng: random.Random) -> str:
        u = rng.random()
        for acc, branch in arms:
            if u < acc:
                return branch
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
# worker's outcome rows cost about 1.3 ms per 1,500 to pickle and unpickle.
# The bound was set when a worker of a multiprocessing pool took about 10 ms
# to start and join, so it is if anything high.
EPISODES_PER_WORKER = 500


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _task_slices(n_tasks: int, n_episodes: int) -> list[tuple[int, int]]:
    """Contiguous slices of the tasks, one per worker: one worker per usable
    CPU, with at least ``EPISODES_PER_WORKER`` episodes and one task each."""
    workers = max(1, min(_usable_cpus(), n_episodes // EPISODES_PER_WORKER, n_tasks))
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


def _checked_schedule(tasks: Sequence[Task], interventions: Sequence[Actor],
                     schedule: Sequence[tuple[float, ...]] | None) -> Sequence[tuple[float, ...]]:
    """``schedule``, or the default one for ``interventions``; an empty
    taskset is refused."""
    if not tasks:
        raise PipelineError("empty taskset")
    return phase1_schedule(len(interventions)) if schedule is None else schedule


def _play_phase1(tasks: Sequence[Task], interventions: Sequence[Actor], master_seed: int,
                 schedule: Sequence[tuple[float, ...]], n_seeds: int,
                 eta: float) -> Iterator[tuple[Task, int, Steps, EnvState]]:
    """The phase-1 episodes of ``tasks`` in order, one per task x schedule
    entry x seed, as ``(task, seed, steps, final state)``; each draws only
    from its own seed, ``derive_seed(master_seed, "phase1", task_id,
    label, rep)``, whose prefix is hashed once per task and entry."""
    arms = [(baseline_random(probs), str(probs)) for probs in schedule]  # the decider and seed label of each entry
    actors = _actors(interventions)
    for task in tasks:
        for decide, label in arms:
            seed_of = seeds_under(master_seed, "phase1", task.task_id, label)
            for rep in range(n_seeds):
                seed = seed_of(rep)
                yield (task, seed, *_play(task, decide, actors, seed, eta))


def collect_phase1(
    tasks: Sequence[Task],
    interventions: Sequence[Actor],
    master_seed: int,
    schedule: Sequence[tuple[float, ...]] | None = None,
    n_seeds: int = 3,
    eta: float = ETA,
) -> RolloutLog:
    """One episode per task x schedule entry x seed, everything recorded and
    played in this process.  The episode-level reference for
    ``write_phase1``: ``collect_phase1(...).save(path, header)`` writes the
    file that ``write_phase1(path, header, ...)`` writes."""
    schedule = _checked_schedule(tasks, interventions, schedule)
    return RolloutLog([_episode(*ep) for ep in _play_phase1(tasks, interventions, master_seed, schedule, n_seeds, eta)])


def write_phase1(
    path: str | os.PathLike,
    header: dict | None,
    tasks: Sequence[Task],
    interventions: Sequence[Actor],
    master_seed: int,
    schedule: Sequence[tuple[float, ...]] | None = None,
    n_seeds: int = 3,
    eta: float = ETA,
) -> int:
    """Play ``collect_phase1``'s episodes and write them to ``path`` after
    ``header``, byte-equal to ``collect_phase1(...).save(path, header)``;
    returns the number of episodes.

    The tasks are cut into one contiguous slice per worker, with one worker
    per usable CPU and at least ``EPISODES_PER_WORKER`` episodes and one
    task each (``_task_slices``).  This
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
        return "".join([episode_line((task.task_id, seed, steps, end.key(), end.outcome, len(steps))) + "\n"
                        for task, seed, steps, end in _play_phase1(tasks[lo:hi], interventions, master_seed,
                                                                   schedule, n_seeds, eta)])

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
    """``counts.jsonl`` as the solver's rows (``planner.model_rows``), read in
    one pass with no CountTable or TransitionModel built: the states, the
    restriction and the probabilities of
    ``restrict_to_solvable(normalize(CountTable.load(path)), n_help)``.
    ``solve`` and ``search``, the only commands that read ``counts.jsonl``,
    call it through ``read_solvable_rows``.

    Each record is refused as ``CountTable.load`` refuses it, with its
    message naming the path and the record: a count that is not a positive
    integer, a state or next state that is not a string, a terminal source
    state, an unknown action.  States and actions are checked where they
    first appear, so an unhashable one is refused as a malformed record.
    Duplicate records add up.  An empty file raises "no data", as
    ``normalize`` does.  ``model_rows`` then divides the count rows of the
    states it keeps by their totals, as ``normalize`` divides them, and
    refuses a file with no state carrying every action row of
    0..``n_help``, and one whose kept states' successor edges hold a cycle,
    since the planner takes finite-horizon models only.
    ``model_rows`` takes each row's successors in sorted order, as
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
    return model_rows(table, n_help, counts=True)


# solvable_rows reads about 25 MB of counts.jsonl a second, for `solve` and
# `search` alone, which read it here.  Forking gains nothing for a file of
# configs/reference.json's size (136 KB): on a shared 2-CPU host, always
# forking took a reference `search` from 0.452 s to 0.497 s in the median of
# 40 alternating pairs (slower in 37), and in a rerun on a busier host from
# 0.589 s to 0.603 s (slower in 21 of 40).  So a file below the bound is read
# inline; the paper config's 6.4 MB file forks.
FORK_MIN_BYTES = 1_000_000


def read_solvable_rows(path: str | os.PathLike, n_help: int, then: Callable[[], T]) -> tuple[ModelRows, T]:
    """``(solvable_rows(path, n_help), then())``.  From ``FORK_MIN_BYTES``
    on, and with a second usable CPU, one forked worker (``fork_jobs``)
    reads the file and then runs ``then`` while this process imports the
    solver (``planner.import_solver``); the worker's exception is raised
    here with its type, so a bad file is reported before anything ``then``
    would refuse.  Otherwise this process reads the file and runs ``then``,
    and the solver is imported by the first solve.

    The worker is forked, as ``write_phase1``'s are: a spawned one starts
    a new interpreter and imports the package again, about 0.2 s more, which
    is about what the paper-scale read takes.  The commands fork before they
    import numpy, so no thread runs then."""
    read = partial(_read_then, path, n_help, then=then)
    if _usable_cpus() < 2 or os.path.getsize(path) < FORK_MIN_BYTES:
        return read()
    return fork_jobs([import_solver, read])[1]


def _read_then(path: str | os.PathLike, n_help: int, then: Callable[[], T]) -> tuple[ModelRows, T]:
    rows = solvable_rows(path, n_help)
    return rows, then()


def load_helper(path: str | os.PathLike, n_help: int) -> Decider:
    """The decider of the helper an ``annotate`` run wrote to ``path``, read
    for a run with ``n_help`` help types: the branch of ``table`` for a
    state key, ``fallback`` off it.  ``table`` must map state keys to
    actions of ``action_order(n_help)``, ``fallback`` must be one of them and
    ``mode`` must be ``"all_states"``, the one helper ``annotate`` writes (a
    ``trajectory_only`` helper of an older run is refused); any other file
    raises DataError naming the path."""
    actions = action_order(n_help)

    def parse(doc: dict) -> Decider:
        table = check_table("table", doc["table"], f"actions of {actions}", lambda acts: are_actions(acts, n_help))
        if not are_actions([doc["fallback"]], n_help):
            raise DataError(f"fallback must be one of {actions}, got {_dump(doc['fallback'])[:80]}")
        if doc["mode"] != "all_states":
            raise DataError(f"mode must be \"all_states\", got {_dump(doc['mode'])[:80]}")
        fallback = doc["fallback"]
        return _drawless(lambda key, rng: table.get(key, fallback))

    return read_json(path, parse)


def build_helper(sol: Solution) -> dict[str, str]:
    """Lookup table (state key -> branch) of the solved policy: the policy on
    every state the solution covers; an unconverged solution is refused."""
    if not sol.converged:
        raise PipelineError("refusing to distill an unconverged solution")
    return dict(sol.policy)


def split_seen_unseen(starts: dict[str, str], sol: Solution) -> tuple[list[str], list[str]]:
    """Partition task ids into seen (the start is terminal or has a policy
    entry) and unseen.  A solution of ``solvable_rows`` has an entry for
    every row state, and every successor of a row state is terminal or
    another row state, so following the policy from an entry never leaves
    the model, and a non-terminal start off the policy is off the model."""
    seen_ids: list[str] = []
    unseen_ids: list[str] = []
    for task_id in sorted(starts):
        s = starts[task_id]
        (seen_ids if is_terminal(s) or s in sol.policy else unseen_ids).append(task_id)
    return seen_ids, unseen_ids


class Metrics(NamedTuple):
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


def metrics(rows: Sequence[tuple], n_help: int, expected: tuple[float, ...] | None = None) -> Metrics:
    """The mean success, SPL, length and calls per help type of ``evaluate``'s
    outcome rows, summed in row order."""
    if not rows:
        raise PipelineError("no episodes")
    sr = spl = length = 0.0
    usage = [0.0] * n_help
    for _, won, spl_term, ep_length, calls in rows:
        sr += won
        spl += spl_term
        length += ep_length
        for i, c in enumerate(calls):
            usage[i] += c
    n = len(rows)
    return Metrics(sr=sr / n, spl=spl / n, length=length / n, usage=tuple(u / n for u in usage), n_episodes=n,
                   expected_usage=expected)


def evaluate(
    decide: Decider,
    tasks: Sequence[Task],
    interventions: Sequence[Actor],
    master_seed: int,
    n_seeds: int = 1,
    eta: float = ETA,
    expected: tuple[float, ...] | None = None,
    seed_salt: str = "eval",
) -> tuple[Metrics, list[tuple]]:
    """``n_seeds`` episodes of each task under ``decide``, as outcome rows in
    task order, and their metrics.  A row is ``(task_id, won, spl_term,
    length, calls)``: ``spl_term`` is ``optimal_length / max(length,
    optimal_length)`` for a success and 0.0 otherwise, and ``calls`` holds
    the episode's help steps per help type.  The tasks are cut into slices as
    ``write_phase1`` cuts them; this process plays the first while forked
    workers play the others and send their rows back.  Each episode draws
    only from its own seed, so the rows are the same for any worker count."""
    if not tasks:
        raise PipelineError("empty taskset")
    n_help = len(interventions)

    def play(lo: int, hi: int) -> list[tuple]:
        rows = []
        for task in tasks[lo:hi]:
            opt = task.optimal_length
            for rep in range(n_seeds):
                ep = run_episode(task, decide, interventions, derive_seed(master_seed, seed_salt, task.task_id, rep),
                                 eta=eta)
                won = ep.outcome == "success"
                rows.append((task.task_id, won, opt / max(ep.length, opt) if won else 0.0, ep.length,
                             ep.intervention_count(n_help)))
        return rows

    slices = _task_slices(len(tasks), len(tasks) * n_seeds)
    rows = [row for part in fork_jobs([partial(play, lo, hi) for lo, hi in slices]) for row in part]
    return metrics(rows, n_help, expected), rows


class SelfRegulationReport(NamedTuple):
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
