"""Synthetic multi-room object-search environment.

Rooms form a corridor (room i adjacent to i +/- 1).  The agent starts in
room 0, receives an ambiguous hint (a set of rooms containing the object at
episode start), and the object may be moved once mid-episode.  The base
actor is noisy-greedy over the hint; the strong actor tracks the object's
true room.  Dynamics are deterministic given the executed command, so all
stochasticity lives in the actors, which keeps exact model extraction a
matter of marginalizing actor noise.

``Task`` and ``EnvState`` are slotted records that compute what derives from
their fields once per object.  A state's constructor builds its outcome,
legal actions and key string; its greedy actions and the successors
``env_step`` steps to are kept in slots on first use, and every episode of
a task starts from the one state ``episode_start`` keeps on the task, so
the episodes of a task walk one shared state graph.  ``_step`` is the one
transition rule; ``_walk`` steps with it directly and keeps nothing.

``EnvConfig`` and ``EnvError`` are defined in ``mdp``, so the CLI checks a
run config without importing this module; both are importable from here.
"""
from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .mdp import (NOHELP, EnvConfig, EnvError, SuccessModel, TransitionModel, help_action, is_whole, read_jsonl,
                  write_jsonl)

EXPLORE = "explore"
SPLITS = ("train", "val", "test")
ETA = EnvConfig._field_defaults["eta"]  # the base actor's default noise
ETA_STRONG = EnvConfig._field_defaults["eta_strong"]  # the strong actor's default noise


class EnumerationTooLarge(EnvError):
    pass


def goto(room: int) -> str:
    return f"goto:{room}"


class _Record:
    """A record of ``__slots__``: its fields, then values computed from them
    once per object, in the constructor or on first use.  Equality, hashing,
    ``repr`` and ``_replace`` go by ``_fields`` alone, so the computed slots
    change none of them.  A record's fields are not changed once built."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def _replace(self, **changes):
        """A new record with ``changes`` to its fields; the slots filled on
        first use start empty on it."""
        return type(self)(**{name: changes.pop(name, getattr(self, name)) for name in self._fields}, **changes)


class Task(_Record):
    """A task.  Beside its fields it keeps ``key_prefix``, the constant
    leading segments of every state key of the task, ``first_move``, the
    step at which the object first moves (None if it never does), and
    ``start``, the start state that :func:`episode_start` fills."""

    _fields = ("task_id", "room_count", "object_location", "hint", "move_schedule", "max_steps", "optimal_length",
               "split")
    __slots__ = _fields + ("key_prefix", "first_move", "start")

    def __init__(self, task_id: str, room_count: int, object_location: int, hint: tuple[int, ...],
                 move_schedule: tuple[tuple[int, int], ...], max_steps: int, optimal_length: int,
                 split: str = "train") -> None:
        self.task_id = task_id
        self.room_count = room_count
        self.object_location = object_location
        self.hint = hint
        self.move_schedule = move_schedule
        self.max_steps = max_steps
        self.optimal_length = optimal_length
        self.split = split
        self.key_prefix = f"task={task_id}|hint=" + ",".join(map(str, hint))
        self.first_move = min((when for when, _ in move_schedule), default=None)
        self.start: EnvState | None = None

    def object_room(self, t: int) -> int:
        return _object_room(self.object_location, self.move_schedule, t)

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "room_count": self.room_count,
            "object_location": self.object_location,
            "hint": list(self.hint),
            "move_schedule": [list(m) for m in self.move_schedule],
            "max_steps": self.max_steps,
            "optimal_length": self.optimal_length,
            "split": self.split,
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "Task":
        """The task of a ``tasks.jsonl`` record.  A missing or malformed field
        raises EnvError, and the message starts with the field."""

        def get(name: str, rule: str, ok: Callable[[object], bool]):
            if name not in rec:
                raise EnvError(f"{name} is missing")
            value = rec[name]
            if not ok(value):
                raise EnvError(f"{name} {rule}, got {value!r}")
            return value

        def is_room(value) -> bool:
            return is_whole(value) and 0 <= value < rooms

        def is_move(value) -> bool:
            return isinstance(value, list) and len(value) == 2 and is_whole(value[0]) and is_room(value[1])

        rooms = get("room_count", "must be an integer >= 1", lambda v: is_whole(v) and v >= 1)
        steps = get("max_steps", "must be an integer >= 1", lambda v: is_whole(v) and v >= 1)
        rule = f"must be a list of rooms in 0..{rooms - 1}"
        split = rec.get("split", "train")
        if split not in SPLITS:
            raise EnvError(f"split must be one of {list(SPLITS)}, got {split!r}")
        return cls(
            task_id=get("task_id", "must be a string", lambda v: isinstance(v, str)),
            room_count=rooms,
            object_location=get("object_location", f"must be a room in 0..{rooms - 1}", is_room),
            hint=tuple(get("hint", rule, lambda v: isinstance(v, list) and all(map(is_room, v)))),
            move_schedule=tuple(map(tuple, get("move_schedule", f"must be a list of [step, room] pairs, {rule}",
                                               lambda v: isinstance(v, list) and all(map(is_move, v))))),
            max_steps=steps,
            optimal_length=get("optimal_length", f"must be an integer in 1..{steps}",
                               lambda v: is_whole(v) and 1 <= v <= steps),
            split=split,
        )


class EnvState(_Record):
    """A state.  Its constructor computes its ``outcome`` (None while the
    episode runs), its ``legal_actions`` and its key string, the one place
    each is built.  ``base_move`` and ``strong_move``, the greedy actions,
    and ``successors``, the states stepped from it so far by action, are
    filled on first use; the dynamics are deterministic, so none of them
    ever changes."""

    _fields = ("task", "t", "room", "explored", "found")
    __slots__ = _fields + ("outcome", "legal_actions", "_key", "base_move", "strong_move", "successors")

    def __init__(self, task: Task, t: int, room: int, explored: frozenset[int], found: bool) -> None:
        self.task = task
        self.t = t
        self.room = room
        self.explored = explored
        self.found = found
        if found:
            outcome = "success"
        elif t >= task.max_steps:
            outcome = "failure"
        else:
            outcome = None
        self.outcome = outcome
        legal = [EXPLORE]
        if room > 0:
            legal.append(goto(room - 1))
        if room + 1 < task.room_count:
            legal.append(goto(room + 1))
        self.legal_actions = tuple(legal)
        self._key = (
            f"{task.key_prefix}|t={t}|room={room}|explored={','.join(map(str, sorted(explored)))}"
            f"|moved={int(self.moved)}" + (f"|outcome={outcome}" if outcome is not None else "")
        )
        self.base_move: str | None = None
        self.strong_move: str | None = None
        self.successors: dict[str, EnvState] | None = None

    @property
    def moved(self) -> bool:
        first = self.task.first_move
        return first is not None and first <= self.t

    @property
    def terminal(self) -> bool:
        return self.outcome is not None

    def key(self) -> str:
        return self._key


def _object_room(location: int, move_schedule: Sequence[tuple[int, int]], t: int) -> int:
    """Room holding the object at step t under a move schedule."""
    room = location
    for when, where in move_schedule:
        if when <= t:
            room = where
    return room


def initial_state(task: Task) -> EnvState:
    return EnvState(task=task, t=0, room=0, explored=frozenset(), found=False)


def episode_start(task: Task) -> EnvState:
    """The start state kept on ``task``, so every episode of the task walks,
    and grows, one state graph.  The task and its start then refer to each
    other, a cycle that a process with the cyclic collector off never
    frees; code that needs only the start key takes :func:`initial_state`,
    which leaves nothing on the task."""
    start = task.start
    if start is None:
        start = task.start = initial_state(task)
    return start


def env_step(state: EnvState, action: str) -> EnvState:
    """Deterministic transition, kept in ``state.successors``.  A kept pair
    already passed both checks of :func:`_step`, so repeating it skips
    none."""
    successors = state.successors
    if successors is None:
        successors = state.successors = {}
    nxt = successors.get(action)
    if nxt is None:
        nxt = successors[action] = _step(state, action)
    return nxt


def _step(state: EnvState, action: str) -> EnvState:
    """Deterministic transition to a new successor object, kept nowhere."""
    if state.outcome is not None:
        raise EnvError("cannot step a terminal state")
    if action not in state.legal_actions:
        raise EnvError(f"illegal action {action!r} in room {state.room}")
    room = state.room
    explored = state.explored
    found = False
    if action == EXPLORE:
        found = room == state.task.object_room(state.t)
        explored = explored | {room}
    else:
        room = int(action.split(":", 1)[1])
    return EnvState(state.task, state.t + 1, room, explored, found)


def _greedy_base(state: EnvState) -> str:
    """Move toward (then explore) the nearest unexplored hint room.

    Falls back to unexplored rooms once the hint is exhausted, then to
    re-exploring in place; ties break on the lower room index.  Kept in
    ``state.base_move``.
    """
    move = state.base_move
    if move is None:
        room, explored = state.room, state.explored
        candidates = [r for r in state.task.hint if r not in explored]
        if not candidates:
            candidates = [r for r in range(state.task.room_count) if r not in explored]
        target = min(candidates, key=lambda r: (abs(r - room), r)) if candidates else room
        move = state.base_move = EXPLORE if target == room else goto(room + (1 if target > room else -1))
    return move


def _greedy_strong(state: EnvState) -> str:
    """Move toward (then explore) the object's current room.  Kept in
    ``state.strong_move``."""
    move = state.strong_move
    if move is None:
        room, target = state.room, state.task.object_room(state.t)
        move = state.strong_move = EXPLORE if target == room else goto(room + (1 if target > room else -1))
    return move


def base_actor(state: EnvState, rng: random.Random, eta: float = ETA) -> str:
    """Noisy-greedy: with probability ``eta`` a uniform legal action, else
    :func:`_greedy_base`.  Draws ``rng.random()`` only when ``eta > 0``,
    and ``rng.choice`` only on the noisy branch."""
    if eta > 0 and rng.random() < eta:
        return rng.choice(state.legal_actions)
    return state.base_move or _greedy_base(state)


def strong_actor(state: EnvState, rng: random.Random, eta: float = ETA_STRONG) -> str:
    """:func:`base_actor`'s draws around :func:`_greedy_strong`."""
    if eta > 0 and rng.random() < eta:
        return rng.choice(state.legal_actions)
    return state.strong_move or _greedy_strong(state)


def action_distribution(
    greedy: Callable[[EnvState], str], state: EnvState, eta: float
) -> dict[str, float]:
    """Exact action law of a noisy-greedy actor."""
    legal = state.legal_actions
    dist = {a: eta / len(legal) for a in legal}
    g = greedy(state)
    dist[g] = dist.get(g, 0.0) + (1.0 - eta)
    return dist


class TaskSet(NamedTuple):
    train: tuple[Task, ...]
    val: tuple[Task, ...]
    test: tuple[Task, ...]

    def all(self) -> list[Task]:
        return list(self.train) + list(self.val) + list(self.test)

    def save(self, path: str | Path, header: dict | None = None) -> None:
        write_jsonl(path, (task.to_dict() for task in self.all()), header)

    @classmethod
    def load(cls, path: str | Path) -> "TaskSet":
        """The tasks of a file written by ``save``, by split in file order; a
        malformed record or a repeated task id raises EnvError naming the
        path, the task and the field."""
        splits: dict[str, list[Task]] = {split: [] for split in SPLITS}
        ids: set[str] = set()  # seeds, state keys and start keys all go by task id
        for rec in read_jsonl(path, "task_id"):
            try:
                task = Task.from_dict(rec)
                if task.task_id in ids:
                    raise EnvError("duplicate task_id")
            except EnvError as exc:
                raise EnvError(f"{path}: task {rec['task_id']}: {exc}") from None
            ids.add(task.task_id)
            splits[task.split].append(task)
        return cls(
            train=tuple(splits["train"]), val=tuple(splits["val"]), test=tuple(splits["test"])
        )


def shortest_success_length(
    room_count: int,
    object_location: int,
    move_schedule: Sequence[tuple[int, int]],
    max_steps: int,
) -> int | None:
    """Minimum steps for an omniscient agent; BFS over (time, room)."""
    positions = {0}
    for t in range(max_steps):
        if _object_room(object_location, move_schedule, t) in positions:
            return t + 1
        nxt = set()
        for p in positions:
            nxt.add(p)  # waste a step exploring in place
            if p > 0:
                nxt.add(p - 1)
            if p + 1 < room_count:
                nxt.add(p + 1)
        positions = nxt
    return None


def generate_tasks(config: EnvConfig, seed: int) -> TaskSet:
    """Deterministic task generation; splits are disjoint by id prefix."""
    rng = random.Random(seed)
    sizes = [s for s, _ in config.hint_sizes]
    weights = [w for _, w in config.hint_sizes]

    def one(split: str, i: int) -> Task:
        for _ in range(200):
            obj = rng.randrange(config.room_count)
            size = rng.choices(sizes, weights=weights, k=1)[0]
            others = [r for r in range(config.room_count) if r != obj]
            hint = tuple(sorted([obj] + rng.sample(others, size - 1)))
            schedule: tuple[tuple[int, int], ...] = ()
            if config.move_prob > 0 and rng.random() < config.move_prob and config.max_steps >= 5:
                when = rng.randint(2, config.max_steps - 3)
                where = rng.choice([r for r in range(config.room_count) if r != obj])
                schedule = ((when, where),)
            opt = shortest_success_length(config.room_count, obj, schedule, config.max_steps)
            if opt is not None:
                return Task(
                    task_id=f"{split}{i:04d}",
                    room_count=config.room_count,
                    object_location=obj,
                    hint=hint,
                    move_schedule=schedule,
                    max_steps=config.max_steps,
                    optimal_length=opt,
                    split=split,
                )
        raise EnvError("could not sample a feasible task; loosen the config")

    return TaskSet(
        train=tuple(one("train", i) for i in range(config.n_train)),
        val=tuple(one("val", i) for i in range(config.n_val)),
        test=tuple(one("test", i) for i in range(config.n_test)),
    )


def _walk(root: EnvState, eta: float, cap: float = float("inf"),
          reached: int = 0) -> tuple[dict[str, tuple[EnvState, list[str]]], dict[str, float]]:
    """Every state reachable from ``root``, walked layer by layer in t with
    the unmemoized :func:`_step`, so nothing lands on any task or episode
    graph and no recursion limits the depth.

    Returns each non-terminal state by key, with its successor keys in
    ``legal_actions`` order (distinct, since each action leads to another
    room), and p*(s) of every reached state: the probability that the base
    actor with noise ``eta`` succeeds from s, 1 or 0 at a terminal state,
    else the sum of prob * p*(s') over ``action_distribution(_greedy_base,
    s, eta)``, filled by t descending.  The sum takes every legal action,
    zero-probability ones too, so it is exact for any ``eta``.  Once
    ``reached`` (the states of earlier walks) plus this walk's states pass
    ``cap``, it raises EnumerationTooLarge before it walks further."""
    rows: dict[str, tuple[EnvState, list[str]]] = {}
    p: dict[str, float] = {}
    layer = {root.key(): root}
    while layer:
        reached += len(layer)
        if reached > cap:
            raise EnumerationTooLarge(f"enumeration too large (> {cap} states)")
        nxt: dict[str, EnvState] = {}
        for key, state in layer.items():
            if state.terminal:
                p[key] = 1.0 if state.found else 0.0  # success is finding the object
                continue
            children = [_step(state, action) for action in state.legal_actions]
            kids = [child.key() for child in children]
            nxt.update(zip(kids, children))
            rows[key] = (state, kids)
        layer = nxt
    for key, (state, kids) in reversed(rows.items()):
        p[key] = sum(prob * p[k] for prob, k in zip(action_distribution(_greedy_base, state, eta).values(), kids))
    return rows, p


def success_probability(eta: float = ETA) -> Callable[[EnvState], float]:
    """p*(s) of :func:`_walk`, the base actor's success probability from
    state s, memoized by state key.  A state not yet known fills the memo
    with its whole task, from one walk from a fresh :func:`initial_state`,
    so the states passed in keep no successor."""
    memo: dict[str, float] = {}

    def p_star(state: EnvState) -> float:
        key = state.key()
        if key not in memo:
            memo.update(_walk(initial_state(state.task), eta)[1])
        if key not in memo:  # a state no walk from the start reaches
            memo.update(_walk(state, eta)[1])
        return memo[key]

    return p_star


def exact_models(
    tasks: Iterable[Task],
    eta: float = ETA,
    eta_strong: float = ETA_STRONG,
    cap: int = 200_000,
) -> tuple[TransitionModel, SuccessModel]:
    """Exact transition and success models for the base/strong actor pair.

    Marginalizes each actor's noise over the deterministic step function, one
    :func:`_walk` per task; p(s, a) takes branch a for the first step and
    then p* (the base actor, nohelp).  Each walk starts from a fresh
    :func:`initial_state`, so the enumeration leaves nothing on the tasks.
    """
    probs: dict[tuple[str, str], dict[str, float]] = {}
    p: dict[tuple[str, str], float] = {}
    support: set[str] = set()
    for task in tasks:
        rows, p_star = _walk(initial_state(task), eta, cap, len(support))
        support.update(p_star)
        for key, (state, kids) in rows.items():
            for tag, greedy, noise in ((NOHELP, _greedy_base, eta), (help_action(1), _greedy_strong, eta_strong)):
                dist = action_distribution(greedy, state, noise).values()
                probs[(key, tag)] = dict(zip(kids, dist))
                p[(key, tag)] = sum(prob * p_star[k] for prob, k in zip(dist, kids))
    return TransitionModel(probs=probs, support=frozenset(support)), SuccessModel(p=p, provenance="exact")
