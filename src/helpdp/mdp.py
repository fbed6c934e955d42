"""Core tabular bookkeeping: state keys, actions, transition counts,
normalized transition models, and empirical success estimation; also the
environment's config (``EnvConfig``), checked here so that a run config can
be validated without importing ``env``.

States are canonical strings built from ``field=value`` segments joined by
``|``.  Terminal states carry an ``outcome=success`` or ``outcome=failure``
segment, so every component can classify a key without a side table.
"""
from __future__ import annotations

import functools
import json
import math
import re
from json.encoder import encode_basestring_ascii as _enc
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, TypeVar

NOHELP = "nohelp"
T = TypeVar("T")

_HELP_RE = re.compile(r"^help([1-9]\d*)$")
_INT_KEY_RE = re.compile(r"0|-?[1-9][0-9]*")  # an integer as str(int) writes it: no "+", leading zero or space

_OUTCOME_SUCCESS = "outcome=success"
_OUTCOME_FAILURE = "outcome=failure"


class DataError(ValueError):
    """Raised on malformed or inconsistent tabular data."""


def help_action(index: int) -> str:
    if index < 1:
        raise DataError(f"help index must be >= 1, got {index}")
    return f"help{index}"


def is_help(action: str) -> bool:
    return _HELP_RE.match(action) is not None


def help_index(action: str) -> int:
    """1-based intervention index of a help action."""
    m = _HELP_RE.match(action)
    if m is None:
        raise DataError(f"not a help action: {action!r}")
    return int(m.group(1))


@functools.lru_cache(maxsize=None)  # a handful of distinct names; errors are not cached
def canonical_action(action: str) -> str:
    """``action`` unchanged if it is ``nohelp`` or ``help<i>`` (i >= 1, no
    leading zero); any other name raises DataError.  Names are checked where
    they enter: ``CountTable.record``, ``SuccessModel.load``,
    ``estimate_success`` and ``rollouts.fit_log``."""
    if action == NOHELP or is_help(action):
        return action
    raise DataError(f"unknown action {action!r}")


def action_order(n_help: int) -> list[str]:
    """nohelp first, then help1..helpK; the deterministic tie-break order."""
    return [NOHELP] + [help_action(i) for i in range(1, n_help + 1)]


def terminal_outcome(key: str) -> str | None:
    """'success' / 'failure' for terminal keys, None for non-terminal."""
    if "outcome=" not in key:  # no segment can be an outcome marker
        return None
    for seg in key.split("|"):
        if seg == _OUTCOME_SUCCESS:
            return "success"
        if seg == _OUTCOME_FAILURE:
            return "failure"
    return None


def is_terminal(key: str) -> bool:
    return terminal_outcome(key) is not None


def check_source(state) -> None:
    """Refuse a source state, the state a step or a success entry starts
    from, that is not a string or is terminal."""
    if not isinstance(state, str):
        raise DataError(f"state must be a string, got {state!r}")
    if is_terminal(state):
        raise DataError(f"terminal source state: {state!r}")


def terminal_key(name: str, outcome: str) -> str:
    if outcome not in ("success", "failure"):
        raise DataError(f"outcome must be success/failure, got {outcome!r}")
    return f"{name}|outcome={outcome}"


def is_number(value) -> bool:
    """A finite JSON number; true and false are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def is_whole(value) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def are_numbers(values: Collection) -> bool:
    """``is_number`` of every item of ``values``, in passes over the whole
    collection rather than a call per item (a table holds thousands)."""
    return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))


def are_actions(values: Collection, n_help: int) -> bool:
    """Whether every item of ``values`` is one of ``action_order(n_help)``."""
    return set(map(type, values)) <= {str} and set(values) <= set(action_order(n_help))


def check_table(name: str, table, what: str, ok: Callable[[Collection], bool]) -> dict:
    """``table`` if it is a JSON object whose values pass ``ok``, called once
    on all of them; otherwise DataError saying that ``name`` must map state
    keys to ``what``."""
    if type(table) is not dict or not ok(table.values()):
        raise DataError(f"{name} must map state keys to {what}")
    return table


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


DUMP_PIECE = 2048  # object entries per piece of dump_pieces


def dump_pieces(doc: dict) -> Iterator[str]:
    """``_dump(doc) + "\n"`` in pieces, for a ``doc`` with string keys: each
    member is encoded on its own, and an object member of more than
    ``DUMP_PIECE`` entries ``DUMP_PIECE`` entries at a time, in the sorted
    key order of ``sort_keys``.  A writer of a multi-megabyte document, such
    as a paper-scale ``solution.json``, so holds a few hundred KB of its
    text at a time rather than the whole text and its copies."""
    piece = DUMP_PIECE
    yield "{"
    for i, key in enumerate(sorted(doc)):
        value = doc[key]
        yield ("," if i else "") + _enc(key) + ":"
        if type(value) is dict and len(value) > piece:
            keys = sorted(value)
            yield "{"
            for j in range(0, len(keys), piece):
                yield ("," if j else "") + _dump({k: value[k] for k in keys[j:j + piece]})[1:-1]
            yield "}"
        else:
            yield _dump(value)
    yield "}\n"


# The row formatters (``count_line`` below, ``rollouts.episode_line``) give
# ``_dump(record)`` of one record schema with no dict built and no keys
# sorted.  Their keys are written in sorted order, strings go through
# ``encode_basestring_ascii`` (which raises TypeError on any other type), and
# integers are written as ``json.dumps`` writes them.  Only an exact ``int``
# takes that path; a record with any other value (a bool, an int subclass, a
# float, a list ...) falls back to ``_dump``.


def count_line(state: str, action: str, nxt: str, count: int) -> str:
    """One ``counts.jsonl`` record: ``_dump`` of its dict."""
    if type(count) is int:
        try:
            return f'{{"action":{_enc(action)},"count":{count},"next":{_enc(nxt)},"state":{_enc(state)}}}'
        except TypeError:
            pass
    return _dump({"state": state, "action": action, "next": nxt, "count": count})


def record_error(path: str | Path, rec: dict, fields: tuple[str, ...], exc: Exception) -> DataError:
    """``exc``, raised on the record ``rec`` of ``path``, as a DataError that
    names the file and the record by the values of its ``fields``."""
    why = exc if isinstance(exc, DataError) else f"malformed record ({type(exc).__name__}: {exc})"
    return DataError(f"{path}: record ({', '.join(repr(rec.get(f)) for f in fields)}): {why}")


def write_lines(path: str | Path, lines: Iterable[str], header: dict | None = None) -> None:
    """Write ``header`` (the run provenance) as ``{"provenance": header}`` on
    the first line, then each of ``lines``, a run of whole lines, as given,
    in a single pass.  An existing file is unlinked first and replaced, never
    truncated."""
    Path(path).unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(_dump({"provenance": header}) + "\n")
        fh.writelines(lines)


def write_jsonl(path: str | Path, records: Iterable[dict], header: dict | None = None) -> None:
    """Write one compact, key-sorted JSON record per line, after the header
    line, through ``write_lines``."""
    write_lines(path, (_dump(rec) + "\n" for rec in records), header)


def read_jsonl(path: str | Path, key: str) -> Iterator[dict]:
    """The records of a JSONL file written by ``write_jsonl``: every line is
    a JSON object carrying ``key``, except blank lines, which are skipped,
    and a ``{"provenance": ...}`` header on the first line.  Any other line
    raises DataError naming the path and line number."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not JSON: {exc}") from None
            if type(rec) is dict and key in rec:
                yield rec
            elif not (lineno == 1 and type(rec) is dict and list(rec) == ["provenance"]):
                raise DataError(f"{path}:{lineno}: expected a JSON object with {key!r}, "
                                f"got {line.strip()[:80]}")


def read_json(path: str | Path, parse: Callable[[dict], T]) -> T:
    """``parse`` of the JSON document in ``path``.  A file that is not UTF-8
    JSON, or a document that ``parse`` fails on (a missing key, a value of
    the wrong type), raises DataError naming the path and the cause."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed document ({type(exc).__name__}: {exc})") from None


COUNT_FIELDS = ("state", "action", "next")  # the fields that name a counts.jsonl record


class CountTable:
    """Raw transition counts keyed by (state, action, next_state)."""

    def __init__(self, counts: dict[tuple[str, str, str], int] | None = None) -> None:
        """``counts``, if given, is taken as it is: the caller has already
        checked every entry as ``record`` would."""
        self._counts: dict[tuple[str, str, str], int] = {} if counts is None else counts

    def record(self, state: str, action: str, next_state: str, count: int = 1) -> None:
        if not (is_whole(count) and count >= 1):
            raise DataError(f"count must be a positive integer, got {count!r}")
        check_source(state)
        action = canonical_action(action)
        if not isinstance(next_state, str):
            raise DataError(f"next must be a string, got {next_state!r}")
        key = (state, action, next_state)
        self._counts[key] = self._counts.get(key, 0) + count

    def items(self) -> Iterator[tuple[tuple[str, str, str], int]]:
        return iter(sorted(self._counts.items()))

    def __len__(self) -> int:
        return len(self._counts)

    def save(self, path: str | Path, header: dict | None = None) -> None:
        write_lines(path, (count_line(s, a, s2, c) + "\n" for (s, a, s2), c in self.items()), header)

    @classmethod
    def load(cls, path: str | Path) -> "CountTable":
        """The table of a ``counts.jsonl``; a record ``record`` refuses raises
        DataError naming the path and the record."""
        table = cls()
        for rec in read_jsonl(path, "state"):
            try:
                table.record(rec["state"], rec["action"], rec["next"], rec["count"])
            except (KeyError, TypeError, ValueError) as exc:  # DataError is a ValueError
                raise record_error(path, rec, COUNT_FIELDS, exc) from None
        return table


class Checked:
    """The first base of a record that checks its fields when it is built,
    before the ``NamedTuple`` that holds them: ``__new__`` runs the record's
    ``__post_init__`` on the new tuple, and ``_make``, and so ``_replace``,
    builds through ``__new__``, so no way of making one skips the checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class _TransitionModel(NamedTuple):
    probs: dict[tuple[str, str], dict[str, float]]
    support: frozenset[str]


class TransitionModel(Checked, _TransitionModel):
    """Per (state, action) categorical next-state distribution.

    Rows exist only for observed (or analytically constructed) pairs;
    unobserved rows are absent rather than smoothed.  Immutable after
    construction.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        for (s, a), row in self.probs.items():
            if is_terminal(s):
                raise DataError(f"terminal source state in model: {s!r}")
            total = sum(row.values())
            if abs(total - 1.0) > 1e-12:
                raise DataError(f"row ({s!r}, {a!r}) sums to {total}, not 1")
            for s2, p in row.items():
                if not 0.0 <= p <= 1.0:
                    raise DataError(f"probability out of range for ({s!r},{a!r},{s2!r})")
                if s2 not in self.support:
                    raise DataError(f"next state {s2!r} missing from support")

    def row(self, state: str, action: str) -> dict[str, float] | None:
        return self.probs.get((state, action))

    def nonterminal_states(self) -> list[str]:
        return sorted(s for s in self.support if not is_terminal(s))


def normalize(table: CountTable) -> TransitionModel:
    """Estimate transition probabilities as counts over row sums."""
    if len(table) == 0:
        raise DataError("no data")
    rows: dict[tuple[str, str], dict[str, int]] = {}
    support: set[str] = set()
    for (s, a, s2), c in table.items():
        rows.setdefault((s, a), {})[s2] = c
        support.add(s)
        support.add(s2)
    probs: dict[tuple[str, str], dict[str, float]] = {}
    for key, counts in rows.items():
        denom = sum(counts.values())
        probs[key] = {s2: c / denom for s2, c in counts.items()}
    return TransitionModel(probs=probs, support=frozenset(support))


class _SuccessModel(NamedTuple):
    p: dict[tuple[str, str], float]
    n: Mapping[tuple[str, str], int] = MappingProxyType({})
    provenance: str = "empirical"


class SuccessModel(Checked, _SuccessModel):
    """Per (state, action-branch) probability of eventual task success.

    Every ``p`` is a number in [0, 1] and every ``n`` an integer; an
    empirical entry needs n >= 1.  No entry has a terminal state: ``get``
    answers 1 or 0 for those from the key alone.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        if self.provenance not in ("empirical", "exact"):
            raise DataError(f"bad provenance {self.provenance!r}")
        for key, v in self.n.items():
            if not is_whole(v):
                raise DataError(f"n must be an integer for {key}, got {v!r}")
        empirical = self.provenance == "empirical"
        for key, v in self.p.items():
            if not (is_number(v) and 0.0 <= v <= 1.0):
                raise DataError(f"p must be a number in [0, 1] for {key}, got {v!r}")
            check_source(key[0])
            if empirical and self.n.get(key, 0) < 1:
                raise DataError(f"empirical entry without samples: {key}")

    def get(self, state: str, action: str) -> float:
        outcome = terminal_outcome(state)
        if outcome is not None:
            return 1.0 if outcome == "success" else 0.0
        key = (state, action)
        if key not in self.p:
            raise DataError(f"no success estimate for {key}")
        return self.p[key]

    @classmethod
    def load(cls, path: str | Path) -> "SuccessModel":
        """The model of a JSONL file of ``state``, ``action``, ``p``, ``n``
        and ``provenance`` records; a bad record raises DataError naming the
        path and the record's (state, action).  No command writes one."""
        p: dict[tuple[str, str], float] = {}
        n: dict[tuple[str, str], int] = {}
        provenance = "empirical"
        for i, rec in enumerate(read_jsonl(path, "state")):
            try:
                key = (rec["state"], canonical_action(rec["action"]))
                p[key] = rec["p"]
                n[key] = rec["n"]
                if i == 0:
                    provenance = rec["provenance"]
                elif rec["provenance"] != provenance:  # one provenance decides the n >= 1 check for all
                    raise DataError(f"mixed provenance: {provenance!r} and {rec['provenance']!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise record_error(path, rec, ("state", "action"), exc) from None
        try:
            return cls(p=p, n=n, provenance=provenance)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def estimate_success(log: Iterable) -> SuccessModel:
    """Empirical success probability per (state, action-branch).

    A visit to state s counts toward branch a if a was the branch taken at
    s; the label is the episode's terminal outcome.  States never visited
    under a branch are absent.
    """
    visits: dict[tuple[str, str], int] = {}
    successes: dict[tuple[str, str], int] = {}
    empty = True
    for episode in log:
        empty = False
        if episode.outcome not in ("success", "failure"):
            raise DataError(f"rollout without terminal outcome: {episode.episode_id}")
        won = episode.outcome == "success"
        for step in episode.steps:
            if is_terminal(step.state):
                continue
            key = (step.state, canonical_action(step.action))
            visits[key] = visits.get(key, 0) + 1
            if won:
                successes[key] = successes.get(key, 0) + 1
    if empty:
        raise DataError("no data")
    p = {key: successes.get(key, 0) / v for key, v in visits.items()}
    return SuccessModel(p=p, n=dict(visits), provenance="empirical")


class EnvError(ValueError):
    """Raised on a bad environment config or task."""


class _EnvConfig(NamedTuple):
    room_count: int = 10
    max_steps: int = 6
    hint_sizes: tuple[tuple[int, float], ...] = ((4, 0.4), (5, 0.6))
    move_prob: float = 0.8
    eta: float = 0.35
    eta_strong: float = 0.05
    n_train: int = 1000
    n_val: int = 40
    n_test: int = 40


class EnvConfig(Checked, _EnvConfig):
    """The environment's settings.  Its defaults are in ``_field_defaults``:
    ``EnvConfig.eta``, say, is the field's accessor, not its default."""

    __slots__ = ()

    def __post_init__(self) -> None:
        # here and in from_dict every message starts with the field it refuses
        for name, low in (("room_count", 2), ("max_steps", 2), ("n_train", 1), ("n_val", 0), ("n_test", 0)):
            value = getattr(self, name)
            if not (is_whole(value) and value >= low):
                raise EnvError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("move_prob", "eta", "eta_strong"):
            value = getattr(self, name)
            if not (is_number(value) and 0 <= value <= 1):
                raise EnvError(f"{name} must be a number in [0, 1], got {value!r}")
        for size, _ in self.hint_sizes:
            if not (is_whole(size) and 1 <= size <= self.room_count):
                raise EnvError(f"hint_sizes must fit {self.room_count} rooms, got hint size {size!r}")
        weights = [w for _, w in self.hint_sizes]
        if not (all(is_number(w) and w >= 0 for w in weights) and sum(weights) > 0):
            raise EnvError(f"hint_sizes must have weights >= 0 with a positive sum, got {self.hint_sizes!r}")

    @classmethod
    def from_dict(cls, rec: dict) -> "EnvConfig":
        names = list(cls._fields)
        unknown = sorted(set(rec) - set(names))
        if unknown:
            raise EnvError(f"{unknown[0]} is unknown; the fields are {names}")
        kwargs = dict(rec)
        if "hint_sizes" in kwargs:
            sizes = rec["hint_sizes"]
            if not isinstance(sizes, dict):
                raise EnvError(f"hint_sizes must be an object of size: weight, got {sizes!r}")
            for size, weight in sizes.items():
                if not (isinstance(size, str) and _INT_KEY_RE.fullmatch(size)):
                    raise EnvError(f"hint_sizes must be keyed by sizes written as integers, such as \"4\", got {size!r}")
                if not is_number(weight):
                    raise EnvError(f"hint_sizes must be an object of number weights, got {weight!r} for size {size}")
            kwargs["hint_sizes"] = tuple(sorted((int(s), float(w)) for s, w in sizes.items()))
        return cls(**kwargs)
