"""Core tabular bookkeeping: state keys, actions, transition counts,
normalized transition models, and empirical success estimation.

States are canonical strings built from ``field=value`` segments joined by
``|``.  Terminal states carry an ``outcome=success`` or ``outcome=failure``
segment, so every component can classify a key without a side table.
"""
from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

NOHELP = "nohelp"

_HELP_RE = re.compile(r"^help([1-9]\d*)$")

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


# One C encoder for the module, built with the arguments that
# ``JSONEncoder.encode`` passes to ``c_make_encoder`` when it builds a new one
# on every call, so the bytes are json.dumps' with these settings and an
# unserializable value still raises TypeError.  Circular references are still
# checked: ``_markers`` holds the ids of the containers being encoded, and a
# call that raises leaves its open ones behind, so every call empties it.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_markers: dict[int, object] = {}
_encode = c_make_encoder(_markers, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
                         _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
                         _ENCODER.skipkeys, _ENCODER.allow_nan)


def _dump(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``."""
    try:
        return "".join(_encode(obj, 0))
    finally:
        _markers.clear()


def write_jsonl(path: str | Path, records: Iterable[dict], header: dict | None = None) -> None:
    """Write one compact, key-sorted JSON record per line in a single pass;
    ``header`` (the run provenance) goes first as ``{"provenance": header}``.
    An existing file is unlinked first and replaced, never truncated."""
    Path(path).unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(_dump({"provenance": header}) + "\n")
        for rec in records:
            fh.write(_dump(rec) + "\n")


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


class CountTable:
    """Raw transition counts keyed by (state, action, next_state)."""

    def __init__(self, counts: dict[tuple[str, str, str], int] | None = None) -> None:
        """``counts``, if given, is taken as it is: the caller has already
        checked every entry as ``record`` would."""
        self._counts: dict[tuple[str, str, str], int] = {} if counts is None else counts

    def record(self, state: str, action: str, next_state: str, count: int = 1) -> None:
        if is_terminal(state):
            raise DataError(f"terminal source state: {state!r}")
        if not (is_whole(count) and count >= 1):
            raise DataError(f"count must be a positive integer, got {count!r}")
        action = canonical_action(action)
        key = (state, action, next_state)
        self._counts[key] = self._counts.get(key, 0) + count

    def total(self) -> int:
        return sum(self._counts.values())

    def get(self, state: str, action: str, next_state: str) -> int:
        return self._counts.get((state, action, next_state), 0)

    def items(self) -> Iterator[tuple[tuple[str, str, str], int]]:
        return iter(sorted(self._counts.items()))

    def __len__(self) -> int:
        return len(self._counts)

    def save(self, path: str | Path, header: dict | None = None) -> None:
        write_jsonl(
            path,
            ({"state": s, "action": a, "next": s2, "count": c} for (s, a, s2), c in self.items()),
            header,
        )

    @classmethod
    def load(cls, path: str | Path) -> "CountTable":
        table = cls()
        for rec in read_jsonl(path, "state"):
            table.record(rec["state"], rec["action"], rec["next"], rec["count"])
        return table


@dataclass(frozen=True)
class TransitionModel:
    """Per (state, action) categorical next-state distribution.

    Rows exist only for observed (or analytically constructed) pairs;
    unobserved rows are absent rather than smoothed.  Immutable after
    construction.
    """

    probs: dict[tuple[str, str], dict[str, float]]
    support: frozenset[str]

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


@dataclass(frozen=True)
class SuccessModel:
    """Per (state, action-branch) probability of eventual task success.

    Terminal keys are forced to 1/0 regardless of stored samples.
    """

    p: dict[tuple[str, str], float]
    n: dict[tuple[str, str], int] = field(default_factory=dict)
    provenance: str = "empirical"

    def __post_init__(self) -> None:
        if self.provenance not in ("empirical", "exact"):
            raise DataError(f"bad provenance {self.provenance!r}")
        for key, v in self.p.items():
            if not 0.0 <= v <= 1.0:
                raise DataError(f"success probability out of range for {key}")
            if self.provenance == "empirical" and self.n.get(key, 0) < 1:
                raise DataError(f"empirical entry without samples: {key}")

    def has(self, state: str, action: str) -> bool:
        if is_terminal(state):
            return True
        return (state, action) in self.p

    def get(self, state: str, action: str) -> float:
        outcome = terminal_outcome(state)
        if outcome is not None:
            return 1.0 if outcome == "success" else 0.0
        key = (state, action)
        if key not in self.p:
            raise DataError(f"no success estimate for {key}")
        return self.p[key]

    def save(self, path: str | Path, header: dict | None = None) -> None:
        write_jsonl(
            path,
            ({"state": s, "action": a, "p": v, "n": self.n.get((s, a), 0),
              "provenance": self.provenance} for (s, a), v in sorted(self.p.items())),
            header,
        )

    @classmethod
    def load(cls, path: str | Path) -> "SuccessModel":
        p: dict[tuple[str, str], float] = {}
        n: dict[tuple[str, str], int] = {}
        provenance = "empirical"
        for i, rec in enumerate(read_jsonl(path, "state")):
            key = (rec["state"], canonical_action(rec["action"]))
            p[key] = rec["p"]
            n[key] = rec["n"]
            if i == 0:
                provenance = rec["provenance"]
            elif rec["provenance"] != provenance:  # one provenance decides the n >= 1 check for all
                raise DataError(f"mixed provenance in {path}: {provenance!r} and {rec['provenance']!r}")
        return cls(p=p, n=n, provenance=provenance)


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
