"""Recorded episode logs shared by collection, estimation, and evaluation.

``episode_line`` is the one encoder of a ``phase1.jsonl`` record: both
``RolloutLog.save`` and the collect workers of ``pipeline.write_phase1``,
which hand it the played fields with no Episode built, use it, so the file
of a collect is the file of its episodes' log.
``fit_log`` reads a saved log in one pass.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .mdp import (NOHELP, CountTable, DataError, _dump, _enc, canonical_action, check_source, help_index,
                  read_jsonl, write_lines)

_OUTCOMES = frozenset(("success", "failure"))


class Step(NamedTuple):
    """One recorded step; a named tuple, cheap to build for every step and
    every loaded record."""

    state: str
    action: str  # "nohelp" or "help<i>" (the branch, not the env command)
    env_action: str = ""


class Episode(NamedTuple):
    task_id: str
    seed: int
    steps: tuple[Step, ...]
    final_state: str
    outcome: str  # "success" | "failure"
    length: int

    @property
    def episode_id(self) -> str:
        return f"{self.task_id}:{self.seed}"

    @property
    def states(self) -> list[str]:
        return [s.state for s in self.steps] + [self.final_state]

    def intervention_count(self, n_help: int) -> tuple[int, ...]:
        counts = [0] * n_help
        for step in self.steps:
            if step.action != NOHELP:
                counts[help_index(step.action) - 1] += 1
        return tuple(counts)


def episode_line(ep: Sequence) -> str:
    """One ``phase1.jsonl`` record: ``mdp._dump`` of the episode's dict, whose
    ``steps`` are ``[state, branch, env_action]`` lists, written field by
    field as the row formatters of ``mdp`` write theirs.  ``ep`` is an
    Episode or the plain tuple of its fields, whose steps may be plain
    ``(state, branch, env_action)`` tuples.  An episode whose seed or length
    is not an exact ``int``, or whose strings are not all strings, falls
    back to ``_dump``."""
    task_id, seed, steps, final_state, outcome, length = ep
    if type(seed) is int and type(length) is int:
        try:
            body = ",".join([f"[{_enc(s)},{_enc(a)},{_enc(e)}]" for s, a, e in steps])
            return (f'{{"final_state":{_enc(final_state)},"length":{length},"outcome":{_enc(outcome)},'
                    f'"seed":{seed},"steps":[{body}],"task_id":{_enc(task_id)}}}')
        except TypeError:
            pass
    return _dump({"task_id": task_id, "seed": seed, "steps": [list(step) for step in steps],
                  "final_state": final_state, "outcome": outcome, "length": length})


class RolloutLog:
    """Ordered collection of episodes with jsonl persistence: one record per
    episode, whose ``steps`` are ``[state, branch, env_action]`` lists.
    ``load`` and ``to_count_table`` are the per-episode reference for
    ``fit_log``."""

    def __init__(self, episodes: Sequence[Episode] = ()) -> None:
        self.episodes: list[Episode] = list(episodes)

    def append(self, episode: Episode) -> None:
        self.episodes.append(episode)

    def __iter__(self) -> Iterator[Episode]:
        return iter(self.episodes)

    def __len__(self) -> int:
        return len(self.episodes)

    def to_count_table(self) -> CountTable:
        """Transition counts of every step; ``CountTable.record`` rejects a
        step whose state is terminal."""
        table = CountTable()
        for ep in self.episodes:
            states = ep.states
            for i, step in enumerate(ep.steps):
                table.record(step.state, step.action, states[i + 1])
        return table

    def save(self, path: str | Path, header: dict | None = None) -> None:
        write_lines(path, (episode_line(ep) + "\n" for ep in self.episodes), header)

    @classmethod
    def load(cls, path: str | Path) -> "RolloutLog":
        return cls([
            Episode(
                task_id=rec["task_id"],
                seed=rec["seed"],
                steps=tuple(Step(*s) for s in rec["steps"]),
                final_state=rec["final_state"],
                outcome=rec["outcome"],
                length=rec["length"],
            )
            for rec in read_jsonl(path, "task_id")
        ])


def fit_log(path: str | Path) -> CountTable:
    """The transition counts of a saved log, read in one pass and equal to
    ``RolloutLog.load(path).to_count_table()``; no Episode or Step is built.

    Every (state, branch) is checked once, where it first appears: a
    non-string or terminal state and an unknown branch name are refused.  So
    are an outcome other than success or failure, a step that is not a
    ``[state, branch, env_action]`` list, a non-string final state and a log
    without episodes.  Each raises DataError naming the path and the episode.
    """
    counts: dict[tuple[str, str, str], int] = {}
    checked: set[tuple[str, str]] = set()  # (state, branch) pairs seen so far
    rec = None
    for rec in read_jsonl(path, "task_id"):
        try:
            if rec["outcome"] not in _OUTCOMES:
                raise DataError(f"rollout without terminal outcome: {rec['outcome']!r}")
            final = rec["final_state"]
            if not isinstance(final, str):
                raise DataError(f"final state must be a string, got {final!r}")
            prev = None
            for state, action, _ in rec["steps"]:
                key = (state, action)
                if key not in checked:
                    check_source(state)
                    canonical_action(action)
                    checked.add(key)
                if prev is not None:
                    nxt = prev + (state,)
                    counts[nxt] = counts.get(nxt, 0) + 1
                prev = key
            if prev is not None:
                nxt = prev + (final,)
                counts[nxt] = counts.get(nxt, 0) + 1
        except (KeyError, TypeError, ValueError) as exc:  # DataError is a ValueError
            why = exc if isinstance(exc, DataError) else f"malformed record ({type(exc).__name__}: {exc})"
            raise DataError(f"{path}: episode {rec['task_id']}:{rec.get('seed')}: {why}") from None
    if rec is None:
        raise DataError(f"{path}: no episodes")
    return CountTable(counts)
