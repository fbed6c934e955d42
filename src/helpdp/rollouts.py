"""Recorded episode logs shared by collection, estimation, and evaluation."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .mdp import (NOHELP, CountTable, DataError, SuccessModel, canonical_action, help_index, is_terminal,
                  read_jsonl, write_jsonl)

_WON = {"success": 1, "failure": 0}


class Step(NamedTuple):
    """One recorded step; a named tuple, cheap to build for every step and
    every loaded record."""

    state: str
    action: str  # "nohelp" or "help<i>" (the branch, not the env command)
    env_action: str = ""


@dataclass(frozen=True)
class Episode:
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

    def __reduce__(self):
        # The steps travel as plain tuples, which pickle about twice as fast
        # as named tuples; collect_phase1's workers send every episode back.
        return _episode, (self.task_id, self.seed, tuple(map(tuple, self.steps)),
                          self.final_state, self.outcome, self.length)


def _episode(task_id: str, seed: int, steps: tuple[tuple[str, str, str], ...], final_state: str,
             outcome: str, length: int) -> Episode:
    return Episode(task_id, seed, tuple(map(Step._make, steps)), final_state, outcome, length)


class RolloutLog:
    """Ordered collection of episodes with jsonl persistence: one record per
    episode, whose ``steps`` are ``[state, branch, env_action]`` lists.
    ``load``, ``to_count_table`` and ``mdp.estimate_success`` are the
    per-episode reference for ``fit_log``."""

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
        write_jsonl(
            path,
            ({"task_id": ep.task_id, "seed": ep.seed,
              "steps": [[s.state, s.action, s.env_action] for s in ep.steps],
              "final_state": ep.final_state, "outcome": ep.outcome, "length": ep.length}
             for ep in self.episodes),
            header,
        )

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


def fit_log(path: str | Path) -> tuple[CountTable, SuccessModel]:
    """The transition counts and the empirical success model of a saved log,
    read in one pass and equal to ``RolloutLog.load(path).to_count_table()``
    and ``estimate_success(RolloutLog.load(path))``; no Episode or Step is
    built.

    Every (state, branch) is checked once, where it first appears: a
    non-string or terminal state and an unknown branch name are refused.  So
    are an outcome other than success or failure, a step that is not a
    ``[state, branch, env_action]`` list, a non-string final state and a log
    without episodes.  Each raises DataError naming the path and the episode.
    """
    counts: dict[tuple[str, str, str], int] = {}
    stats: dict[tuple[str, str], list[int]] = {}  # (state, branch) -> [visits, wins]
    rec = None
    for rec in read_jsonl(path, "task_id"):
        try:
            won = _WON.get(rec["outcome"])
            if won is None:
                raise DataError(f"rollout without terminal outcome: {rec['outcome']!r}")
            final = rec["final_state"]
            if not isinstance(final, str):
                raise DataError(f"final state must be a string, got {final!r}")
            prev = None
            for state, action, _ in rec["steps"]:
                key = (state, action)
                st = stats.get(key)
                if st is None:
                    if not isinstance(state, str):
                        raise DataError(f"state must be a string, got {state!r}")
                    if is_terminal(state):
                        raise DataError(f"terminal source state: {state!r}")
                    canonical_action(action)
                    st = stats[key] = [0, 0]
                st[0] += 1
                st[1] += won
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
    p = {key: wins / visits for key, (visits, wins) in stats.items()}
    n = {key: visits for key, (visits, _) in stats.items()}
    return CountTable(counts), SuccessModel(p=p, n=n, provenance="empirical")
