"""Recorded episode logs shared by collection, estimation, and evaluation."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .mdp import NOHELP, CountTable, help_index, read_jsonl, write_jsonl


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
    """Ordered collection of episodes with jsonl persistence."""

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
