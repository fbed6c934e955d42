import os
import random
import signal

import pytest

from helpdp import pipeline
from helpdp.mdp import NOHELP, TransitionModel, terminal_outcome
from helpdp.rollouts import Episode, RolloutLog, Step


def sample_next(row: dict[str, float], rng: random.Random) -> str:
    u = rng.random()
    acc = 0.0
    for s2 in sorted(row):
        acc += row[s2]
        if u < acc:
            return s2
    return sorted(row)[-1]


def rollout_model(
    model: TransitionModel,
    decide,
    start: str,
    rng: random.Random,
    task_id: str = "t0",
    seed: int = 0,
    max_len: int = 10_000,
) -> Episode:
    """Roll an abstract tabular MDP; `decide` maps a state key to a branch."""
    state = start
    steps = []
    for _ in range(max_len):
        if terminal_outcome(state) is not None:
            break
        action = decide(state)
        row = model.row(state, action)
        assert row is not None, (state, action)
        nxt = sample_next(row, rng)
        steps.append(Step(state=state, action=action))
        state = nxt
    outcome = terminal_outcome(state)
    assert outcome is not None, "episode did not terminate"
    return Episode(
        task_id=task_id,
        seed=seed,
        steps=tuple(steps),
        final_state=state,
        outcome=outcome,
        length=len(steps),
    )


def rollout_log(model, decide, start, n, seed, task_id="t0") -> RolloutLog:
    log = RolloutLog()
    for i in range(n):
        rng = random.Random(seed * 7_919 + i)
        log.append(rollout_model(model, decide, start, rng, task_id=task_id, seed=i))
    return log


def always_branch(branch: str):
    return lambda state: branch


def policy_decider(policy: dict[str, str], fallback: str = NOHELP):
    return lambda state: policy.get(state, fallback)


def table_decider(table: dict[str, str], fallback: str = NOHELP):
    """A ``pipeline.Decider`` over a helper table, as ``load_helper`` builds."""
    return lambda key, rng: table.get(key, fallback)


def spy_forks(monkeypatch) -> list:
    """Spy on pipeline.fork_jobs; returns the arguments of every job it
    hands to a forked worker (each job after the first is a partial)."""
    handed: list = []
    fork_jobs = pipeline.fork_jobs

    def spy(jobs):
        handed.extend(job.args for job in jobs[1:])
        return fork_jobs(jobs)

    monkeypatch.setattr(pipeline, "fork_jobs", spy)
    return handed


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that waits on forked workers for 20 s rather than let it
    hang the suite."""
    def expire(signum, frame):
        raise TimeoutError("still waiting on forked workers after 20 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
