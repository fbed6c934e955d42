import itertools
import json
import math
import os
import random
import signal
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpdp import env, fixtures, oracle, pipeline
from helpdp.env import EnvConfig, generate_tasks, initial_state
from helpdp.mdp import NOHELP, DataError, estimate_success, normalize
from helpdp.pipeline import (
    UNKNOWN_FAILURE,
    PipelineError,
    baseline_random,
    build_helper,
    collect_phase1,
    derive_seed,
    evaluate,
    load_helper,
    phase1_schedule,
    restrict_to_solvable,
    run_episode,
    self_regulation_eval,
    split_seen_unseen,
)
from helpdp.fixtures import truncate_counts
from helpdp.planner import RewardConfig, expected_usage, solve
from helpdp.rollouts import Episode, RolloutLog, Step
from conftest import always_branch, assert_no_child_left, rollout_log, spy_forks

CFG = EnvConfig(
    room_count=4, max_steps=5, hint_sizes=((2, 1.0),), move_prob=0.5,
    n_train=10, n_val=6, n_test=6,
)
TASKS = generate_tasks(CFG, 7)
STRONG = [partial(env.strong_actor, eta=CFG.eta_strong)]


class TestSchedule:
    def test_single_intervention_probabilities(self):
        assert phase1_schedule(1) == [(p,) for p in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]]

    def test_pair_probabilities_included(self):
        sched = phase1_schedule(2)
        for pair in [(0.1, 0.1), (0.3, 0.3), (0.1, 0.3), (0.3, 0.1)]:
            assert pair in sched

    def test_unknown_arity(self):
        with pytest.raises(PipelineError):
            phase1_schedule(3)


class _Draw:
    """A decision stream whose every draw is ``u``."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def _running_sum_branch(p, u):
    """The branch of draw ``u``: help i for the first running sum p_1 + ... +
    p_i above ``u``, nohelp past them all."""
    acc = 0.0
    for i, pi in enumerate(p, start=1):
        acc += pi
        if u < acc:
            return f"help{i}"
    return NOHELP


class _Refusing:
    """A decision stream that raises on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the decision stream was used (.{name})")


PROBS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(lambda xs: [x / max(1.0, sum(xs)) for x in xs])
# laws that take one branch for every draw in [0, 1): all zeros, or zeros up
# to a first positive running sum of at least 1 and zeros after it
ONE_BRANCH = st.integers(1, 4).flatmap(lambda k: st.one_of(
    st.just([0.0] * k),
    st.tuples(st.integers(0, k - 1), st.sampled_from([1.0, 1.0 + 1e-12, math.nextafter(1.0, 2.0)])).map(
        lambda at: [0.0] * at[0] + [at[1]] + [0.0] * (k - 1 - at[0]))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(PROBS, ONE_BRANCH), st.data())
def test_baseline_random_picks_the_running_sum_branch(p, data):
    """For any valid p and any draw, on and beside each running sum too."""
    near = [u for acc in itertools.accumulate(p) for u in (acc, math.nextafter(acc, 0.0), math.nextafter(acc, 2.0))]
    u = data.draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                            st.sampled_from([u for u in near if 0.0 <= u < 1.0] or [0.0])))
    assert baseline_random(p)("state", _Draw(u)) == _running_sum_branch(p, u)


class TestDrawlessDeciders:
    """``always``, ``load_helper``'s decider and the one-branch laws of
    ``baseline_random`` never use their decision stream, so ``run_episode``
    seeds none for them."""

    @settings(max_examples=100, deadline=None)
    @given(ONE_BRANCH)
    def test_a_one_branch_law_never_draws(self, p):
        assert baseline_random(p)("state", _Refusing()) == _running_sum_branch(p, 0.0)

    def test_always_and_the_helper_never_draw(self, tmp_path):
        for branch in (NOHELP, "help1", "help2"):
            assert pipeline.always(branch)("state", _Refusing()) == branch
        decide = load_helper(_write_helper(tmp_path / "helper.json", {"a": "help2", "b": NOHELP}, "help1"), 2)
        assert [decide(key, _Refusing()) for key in ("a", "b", "zz")] == ["help2", NOHELP, "help1"]

    def test_only_a_drawing_decider_gets_a_decision_stream(self, tmp_path, monkeypatch):
        labels = []
        real = pipeline.derive_seed
        monkeypatch.setattr(pipeline, "derive_seed", lambda seed, *parts: labels.append(parts) or real(seed, *parts))
        helper = load_helper(_write_helper(tmp_path / "helper.json", {}, "help1"), 1)
        for decide, want in [(baseline_random((0.0,)), [("act",)]), (baseline_random((1.0,)), [("act",)]),
                             (pipeline.always("help1"), [("act",)]), (helper, [("act",)]),
                             (baseline_random((0.5,)), [("decide",), ("act",)])]:
            labels.clear()
            run_episode(TASKS.train[0], decide, STRONG, 5)
            assert labels == want


class TestCollect:
    def test_byte_identical_logs(self, tmp_path):
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (pa, pb):
            log = collect_phase1(list(TASKS.train), STRONG, 11, n_seeds=2, eta=CFG.eta)
            log.save(p)
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_probability_never_helps(self):
        log = collect_phase1(list(TASKS.train), STRONG, 3, schedule=[(0.0,)], n_seeds=2)
        assert all(step.action == NOHELP for ep in log for step in ep.steps)

    def test_unit_probability_always_helps(self):
        log = collect_phase1(list(TASKS.train), STRONG, 3, schedule=[(1.0,)], n_seeds=2)
        assert all(step.action == "help1" for ep in log for step in ep.steps)

    def test_an_unknown_help_branch_is_refused(self):
        with pytest.raises(PipelineError, match="unknown intervention index 2"):
            collect_phase1(list(TASKS.train[:1]), STRONG, 11, schedule=[(0.0, 1.0)], n_seeds=1)

    def test_empty_taskset(self):
        with pytest.raises(PipelineError, match="empty"):
            collect_phase1([], STRONG, 1)

    def test_episode_count(self):
        log = collect_phase1(list(TASKS.train), STRONG, 5, n_seeds=3)
        assert len(log) == len(TASKS.train) * len(phase1_schedule(1)) * 3


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class TestForkJobs:
    def test_results_come_in_input_order_and_the_first_job_runs_here(self):
        here, there, big = pipeline.fork_jobs([os.getpid, os.getpid, lambda: "x" * 200_000])
        assert here == os.getpid() != there and big == "x" * 200_000
        assert_no_child_left()

    def test_a_single_job_runs_here(self):
        assert pipeline.fork_jobs([os.getpid]) == [os.getpid()]

    def test_a_child_error_keeps_its_type(self):
        def refuse():
            raise DataError("bad record")

        with pytest.raises(DataError, match="bad record"):
            pipeline.fork_jobs([lambda: None, refuse])
        assert_no_child_left()

    @pytest.mark.parametrize("job,why", [(kill_self, "was killed by SIGKILL"),
                                         (lambda: os._exit(3), "exited with status 3")], ids=["killed", "exited"])
    def test_a_child_without_a_result_is_named(self, deadline, job, why):
        # a multiprocessing pool waits for ever on a job whose worker died
        with pytest.raises(PipelineError, match=f"forked worker 3 of 3 \\(pid \\d+\\) {why} before sending its result"):
            pipeline.fork_jobs([lambda: None, lambda: 1, job])
        assert_no_child_left()

    def test_a_failed_first_job_kills_the_children(self, deadline):
        def refuse():
            raise PipelineError("first job")

        with pytest.raises(PipelineError, match="first job"):
            pipeline.fork_jobs([refuse, lambda: time.sleep(60)])
        assert_no_child_left()


class TestForkedCollect:
    """write_phase1 and evaluate fork workers when the episodes pay for them;
    here the tasks are cut for three workers whatever the host has, and the
    file or the log must be the serial one."""

    HEADER = {"config_hash": "0123456789abcdef", "seed": 11}

    @pytest.fixture
    def slices(self, monkeypatch):
        """Force three workers; returns the slices handed to forked workers."""
        monkeypatch.setattr(pipeline, "EPISODES_PER_WORKER", 1)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        return spy_forks(monkeypatch)

    @staticmethod
    def interventions(kind: str) -> list:
        from helpdp.cli import _mcts_q

        mcts = pipeline.mcts_pick(_mcts_q(env.success_probability(CFG.eta), 5))
        return {"strong": STRONG, "mcts": [mcts], "both": [STRONG[0], mcts]}[kind]

    @pytest.mark.parametrize("kind", ["strong", "mcts", "both"])
    def test_forked_log_equals_serial_log(self, tmp_path, slices, kind):
        # the MCTS picker and its scorer are closures: both must reach the
        # workers through the fork
        forked = tmp_path / "forked.jsonl"
        n = pipeline.write_phase1(forked, self.HEADER, list(TASKS.train), self.interventions(kind), 11,
                                  n_seeds=2, eta=CFG.eta)
        assert slices == [(3, 6), (6, 10)]  # this process plays (0, 3)
        serial = collect_phase1(list(TASKS.train), self.interventions(kind), 11, n_seeds=2, eta=CFG.eta)
        assert len(slices) == 2  # collect_phase1 forks nothing
        assert n == len(serial)
        serial.save(tmp_path / "serial.jsonl", header=self.HEADER)
        assert forked.read_bytes() == (tmp_path / "serial.jsonl").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_one_branch_arms_write_the_log_of_their_episodes(self, tmp_path, monkeypatch, cpus):
        # (0.0, 0.0), (1.0, 0.0) and (0.0, 1.0) take one branch and seed no
        # decision stream; the lines come from the play, with no Episode built
        monkeypatch.setattr(pipeline, "EPISODES_PER_WORKER", 1)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        schedule = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.1)]
        ivs = self.interventions("both")
        path = tmp_path / "phase1.jsonl"
        pipeline.write_phase1(path, self.HEADER, list(TASKS.train), ivs, 11, schedule=schedule, n_seeds=2,
                              eta=CFG.eta)
        log = collect_phase1(list(TASKS.train), ivs, 11, schedule=schedule, n_seeds=2, eta=CFG.eta)
        log.save(tmp_path / "serial.jsonl", header=self.HEADER)
        assert path.read_bytes() == (tmp_path / "serial.jsonl").read_bytes()
        for i, ep in enumerate(log):  # per task, the schedule entries in order, two seeds each
            arm = i // 2 % len(schedule)
            if arm < 3:
                assert {step.action for step in ep.steps} == {(NOHELP, "help1", "help2")[arm]}

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_helper_plays_as_if_it_drew(self, tmp_path, monkeypatch, cpus):
        """The decision stream a helper's decider skips changes no row."""
        monkeypatch.setattr(pipeline, "EPISODES_PER_WORKER", 1)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        ivs = self.interventions("both")
        states = sorted({s for ep in collect_phase1(list(TASKS.train), ivs, 3, n_seeds=1) for s in ep.states[:-1]})
        table = {s: ("help1", "help2", NOHELP)[i % 3] for i, s in enumerate(states)}
        helper = load_helper(_write_helper(tmp_path / "helper.json", table, "help2"), 2)
        drawing = lambda key, rng: helper(key, rng)  # unmarked, so it is handed a seeded stream
        got = evaluate(helper, list(TASKS.train), ivs, 11, n_seeds=2, eta=CFG.eta)
        assert got == evaluate(drawing, list(TASKS.train), ivs, 11, n_seeds=2, eta=CFG.eta)
        assert all(u > 0 for u in got[0].usage) and sum(row[4] == (0, 0) for row in got[1]) < len(got[1])

    def test_worker_error_reaches_the_caller_with_its_type(self, tmp_path, slices):
        # two tasks make two workers, and only the forked worker's task
        # fails, so the error can only come from it; nothing is written
        failing = TASKS.train[1].task_id

        def actor(state, rng):
            if state.task.task_id == failing:
                raise PipelineError(f"no help in task {failing}")
            return STRONG[0](state, rng)

        path = tmp_path / "phase1.jsonl"
        with pytest.raises(PipelineError, match=f"no help in task {failing}"):
            pipeline.write_phase1(path, self.HEADER, list(TASKS.train[:2]), [actor], 11, schedule=[(1.0,)],
                                  n_seeds=2)
        assert slices == [(1, 2)]
        assert not path.exists()

    @pytest.mark.parametrize("cpus, n_tasks, n_episodes, slices", [
        (8, 3, 10_000, [(0, 1), (1, 2), (2, 3)]),
        (2, 1, 10_000, [(0, 1)]),
        (2, 1000, 10_000, [(0, 500), (500, 1000)]),
        (8, 1000, 1_500, [(0, 333), (333, 666), (666, 1000)]),
    ])
    def test_every_worker_gets_a_task(self, monkeypatch, cpus, n_tasks, n_episodes, slices):
        # one worker per usable CPU, and at most one per task and per
        # EPISODES_PER_WORKER episodes
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        assert pipeline._task_slices(n_tasks, n_episodes) == slices

    @pytest.mark.parametrize("kind", ["strong", "mcts", "both"])
    def test_forked_eval_equals_serial_eval(self, monkeypatch, slices, kind):
        decide = baseline_random((0.3,) * len(self.interventions(kind)))
        metrics, rows = evaluate(decide, list(TASKS.train), self.interventions(kind), 11, n_seeds=2, eta=CFG.eta)
        assert slices == [(3, 6), (6, 10)]
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        serial_metrics, serial_rows = evaluate(decide, list(TASKS.train), self.interventions(kind), 11, n_seeds=2,
                                               eta=CFG.eta)
        assert len(slices) == 2
        assert (metrics, rows) == (serial_metrics, serial_rows)
        assert [row[0] for row in rows] == [t.task_id for t in TASKS.train for _ in range(2)]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kind", ["strong", "mcts", "both"])
    def test_rows_are_the_outcomes_of_the_seeded_episodes(self, monkeypatch, slices, kind, cpus):
        """Each row is the outcome of the ``run_episode`` episode with the
        row's derived seed, and the metrics of the rows, or of any subset of
        them, equal bit for bit the per-episode sums that ``eval`` reported
        from its episode log."""
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        tasks, ivs = list(TASKS.train), self.interventions(kind)
        k = len(ivs)
        decide = baseline_random((0.3,) * k)
        expected = (0.25,) * k
        got, rows = evaluate(decide, tasks, ivs, 11, n_seeds=2, eta=CFG.eta, expected=expected, seed_salt="s")
        assert slices == ([(5, 10)] if cpus == 2 else [])
        episodes = [run_episode(t, decide, ivs, derive_seed(11, "s", t.task_id, rep), eta=CFG.eta)
                    for t in tasks for rep in range(2)]
        opt = {t.task_id: t.optimal_length for t in tasks}
        assert rows == [(ep.task_id, ep.outcome == "success",
                         opt[ep.task_id] / max(ep.length, opt[ep.task_id]) if ep.outcome == "success" else 0.0,
                         ep.length, ep.intervention_count(k)) for ep in episodes]
        assert {row[1] for row in rows} == {True, False} and any(sum(row[4]) for row in rows)
        assert got == _per_episode_metrics(episodes, tasks, k, expected)
        chosen = {t.task_id for t in tasks[::3]}
        subset = [row for row in rows if row[0] in chosen]
        assert pipeline.metrics(subset, k, None) == _per_episode_metrics(
            [ep for ep in episodes if ep.task_id in chosen], tasks, k, None)


def _per_episode_metrics(episodes, tasks, n_help, expected):
    """The metrics of a list of episodes, summed episode by episode as
    ``eval`` summed its episode log before it kept outcome rows."""
    opt = {t.task_id: t.optimal_length for t in tasks}
    sr = spl = length = 0.0
    usage = [0.0] * n_help
    for ep in episodes:
        won = ep.outcome == "success"
        sr += won
        o = opt[ep.task_id]
        spl += (o / max(ep.length, o)) if won else 0.0
        length += ep.length
        for i, c in enumerate(ep.intervention_count(n_help)):
            usage[i] += c
    n = len(episodes)
    return pipeline.Metrics(sr=sr / n, spl=spl / n, length=length / n, usage=tuple(u / n for u in usage),
                            n_episodes=n, expected_usage=expected)


def _write_helper(path, table, fallback=NOHELP):
    path.write_text(json.dumps({"mode": "all_states", "fallback": fallback, "table": table}))
    return path


class TestReductions:
    @staticmethod
    def _episodes(decide, master_seed, n_seeds):
        """The episodes ``evaluate`` plays on the test split, each under its
        derived seed."""
        return [run_episode(task, decide, STRONG, derive_seed(master_seed, "eval", task.task_id, rep))
                for task in TASKS.test for rep in range(n_seeds)]

    def test_nohelp_helper_equals_zero_baseline(self, tmp_path):
        helper = load_helper(_write_helper(tmp_path / "helper.json", {}), 1)
        assert self._episodes(helper, 9, 3) == self._episodes(baseline_random((0.0,)), 9, 3)
        m1, r1 = evaluate(helper, list(TASKS.test), STRONG, 9, n_seeds=3)
        m2, r2 = evaluate(baseline_random((0.0,)), list(TASKS.test), STRONG, 9, n_seeds=3)
        assert (m1, r1) == (m2, r2)

    def test_full_help_equals_unit_baseline_and_u_equals_l(self):
        assert self._episodes(pipeline.always("help1"), 9, 3) == self._episodes(baseline_random((1.0,)), 9, 3)
        m1, r1 = evaluate(pipeline.always("help1"), list(TASKS.test), STRONG, 9, n_seeds=3)
        m2, r2 = evaluate(baseline_random((1.0,)), list(TASKS.test), STRONG, 9, n_seeds=3)
        assert (m1, r1) == (m2, r2)
        assert m1.usage[0] == pytest.approx(m1.length)

    def test_metric_invariants(self):
        m, _ = evaluate(baseline_random((0.5,)), list(TASKS.test), STRONG, 4, n_seeds=4)
        assert 0.0 <= m.spl <= m.sr <= 1.0
        assert m.length <= CFG.max_steps

    def test_random_usage_matches_occupancy_closed_form(self):
        # E[U] under help-with-prob-q equals q times expected episode length
        q = 0.3
        task = TASKS.train[0]
        model, _ = env.exact_models([task], eta=CFG.eta, eta_strong=CFG.eta_strong)
        mix = {}
        for s in model.nonterminal_states():
            row = {}
            for a, w in ((NOHELP, 1 - q), ("help1", q)):
                for s2, p in model.row(s, a).items():
                    row[s2] = row.get(s2, 0.0) + w * p
            mix[s] = row
        dist = {initial_state(task).key(): 1.0}
        expect = 0.0
        for _ in range(task.max_steps):
            live = sum(p for s, p in dist.items() if s in mix)
            expect += q * live
            nxt: dict[str, float] = {}
            for s, p in dist.items():
                if s not in mix:
                    continue
                for s2, pp in mix[s].items():
                    nxt[s2] = nxt.get(s2, 0.0) + p * pp
            dist = nxt
        m, rows = evaluate(baseline_random((q,)), [task], STRONG, 8, n_seeds=3000)
        var = sum((calls[0] - m.usage[0]) ** 2 for *_, calls in rows) / (len(rows) - 1)
        se = math.sqrt(var / len(rows))
        assert abs(m.usage[0] - expect) <= 3 * se


class TestModelPreparation:
    def test_restrict_remaps_dangling_states(self):
        log = collect_phase1(list(TASKS.train), STRONG, 2, n_seeds=3)
        table = truncate_counts(log.to_count_table(), 0.5, seed=1)
        model = restrict_to_solvable(normalize(table), 1)
        for (s, a), row in model.probs.items():
            for s2 in row:
                assert s2 in model.support
        assert any(UNKNOWN_FAILURE in row for row in model.probs.values())

    def test_truncate_keeps_fraction_of_states(self):
        table = collect_phase1(list(TASKS.train), STRONG, 2, n_seeds=1).to_count_table()
        states = {s for (s, _, _), _ in table.items()}
        kept = truncate_counts(table, 0.6, seed=3)
        kept_states = {s for (s, _, _), _ in kept.items()}
        assert len(kept_states) == round(0.6 * len(states))
        assert kept_states <= states

    def test_restrict_requires_some_coverage(self):
        from helpdp.mdp import CountTable

        table = CountTable()
        table.record("s0", NOHELP, fixtures.T_SUCC)  # no help row anywhere
        with pytest.raises(PipelineError):
            restrict_to_solvable(normalize(table), 1)

    def test_k_comes_from_the_caller_not_the_rows(self):
        """Counts logged with two help types also hold help2 rows; a K = 1
        restriction keeps every state that has its nohelp and help1 rows."""
        two = STRONG * 2
        raw = normalize(collect_phase1(list(TASKS.train), two, 4, n_seeds=1).to_count_table())
        assert any(a == "help2" for _, a in raw.probs)

        def covered(actions):
            return sorted(s for s in raw.nonterminal_states()
                          if all(raw.row(s, a) is not None for a in actions))

        k1 = restrict_to_solvable(raw, 1).nonterminal_states()
        k2 = restrict_to_solvable(raw, 2).nonterminal_states()
        assert k1 == covered((NOHELP, "help1"))
        assert k2 == covered((NOHELP, "help1", "help2"))
        assert len(k2) < len(k1)


def _chain_log(n=4):
    # fabricated rollouts over the two-state chain fixture, starting at s0
    model, _ = fixtures.mdp_b()
    return rollout_log(model, always_branch(NOHELP), "s0", n, seed=2)


class TestHelperConstruction:
    def test_all_states_covers_every_solved_state(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        helper = build_helper(sol)
        assert set(helper) == set(model.nonterminal_states())

    def test_degenerate_chain_modes_agree(self):
        """On the chain, whose every state the start reaches, the helper is
        the policy's closure from the start."""
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        assert build_helper(sol) == oracle.trajectory_table(sol, model, ["s0"]) == sol.policy

    @pytest.mark.parametrize("name,args", [
        ("mdp_a", ()), ("mdp_b", ()), ("corridor_ladder", ()), ("layered_mdp", (3, 10, 1, 4, (1, 2))),
    ])
    def test_helper_holds_the_closure_of_every_start(self, name, args):
        """The helper holds the policy on the oracle closure of each start,
        and on that of all of them, which from every state is the policy; the
        closure of a policy with some entries removed keeps only entries it
        still has."""
        model, succ = getattr(fixtures, name)(*args)
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        helper = build_helper(sol)
        starts = [*model.nonterminal_states(), fixtures.T_SUCC, "off-model"]
        for start in starts:
            assert oracle.trajectory_table(sol, model, [start]).items() <= helper.items(), start
        assert oracle.trajectory_table(sol, model, starts) == helper == sol.policy
        rng = random.Random(1)
        partial = sol._replace(policy={s: a for s, a in sol.policy.items() if rng.random() < 0.7})
        assert oracle.trajectory_table(partial, model, starts).items() <= partial.policy.items() <= helper.items()

    def test_trajectory_only_drops_offending_tasks(self):
        """The trajectory table, the comparator that keeps the policy to the
        closure of the starts, drops a start whose walk reaches a state with
        no policy entry or a row the model lacks; the helper holds the whole
        policy all the same."""
        from helpdp.mdp import TransitionModel

        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        assert oracle.trajectory_table(sol, model, ["s0"]) == sol.policy
        stale = sol._replace(policy={"s0": sol.policy["s0"]})
        assert oracle.trajectory_table(stale, model, ["s0"]) == {}
        assert oracle.trajectory_table(stale, model, ["s1"]) == {}
        off_actions = sol._replace(policy={**sol.policy, "s1": "help2"})
        assert oracle.trajectory_table(off_actions, model, ["s0"]) == {}

        raw = fixtures.mdp_b()[0]
        # s1's help row was never observed in this raw model
        probs = {k: dict(v) for k, v in raw.probs.items() if k != ("s1", "help1")}
        raw2 = TransitionModel(probs=probs, support=raw.support)
        solvable = restrict_to_solvable(raw2, 1)
        succ = estimate_success(_chain_log(20))
        sol = solve(solvable, succ, RewardConfig(r=(0.3,), gamma=1.0))
        assert "s1" not in sol.policy
        assert oracle.trajectory_table(sol, raw2, ["s0"]) == {}
        # in the restricted model s1 is the failure terminal, so s0's walk stays in
        assert oracle.trajectory_table(sol, solvable, ["s0"]) == sol.policy
        assert build_helper(sol) == sol.policy

    def test_unconverged_solution_rejected(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        bad = sol._replace(converged=False)
        with pytest.raises(PipelineError, match="unconverged"):
            build_helper(bad)

    def test_fallback_used_off_table(self, tmp_path):
        rng = random.Random(0)
        for fallback in (NOHELP, "help1"):
            decide = load_helper(_write_helper(tmp_path / "helper.json", {"a": "help1", "b": NOHELP}, fallback), 1)
            assert (decide("a", rng), decide("b", rng), decide("zz", rng)) == ("help1", NOHELP, fallback)


class TestSeenUnseenSplit:
    def test_full_support_all_seen(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        seen, unseen = split_seen_unseen({"t0": "s0", "t1": "s1"}, sol)
        assert seen == ["t0", "t1"] and unseen == []

    def test_uncovered_start_is_unseen(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        seen, unseen = split_seen_unseen({"t0": "s0", "tx": "elsewhere"}, sol)
        assert unseen == ["tx"]

    def test_partition_matches_reachability_oracle(self):
        """The oracle closure's flag on the raw model agrees with an
        independent reachability walk."""
        log = collect_phase1(list(TASKS.train), STRONG, 6, n_seeds=1)
        table = truncate_counts(log.to_count_table(), 0.55, seed=5)
        raw = normalize(table)
        solvable = restrict_to_solvable(raw, 1)
        succ = estimate_success(log)
        sol = solve(solvable, succ, RewardConfig(r=(0.2,), gamma=1.0))
        starts = {t.task_id: initial_state(t).key() for t in TASKS.train}

        def reachable_ok(s0):  # independent trajectory-tree reachability walk
            frontier, visited = [s0], set()
            while frontier:
                s = frontier.pop()
                if s in visited or s.find("outcome=") >= 0:
                    continue
                visited.add(s)
                a = sol.policy.get(s)
                if a is None or raw.row(s, a) is None:
                    return False
                frontier.extend(raw.row(s, a))
            return True

        flags = {tid: oracle.pi_star_closure(sol, raw, s0)[1] for tid, s0 in starts.items()}
        assert flags == {tid: reachable_ok(s0) for tid, s0 in starts.items()}
        assert set(flags.values()) == {True, False}

    @pytest.mark.parametrize("fraction,seed", [(0.3, 1), (0.55, 5), (0.8, 9)])
    def test_solution_domain_split_matches_closure_on_restricted_models(self, fraction, seed):
        log = collect_phase1(list(TASKS.train), STRONG, seed, n_seeds=1)
        model = restrict_to_solvable(normalize(truncate_counts(log.to_count_table(), fraction, seed=seed)), 1)
        sol = solve(model, estimate_success(log), RewardConfig(r=(0.2,), gamma=1.0))
        starts = {t.task_id: initial_state(t).key() for t in TASKS.train}
        starts["terminal"] = fixtures.T_SUCC
        split = split_seen_unseen(starts, sol)
        closed = [tid for tid in sorted(starts) if oracle.pi_star_closure(sol, model, starts[tid])[1]]
        assert split == (closed, [tid for tid in sorted(starts) if tid not in closed])
        assert split[1], "truncation produced no unseen start"
        assert "terminal" in split[0]
        # the closure of every start is that of exactly the seen starts, and the helper holds it
        closure = oracle.trajectory_table(sol, model, starts.values())
        seen_only = oracle.trajectory_table(sol, model, [starts[tid] for tid in closed])
        assert closure == seen_only and closure.items() <= build_helper(sol).items() == sol.policy.items()


class TestExpectedUsageHelpers:
    def test_off_support_defaults(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        eu = expected_usage(sol, ["s0", "nowhere"])
        assert eu[0] == pytest.approx(0.5 * (1.0 + 0.0))


class TestThresholdBaselines:
    def test_corridor_toggling_loses_to_planner(self):
        model, succ = fixtures.corridor_ladder()
        cfg = RewardConfig(r=(0.3,), gamma=1.0)
        # help wherever the difficulty score 1 - p(s, nohelp) clears 0.8
        policy = {s: "help1" if 1.0 - succ.get(s, NOHELP) > 0.8 else NOHELP for s in model.nonterminal_states()}
        assert policy == {s: NOHELP if s.startswith("s2") else "help1" for s in model.nonterminal_states()}
        thr = oracle.exact_policy_eval(model, policy, cfg)
        sol = solve(model, succ, cfg)
        assert thr.usage["s0"][0] >= sol.usage["s0"][0]
        assert thr.success["s0"] < sol.success["s0"]


def _episode(task_id, seed, states, outcome):
    steps = tuple(Step(s, NOHELP) for s in states)
    final = "end|outcome=" + outcome
    return Episode(task_id, seed, steps, final, outcome, len(steps))


class TestSelfRegulation:
    def _separable_logs(self):
        val, test = RolloutLog(), RolloutLog()
        for i in range(20):
            val.append(_episode(f"v{i}", 0, [f"easy{i % 3}"], "success"))
            val.append(_episode(f"vf{i}", 0, [f"hard{i % 3}"], "failure"))
            test.append(_episode(f"t{i}", 0, [f"easy{i % 3}"], "success"))
            test.append(_episode(f"tf{i}", 0, [f"hard{i % 3}"], "failure"))
        return val, test

    @staticmethod
    def _score(key: str) -> float:
        return 0.1 if key.startswith("easy") else 0.9

    def test_separable_perfect_accuracy(self):
        val, test = self._separable_logs()
        report = self_regulation_eval(self._score, val, test)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_constant_scorer_hits_majority_rate(self):
        val, test = self._separable_logs()
        # break the class tie the same way in both splits
        val.append(_episode("vextra", 0, ["easy0"], "success"))
        test.append(_episode("extra", 0, ["easy0"], "success"))
        report = self_regulation_eval(lambda s: 0.5, val, test)
        majority = max(
            sum(ep.outcome == "success" for ep in test),
            sum(ep.outcome == "failure" for ep in test),
        ) / len(test)
        assert report.accuracy == pytest.approx(majority)

    def test_single_class_validation_error(self):
        val = RolloutLog([_episode("a", 0, ["x"], "success")])
        with pytest.raises(PipelineError, match="single outcome"):
            self_regulation_eval(lambda s: 0.5, val, val)

    def test_threshold_matches_exhaustive_sweep(self):
        val, test = self._separable_logs()
        rng = random.Random(0)
        noisy = lambda s: self._score(s) + 0.05 * rng.random()
        scores = {}
        for log in (val, test):
            for ep in log:
                for st in ep.steps:
                    scores.setdefault(st.state, self._score(st.state) + 0.05 * random.Random(st.state).random())
        fixed = lambda s: scores[s]
        report = self_regulation_eval(fixed, val, test)
        vals = [(max(fixed(st.state) for st in ep.steps), ep.outcome == "success") for ep in val]
        best = max(
            (sum((s <= th) == won for s, won in vals) / len(vals))
            for th in [v - 1e-9 for v, _ in vals] + [v + 1e-9 for v, _ in vals]
        )
        chosen = sum((s <= report.threshold) == won for s, won in vals) / len(vals)
        assert chosen == pytest.approx(best)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "x", 2)
    assert a == derive_seed(1, "x", 2)
    assert a != derive_seed(1, "x", 3)
    assert 0 <= a < 2**63


@settings(max_examples=200, deadline=None)
@given(st.integers(), st.text(), st.one_of(st.text(), st.lists(st.floats(0.0, 1.0), max_size=4).map(tuple)),
       st.lists(st.one_of(st.integers(0, 10**6), st.text()), min_size=1, max_size=4))
def test_seeds_under_a_prefix_are_derived_seeds(master, task_id, label, reps):
    # collect hashes each (task, schedule entry) prefix once and copies it
    # per rep, so no call may change the seed of a later one
    seed_of = pipeline.seeds_under(master, "phase1", task_id, label)
    assert [seed_of(rep) for rep in reps] == [derive_seed(master, "phase1", task_id, label, rep) for rep in reps]


def test_derive_seed_keeps_its_recorded_values():
    # every seed of every artifact comes from here, so the hash of a label
    # path must not move however it is computed
    assert derive_seed(11, "phase1", "train0000", (0.3,), 2) == 506697477610168690
    assert derive_seed(11, "decide") == 5803270299541934115
    assert derive_seed(11, "q", "task=train0000|hint=1,2", "explore") == 7506896485353172538

