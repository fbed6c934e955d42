import math
import os
import random
import signal
import time

import pytest

from helpdp import env, fixtures, oracle, pipeline, planner
from helpdp.env import EnvConfig, generate_tasks, initial_state
from helpdp.mdp import NOHELP, DataError, estimate_success, normalize
from helpdp.pipeline import (
    UNKNOWN_FAILURE,
    HelperPolicy,
    PipelineError,
    baseline_random,
    build_helper,
    calibrate_threshold,
    collect_phase1,
    derive_seed,
    evaluate,
    evaluate_taskwise_all_steps,
    phase1_schedule,
    pi_star_closure,
    restrict_to_solvable,
    self_regulation_eval,
    split_seen_unseen,
    state_score,
    statewise_threshold_policy,
    taskwise_first_window_decider,
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
STRONG = [pipeline.StrongActorIntervention(CFG.eta_strong)]


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

        mcts = pipeline.MctsIntervention(_mcts_q(env.success_probability(CFG.eta), 5))
        return {"strong": STRONG, "mcts": [mcts], "both": [STRONG[0], mcts]}[kind]

    @pytest.mark.parametrize("kind", ["strong", "mcts", "both"])
    def test_forked_log_equals_serial_log(self, tmp_path, slices, kind):
        # the MCTS scorer is a closure and its visit counts live in the
        # intervention: both must reach the workers through the fork
        forked = tmp_path / "forked.jsonl"
        n = pipeline.write_phase1(forked, self.HEADER, list(TASKS.train), self.interventions(kind), 11,
                                  n_seeds=2, eta=CFG.eta)
        assert slices == [(3, 6), (6, 10)]  # this process plays (0, 3)
        serial = collect_phase1(list(TASKS.train), self.interventions(kind), 11, n_seeds=2, eta=CFG.eta)
        assert len(slices) == 2  # collect_phase1 forks nothing
        assert n == len(serial)
        serial.save(tmp_path / "serial.jsonl", header=self.HEADER)
        assert forked.read_bytes() == (tmp_path / "serial.jsonl").read_bytes()

    def test_worker_error_reaches_the_caller_with_its_type(self, tmp_path, slices):
        # two tasks for three workers leave this process's slice empty, so
        # the error can only come from a forked worker; nothing is written
        path = tmp_path / "phase1.jsonl"
        with pytest.raises(PipelineError, match="unknown intervention index 2"):
            pipeline.write_phase1(path, self.HEADER, list(TASKS.train[:2]), STRONG, 11, schedule=[(0.0, 1.0)],
                                  n_seeds=2)
        assert slices == [(0, 1), (1, 2)]
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["strong", "mcts", "both"])
    def test_forked_eval_equals_serial_eval(self, monkeypatch, slices, kind):
        decide = baseline_random((0.3,) * len(self.interventions(kind)))
        metrics, log = evaluate(decide, list(TASKS.train), self.interventions(kind), 11, n_seeds=2, eta=CFG.eta)
        assert slices == [(3, 6), (6, 10)]
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        serial_metrics, serial_log = evaluate(decide, list(TASKS.train), self.interventions(kind), 11, n_seeds=2,
                                              eta=CFG.eta)
        assert len(slices) == 2
        assert (metrics, list(log)) == (serial_metrics, list(serial_log))
        assert all(type(step) is Step for ep in log for step in ep.steps)


class TestReductions:
    def _logs_equal(self, a: RolloutLog, b: RolloutLog) -> bool:
        return [e for e in a] == [e for e in b]

    def test_nohelp_helper_equals_zero_baseline(self):
        helper = HelperPolicy(table={}, training_mode="all_states", fallback=NOHELP)
        m1, l1 = evaluate(helper.as_decider(), list(TASKS.test), STRONG, 9, n_seeds=3)
        m2, l2 = evaluate(baseline_random((0.0,)), list(TASKS.test), STRONG, 9, n_seeds=3)
        assert self._logs_equal(l1, l2)
        assert m1 == m2

    def test_full_help_equals_unit_baseline_and_u_equals_l(self):
        m1, l1 = evaluate(pipeline.always("help1"), list(TASKS.test), STRONG, 9, n_seeds=3)
        m2, l2 = evaluate(baseline_random((1.0,)), list(TASKS.test), STRONG, 9, n_seeds=3)
        assert self._logs_equal(l1, l2)
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
        m, log = evaluate(baseline_random((q,)), [task], STRONG, 8, n_seeds=3000)
        var = sum(
            (ep.intervention_count(1)[0] - m.usage[0]) ** 2 for ep in log
        ) / (len(log) - 1)
        se = math.sqrt(var / len(log))
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
        two = [pipeline.StrongActorIntervention(CFG.eta_strong)] * 2
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
        helper = build_helper(sol, ["s0"], model, "all_states")
        assert set(helper.table) == set(model.nonterminal_states())

    def test_degenerate_chain_modes_agree(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        a = build_helper(sol, ["s0"], model, "all_states")
        t = build_helper(sol, ["s0"], model, "trajectory_only")
        assert a.table == t.table

    def test_trajectory_only_drops_offending_tasks(self):
        from helpdp.mdp import TransitionModel

        raw = fixtures.mdp_b()[0]
        # s1's help row was never observed in this raw model
        probs = {k: dict(v) for k, v in raw.probs.items() if k != ("s1", "help1")}
        raw2 = TransitionModel(probs=probs, support=raw.support)
        solvable = restrict_to_solvable(raw2, 1)
        succ = estimate_success(_chain_log(20))
        sol = solve(solvable, succ, RewardConfig(r=(0.3,), gamma=1.0))
        helper = build_helper(sol, ["s0"], raw2, "trajectory_only")
        assert "s1" not in sol.policy
        assert helper.table == {}
        full = build_helper(sol, ["s0"], solvable, "all_states")
        assert set(full.table) == set(sol.policy)

    def test_unconverged_solution_rejected(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        import dataclasses

        bad = dataclasses.replace(sol, converged=False)
        with pytest.raises(PipelineError, match="unconverged"):
            build_helper(bad, ["s0"], model, "all_states")

    def test_fallback_used_off_table(self):
        helper = HelperPolicy(table={"a": "help1"}, training_mode="all_states")
        assert helper.decide("a") == "help1"
        assert helper.decide("zz") == NOHELP


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
        """pi_star_closure's flag on the raw model, which trajectory_only
        helpers walk, agrees with an independent reachability walk."""
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

        flags = {tid: pi_star_closure(sol, raw, s0)[1] for tid, s0 in starts.items()}
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
        closed = [tid for tid in sorted(starts) if pi_star_closure(sol, model, starts[tid])[1]]
        assert split == (closed, [tid for tid in sorted(starts) if tid not in closed])
        assert split[1], "truncation produced no unseen start"
        assert "terminal" in split[0]


class TestExpectedUsageHelpers:
    def test_off_support_defaults(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, RewardConfig(r=(0.3,), gamma=1.0))
        eu = expected_usage(sol, ["s0", "nowhere"])
        assert eu[0] == pytest.approx(0.5 * (1.0 + 0.0))


class TestThresholdBaselines:
    def test_percent_extremes(self):
        scores = [0.1, 0.4, 0.8, 0.9]
        assert calibrate_threshold(scores, 0) > max(scores)
        assert calibrate_threshold(scores, 100) < min(scores)

    def test_midpoint_threshold(self):
        th = calibrate_threshold([0.1, 0.4, 0.8, 0.9], 50)
        assert th == pytest.approx(0.6)

    def test_corridor_toggling_loses_to_planner(self):
        model, succ = fixtures.corridor_mdp()
        cfg = RewardConfig(r=(0.3,), gamma=1.0)
        policy = statewise_threshold_policy(succ, model.nonterminal_states(), 0.8)
        assert policy == {"s0": "help1", "s1": "help1", "s2": NOHELP}
        thr = oracle.exact_policy_eval(model, policy, cfg)
        sol = solve(model, succ, cfg)
        assert thr.usage["s0"][0] >= sol.usage["s0"][0]
        assert thr.success["s0"] < sol.success["s0"]

    def test_taskwise_restart_accounting(self):
        _, succ = env.exact_models(list(TASKS.test), eta=CFG.eta, eta_strong=CFG.eta_strong)
        # threshold below every score: every unsuccessful probe run restarts
        m, log = evaluate_taskwise_all_steps(succ, -1.0, list(TASKS.test), STRONG, 21, n_seeds=2)
        base_m, _ = evaluate(pipeline.always(NOHELP), list(TASKS.test), STRONG, 21, n_seeds=2)
        mean_len = sum(ep.length for ep in log) / len(log)
        assert m.length >= mean_len  # probe steps counted in L
        mean_u = sum(ep.intervention_count(1)[0] for ep in log) / len(log)
        assert m.usage[0] == pytest.approx(mean_u)  # probe steps not in U
        assert m.sr >= base_m.sr

    def test_first_window_decider(self):
        _, succ = env.exact_models(list(TASKS.test), eta=CFG.eta, eta_strong=CFG.eta_strong)
        decider = taskwise_first_window_decider(succ, -1.0, window=2)
        task = TASKS.test[0]
        ep = pipeline.run_episode(task, decider, STRONG, 33, eta=CFG.eta)
        for i, step in enumerate(ep.steps):
            assert step.action == (NOHELP if i < 2 else "help1")

    def test_never_trigger_window(self):
        _, succ = env.exact_models(list(TASKS.test), eta=CFG.eta, eta_strong=CFG.eta_strong)
        decider = taskwise_first_window_decider(succ, 2.0, window=2)
        ep = pipeline.run_episode(TASKS.test[0], decider, STRONG, 33, eta=CFG.eta)
        assert all(s.action == NOHELP for s in ep.steps)


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


def test_derive_seed_keeps_its_recorded_values():
    # every seed of every artifact comes from here, so the hash of a label
    # path must not move however it is computed
    assert derive_seed(11, "phase1", "train0000", (0.3,), 2) == 506697477610168690
    assert derive_seed(11, "decide") == 5803270299541934115
    assert derive_seed(11, "q", "task=train0000|hint=1,2", "explore") == 7506896485353172538


def test_state_score_uses_base_branch():
    _, succ = fixtures.mdp_b()
    assert state_score(succ, "s1") == pytest.approx(1.0 - succ.get("s1", NOHELP))
