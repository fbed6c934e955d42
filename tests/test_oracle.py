import random

import numpy as np
import pytest

from helpdp import fixtures, planner
from helpdp.mdp import NOHELP
from helpdp.oracle import (
    OracleError,
    backward_pass,
    brute_force_optimal,
    check_against_planner,
    exact_policy_eval,
    monte_carlo_estimate,
    postorder,
)
from helpdp.planner import ModelRows, RewardConfig, model_rows
from conftest import rollout_model, policy_decider


def cfg1(r):
    return RewardConfig(r=(r,), gamma=1.0)


class TestBruteForce:
    def test_one_state_help_wins(self):
        model, _ = fixtures.mdp_a()
        report = brute_force_optimal(model, cfg1(0.5), ["s0"])
        assert report.policy_count == 2
        assert report.best_value["s0"] == pytest.approx(0.4, abs=1e-12)
        assert report.best_policy["s0"] == "help1"

    def test_chain_policy_values(self):
        model, _ = fixtures.mdp_b()
        report = brute_force_optimal(model, cfg1(0.3), ["s0"])
        got = sorted(float(v) for v in report.values[:, 0])
        assert got == pytest.approx(sorted([0.1, 0.5, 0.25, 0.45]), abs=1e-12)
        assert report.best_policy == {"s0": NOHELP, "s1": "help1"}
        assert report.best_value["s0"] == pytest.approx(0.5, abs=1e-12)

    def test_cap_enforced(self):
        model, _ = fixtures.random_mdp(0, 13)
        with pytest.raises(OracleError, match="cap"):
            brute_force_optimal(model, cfg1(0.3), model.nonterminal_states())


class TestExactPolicyEval:
    def test_all_nohelp_one_state(self):
        model, _ = fixtures.mdp_a()
        ev = exact_policy_eval(model, {"s0": NOHELP}, cfg1(0.5))
        assert ev.success["s0"] == pytest.approx(0.2, abs=1e-12)
        assert ev.usage["s0"] == (0.0,)
        assert ev.value["s0"] == pytest.approx(0.2, abs=1e-12)

    def test_all_help_chain(self):
        model, _ = fixtures.mdp_b()
        ev = exact_policy_eval(model, {"s0": "help1", "s1": "help1"}, cfg1(0.3))
        assert ev.success["s0"] == pytest.approx(0.9, abs=1e-12)
        assert ev.usage["s0"][0] == pytest.approx(1.5, abs=1e-12)

    def test_terminal_entries(self):
        model, _ = fixtures.mdp_b()
        ev = exact_policy_eval(model, {"s0": NOHELP, "s1": NOHELP}, cfg1(0.3))
        assert ev.success[fixtures.T_SUCC] == 1.0
        assert ev.success[fixtures.T_FAIL] == 0.0
        assert ev.usage[fixtures.T_SUCC] == (0.0,)

    def test_missing_policy_entry(self):
        model, _ = fixtures.mdp_b()
        with pytest.raises(OracleError, match="s1"):
            exact_policy_eval(model, {"s0": NOHELP}, cfg1(0.3))


class TestBackwardPass:
    def test_postorder_puts_successors_first_and_meets_cycles(self):
        assert postorder([[1, 2], [2], []]) == [2, 1, 0]
        assert postorder([[], [0], [0, 1]]) == [0, 1, 2]
        assert postorder([]) == []
        for cyclic in ([[0]], [[1], [2], [0]], [[], [2], [1]], [[1], [], [2]]):
            assert postorder(cyclic) is None

    def test_chain_by_hand(self):
        # mdp_b at r = 0.3: s1 helps (0.8 - 0.3 > 0.1), and s0 does not (0.5 + 0.5 * 0.5 - 0.3 < 0.5)
        model, _ = fixtures.mdp_b()
        rows = model_rows(model.probs, 1)
        S, M, choice = backward_pass(rows, cfg1(0.3))
        assert rows.states == ["s0", "s1"] and choice == [0, 1]
        assert S == pytest.approx([0.8, 0.8], abs=1e-15) and M == [[1.0, 1.0]]

    def test_exact_tie_keeps_nohelp(self):
        model, _ = fixtures.mdp_a()
        assert backward_pass(model_rows(model.probs, 1), cfg1(0.7))[2] == [0]

    def test_cyclic_rows_and_the_wrong_k_are_refused(self):
        loop = ModelRows(states=["a"], terminals=[], n_help=1, rows=[0, 1], cols=[0, 0], vals=[1.0, 1.0],
                         succ=[0.0, 0.0])
        with pytest.raises(OracleError, match="cycle"):
            backward_pass(loop, cfg1(0.1))
        model, _ = fixtures.mdp_a()
        with pytest.raises(OracleError, match="K=1, not K=2"):
            backward_pass(model_rows(model.probs, 1), RewardConfig(r=(0.1, 0.1)))


class TestMonteCarlo:
    def test_deterministic_behavior_zero_se(self):
        est = monte_carlo_estimate(lambda rng: (True, (2.0,)), n=50, seed=1)
        assert est.sr == 1.0
        assert est.sr_se == 0.0
        assert est.usage_se == (0.0,)

    def test_same_seed_identical(self):
        def ep(rng):
            return rng.random() < 0.4, (rng.random(),)

        a = monte_carlo_estimate(ep, n=500, seed=9)
        b = monte_carlo_estimate(ep, n=500, seed=9)
        assert a == b

    def test_always_help_binomial_band(self):
        model, _ = fixtures.mdp_a()

        def ep(rng):
            episode = rollout_model(model, policy_decider({"s0": "help1"}), "s0", rng)
            return episode.outcome == "success", episode.intervention_count(1)

        est = monte_carlo_estimate(ep, n=10_000, seed=4)
        assert abs(est.sr - 0.9) <= 3 * max(est.sr_se, 1e-9)

    def test_se_shrinks_at_root_n(self):
        model, _ = fixtures.mdp_a()

        def ep(rng):
            episode = rollout_model(model, policy_decider({"s0": NOHELP}), "s0", rng)
            return episode.outcome == "success", (0.0,)

        ses = [monte_carlo_estimate(ep, n=n, seed=8).sr_se for n in (100, 1_000, 10_000)]
        assert ses[0] > ses[1] > ses[2]
        # 10x more samples should shrink SE by roughly sqrt(10)
        assert ses[0] / ses[2] > 5


class TestPlannerConsistency:
    def test_random_mdps_match_enumeration(self):
        for seed in range(10):
            rng = random.Random(seed)
            model, succ = fixtures.layered_mdp(seed, rng.randint(2, 8))
            cfg = cfg1(rng.uniform(0.05, 1.0))
            sol = planner.solve(model, succ, cfg)
            report = brute_force_optimal(model, cfg, model.nonterminal_states())
            gap = check_against_planner(report, sol.value)
            assert gap <= 1e-8

    @pytest.mark.parametrize("fixture", [fixtures.mdp_a, fixtures.mdp_b], ids=["mdp_a", "mdp_b"])
    def test_fixtures_match_enumeration(self, fixture):
        """The hand-built fixtures at r = 0.3: the planner's value at every
        state is the enumerated optimum."""
        model, succ = fixture()
        cfg = cfg1(0.3)
        sol = planner.solve(model, succ, cfg)
        report = brute_force_optimal(model, cfg, model.nonterminal_states())
        assert check_against_planner(report, sol.value) <= 1e-8

    def test_policy_eval_reproduces_planner_tables(self):
        for seed in range(5):
            model, succ = fixtures.layered_mdp(seed + 30, 6)
            cfg = cfg1(0.25)
            sol = planner.solve(model, succ, cfg)
            ev = exact_policy_eval(model, sol.policy, cfg)
            for s in model.nonterminal_states():
                assert ev.value[s] == pytest.approx(sol.value[s], abs=1e-8)
                assert ev.success[s] == pytest.approx(sol.success[s], abs=1e-8)
                assert np.allclose(ev.usage[s], sol.usage[s], atol=1e-8)
