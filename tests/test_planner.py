import hashlib
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpdp import fixtures, oracle, planner, solver
from helpdp.mdp import NOHELP, TransitionModel, action_order
from helpdp.planner import (
    BudgetInfeasibleError,
    PlannerError,
    RewardConfig,
    decomposition_residual,
    expected_usage,
    reward_search,
    solve,
)
from helpdp.oracle import value_iteration

G1 = dict(gamma=1.0)


def cfg1(r, **kw):
    return RewardConfig(r=(r,), **{**G1, **kw})


def compiled(model: TransitionModel, n_help: int):
    """The solver's arrays of ``model``."""
    return solver._compile(planner.model_rows(model.probs, n_help), n_help)


class TestSingleInterventionFixedPoint:
    def test_one_state_help_regime(self):
        model, succ = fixtures.mdp_a()
        sol = solve(model, succ, cfg1(0.5))
        assert sol.policy["s0"] == "help1"
        assert sol.usage["s0"][0] == pytest.approx(1.0, abs=1e-12)
        assert sol.success["s0"] == pytest.approx(0.9, abs=1e-12)
        assert sol.value["s0"] == pytest.approx(0.4, abs=1e-12)

    def test_one_state_nohelp_regime(self):
        model, succ = fixtures.mdp_a()
        sol = solve(model, succ, cfg1(0.8))
        assert sol.policy["s0"] == NOHELP
        assert sol.usage["s0"][0] == 0.0
        assert sol.value["s0"] == pytest.approx(0.2, abs=1e-12)

    def test_two_state_chain(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, cfg1(0.3))
        assert sol.policy == {"s0": NOHELP, "s1": "help1"}
        assert expected_usage(sol, ["s0"])[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.value["s0"] == pytest.approx(0.5, abs=1e-12)

    def test_zero_cost_helps_wherever_gain(self):
        for seed in range(5):
            model, succ = fixtures.layered_mdp(seed, 5)
            sol = solve(model, succ, cfg1(0.0))
            enum = oracle.brute_force_optimal(model, cfg1(0.0), model.nonterminal_states())
            for s in model.nonterminal_states():
                assert sol.value[s] == pytest.approx(enum.best_value[s], abs=1e-9)

    def test_terminal_rows(self):
        model, succ = fixtures.mdp_a()
        sol = solve(model, succ, cfg1(0.5))
        assert sol.success[fixtures.T_SUCC] == 1.0
        assert sol.value[fixtures.T_FAIL] == 0.0
        assert sol.usage[fixtures.T_SUCC] == (0.0,)


class TestValueIteration:
    def test_one_state_help(self):
        model, _ = fixtures.mdp_a()
        values, policy = value_iteration(model, cfg1(0.5))
        assert values["s0"] == pytest.approx(0.4, abs=1e-9)
        assert policy["s0"] == "help1"

    def test_exact_tie_breaks_to_nohelp(self):
        model, _ = fixtures.mdp_a()
        values, policy = value_iteration(model, cfg1(0.7))
        assert values["s0"] == pytest.approx(0.2, abs=1e-9)
        assert policy["s0"] == NOHELP

    def test_terminal_success_value(self):
        model, _ = fixtures.mdp_b()
        for r in (0.0, 0.4, 2.0):
            values, _ = value_iteration(model, cfg1(r))
            assert values[fixtures.T_SUCC] == 1.0


class TestExpectedUsage:
    def test_chain_at_midrange_cost(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, cfg1(0.3))
        assert expected_usage(sol, ["s0"])[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_nohelp_zero(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, cfg1(5.0))
        assert expected_usage(sol, ["s0", "s1"]) == (0.0,)

    def test_arithmetic_mean(self):
        model, succ = fixtures.mdp_b()
        sol = solve(model, succ, cfg1(0.3))
        sol = planner.Solution(
            usage={"a": (0.4,), "b": (1.2,)},
            success={}, policy={}, value={}, r=(0.3,), iterations_run=1, converged=True,
        )
        assert expected_usage(sol, ["a", "b"])[0] == pytest.approx(0.8)

    def test_off_model_start_adds_zero(self):
        # the nohelp fallback spends nothing off the model; the start still counts
        model, succ = fixtures.mdp_a()
        sol = solve(model, succ, cfg1(0.5))
        assert expected_usage(sol, ["s0"]) == (1.0,)
        assert expected_usage(sol, ["s0", "zz"]) == (0.5,)
        assert expected_usage(sol, ["zz"]) == (0.0,)


class TestRewardSearch:
    def test_midrange_budget(self):
        model, _ = fixtures.mdp_b()
        res = reward_search(model, 1.0, (0.0, 2.0), ["s0"], cfg1(0.0))
        assert 0.2 < res.r < 0.7
        assert res.solution.expected_usage[0] == pytest.approx(1.0, abs=1e-9)

    def test_loose_budget_returns_lower_bound(self):
        model, _ = fixtures.mdp_b()
        res = reward_search(model, 2.0, (0.0, 2.0), ["s0"], cfg1(0.0))
        assert res.r == 0.0
        assert res.solution.expected_usage[0] == pytest.approx(1.5, abs=1e-9)

    def test_zero_budget(self):
        model, _ = fixtures.mdp_b()
        res = reward_search(model, 0.0, (0.0, 2.0), ["s0"], cfg1(0.0))
        assert res.solution.expected_usage[0] == 0.0
        assert all(a == NOHELP for a in res.solution.policy.values())

    def test_infeasible_bounds(self):
        model, _ = fixtures.mdp_b()
        with pytest.raises(BudgetInfeasibleError):
            reward_search(model, 0.0, (0.0, 0.1), ["s0"], cfg1(0.0))

    def test_trace_recorded(self):
        model, _ = fixtures.mdp_b()
        res = reward_search(model, 1.0, (0.0, 2.0), ["s0"], cfg1(0.0))
        assert len(res.trace) >= 2
        assert all(len(pair) == 2 for pair in res.trace)

    def test_multi_cost_rejected(self):
        model, _ = fixtures.mdp_b()
        with pytest.raises(PlannerError, match="K=1"):
            reward_search(model, 1.0, (0.0, 2.0), ["s0"], RewardConfig(r=(0.1, 0.1)))


class TestRewardSearchOnCompiledModel:
    """reward_search compiles once and probes on arrays; its results must
    equal independent string-keyed solves bit for bit."""

    def test_compiles_once_per_search(self, monkeypatch):
        calls = []
        compile_model = solver._compile

        def counting(*args, **kwargs):
            calls.append(args)
            return compile_model(*args, **kwargs)

        monkeypatch.setattr(solver, "_compile", counting)
        model, _ = fixtures.mdp_b()
        res = reward_search(model, 1.0, (0.0, 2.0), ["s0"], cfg1(0.0))
        assert len(res.trace) > 2
        assert len(calls) == 1

    def test_evaluation_is_cached_read_only(self):
        model, _ = fixtures.layered_mdp(0, 6)
        cfg = cfg1(0.1)
        comp = compiled(model, cfg.n_help)
        choice = np.ones(len(comp.states), dtype=int)
        S, M = solver._exact_eval(comp, cfg, choice)
        again = solver._exact_eval(comp, cfg._replace(r=(0.7,)), choice.copy())
        assert again[0] is S and again[1] is M  # r does not enter (S, M)
        for arr in (S, M):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("variant", ["value_consistent"])  # the rule solution.json names
    def test_matches_independent_solves(self, variant):
        cases = [(fixtures.mdp_b(), ["s0", "s1", "s0"])]
        for seed in range(4):
            model, succ = fixtures.layered_mdp(seed, 6)
            states = model.nonterminal_states()
            # repeated and terminal starts count like any other start
            cases.append(((model, succ), [states[3], states[0], fixtures.T_SUCC, states[3]]))
        for (model, succ), starts in cases:
            base = RewardConfig(r=(0.0,), gamma=1.0)
            top = sum(expected_usage(solve(model, succ, base), starts))
            res = reward_search(model, 0.5 * top, (0.0, 2.0), starts, base)
            assert len(res.trace) >= 2
            for r, eu in res.trace:
                want = sum(expected_usage(solve(model, succ, base._replace(r=(r,))), starts))
                assert eu.hex() == want.hex()
            sol = solve(model, succ, base._replace(r=(res.r,)))
            sol = sol._replace(expected_usage=expected_usage(sol, starts))
            assert res.solution == sol
            assert planner.solution_to_dict(sol)["variant"] == variant
            assert json.dumps(planner.solution_to_dict(res.solution), sort_keys=True) == json.dumps(
                planner.solution_to_dict(sol), sort_keys=True
            )

    def test_off_model_start_stays_in_denominator(self):
        # "zz" is off the model: it adds 0 usage but still counts, so budget
        # 0.5 admits s0's one help (usage 1.0), which s0 alone would not fit
        model, succ = fixtures.mdp_b()
        res = reward_search(model, 0.5, (0.0, 2.0), ["s0", "zz"], cfg1(0.0))
        assert 0.2 < res.r < 0.7
        assert res.solution.expected_usage == (res.solution.usage["s0"][0] / 2,)
        assert res.solution.expected_usage[0] == pytest.approx(0.5, abs=1e-9)
        for r, eu in res.trace:
            assert eu == expected_usage(solve(model, succ, cfg1(r)), ["s0", "zz"])[0]

    def test_no_starts_raises(self):
        model, _ = fixtures.mdp_b()
        with pytest.raises(PlannerError, match="no start states"):
            reward_search(model, 1.0, (0.0, 2.0), [], cfg1(0.0))

    def test_no_starts_and_bad_budget_raise_before_compiling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("compiled before the inputs were checked")

        monkeypatch.setattr(solver, "_compile", refuse)
        model, _ = fixtures.mdp_b()
        with pytest.raises(PlannerError, match="no start states"):
            reward_search(model, 1.0, (0.0, 2.0), [], cfg1(0.0))
        for budget in (float("nan"), float("inf"), -0.5):
            with pytest.raises(PlannerError, match="budget must be finite"):
                reward_search(model, budget, (0.0, 2.0), ["s0"], cfg1(0.0))

    def test_a_cyclic_model_is_refused_before_any_probe(self, monkeypatch):
        # random_mdp's rows may reach any state: here every state lies on or reaches a cycle
        def refuse(*args):
            raise AssertionError("compiled a cyclic model")

        monkeypatch.setattr(solver, "_compile", refuse)
        model, _ = fixtures.random_mdp(1, 6)
        with pytest.raises(PlannerError, match=r"^cyclic model: states on or reaching a cycle "
                                               r"\['s00', 's01', 's02', 's03', 's04'\]$"):
            reward_search(model, 1.0, (0.0, 2.0), model.nonterminal_states()[:3], cfg1(0.0))

    def test_a_self_loop_is_refused(self):
        probs = {
            ("s0", NOHELP): {"s0": 1.0},
            ("s0", "help1"): {"s0": 1.0},
        }
        model = TransitionModel(probs=probs, support=frozenset({"s0"}))
        with pytest.raises(PlannerError, match=r"^cyclic model: states on or reaching a cycle \['s0'\]$"):
            reward_search(model, 1.0, (0.0, 2.0), ["s0"], cfg1(0.0))


def _with_clone_help2(model: TransitionModel, source_action: str) -> TransitionModel:
    probs = dict(model.probs)
    for (s, a), row in model.probs.items():
        if a == source_action:
            probs[(s, "help2")] = dict(row)
    return TransitionModel(probs=probs, support=model.support)


class TestMultiIntervention:
    def test_symmetric_clone_prefers_lower_index(self):
        model, succ = fixtures.mdp_b()
        model2 = _with_clone_help2(model, "help1")
        succ2 = fixtures._exact_success(model2, 2)
        cfg = RewardConfig(r=(0.3, 0.3), gamma=1.0)
        sol2 = solve(model2, succ2, cfg)
        sol1 = solve(model, succ, cfg1(0.3))
        for s, a in sol2.policy.items():
            assert a != "help2"
            assert a == sol1.policy[s]
        for s in model.nonterminal_states():
            total2 = sum(sol2.usage[s])
            assert total2 == pytest.approx(sol1.usage[s][0], abs=1e-9)

    def test_dominated_clone_of_nohelp_never_used(self):
        model, succ = fixtures.mdp_a()
        model2 = _with_clone_help2(model, NOHELP)
        succ2 = fixtures._exact_success(model2, 2)
        for r2 in (0.01, 0.3, 1.0):
            sol = solve(model2, succ2, RewardConfig(r=(0.5, r2), gamma=1.0))
            assert all(a != "help2" for a in sol.policy.values())

    def test_zero_costs_maximize_success(self):
        model, succ = fixtures.mdp_b()
        model2 = _with_clone_help2(model, "help1")
        succ2 = fixtures._exact_success(model2, 2)
        sol = solve(model2, succ2, RewardConfig(r=(0.0, 0.0), gamma=1.0))
        enum = oracle.brute_force_optimal(
            model2, RewardConfig(r=(0.0, 0.0), gamma=1.0), model2.nonterminal_states()
        )
        for s in model2.nonterminal_states():
            assert sol.value[s] == pytest.approx(enum.best_value[s], abs=1e-9)


# (model, K): a layered model at K = 1 and K = 2, and mdp_b with help2 a clone of help1
EVAL_CACHE_MODELS = {
    "layered-K1": lambda: (fixtures.layered_mdp(0, 6)[0], 1),
    "layered-K2": lambda: (fixtures.layered_mdp(1, 6, n_help=2)[0], 2),
    "clone-K2": lambda: (_with_clone_help2(fixtures.mdp_b()[0], "help1"), 2),
}


def _policies(n: int, n_help: int) -> list[np.ndarray]:
    """Every constant policy, then seeded mixed ones, then each of them again."""
    rng = np.random.default_rng(n_help)
    distinct = [np.full(n, a) for a in range(1 + n_help)] + [rng.integers(0, 1 + n_help, n) for _ in range(4)]
    return distinct + [c.copy() for c in distinct[::-1]]


class TestExactEvalCache:
    """solver._exact_eval factorizes each distinct policy once and keeps its
    (S, M) as read-only views of one (1 + K, n) array."""

    @pytest.fixture(params=sorted(EVAL_CACHE_MODELS))
    def case(self, request):
        model, n_help = EVAL_CACHE_MODELS[request.param]()
        return model, RewardConfig(r=(0.1,) * n_help)

    def test_each_distinct_policy_is_factorized_once(self, case, monkeypatch):
        model, cfg = case
        comp = compiled(model, cfg.n_help)
        policies = _policies(len(comp.states), cfg.n_help)
        calls = []
        splu = solver.linalg.splu
        monkeypatch.setattr(solver.linalg, "splu", lambda A: calls.append(A) or splu(A))
        for choice in policies:
            solver._exact_eval(comp, cfg, choice)
        distinct = {choice.tobytes() for choice in policies}
        assert len(calls) == len(comp.evals) == len(distinct) < len(policies)

    def test_entry_is_read_only_views_of_one_array(self, case):
        model, cfg = case
        comp = compiled(model, cfg.n_help)
        n = len(comp.states)
        for choice in _policies(n, cfg.n_help):
            S, M = solver._exact_eval(comp, cfg, choice)
            X = S.base
            assert X is M.base and X.shape == (1 + cfg.n_help, n) and not X.flags.writeable
            assert S.shape == (n,) and M.shape == (cfg.n_help, n)
            assert np.shares_memory(S, X[0]) and np.shares_memory(M, X[1:]) and not np.shares_memory(S, M)
            for arr in (S, M):
                with pytest.raises(ValueError):
                    arr[0] = 1.0

    def test_entries_equal_an_evaluation_on_a_fresh_compile(self, case):
        model, cfg = case
        comp = compiled(model, cfg.n_help)
        for choice in _policies(len(comp.states), cfg.n_help):
            S, M = solver._exact_eval(comp, cfg, choice)
            S1, M1 = solver._exact_eval(compiled(model, cfg.n_help), cfg, choice)
            assert S.tobytes() == S1.tobytes() and M.tobytes() == M1.tobytes()

    @pytest.mark.parametrize("name", ["layered-K2", "clone-K2"])
    def test_help1_and_help2_get_separate_entries(self, name):
        model, n_help = EVAL_CACHE_MODELS[name]()
        cfg = RewardConfig(r=(0.1,) * n_help)
        comp = compiled(model, n_help)
        one = np.ones(len(comp.states), dtype=int)
        two = one.copy()
        two[0] = 2  # state 0 calls help2 where the other policy calls help1
        S1, M1 = solver._exact_eval(comp, cfg, one)
        S2, M2 = solver._exact_eval(comp, cfg, two)
        assert len(comp.evals) == 2
        assert M1[1, 0] == 0.0 and M2[1, 0] >= 1.0  # help2's own usage counts its call
        assert solver._exact_eval(comp, cfg, two.copy())[1] is M2 and solver._exact_eval(comp, cfg, one)[1] is M1


# sha256 of the canonical solution_to_dict JSON of layered_mdp's solutions; later
# helps are cheaper, so the policies use help2 and help3 and every K >= 2 selection path runs
MULTI_HELP_GOLDEN = {
    (2, 0, "value_consistent"): "739749cc08da7437b634dbf011f382f7a420b8406a9dee342bc767f8f16de276",
    (2, 1, "value_consistent"): "5d0dd244b5f2a9632cf43b5a6d9e00e96420446acb5d6bd3aa5bb4cb89c6ab79",
    (2, 2, "value_consistent"): "b696d0cb42355d2ef09ddd1cc99cc7310f53af03362ed4ad5d9b5d2f5c8aab93",
    (2, 3, "value_consistent"): "ade06462d4415af6819ea0f763a8db63ec6be236c0d3dd585826c02c62dbcef6",
    (3, 0, "value_consistent"): "8ad51e00af2da148fb294f0d49b2e4ee728cff969a0c108f92135655e06e5bf4",
    (3, 1, "value_consistent"): "aa9b6aa8ddcc68dc7364d39e1a9cdb1ffd7b0eedf202bbe0be3263303a5531c1",
    (3, 2, "value_consistent"): "87d0803b8072ba35cf0b1292124ad5e32c6a7cf637df2260f5f642174e753107",
    (3, 3, "value_consistent"): "0ba6b15718f86349b050bba925b062fd46ef0d8d0ed9cdc18fea7029a2199fd5",
}
MULTI_HELP_COSTS = {2: (0.2, 0.05), 3: (0.2, 0.1, 0.05)}


@pytest.mark.parametrize("n_help,seed,variant", sorted(MULTI_HELP_GOLDEN))
def test_multi_help_solutions_are_golden(n_help, seed, variant):
    model, succ = fixtures.layered_mdp(seed, 6, n_help=n_help)
    cfg = RewardConfig(r=MULTI_HELP_COSTS[n_help], gamma=1.0)
    sol = solve(model, succ, cfg)
    assert sol.converged and f"help{n_help}" in sol.policy.values()
    doc = json.dumps(planner.solution_to_dict(sol), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == MULTI_HELP_GOLDEN[(n_help, seed, variant)]


def _sweep_cases():
    """(id, model, costs): layered random models at K = 1, 2 and 3, the
    unrolled corridor, whose nohelp branch keeps s1 on s1 to the horizon,
    and exact ties between nohelp and help (mdp_a at r = 0.7) and between
    two identical helps."""
    cases = [("tie-nohelp-help", fixtures.mdp_a()[0], (0.7,)),
             ("tie-help1-help2", _with_clone_help2(fixtures.mdp_b()[0], "help1"), (0.3, 0.3))]
    cases += [(f"corridor-r{r}", fixtures.corridor_ladder()[0], (r,)) for r in (0.0, 0.05, 0.3, 1.0)]
    costs = {1: [(0.0,), (0.1,), (0.3,), (2.0,)], 2: [(0.0, 0.0), MULTI_HELP_COSTS[2], (0.5, 0.5)],
             3: [(0.0, 0.0, 0.0), MULTI_HELP_COSTS[3], (0.5, 0.5, 0.5)]}
    for k, rs in costs.items():
        for seed in range(3):
            model, _ = fixtures.layered_mdp(seed, 7, n_help=k)
            cases += [(f"layered-K{k}-seed{seed}-r{list(r)}", model, r) for r in rs]
    return cases


SWEEP_CASES = _sweep_cases()


def assert_same_core(got, want) -> None:
    """Two (S, M, choice, iterations) are equal bit for bit."""
    for a, b in zip(got[:3], want[:3]):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    assert got[3] == want[3]


def longest_path(model: TransitionModel, n_help: int) -> int:
    """Edges on the longest path between the non-terminal states of ``model``."""
    rows = planner.model_rows(model.probs, n_help)
    n = len(rows.states)
    succs = [set() for _ in range(n)]
    for at, j in zip(rows.rows, rows.cols):
        succs[at % n].add(j)
    height = [0] * n
    for i in oracle.postorder(succs):
        height[i] = max((1 + height[j] for j in succs[i]), default=0)
    return max(height)


class TestSweepMatchesTheReference:
    """The solver's sweep (one sparse product per sweep over [S | M]), its
    polish and its whole-array tables equal oracle.py's reference, which
    keeps S and M apart and builds the tables state by state."""

    @pytest.mark.parametrize("model,r", [c[1:] for c in SWEEP_CASES], ids=[c[0] for c in SWEEP_CASES])
    def test_fixed_point_and_tables_are_bit_equal(self, model, r):
        cfg = RewardConfig(r=r)
        comp, ref_comp = compiled(model, cfg.n_help), compiled(model, cfg.n_help)
        core, ref = solver._fixed_point(comp, cfg), oracle.sweep_fixed_point(ref_comp, cfg)
        assert_same_core(core, ref)
        got = json.dumps(planner.solution_to_dict(solver._to_solution(comp, cfg, core)), sort_keys=True)
        assert got == json.dumps(planner.solution_to_dict(oracle.sweep_tables(ref_comp, cfg, ref)), sort_keys=True)

    @pytest.mark.parametrize("model,r", [c[1:] for c in SWEEP_CASES], ids=[c[0] for c in SWEEP_CASES])
    def test_sweeps_settle_within_the_longest_path_plus_two(self, model, r):
        # a state h edges above the terminals is final after h + 1 sweeps, and one more sweep moves nothing
        cfg = RewardConfig(r=r)
        assert solver._fixed_point(compiled(model, cfg.n_help), cfg)[3] <= longest_path(model, cfg.n_help) + 2


class TestDecomposition:
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.3, 0.5, 0.8, 1.2])
    def test_fixtures_residual(self, r):
        for fx in (fixtures.mdp_a, fixtures.mdp_b, fixtures.corridor_ladder):
            model, succ = fx()
            sol = solve(model, succ, cfg1(r))
            assert decomposition_residual(sol) < 1e-9

    def test_hand_value(self):
        model, succ = fixtures.mdp_a()
        sol = solve(model, succ, cfg1(0.5))
        assert sol.value["s0"] == pytest.approx(0.9 - 0.5 * 1.0, abs=1e-12)


def _numpy_expected_usage(sol, starts):
    """The array accumulation expected_usage replaced."""
    acc = np.zeros(sol.n_help)
    for s in starts:
        u = sol.usage.get(s)
        if u is not None:
            acc += np.asarray(u)
    return tuple(float(x) for x in acc / len(starts))


def _numpy_residual(sol):
    r = np.asarray(sol.r)
    return max(abs(v - (sol.success[s] - float(r @ np.asarray(sol.usage[s])))) for s, v in sol.value.items())


class TestPlainPythonHelpers:
    """expected_usage and decomposition_residual run without numpy; they
    must give the numbers of the array formulas they replaced."""

    @pytest.mark.parametrize("n_help", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_expected_usage_is_bit_equal_to_the_array_sum(self, n_help, seed):
        rng = np.random.default_rng(seed)
        states = [f"s{i}" for i in range(300)]
        # magnitudes spread over six decades, so the order of the additions shows in the bits
        usage = {s: tuple(float(x) for x in rng.uniform(0, 1, n_help) * 10.0 ** rng.integers(-3, 3))
                 for s in states}
        usage[fixtures.T_SUCC] = usage[fixtures.T_FAIL] = (0.0,) * n_help
        sol = planner.Solution(usage=usage, success={}, policy={}, value={}, r=(0.1,) * n_help,
                               iterations_run=1, converged=True)
        pool = states + [fixtures.T_SUCC, fixtures.T_FAIL, "off-model-a", "off-model-b"]
        starts = [pool[i] for i in rng.integers(0, len(pool), 997)]
        got = expected_usage(sol, starts)
        assert got == _numpy_expected_usage(sol, starts)
        assert all(type(x) is float for x in got)

    @pytest.mark.parametrize("n_help", [1, 2])
    def test_expected_usage_of_a_solve_is_bit_equal(self, n_help):
        for seed in range(4):
            model, succ = fixtures.layered_mdp(seed, 8, n_help=n_help)
            sol = solve(model, succ, RewardConfig(r=(0.2,) * n_help))
            starts = model.nonterminal_states() * 3 + [fixtures.T_SUCC, "off-model"]
            assert expected_usage(sol, starts) == _numpy_expected_usage(sol, starts)

    @pytest.mark.parametrize("n_help", [1, 2, 3])
    def test_residual_agrees_with_the_array_formula(self, n_help):
        for seed in range(6):
            model, succ = fixtures.layered_mdp(seed, 10, n_help=n_help)
            sol = solve(model, succ, RewardConfig(r=tuple(0.1 * (i + 1) for i in range(n_help))))
            assert decomposition_residual(sol) == pytest.approx(_numpy_residual(sol), abs=1e-15)
            # a value table off the decomposition gives the same residual too
            rng = random.Random(seed)
            off = sol._replace(value={s: v + rng.uniform(-0.1, 0.1) for s, v in sol.value.items()})
            assert decomposition_residual(off) == pytest.approx(_numpy_residual(off), abs=1e-15)
            assert decomposition_residual(off) > 1e-3


class TestVariants:
    def test_flip_points(self):
        model, succ = fixtures.mdp_a()
        lo, hi = 0.0, 2.0
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            sol = solve(model, succ, cfg1(mid))
            if sol.policy["s0"] == "help1":
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.7, abs=1e-9)

    def test_value_consistent_dominates_on_grid(self):
        # s0 is mdp_a's one state, so nohelp and help1 are all its policies
        model, succ = fixtures.mdp_a()
        for r in np.linspace(0.0, 1.5, 50):
            sol = solve(model, succ, cfg1(float(r)))
            for action in (NOHELP, "help1"):
                ev = oracle.exact_policy_eval(model, {"s0": action}, cfg1(float(r)))
                assert sol.value["s0"] >= ev.value["s0"] - 1e-12


class TestProperties:
    def test_equivalence_with_value_iteration(self):
        for seed in range(20):
            rng = random.Random(seed)
            model, succ = fixtures.layered_mdp(seed, rng.randint(3, 12))
            cfg = cfg1(rng.uniform(0.05, 0.9))
            sol = solve(model, succ, cfg)
            values, policy = value_iteration(model, cfg)
            for s in model.nonterminal_states():
                assert sol.value[s] == pytest.approx(values[s], abs=1e-8)

    def test_usage_monotone_in_cost(self):
        for seed in range(5):
            model, succ = fixtures.layered_mdp(seed + 50, 6)
            start = model.nonterminal_states()[0]
            prev = float("inf")
            for r in np.linspace(0.0, 2.0, 50):
                sol = solve(model, succ, cfg1(float(r)))
                eu = sol.usage[start][0]
                assert eu <= prev + 1e-9
                prev = eu

    def test_convergence_flags(self):
        model, succ = fixtures.layered_mdp(7, 20, layers=6)
        sol = solve(model, succ, cfg1(0.3))
        assert sol.converged
        assert sol.iterations_run <= longest_path(model, 1) + 2 <= 7


class TestErrors:
    def test_missing_action_row(self):
        probs = {("s0", NOHELP): {fixtures.T_SUCC: 1.0}}
        model = TransitionModel(probs=probs, support=frozenset({"s0", fixtures.T_SUCC}))
        with pytest.raises(PlannerError, match="s0"):
            solve(model, None, cfg1(0.5))

    def test_a_missing_row_is_refused_not_restricted_away(self):
        # model_rows alone would keep s0 and s2 and send s0's nohelp mass on s1 to UNKNOWN_FAILURE
        probs = {
            ("s0", NOHELP): {"s1": 0.5, "s2": 0.5},
            ("s0", "help1"): {fixtures.T_SUCC: 1.0},
            ("s1", NOHELP): {fixtures.T_SUCC: 0.5, fixtures.T_FAIL: 0.5},
            ("s2", NOHELP): {fixtures.T_FAIL: 1.0},
            ("s2", "help1"): {fixtures.T_SUCC: 0.5, fixtures.T_FAIL: 0.5},
        }
        model = TransitionModel(probs=probs, support=frozenset({"s0", "s1", "s2", fixtures.T_SUCC, fixtures.T_FAIL}))
        assert planner.model_rows(probs, 1).states == ["s0", "s2"]
        with pytest.raises(PlannerError, match=r"^missing action row \('s1', 'help1'\)$"):
            solve(model, None, cfg1(0.5))
        with pytest.raises(PlannerError, match=r"^missing action row \('s1', 'help1'\)$"):
            reward_search(model, 1.0, (0.0, 2.0), ["s0"], cfg1(0.0))

    def test_a_self_loop_is_refused(self):
        probs = {
            ("s0", NOHELP): {"s0": 1.0},
            ("s0", "help1"): {"s0": 1.0},
        }
        model = TransitionModel(probs=probs, support=frozenset({"s0"}))
        with pytest.raises(PlannerError, match=r"^cyclic model: states on or reaching a cycle \['s0'\]$"):
            solve(model, None, cfg1(0.5))

    def test_a_proper_cycle_is_refused_with_the_states_that_reach_it(self):
        # every row of the corridor has terminal mass, yet s1 -> s2 -> s1 is a cycle and s0 reaches it
        model, succ = fixtures.corridor_mdp()
        with pytest.raises(PlannerError, match=r"^cyclic model: states on or reaching a cycle \['s0', 's1', 's2'\]$"):
            solve(model, succ, cfg1(0.5))

    def test_cycle_found_behind_peeled_states(self):
        # s2, then s1, then s0 are peeled only one after another; s3 <-> s4
        # is a cycle under nohelp, though help leaves it at once
        probs = {
            ("s0", NOHELP): {"s1": 1.0},
            ("s0", "help1"): {"s1": 0.5, fixtures.T_SUCC: 0.5},
            ("s1", NOHELP): {"s2": 1.0},
            ("s1", "help1"): {"s2": 0.5, fixtures.T_FAIL: 0.5},
            ("s2", NOHELP): {fixtures.T_SUCC: 1.0},
            ("s2", "help1"): {fixtures.T_SUCC: 1.0},
        }
        support = frozenset({"s0", "s1", "s2", fixtures.T_SUCC, fixtures.T_FAIL})
        sol = solve(TransitionModel(probs=probs, support=support), None, cfg1(0.5))
        assert sol.success["s0"] == pytest.approx(1.0, abs=1e-12)
        probs.update({
            ("s3", NOHELP): {"s4": 1.0},
            ("s3", "help1"): {fixtures.T_SUCC: 1.0},
            ("s4", NOHELP): {"s3": 1.0},
            ("s4", "help1"): {"s0": 1.0},
        })
        model = TransitionModel(probs=probs, support=support | {"s3", "s4"})
        with pytest.raises(PlannerError, match=r"^cyclic model: states on or reaching a cycle \['s3', 's4'\]$"):
            solve(model, None, cfg1(0.5))

    def test_gamma_other_than_one_is_refused(self):
        # the budget counts calls, and M is that count only undiscounted
        assert RewardConfig(r=(0.3,), gamma=1.0) == RewardConfig(r=(0.3,))
        with pytest.raises(PlannerError, match="gamma is fixed at 1.0"):
            RewardConfig(r=(0.3,), gamma=0.9)

    def test_every_way_of_building_a_cost_checks_it(self):
        """The keyword constructor, the positional one and ``_replace`` all
        run the checks; equal costs are equal, hash alike and survive pickling."""
        cfg = RewardConfig(r=(0.3,))
        assert RewardConfig((0.3,), 1.0) == cfg and hash(RewardConfig((0.3,))) == hash(cfg)
        assert cfg._replace(r=(0.5,)) == RewardConfig(r=(0.5,)) and cfg.n_help == 1
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        for build in (lambda: RewardConfig((-1.0,)), lambda: cfg._replace(r=(-1.0,))):
            with pytest.raises(PlannerError, match="help costs must be >= 0"):
                build()
        with pytest.raises(PlannerError, match="at least one help cost"):
            cfg._replace(r=())


@st.composite
def row_sets(draw) -> dict:
    """Rows of up to 8 states over nohelp, help1 and help2, each with
    terminal mass.  A row may be missing, so its state is not kept, and its
    up to three other successors are earlier or later states, the state
    itself, or a state with no rows."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 8)))]
    successors = st.lists(st.sampled_from([*states, "unlogged"]), max_size=3, unique=True)
    probs = {}
    for s in states:
        for a in (NOHELP, "help1", "help2"):
            if draw(st.integers(0, 5)):
                row = dict.fromkeys(draw(successors), 1.0)
                row[draw(st.sampled_from([fixtures.T_SUCC, fixtures.T_FAIL]))] = 1.0
                probs[(s, a)] = {s2: w / len(row) for s2, w in row.items()}
    return probs


def _reached(succs: list[list[int]], i: int) -> set[int]:
    """The nodes one or more edges from node i."""
    seen, todo = set(), list(succs[i])
    while todo:
        j = todo.pop()
        if j not in seen:
            seen.add(j)
            todo.extend(succs[j])
    return seen


@settings(max_examples=300, deadline=None)
@given(row_sets(), st.sampled_from([1, 2]))
def test_model_rows_refuses_exactly_the_cyclic_models(probs, n_help):
    """model_rows raises iff a depth-first search over the kept states'
    edges meets a cycle, and names the first five states that lie on or
    reach one, whatever the order of the rows."""
    actions = action_order(n_help)
    kept = sorted({s for s, _ in probs if all((s, a) in probs for a in actions)})
    index = {s: i for i, s in enumerate(kept)}
    succs = [[index[s2] for a in actions for s2 in probs[s, a] if s2 in index] for s in kept]
    reached = [_reached(succs, i) for i in range(len(kept))]
    stuck = [s for i, s in enumerate(kept) if any(j in reached[j] for j in reached[i] | {i})]
    assert (oracle.postorder(succs) is None) == bool(stuck)
    messages = set()
    for order in (probs, dict(reversed(probs.items()))):
        if not kept:
            with pytest.raises(PlannerError, match="^no state has full action coverage$"):
                planner.model_rows(order, n_help)
        elif stuck:
            with pytest.raises(PlannerError) as exc:
                planner.model_rows(order, n_help)
            messages.add(str(exc.value))
        else:
            assert planner.model_rows(order, n_help).states == kept
    assert messages == ({f"cyclic model: states on or reaching a cycle {stuck[:5]}"} if kept and stuck else set())


def test_solution_file_roundtrip(tmp_path):
    model, succ = fixtures.mdp_b()
    sol = solve(model, succ, cfg1(0.3))
    sol = sol._replace(expected_usage=expected_usage(sol, ["s0"]))
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(planner.solution_to_dict(sol)) + "\n")
    back = planner.load_solution(path)
    assert back.policy == sol.policy
    assert back.usage == sol.usage
    assert back.value == sol.value
    assert back.expected_usage == sol.expected_usage
    assert back.converged == sol.converged
