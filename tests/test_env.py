import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from helpdp import env, pipeline
from helpdp.env import (
    EXPLORE,
    EnumerationTooLarge,
    EnvConfig,
    EnvError,
    EnvState,
    Task,
    TaskSet,
    action_distribution,
    base_actor,
    env_step,
    exact_models,
    generate_tasks,
    goto,
    initial_state,
    shortest_success_length,
    strong_actor,
    success_probability,
)
from helpdp.mdp import NOHELP, terminal_outcome, write_jsonl
from conftest import table_decider


def make_task(rooms=2, obj=1, hint=(1,), schedule=(), steps=3, opt=2, task_id="h0"):
    return Task(
        task_id=task_id,
        room_count=rooms,
        object_location=obj,
        hint=tuple(hint),
        move_schedule=tuple(schedule),
        max_steps=steps,
        optimal_length=opt,
    )


SMALL = EnvConfig(
    room_count=4, max_steps=5, hint_sizes=((1, 0.5), (2, 0.5)), move_prob=0.4,
    n_train=30, n_val=8, n_test=8,
)


class TestGenerateTasks:
    def test_deterministic_byte_equal(self, tmp_path):
        a, b = generate_tasks(SMALL, 7), generate_tasks(SMALL, 7)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_split_sizes(self):
        cfg = EnvConfig(n_train=1000, n_val=40, n_test=40)
        ts = generate_tasks(cfg, 1)
        assert (len(ts.train), len(ts.val), len(ts.test)) == (1000, 40, 40)

    def test_singleton_hint_optimal_length_is_distance_plus_one(self):
        cfg = EnvConfig(
            room_count=5, max_steps=8, hint_sizes=((1, 1.0),), move_prob=0.0,
            n_train=40, n_val=2, n_test=2,
        )
        for task in generate_tasks(cfg, 3).train:
            assert task.optimal_length == task.object_location + 1

    def test_infeasible_hint_size(self):
        with pytest.raises(EnvError, match="hint size"):
            EnvConfig(room_count=3, hint_sizes=((4, 1.0),))

    @pytest.mark.parametrize("field,value", [
        ("room_count", 1), ("room_count", 4.0), ("max_steps", True), ("n_train", 0), ("n_val", -1),
        ("n_test", "4"), ("move_prob", 1.5), ("eta", "x"), ("eta_strong", float("nan")),
        ("eta", False), ("hint_sizes", [1, 2]), ("hint_sizes", {"x": 1}), ("hint_sizes", {"2": 0}),
        ("hint_sizes", {"2": "0.5"}), ("hint_sizes", {"2": 0.5, "3": True}), ("hint_sizes", {"2": None}),
        ("hint_sizes", {"2": 0.5, "03": 0.5}), ("hint_sizes", {"+2": 1}), ("hint_sizes", {" 2": 1}),
        ("hint_sizes", {"2.0": 1}), ("hint_sizes", {"-0": 1}), ("n_trian", 3),
    ])
    def test_config_refuses_a_bad_field_by_name(self, field, value):
        """Each field is checked for its type and range, and an unknown one is
        refused; the message starts with the field's name, so the CLI can name
        it under `env.`."""
        with pytest.raises(EnvError, match=f"^{field} (must|is unknown)"):
            EnvConfig.from_dict({field: value})

    def test_config_defaults_pass(self):
        assert EnvConfig.from_dict({}) == EnvConfig()
        assert (env.ETA, env.ETA_STRONG) == (EnvConfig().eta, EnvConfig().eta_strong) == (0.35, 0.05)

    def test_config_reads_canonical_sizes_and_number_weights(self):
        cfg = EnvConfig.from_dict({"room_count": 12, "hint_sizes": {"10": 1, "2": 0.5}})
        assert cfg.hint_sizes == ((2, 0.5), (10, 1.0))
        assert all(type(w) is float for _, w in cfg.hint_sizes)
        with pytest.raises(EnvError, match="^hint_sizes must fit 12 rooms, got hint size -1"):
            EnvConfig.from_dict({"room_count": 12, "hint_sizes": {"-1": 1}})

    def test_replace_runs_the_config_checks(self):
        assert EnvConfig()._replace(room_count=12).room_count == 12
        with pytest.raises(EnvError, match="^room_count must be an integer >= 2"):
            EnvConfig()._replace(room_count=1)

    def test_taskset_roundtrip(self, tmp_path):
        ts = generate_tasks(SMALL, 9)
        path = tmp_path / "tasks.jsonl"
        ts.save(path)
        back = TaskSet.load(path)
        assert [t.to_dict() for t in back.all()] == [t.to_dict() for t in ts.all()]

    @pytest.mark.parametrize("field,value,why", [
        ("split", "dev", "split must be one of ['train', 'val', 'test'], got 'dev'"),
        ("room_count", None, "room_count is missing"),
        ("room_count", 0, "room_count must be an integer >= 1, got 0"),
        ("hint", 5, "hint must be a list of rooms in 0..3, got 5"),
        ("hint", [1, 4], "hint must be a list of rooms in 0..3, got [1, 4]"),
        ("max_steps", "6", "max_steps must be an integer >= 1, got '6'"),
        ("object_location", True, "object_location must be a room in 0..3, got True"),
        ("move_schedule", [[2]], "move_schedule must be a list of [step, room] pairs"),
        ("optimal_length", 9, "optimal_length must be an integer in 1..5, got 9"),
    ])
    def test_load_refuses_a_malformed_task_by_path_task_and_field(self, tmp_path, field, value, why):
        """Before, these raised a bare KeyError or TypeError, or loaded a task
        that failed later in the run."""
        ts = generate_tasks(SMALL, 9)
        rec = ts.train[1].to_dict()
        if value is None:
            del rec[field]
        else:
            rec[field] = value
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, [ts.train[0].to_dict(), rec])
        want = f"{path}: task {rec['task_id']}: {why}"
        with pytest.raises(EnvError, match=f"^{re.escape(want)}"):
            TaskSet.load(path)


class TestEnvStep:
    def test_explore_in_object_room_succeeds(self):
        task = make_task(obj=0, hint=(0,), opt=1)
        state = env_step(initial_state(task), EXPLORE)
        assert state.terminal and state.outcome == "success"

    def test_horizon_failure(self):
        task = make_task(obj=1, hint=(1,), steps=2)
        state = initial_state(task)
        state = env_step(state, EXPLORE)  # wrong room at t=0
        state = env_step(state, EXPLORE)  # wrong room at t=1 = max_steps-1
        assert state.terminal and state.outcome == "failure"

    def test_schedule_fires_exactly_at_step(self):
        task = make_task(rooms=3, obj=0, hint=(0,), schedule=((3, 2),), steps=8, opt=1)
        assert task.object_room(2) == 0
        assert task.object_room(3) == 2
        assert task.object_room(7) == 2

    def test_illegal_action(self):
        task = make_task()
        with pytest.raises(EnvError, match="illegal"):
            env_step(initial_state(task), goto(1 + 1))

    def test_terminal_cannot_step(self):
        task = make_task(obj=0, hint=(0,), opt=1)
        state = env_step(initial_state(task), EXPLORE)
        with pytest.raises(EnvError, match="terminal"):
            env_step(state, EXPLORE)

    def test_episode_invariants(self):
        ts = generate_tasks(SMALL, 5)
        iv = [strong_actor]
        for task in ts.train[:10]:
            ep = pipeline.run_episode(task, pipeline.baseline_random((0.4,)), iv, 77)
            assert ep.length <= task.max_steps
            assert (ep.outcome == "success") == ep.final_state.endswith("outcome=success")

    def test_episode_builds_each_state_key_once(self, monkeypatch):
        # the decider and the recorded step share one key per step; the
        # final state adds one more
        calls, built = [], []
        key, init = EnvState.key, EnvState.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EnvState, "key", lambda self: calls.append(self) or key(self))
        monkeypatch.setattr(EnvState, "__init__", counted_init)
        task = generate_tasks(SMALL, 5).train[0]
        ep = pipeline.run_episode(task, table_decider({}), [strong_actor], 3)
        assert len(calls) == ep.length + 1
        # every state of the episode is one object, built once, whose key is
        # the one string its constructor built
        assert len({id(state) for state in built}) == len(built) == ep.length + 1
        assert [state.key() for state in built] == ep.states
        assert all(state.key() is state.key() for state in built)
        # a replay walks the same objects and builds none
        assert pipeline.run_episode(task, table_decider({}), [strong_actor], 3) == ep
        assert len(built) == ep.length + 1


class TestActors:
    def test_noiseless_singleton_hint_goes_straight(self):
        task = make_task(rooms=4, obj=2, hint=(2,), steps=6, opt=3)
        state = initial_state(task)
        rng = random.Random(0)
        moves = []
        for _ in range(3):
            a = base_actor(state, rng, eta=0.0)
            moves.append(a)
            state = env_step(state, a)
        assert moves == [goto(1), goto(2), EXPLORE]
        assert state.outcome == "success"

    def test_full_noise_is_uniform(self):
        task = make_task(rooms=3, obj=2, hint=(2,), steps=6, opt=3)
        state = env_step(initial_state(task), goto(1))
        dist = action_distribution(lambda s: EXPLORE, state, eta=1.0)
        legal = state.legal_actions
        assert set(dist) == set(legal)
        for a in legal:
            assert dist[a] == pytest.approx(1 / len(legal))

    def test_base_band_at_default_config(self):
        cfg = EnvConfig(n_train=120, n_val=2, n_test=2)
        ts = generate_tasks(cfg, 11)
        wins = total = 0
        for task in ts.train:
            for rep in range(16):
                ep = pipeline.run_episode(
                    task, pipeline.always(NOHELP), [], pipeline.derive_seed(11, task.task_id, rep)
                )
                wins += ep.outcome == "success"
                total += 1
        assert 0.2 <= wins / total <= 0.4

    def test_strong_band_at_default_config(self):
        cfg = EnvConfig(n_train=120, n_val=2, n_test=2)
        ts = generate_tasks(cfg, 11)
        iv = [strong_actor]
        wins = total = 0
        for task in ts.train:
            for rep in range(16):
                ep = pipeline.run_episode(
                    task, pipeline.always("help1"), iv, pipeline.derive_seed(12, task.task_id, rep)
                )
                wins += ep.outcome == "success"
                total += 1
        assert wins / total >= 0.6

    def test_oracle_strong_actor_succeeds_without_moves(self):
        cfg = EnvConfig(
            room_count=6, max_steps=8, hint_sizes=((2, 1.0),), move_prob=0.0,
            n_train=25, n_val=2, n_test=2,
        )
        iv = [lambda state, rng: strong_actor(state, rng, eta=0.0)]
        for task in generate_tasks(cfg, 2).train:
            ep = pipeline.run_episode(task, pipeline.always("help1"), iv, 1)
            assert ep.outcome == "success"
            assert ep.length == task.optimal_length

    def test_same_seed_same_action(self):
        task = make_task(rooms=4, obj=2, hint=(1, 2), steps=6, opt=3)
        state = initial_state(task)
        a = base_actor(state, random.Random(42), eta=0.35)
        b = base_actor(state, random.Random(42), eta=0.35)
        assert a == b

    def test_actors_make_the_draws_and_moves_of_the_reference(self):
        """base_actor and strong_actor, which read the state's slots, take the
        draws of the reference noisy-greedy rule and return its actions, on
        every state of a few walked tasks, before and after their greedy
        slots are filled."""
        tasks = [make_task(rooms=4, obj=3, hint=(1, 3), schedule=((2, 0),), steps=5, opt=4, task_id="mv"),
                 *generate_tasks(SMALL, 6).train[:2]]
        pairs = ((base_actor, _reference_greedy_base), (strong_actor, _reference_greedy_strong))
        for task in tasks:
            for state in _reachable_states(env.episode_start(task)):
                assert state.legal_actions == _reference_legal(state)
                assert state.base_move is None and state.strong_move is None
                for _ in range(2):
                    for actor, greedy in pairs:
                        for eta in (0.0, 0.05, 0.35, 1.0):
                            for seed in range(4):
                                rng, ref = random.Random(seed), random.Random(seed)
                                assert actor(state, rng, eta) == _reference_noisy(greedy, state, ref, eta)
                                assert rng.getstate() == ref.getstate()
                assert (state.base_move, state.strong_move) == (_reference_greedy_base(state),
                                                                _reference_greedy_strong(state))


def _reference_legal(state):
    legal = [EXPLORE]
    if state.room > 0:
        legal.append(goto(state.room - 1))
    if state.room + 1 < state.task.room_count:
        legal.append(goto(state.room + 1))
    return tuple(legal)


def _reference_greedy_base(state):
    candidates = [r for r in state.task.hint if r not in state.explored]
    if not candidates:
        candidates = [r for r in range(state.task.room_count) if r not in state.explored]
    if not candidates:
        return EXPLORE
    target = min(candidates, key=lambda r: (abs(r - state.room), r))
    if target == state.room:
        return EXPLORE
    return goto(state.room + (1 if target > state.room else -1))


def _reference_greedy_strong(state):
    target = state.task.object_room(state.t)
    if target == state.room:
        return EXPLORE
    return goto(state.room + (1 if target > state.room else -1))


def _reference_noisy(greedy, state, rng, eta):
    """A noisy-greedy actor from the state's fields alone: a uniform legal
    action with probability ``eta``, else ``greedy(state)``."""
    if eta > 0 and rng.random() < eta:
        return rng.choice(_reference_legal(state))
    return greedy(state)


def _proposals(state, seed, k=5):
    rng = random.Random(seed)
    out = []
    for _ in range(k):
        a = base_actor(state, rng, 1.0)
        if a not in out:
            out.append(a)
    return out


class _ScriptedRng:
    """Drives a ``pipeline.mcts_pick`` picker through a fixed proposal sequence:
    every draw takes the noise branch, and each choice is the next proposal."""

    def __init__(self, proposals):
        self.proposals = list(proposals)

    def random(self):
        return 0.0

    def choice(self, legal):
        a = self.proposals.pop(0)
        assert a in legal
        return a


class TestMcts:
    def test_tie_break_is_first_proposal(self):
        task = make_task(rooms=3, obj=2, hint=(2,), steps=5, opt=3)
        state = initial_state(task)
        pick = pipeline.mcts_pick(lambda s, a: 0.5)(state, random.Random(13))
        assert pick == _proposals(state, 13)[0]

    @pytest.mark.parametrize("qs", [(0.1, 0.5, 0.9), (0.5, 0.5, 0.5), (0.9, 0.9, 0.1), (0.2, 0.7, 0.7)])
    def test_pick_law_has_closed_form(self, qs):
        # over all L^k equally likely proposal sequences, an action with h
        # actions scoring strictly above it, in a tied group of g, is picked
        # with probability (((L - h)/L)^k - ((L - h - g)/L)^k) / g
        task = make_task(rooms=3, obj=2, hint=(2,), steps=6, opt=3)
        state = env_step(initial_state(task), goto(1))
        legal = state.legal_actions
        n, k = len(legal), pipeline.PROPOSALS
        assert n == 3
        q = dict(zip(legal, qs))
        mcts = pipeline.mcts_pick(lambda s, a: q[a])
        picks = Counter()
        for seq in itertools.product(legal, repeat=k):
            rng = _ScriptedRng(seq)
            picks[mcts(state, rng)] += 1
            assert not rng.proposals
        for a in legal:
            h = sum(q[b] > q[a] for b in legal)
            g = sum(q[b] == q[a] for b in legal)
            assert Fraction(picks[a], n**k) == (Fraction(n - h, n) ** k - Fraction(n - h - g, n) ** k) / g

    def test_ground_truth_q_picks_argmax(self):
        task = make_task(rooms=3, obj=2, hint=(2,), steps=5, opt=3)
        model, success = exact_models([task], eta=0.35, eta_strong=0.05)
        state = initial_state(task)

        def q(s, a):
            nxt = env_step(s, a)
            key = nxt.key()
            return success.get(key, NOHELP) if success.has(key, NOHELP) else 0.0

        pick = pipeline.mcts_pick(q)(state, random.Random(3))
        cands = _proposals(state, 3)
        assert q(state, pick) == max(q(state, a) for a in cands)


class TestExactModels:
    def test_deterministic_actors_give_unit_probabilities(self):
        task = make_task(rooms=3, obj=2, hint=(2,), steps=5, opt=3)
        model, _ = exact_models([task], eta=0.0, eta_strong=0.0)
        for row in model.probs.values():
            assert all(p in (0.0, 1.0) or abs(p - 1.0) < 1e-12 for p in row.values())

    def test_terminal_success_probability_is_one(self):
        task = make_task(rooms=2, obj=1, hint=(1,), steps=3, opt=2)
        _, success = exact_models([task])
        state = initial_state(task)
        succ_key = env_step(env_step(state, goto(1)), EXPLORE).key()
        assert succ_key.endswith("outcome=success")
        assert success.get(succ_key, NOHELP) == 1.0

    def test_two_room_task_matches_hand_enumeration(self):
        task = make_task(rooms=2, obj=1, hint=(1,), steps=3, opt=2)
        eta = 0.3
        model, success = exact_models([task], eta=eta, eta_strong=0.0)

        # independent trajectory-tree expansion of the base branch
        def p_star(state):
            if state.terminal:
                return 1.0 if state.outcome == "success" else 0.0
            dist = action_distribution(lambda s: env._greedy_base(s), state, eta)
            return sum(p * p_star(env_step(state, a)) for a, p in dist.items())

        s0 = initial_state(task)
        assert success.get(s0.key(), NOHELP) == pytest.approx(p_star(s0), abs=1e-12)
        row = model.row(s0.key(), NOHELP)
        dist0 = action_distribution(lambda s: env._greedy_base(s), s0, eta)
        for a, p in dist0.items():
            assert row[env_step(s0, a).key()] == pytest.approx(p, abs=1e-12)

    def test_monte_carlo_frequencies_match(self):
        task = make_task(rooms=3, obj=2, hint=(1, 2), steps=4, opt=3)
        model, _ = exact_models([task], eta=0.35, eta_strong=0.05)
        s0 = initial_state(task)
        row = model.row(s0.key(), NOHELP)
        n = 20_000
        counts: dict[str, int] = {}
        for i in range(n):
            rng = random.Random(1000 + i)
            a = base_actor(s0, rng, 0.35)
            key = env_step(s0, a).key()
            counts[key] = counts.get(key, 0) + 1
        for key, p in row.items():
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts.get(key, 0) / n - p) <= 4 * se + 1e-9

    def test_support_matches_rollout_states(self):
        task = make_task(rooms=3, obj=2, hint=(1, 2), steps=4, opt=3)
        model, _ = exact_models([task])
        visited = set()
        iv = [strong_actor]
        for i in range(300):
            ep = pipeline.run_episode(task, pipeline.baseline_random((0.5,)), iv, i)
            visited.update(ep.states)
        assert visited <= set(model.support)

    def test_enumeration_cap(self):
        task = make_task(rooms=4, obj=2, hint=(1, 2), steps=6, opt=3)
        with pytest.raises(EnumerationTooLarge, match="too large"):
            exact_models([task], cap=10)


def _reference_key(state) -> str:
    """The state key spelled out from the state's fields, segment by segment."""
    parts = [
        f"task={state.task.task_id}",
        "hint=" + ",".join(str(r) for r in state.task.hint),
        f"t={state.t}",
        f"room={state.room}",
        "explored=" + ",".join(str(r) for r in sorted(state.explored)),
        f"moved={int(any(when <= state.t for when, _ in state.task.move_schedule))}",
    ]
    if state.outcome is not None:
        parts.append(f"outcome={state.outcome}")
    return "|".join(parts)


def _reachable_states(start):
    """Every state reachable from ``start`` by env_step, which keeps each on
    the graph of ``start``."""
    states, stack = [], [start]
    while stack:
        state = stack.pop()
        states.append(state)
        if not state.terminal:
            stack.extend(env_step(state, a) for a in state.legal_actions)
    return states


def test_state_keys_match_reference_on_every_exact_model_state():
    tasks = [
        make_task(rooms=4, obj=3, hint=(1, 3), schedule=((2, 0),), steps=5, opt=4, task_id="mv"),
        make_task(rooms=4, obj=3, hint=(1, 3), steps=5, opt=4, task_id="still"),
        *generate_tasks(SMALL, 4).train[:6],
    ]
    assert any(t.move_schedule for t in tasks) and any(not t.move_schedule for t in tasks)
    moved_seen = set()
    for task in tasks:
        model, _ = exact_models([task])
        states = _reachable_states(initial_state(task))
        for state in states:
            assert state.key() == _reference_key(state)
            assert state.moved == any(when <= state.t for when, _ in task.move_schedule)
        assert {s.key() for s in states} == set(model.support)
        if task.move_schedule:
            moved_seen |= {s.moved for s in states}
    assert moved_seen == {False, True}  # keys before and after a move are covered


def test_cached_key_parts_leave_task_identity_alone():
    a = make_task(schedule=((2, 0),), task_id="same")
    b = make_task(schedule=((2, 0),), task_id="same")
    env_step(env.episode_start(a), goto(1))  # give one of two equal tasks a start graph
    assert a.start is not None and b.start is None
    assert a == b and hash(a) == hash(b)
    assert a.to_dict() == b.to_dict()
    assert a.first_move == 2 and make_task().first_move is None


def test_task_replace_builds_a_new_task_without_memos():
    task = make_task(task_id="a")
    assert task.key_prefix == "task=a|hint=1"
    env_step(env.episode_start(task), goto(1))
    renamed = task._replace(task_id="b")
    assert renamed.key_prefix == "task=b|hint=1" and renamed != task and task._replace() == task
    assert (task.first_move, task._replace(move_schedule=((2, 0),)).first_move) == (None, 2)
    # no start graph is carried over, and there is no attribute beside the slots
    assert renamed.start is None and task._replace().start is None and task.start is not None
    assert not hasattr(renamed, "__dict__") and not hasattr(initial_state(renamed), "__dict__")
    with pytest.raises(AttributeError):
        renamed.memo = 1
    assert repr(task) == ("Task(task_id='a', room_count=2, object_location=1, hint=(1,), move_schedule=(), "
                          "max_steps=3, optimal_length=2, split='train')")
    assert task != tuple(getattr(task, name) for name in Task._fields) and initial_state(task) != task
    with pytest.raises(TypeError):
        task._replace(rooms=3)


class TestMemo:
    """env_step's successors, the state key, the legal actions and the greedy
    actions are kept in each state's slots; keeping them must change no
    answer and skip no check."""

    def test_repeated_step_returns_the_same_successor(self):
        task = make_task(rooms=3, obj=2, hint=(2,), steps=5, opt=3)
        s0 = env.episode_start(task)
        assert env.episode_start(task) is s0 and task.start is s0 and s0 == initial_state(task)
        assert s0.successors is None
        nxt = env_step(s0, goto(1))
        assert env_step(s0, goto(1)) is nxt
        explored = env_step(s0, EXPLORE)
        assert explored is not nxt and s0.successors == {goto(1): nxt, EXPLORE: explored}
        assert s0.successors[EXPLORE] is explored
        assert nxt == EnvState(task=task, t=1, room=1, explored=frozenset(), found=False)

    def test_stepped_state_still_refuses_illegal_and_terminal_steps(self):
        task = make_task(obj=0, hint=(0,), opt=1)
        s0 = env.episode_start(task)
        done = env_step(s0, EXPLORE)  # s0 now has a memoized successor
        with pytest.raises(EnvError, match="illegal"):
            env_step(s0, goto(1 + 1))
        assert done.terminal
        for _ in range(2):
            with pytest.raises(EnvError, match="terminal"):
                env_step(done, EXPLORE)

    def test_memo_leaves_state_identity_alone(self):
        task = make_task(rooms=3, obj=2, hint=(2,), steps=5, opt=3)
        warm = env_step(initial_state(task), goto(1))
        warm.key(), warm.legal_actions, env._greedy_base(warm), env_step(warm, EXPLORE)
        cold = warm._replace()
        assert cold == warm and hash(cold) == hash(warm)
        assert cold.key() == warm.key()

    def test_exact_models_match_an_uncached_enumeration(self):
        tasks = generate_tasks(SMALL, 5).train[:8]
        iv = [strong_actor]
        for task in tasks[:4]:  # grow the episode graphs of half the tasks
            for seed in range(20):
                pipeline.run_episode(task, pipeline.baseline_random((0.5,)), iv, seed)
        grown = [len(_graph(t.start)) for t in tasks[:4]]
        model, success = exact_models(tasks, eta=0.3, eta_strong=0.1)
        probs, p = _uncached_exact(tasks, eta=0.3, eta_strong=0.1)
        assert model.probs == probs
        assert success.p == p
        # the enumeration leaves no start graph on the tasks it walked, and
        # grows none of the episode graphs
        assert all(t.start is None for t in tasks[4:])
        assert [len(_graph(t.start)) for t in tasks[:4]] == grown


@pytest.mark.parametrize("eta", [0.35, 0.0, 1.0])
def test_success_probability_is_the_exact_models_value(eta):
    """The one p* recursion gives, bit for bit, the nohelp value exact_models
    holds for every state it enumerates from the reference train tasks; at
    eta 0 the zero-probability actions are still enumerated."""
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "reference.json").read_text())
    cfg = EnvConfig.from_dict(config["env"])
    tasks = generate_tasks(cfg, config["seed"]).train
    model, success = exact_models(tasks, eta=eta, eta_strong=cfg.eta_strong)
    p_star = success_probability(eta)
    stack, seen = [initial_state(t) for t in tasks], set()
    while stack:
        state = stack.pop()
        key = state.key()
        if key in seen:
            continue
        seen.add(key)
        assert p_star(state) == success.get(key, NOHELP), key
        if not state.terminal:
            stack.extend(env_step(state, a) for a in state.legal_actions)
    assert seen == model.support


LONG = EnvConfig(room_count=2, max_steps=600, hint_sizes=((1, 1.0),), n_train=2, n_val=0, n_test=0)


def test_exact_models_walk_tasks_deeper_than_the_recursion_limit():
    """600 steps, past the depth where a recursion per step fails."""
    tasks = generate_tasks(LONG, 1).train
    model, success = exact_models(tasks)
    assert any("|t=600|" in key for key in model.support)
    p_star = success_probability()
    for task in tasks:
        start = initial_state(task)
        assert success.get(start.key(), NOHELP) == p_star(start)


@pytest.mark.parametrize("kind", ["strong", "mcts", "both"])
def test_warm_and_cold_rollouts_are_identical(kind):
    """Episodes played on tasks whose graphs earlier episodes grew equal,
    field for field, the episodes played on fresh copies of the tasks, for
    every arm of the phase-1 schedule."""
    from helpdp.cli import _mcts_q

    def interventions():
        strong = partial(strong_actor, eta=SMALL.eta_strong)
        mcts = pipeline.mcts_pick(_mcts_q(success_probability(SMALL.eta), 5))
        return {"strong": [strong], "mcts": [mcts], "both": [strong, mcts]}[kind]

    tasks = generate_tasks(SMALL, 8).train[:6]
    warm_ivs, cold_ivs = interventions(), interventions()
    steps = 0
    for task in tasks:
        for probs in pipeline.phase1_schedule(len(warm_ivs)):
            decide = pipeline.baseline_random(probs)
            for rep in range(3):
                seed = pipeline.derive_seed(11, "phase1", task.task_id, probs, rep)
                warm = pipeline.run_episode(task, decide, warm_ivs, seed, eta=SMALL.eta)
                cold = pipeline.run_episode(task._replace(), decide, cold_ivs, seed, eta=SMALL.eta)
                assert tuple(warm) == tuple(cold)
                steps += warm.length + 1
    # the warm episodes walked states earlier episodes built
    assert sum(len(_graph(task.start)) for task in tasks) < steps


def test_success_probability_adds_no_successor_to_the_episode_graph():
    task = make_task(rooms=3, obj=2, hint=(2,), steps=5, opt=3)
    s0 = env.episode_start(task)
    nxt = env_step(s0, goto(1))
    p_star = success_probability(0.35)
    p_star(nxt), p_star(s0)
    assert s0.successors == {goto(1): nxt}
    assert nxt.successors is None


def test_success_probability_of_a_state_no_walk_from_the_start_reaches():
    task = make_task(rooms=3, obj=2, hint=(2,), steps=5, opt=3)
    odd = EnvState(task=task, t=1, room=0, explored=frozenset({2}), found=False)

    def reference(state):
        if state.terminal:
            return 1.0 if state.outcome == "success" else 0.0
        dist = action_distribution(env._greedy_base, state, 0.35)
        return sum(prob * reference(env._step(state, a)) for a, prob in dist.items())

    assert success_probability(0.35)(odd) == reference(odd)


def _graph(start):
    """The states of an episode graph: ``start`` and every state kept in the
    ``successors`` of a state reached from it."""
    seen, stack = {id(start): start}, [start]
    while stack:
        for nxt in (stack.pop().successors or {}).values():
            if id(nxt) not in seen:
                seen[id(nxt)] = nxt
                stack.append(nxt)
    return list(seen.values())


def _uncached_exact(tasks, eta, eta_strong):
    """exact_models' rows and p(s, a), with every state copied before it is
    read, so no greedy action or successor kept on a state is ever read
    back."""
    def fresh(state):
        return state._replace()

    probs = {}
    stack = [fresh(initial_state(t)) for t in tasks]
    while stack:
        state = stack.pop()
        key = fresh(state).key()
        if state.terminal or (key, NOHELP) in probs:
            continue
        for tag, greedy, noise in ((NOHELP, env._greedy_base, eta), ("help1", env._greedy_strong, eta_strong)):
            row = {}
            for action, prob in action_distribution(greedy, fresh(state), noise).items():
                nxt = env._step(fresh(state), action)
                row[fresh(nxt).key()] = row.get(fresh(nxt).key(), 0.0) + prob
                stack.append(nxt)
            probs[(key, tag)] = row

    def p_star(key):
        outcome = terminal_outcome(key)
        if outcome is not None:
            return 1.0 if outcome == "success" else 0.0
        return sum(q * p_star(nk) for nk, q in probs[(key, NOHELP)].items())

    return probs, {sa: sum(q * p_star(nk) for nk, q in row.items()) for sa, row in probs.items()}


def test_shortest_success_length_with_move():
    # object starts far away but moves next to the start before it is reachable
    opt = shortest_success_length(6, 5, ((2, 1),), 8)
    assert opt == 3  # stand in room 1 when the move fires at t=2, then explore
