import json
import math
import random
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpdp import fixtures, mdp, pipeline
from helpdp.env import EnvConfig, TaskSet, generate_tasks, strong_actor
from helpdp.mdp import (
    NOHELP,
    CountTable,
    DataError,
    SuccessModel,
    canonical_action,
    count_line,
    dump_pieces,
    estimate_success,
    help_action,
    help_index,
    _dump,
    is_terminal,
    normalize,
    terminal_key,
    terminal_outcome,
    write_jsonl,
)
from helpdp.rollouts import Episode, RolloutLog, Step, episode_line, fit_log
from conftest import always_branch, rollout_log, sample_next

T_SUCC = fixtures.T_SUCC
T_FAIL = fixtures.T_FAIL


class TestCountTable:
    def test_first_increment(self):
        table = CountTable()
        table.record("s0", NOHELP, T_SUCC)
        assert dict(table.items()) == {("s0", NOHELP, T_SUCC): 1}
        assert sum(c for _, c in table.items()) == 1

    def test_additivity(self):
        table = CountTable()
        for _ in range(3):
            table.record("s0", NOHELP, T_SUCC)
        assert dict(table.items()) == {("s0", NOHELP, T_SUCC): 3}
        assert sum(c for _, c in table.items()) == 3

    def test_terminal_source_rejected(self):
        table = CountTable()
        with pytest.raises(DataError, match="terminal source"):
            table.record(T_SUCC, "help1", "s0")

    @pytest.mark.parametrize("count", [0, -1, 1.5, 2.0, True, "2"])
    def test_count_must_be_a_positive_integer(self, count):
        table = CountTable()
        with pytest.raises(DataError, match="positive integer"):
            table.record("s0", NOHELP, T_SUCC, count)
        assert len(table) == 0

    def test_load_rejects_a_fractional_count(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        write_jsonl(path, [{"state": "s0", "action": NOHELP, "next": T_SUCC, "count": 1.5}])
        with pytest.raises(DataError, match="positive integer"):
            CountTable.load(path)

    def test_log_with_terminal_step_rejected(self):
        ep = Episode("t0", 0, (Step("s0", NOHELP), Step(T_FAIL, NOHELP)), T_FAIL, "failure", 2)
        with pytest.raises(DataError, match="terminal source"):
            RolloutLog([ep]).to_count_table()

    def test_save_load_roundtrip(self, tmp_path):
        table = CountTable()
        table.record("s0", NOHELP, "s1", 4)
        table.record("s1", "help1", T_SUCC, 2)
        path = tmp_path / "counts.jsonl"
        table.save(path)
        back = CountTable.load(path)
        assert list(back.items()) == list(table.items())


class TestNormalize:
    def test_three_to_one_split(self):
        table = CountTable()
        table.record("s0", NOHELP, "a", 3)
        table.record("s0", NOHELP, "b", 1)
        table.record("a", NOHELP, T_SUCC)
        table.record("b", NOHELP, T_FAIL)
        model = normalize(table)
        row = model.row("s0", NOHELP)
        assert row == {"a": 0.75, "b": 0.25}

    def test_single_outcome(self):
        table = CountTable()
        table.record("s0", "help1", "a", 5)
        table.record("a", NOHELP, T_SUCC)
        model = normalize(table)
        assert model.row("s0", "help1") == {"a": 1.0}

    def test_empty_table_error(self):
        with pytest.raises(DataError, match="no data"):
            normalize(CountTable())

    def test_monte_carlo_binomial_band(self):
        # 10,000 draws from the one-state fixture's 0.2/0.8 nohelp row
        model, _ = fixtures.mdp_a()
        row = model.row("s0", NOHELP)
        rng = random.Random(314159)
        table = CountTable()
        n = 10_000
        for _ in range(n):
            table.record("s0", NOHELP, sample_next(row, rng))
        est = normalize(table).row("s0", NOHELP)
        se = math.sqrt(0.2 * 0.8 / n)
        assert abs(est.get(T_SUCC, 0.0) - 0.2) <= 3 * se  # 0.012

    def test_rational_roundtrip(self):
        # exact frequency reproduction, checked in rational arithmetic
        counts = {("s0", NOHELP, "a"): 7, ("s0", NOHELP, "b"): 5, ("s0", NOHELP, T_FAIL): 1}
        table = CountTable()
        for (s, a, s2), c in counts.items():
            table.record(s, a, s2, c)
        table.record("a", NOHELP, T_SUCC)
        table.record("b", NOHELP, T_SUCC)
        model = normalize(table)
        row = model.row("s0", NOHELP)
        total = 13
        for s2 in ("a", "b", T_FAIL):
            expect = Fraction(counts[("s0", NOHELP, s2)], total)
            assert Fraction(row[s2]).limit_denominator(10**6) == expect

    def test_unobserved_rows_absent(self):
        table = CountTable()
        table.record("s0", NOHELP, T_SUCC)
        model = normalize(table)
        assert model.row("s0", "help1") is None


class TestActions:
    def test_help_alias(self):
        # one spelling per action: no bare "help", no zero index, no leading zero
        for alias in ("help", "help0", "help01"):
            with pytest.raises(DataError):
                canonical_action(alias)
            with pytest.raises(DataError):
                help_index(alias)
        assert canonical_action("help12") == "help12"
        assert canonical_action(NOHELP) == NOHELP
        assert help_index("help12") == 12

    def test_alias_rejected_where_names_enter(self, tmp_path):
        counts = tmp_path / "counts.jsonl"
        write_jsonl(counts, [{"state": "s0", "action": "help", "next": T_SUCC, "count": 1}])
        with pytest.raises(DataError, match="unknown action"):
            CountTable.load(counts)
        success = tmp_path / "success.jsonl"
        write_jsonl(success, [{"state": "s0", "action": "help", "p": 1.0, "n": 1,
                               "provenance": "empirical"}])
        with pytest.raises(DataError, match="unknown action"):
            SuccessModel.load(success)
        ep = Episode("t0", 0, (Step("s0", "help"),), T_SUCC, "success", 1)
        with pytest.raises(DataError, match="unknown action"):
            estimate_success(RolloutLog([ep]))

    def test_unknown_action(self):
        for _ in range(3):  # raised on every call, never cached
            with pytest.raises(DataError):
                canonical_action("shout")

    @given(st.integers(min_value=1, max_value=50))
    def test_help_roundtrip(self, i):
        assert help_index(help_action(i)) == i


class TestStateKeys:
    def test_terminal_detection(self):
        assert is_terminal(terminal_key("end", "success"))
        assert is_terminal("room=3|outcome=failure")
        assert not is_terminal("room=3|outcome_pending=1")

    def test_terminal_key_validation(self):
        with pytest.raises(DataError):
            terminal_key("end", "draw")

    @pytest.mark.parametrize("key", [
        "x|outcome=successful", "outcome=failure", "outcome=success", "a|outcome=success|b",
        "a|outcome=failure|outcome=success", "xoutcome=success", "outcome=success|",
        "outcome=", "a|outcome=|b", "room=3|outcome_pending=1", "unknown|outcome=failure",
        "task=t|hint=1,2|t=3|room=1|explored=1|moved=0", "s0", "", "|",
    ])
    def test_terminal_outcome_matches_segment_split(self, key):
        assert terminal_outcome(key) == _segment_outcome(key)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["outcome=success", "outcome=failure", "outcome=",
                                     "outcome=successful", "xoutcome=failure", "t=1", ""]),
                    max_size=4))
    def test_terminal_outcome_matches_segment_split_on_joined_segments(self, segments):
        key = "|".join(segments)
        assert terminal_outcome(key) == _segment_outcome(key)


def _segment_outcome(key: str) -> str | None:
    """Reference definition: the first segment equal to an outcome marker."""
    for seg in key.split("|"):
        if seg == "outcome=success":
            return "success"
        if seg == "outcome=failure":
            return "failure"
    return None


# Strings with quotes, backslashes, control and non-ASCII characters; ints
# past 64 bits; bools; floats with subnormals, -0.0, NaN and infinities, also
# as np.float64.  A ``field`` is of its own kind three times in four and of
# any kind otherwise, so records take both the line formatters' fast path and
# their fallback; their explicit examples pin each value the fast path must
# refuse or write exactly.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f é→😀'), st.characters()), max_size=12)
INT = st.integers(-2**100, 2**100)
FLOAT = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf])
REAL = FLOAT | FLOAT.map(np.float64) | st.floats(0, 1)
ODD = st.one_of(st.booleans(), st.none(), TEXT, INT, REAL)


def field(kind):
    return st.integers(0, 3).flatmap(lambda i: ODD if i == 0 else kind)


class TestJsonWriting:
    RECORDS = [
        {"b": 1.0, "a": [0.1, 1e-300, 2.5e17, -0.0, None], "z": {"y": "ä→😀", "x": None}},
        {"state": "task=t|hint=1,2|t=0", "p": 1 / 3, "n": 7, "nested": [{"k": [1, {"j": 2}]}]},
        {"inf": float("inf"), "nan": float("nan"), "tuple": (1, "two"), "empty": {}},
    ]

    @pytest.mark.parametrize("rec", RECORDS)
    def test_dump_matches_json_dumps(self, rec):
        assert _dump(rec) == json.dumps(rec, sort_keys=True, separators=(",", ":"))

    def test_dump_refuses_what_json_dumps_refuses_and_recovers(self):
        # the encoder is built once: a call that raised must not leave the
        # containers it had open marked, or encoding them again would be
        # taken for a circular reference
        rec = {"a": {"b": [1, {2}]}}
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump(rec)
        rec["a"]["b"].pop()
        assert _dump(rec) == '{"a":{"b":[1]}}'
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            _dump({"x": loop})
        assert _dump(rec) == '{"a":{"b":[1]}}'

    @pytest.mark.parametrize("piece", [1, 2, 3, 2048])
    def test_dump_pieces_join_to_the_dump(self, monkeypatch, piece):
        """Pieces of a document whose object members are cut ``piece``
        entries at a time: in sorted key order whatever the insertion order,
        including the empty object and members that are not objects."""
        monkeypatch.setattr(mdp, "DUMP_PIECE", piece)
        rng = random.Random(piece)
        table = {f"s{i:02d}|outcome={'x→'[i % 2]}": [rng.random(), i] for i in rng.sample(range(40), 40)}
        doc = {"table": table, "b": 1.5, "a": {}, "z": self.RECORDS[0], "ö": {"2": None, "10": (1,)}}
        for rec in (doc, *self.RECORDS, {}):
            assert "".join(dump_pieces(rec)) == _dump(rec) + "\n"
        longest = max(map(len, dump_pieces(doc)))
        assert longest < len(_dump(table)) if piece < len(table) else longest == len(_dump(table))

    def test_rewrite_replaces_the_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"k": "x" * 100}] * 5, {"seed": 1})
        old = path.read_bytes()
        link = tmp_path / "old.jsonl"
        link.hardlink_to(path)
        write_jsonl(path, [{"k": 1}])
        assert path.read_bytes() == b'{"k":1}\n'  # no stale tail of the longer file
        assert link.read_bytes() == old  # a new file, not the old one edited in place

    @settings(max_examples=200, deadline=None)
    @given(field(TEXT), field(TEXT), field(TEXT), field(INT))
    @example("s", "a", "é\x00\"\\", True)
    @example("s", "a", "t", False)
    @example("s", "a", "t", 2**70)
    def test_count_line_is_dump(self, state, action, nxt, count):
        want = _dump({"state": state, "action": action, "next": nxt, "count": count})
        assert count_line(state, action, nxt, count) == want

    @settings(max_examples=200, deadline=None)
    @given(field(TEXT), field(INT), st.lists(st.tuples(field(TEXT), field(TEXT), field(TEXT)), max_size=4),
           field(TEXT), field(TEXT), field(INT))
    @example("t", True, [("s", "nohelp", "goto:1")], "f", "success", 1)
    @example("t", 1, [("s", "nohelp", "goto:1")], "f", "success", False)
    @example("t", 1, [("s→", "nohelp", 3)], "f", "success", 1)
    @example("t", 1, [], "f\u2028\"", "success", 0)
    def test_episode_line_is_dump(self, task_id, seed, steps, final, outcome, length):
        ep = Episode(task_id, seed, tuple(map(Step._make, steps)), final, outcome, length)
        want = _dump({"task_id": task_id, "seed": seed, "steps": [list(s) for s in steps],
                      "final_state": final, "outcome": outcome, "length": length})
        assert episode_line(ep) == want
        # collect's form: the fields in a plain tuple, the steps plain triples
        assert episode_line((task_id, seed, list(steps), final, outcome, length)) == want


class TestStep:
    def test_construction_forms_agree(self):
        pos = Step("s0", "help1", "explore")
        kw = Step(state="s0", action="help1", env_action="explore")
        assert pos == kw == Step(*["s0", "help1", "explore"])
        assert (pos.state, pos.action, pos.env_action) == ("s0", "help1", "explore")

    def test_env_action_defaults_to_empty(self):
        assert Step("s0", NOHELP).env_action == ""
        assert Step(state="s0", action=NOHELP) == Step("s0", NOHELP, "")
        assert Step(*["s0", NOHELP]).env_action == ""


class TestEstimateSuccess:
    def test_single_sample(self):
        model, _ = fixtures.mdp_a()
        log = rollout_log(model, always_branch(NOHELP), "s0", 1, seed=5)
        sm = estimate_success(log)
        won = log.episodes[0].outcome == "success"
        assert sm.get("s0", NOHELP) == (1.0 if won else 0.0)
        assert sm.n[("s0", NOHELP)] == 1

    def test_symmetry(self):
        from helpdp.rollouts import Episode, RolloutLog, Step

        log = RolloutLog()
        for i, outcome in enumerate(["success", "failure"]):
            final = T_SUCC if outcome == "success" else T_FAIL
            log.append(
                Episode("t0", i, (Step("s0", NOHELP),), final, outcome, 1)
            )
        sm = estimate_success(log)
        assert sm.get("s0", NOHELP) == 0.5

    def test_always_help_band_on_chain(self):
        # p(s1, help) should land within 3 SE of its exact value 0.8
        model, _ = fixtures.mdp_b()
        n = 10_000
        log = rollout_log(model, always_branch("help1"), "s0", n, seed=21)
        sm = estimate_success(log)
        visits = sm.n[("s1", "help1")]
        se = math.sqrt(0.8 * 0.2 / visits)
        assert abs(sm.get("s1", "help1") - 0.8) <= 3 * se

    def test_missing_outcome_error(self):
        from helpdp.rollouts import Episode, RolloutLog, Step

        log = RolloutLog([Episode("t9", 0, (Step("s0", NOHELP),), "s1", "running", 1)])
        with pytest.raises(DataError, match="t9:0"):
            estimate_success(log)

    def test_terminal_keys_forced(self):
        sm = SuccessModel(p={("s0", NOHELP): 0.4}, n={("s0", NOHELP): 5})
        assert sm.get(T_SUCC, "help1") == 1.0
        assert sm.get(T_FAIL, NOHELP) == 0.0

    def test_save_load_roundtrip(self, tmp_path):
        model, _ = fixtures.mdp_b()
        sm = estimate_success(rollout_log(model, always_branch(NOHELP), "s0", 50, seed=3))
        path = tmp_path / "success.jsonl"
        _save_success(sm, path)
        back = SuccessModel.load(path)
        assert back.p == sm.p
        assert back.n == sm.n
        assert back.provenance == "empirical"

    @pytest.mark.parametrize("kinds", [("empirical", "exact"), ("exact", "empirical")])
    def test_load_rejects_mixed_provenance(self, tmp_path, kinds):
        # an empirical row without samples must not pass because another row says exact
        path = tmp_path / "success.jsonl"
        write_jsonl(path, [{"state": s, "action": NOHELP, "p": 0.5, "n": 0, "provenance": kind}
                           for s, kind in zip(("s0", "s1"), kinds)])
        with pytest.raises(DataError, match="mixed provenance"):
            SuccessModel.load(path)

    def test_load_keeps_one_provenance(self, tmp_path):
        path = tmp_path / "success.jsonl"
        write_jsonl(path, [{"state": s, "action": NOHELP, "p": 0.5, "n": 0, "provenance": "exact"}
                           for s in ("s0", "s1")])
        assert SuccessModel.load(path).provenance == "exact"
        write_jsonl(path, [{"state": "s0", "action": NOHELP, "p": 0.5, "n": 0, "provenance": "empirical"}])
        with pytest.raises(DataError, match="without samples"):
            SuccessModel.load(path)

    @pytest.mark.parametrize("field,value,why", [
        ("p", True, "p must be a number in [0, 1]"),
        ("p", "0.5", "p must be a number in [0, 1]"),
        ("p", 1.5, "p must be a number in [0, 1]"),
        ("n", True, "n must be an integer"),
        ("n", 1.5, "n must be an integer"),
        ("state", T_SUCC, "terminal source state"),
        ("state", 7, "state must be a string"),
    ])
    def test_load_refuses_a_bad_value_by_field(self, tmp_path, field, value, why):
        """Before, all but "p": "0.5" loaded (a loaded "n": true saved back as
        true) and "p": "0.5" raised a bare TypeError.  The message starts
        with the path."""
        rec = {"state": "s0", "action": NOHELP, "p": 0.5, "n": 2, "provenance": "empirical"}
        rec[field] = value
        path = tmp_path / "success.jsonl"
        write_jsonl(path, [rec])
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {why}')}"):
            SuccessModel.load(path)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalized_rows_sum_to_one(data):
    states = [f"s{i}" for i in range(4)] + [T_SUCC, T_FAIL]
    table = CountTable()
    n_rows = data.draw(st.integers(min_value=1, max_value=6))
    for _ in range(n_rows):
        s = data.draw(st.sampled_from(states[:4]))
        a = data.draw(st.sampled_from([NOHELP, "help1"]))
        for s2 in data.draw(st.lists(st.sampled_from(states), min_size=1, max_size=4)):
            table.record(s, a, s2, data.draw(st.integers(min_value=1, max_value=9)))
    model = normalize(table)
    for (s, a), row in model.probs.items():
        assert abs(sum(row.values()) - 1.0) <= 1e-12
        assert all(0.0 <= p <= 1.0 for p in row.values())


def _save_success(sm: SuccessModel, path, header: dict | None = None) -> None:
    """A file ``SuccessModel.load`` reads; no command writes one."""
    write_jsonl(path, [{"state": s, "action": a, "p": p, "n": sm.n.get((s, a), 0), "provenance": sm.provenance}
                       for (s, a), p in sorted(sm.p.items())], header)


def _saved_artifacts():
    """One of each JSONL artifact, from a small real collection, with its
    writer, its reader and a comparable view of what the reader returns."""
    cfg = EnvConfig(room_count=4, max_steps=5, hint_sizes=((2, 1.0),), move_prob=0.5,
                    n_train=6, n_val=2, n_test=2)
    tasks = generate_tasks(cfg, 3)
    log = pipeline.collect_phase1(list(tasks.train), [partial(strong_actor, eta=0.05)], 3,
                                  n_seeds=2, eta=cfg.eta)
    return {
        "tasks": (tasks, TaskSet.save, TaskSet.load, lambda t: t),
        "rollouts": (log, RolloutLog.save, RolloutLog.load, lambda log: log.episodes),
        "counts": (log.to_count_table(), CountTable.save, CountTable.load, lambda table: list(table.items())),
        "success": (estimate_success(log), _save_success, SuccessModel.load, lambda sm: sm),
    }


@pytest.mark.parametrize("kind", ["tasks", "rollouts", "counts", "success"])
def test_save_with_header_roundtrip(tmp_path, kind):
    obj, save, load, view = _saved_artifacts()[kind]
    header = {"config_hash": "0123456789abcdef", "seed": 7}
    path = tmp_path / f"{kind}.jsonl"
    save(obj, path, header=header)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"provenance": header}
    assert view(load(path)) == view(obj)
    plain = tmp_path / f"{kind}-plain.jsonl"
    save(obj, plain)
    assert lines[1:] == plain.read_text(encoding="utf-8").splitlines()


# every reader of a JSONL artifact: the artifact it reads, its key field and
# a comparable view of what it returns
READERS = {
    "tasks": ("tasks", TaskSet.load, "task_id", lambda t: t),
    "rollouts": ("rollouts", RolloutLog.load, "task_id", lambda log: log.episodes),
    "counts": ("counts", CountTable.load, "state", lambda table: list(table.items())),
    "success": ("success", SuccessModel.load, "state", lambda sm: sm),
    "fit": ("rollouts", fit_log, "task_id", lambda table: list(table.items())),
}


@pytest.fixture(scope="module")
def saved_lines(tmp_path_factory):
    """The lines of each JSONL artifact saved with a provenance header."""
    out = tmp_path_factory.mktemp("artifacts")
    lines = {}
    for kind, (obj, save, _, _) in _saved_artifacts().items():
        save(obj, out / kind, header={"config_hash": "0123456789abcdef", "seed": 7})
        lines[kind] = (out / kind).read_text(encoding="utf-8").splitlines(keepends=True)
    return lines


@pytest.mark.parametrize("reader", list(READERS))
def test_blank_lines_are_skipped(tmp_path, saved_lines, reader):
    artifact, load, _, view = READERS[reader]
    lines = saved_lines[artifact]
    plain, spaced = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
    plain.write_text("".join(lines), encoding="utf-8")
    spaced.write_text("".join(lines[:2] + ["\n", "  \n"] + lines[2:] + ["\n"]), encoding="utf-8")
    assert view(load(spaced)) == view(load(plain))


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("bad", ["misspelt key", "string", "number", "list", "second header", "cut short"])
def test_a_record_without_the_key_is_refused(tmp_path, saved_lines, reader, bad):
    """Any line but a blank one or the first-line header must be an object
    carrying the schema's key; before, such a record was dropped or raised
    a bare TypeError."""
    artifact, load, key, _ = READERS[reader]
    lines = list(saved_lines[artifact])
    lines[2] = {
        "misspelt key": lines[2].replace(f'"{key}"', f'"{key[:-1]}"', 1),
        "string": json.dumps(key) + "\n",
        "number": "7\n",
        "list": json.dumps([key]) + "\n",
        "second header": lines[0],
        "cut short": lines[2][:40] + "\n",
    }[bad]
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    why = "not JSON" if bad == "cut short" else f"expected a JSON object with '{key}'"
    with pytest.raises(DataError, match=re.escape(f"{path}:3: {why}")):
        load(path)
