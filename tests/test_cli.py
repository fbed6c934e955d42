import builtins
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from helpdp import env, fixtures, mdp, pipeline
from helpdp.cli import Run, cli, main, parser
from helpdp.env import TaskSet, generate_tasks, initial_state
from helpdp.mdp import CountTable, DataError, normalize
from helpdp.pipeline import build_helper, restrict_to_solvable
from helpdp.planner import expected_usage, load_solution
from helpdp.rollouts import RolloutLog, fit_log
from conftest import assert_no_child_left, spy_forks

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"

CONFIG = {
    "seed": 5,
    "env": {
        "room_count": 4,
        "max_steps": 5,
        "hint_sizes": {"2": 1.0},
        "move_prob": 0.5,
        "n_train": 8,
        "n_val": 4,
        "n_test": 4,
    },
    "phase1_seeds": 2,
    "planner": {"gamma": 1.0, "r": 0.3, "budget": 1.0, "bounds": [0.0, 5.0]},
    "intervention": "strong",
    "helper_mode": "all_states",
    "eval_seeds": 2,
}


def write_config(tmp_path: Path, out: str, name: str | None = None, **overrides) -> Path:
    """CONFIG with ``overrides`` and out dir ``out``, written to ``<name or out>.json``."""
    cfg = json.loads(json.dumps(CONFIG))
    cfg["out"] = str(tmp_path / out)
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / f"{name or out}.json"
    path.write_text(json.dumps(cfg))
    return path


def refusal(key: str) -> str:
    """The words of the usage error that refuses the config key ``key``."""
    if key in ("eval_seed", "planner.varient"):
        return f"{key} is unknown"
    return f"{key} is fixed at null" if key == "schedule" else f"{key} must be"


def run_cmd(config: Path, *args) -> str:
    """What the command prints; a failed command raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--config", str(config), *args], standalone_mode=False)
    return out.getvalue()


COMMANDS = ("gen", "collect", "fit", "search", "annotate", "eval")


def run_chain(config: Path, commands=COMMANDS):
    outputs = [run_cmd(config, cmd) for cmd in commands]
    return outputs


class TestChain:
    def test_end_to_end_and_idempotent(self, tmp_path):
        cfg_a = write_config(tmp_path, "a")
        cfg_b = write_config(tmp_path, "b")
        out_a = run_chain(cfg_a)
        out_b = run_chain(cfg_b)
        assert out_a == out_b
        # artifact-level byte identity apart from the out-path-dependent hash
        for name in ("tasks.jsonl", "phase1.jsonl", "counts.jsonl"):
            a = (tmp_path / "a" / name).read_text().splitlines()[1:]
            b = (tmp_path / "b" / name).read_text().splitlines()[1:]
            assert a == b
        # rerunning in place is byte-identical including provenance
        before = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        run_chain(cfg_a)
        after = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        assert before == after

    def test_summary_line_shape(self, tmp_path):
        cfg = write_config(tmp_path, "c")
        run_cmd(cfg, "gen")
        run_cmd(cfg, "collect")
        run_cmd(cfg, "fit")
        out = run_cmd(cfg, "search")
        assert "r=" in out and "E[U]=" in out and "converged=" in out and "iters=" in out

    def test_prohibitive_cost_solve(self, tmp_path):
        cfg = write_config(tmp_path, "d", planner={"r": 10.0})
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        out = run_cmd(cfg, "solve")
        assert "E[U]=0.000000" in out
        doc = json.loads((tmp_path / "d" / "solution.json").read_text())
        assert all(a == "nohelp" for a in doc["policy"].values())

    def test_provenance_embedded(self, tmp_path):
        cfg = write_config(tmp_path, "e")
        run_cmd(cfg, "gen")
        header = json.loads((tmp_path / "e" / "tasks.jsonl").read_text().splitlines()[0])
        assert set(header["provenance"]) == {"config_hash", "seed"}
        assert header["provenance"]["seed"] == 5

    def test_baseline_and_selfreg(self, tmp_path):
        cfg = write_config(tmp_path, "g", baseline_probs=[0.0, 1.0])
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        out = run_cmd(cfg, "baseline")
        assert "p=0.0" in out and "p=1.0" in out
        out = run_cmd(cfg, "selfreg")
        assert "threshold=" in out
        doc = json.loads((tmp_path / "g" / "selfreg.json").read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0


class TestExitCodes:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "helpdp.cli", *argv], capture_output=True, text=True
        )

    def test_missing_config_is_usage_error(self, tmp_path):
        proc = self._run("--config", str(tmp_path / "nope.json"), "gen")
        assert proc.returncode == 2

    def test_missing_seed_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"out": str(tmp_path / "x")}))
        proc = self._run("--config", str(path), "gen")
        assert proc.returncode == 2
        assert "seed" in proc.stderr

    def test_infeasible_budget_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "h", planner={"bounds": [0.0, 0.001], "budget": 0.0})
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        proc = self._run("--config", str(cfg), "search")
        assert proc.returncode == 3
        assert "infeasible" in proc.stderr.lower()

    def test_unconverged_solution_is_not_written(self, tmp_path):
        cfg = write_config(tmp_path, "u")
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        # the sweep cap is the planner's constant, so the child lowers it
        capped = "from helpdp import cli, planner; planner.MAX_SWEEPS = 1; cli.cli()"
        for cmd in ("solve", "search"):
            proc = subprocess.run([sys.executable, "-c", capped, "--config", str(cfg), cmd],
                                  capture_output=True, text=True)
            assert proc.returncode == 1
            assert "did not converge" in proc.stderr
            assert not (tmp_path / "u" / "solution.json").exists()
            assert not (tmp_path / "u" / "search.json").exists()

    @pytest.mark.parametrize("key,value", [("gamma", 0.9), ("epsilon", 1e-6), ("max_iters", 5),
                                           ("variant", "paper_literal")])
    def test_planner_setting_other_than_its_fixed_value_is_usage_error(self, tmp_path, key, value):
        """gamma, epsilon, the sweep cap and the policy rule belong to the
        planner; a config that changes one is refused before any command
        writes."""
        cfg = write_config(tmp_path, "fx")
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        before = {p.name: p.read_bytes() for p in (tmp_path / "fx").iterdir()}
        bad = write_config(tmp_path, "fx", planner={key: value})
        for cmd in ("gen", "solve", "search"):
            proc = self._run("--config", str(bad), cmd)
            assert proc.returncode == 2
            assert f"planner.{key} is fixed at" in proc.stderr
        assert {p.name: p.read_bytes() for p in (tmp_path / "fx").iterdir()} == before
        fresh = write_config(tmp_path, "fresh", planner={key: value})
        assert self._run("--config", str(fresh), "gen").returncode == 2
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("argv", [("solve", "--r", "10"), ("solve", "--variant", "paper_literal"),
                                      ("search", "--budget", "0.3"),
                                      ("search", "--variant", "paper_literal"), ("baseline", "--p", "0.3")])
    def test_no_flag_overrides_a_hashed_setting(self, tmp_path, argv):
        """planner.r, planner.variant, planner.budget and baseline_probs come
        from the config alone, so the provenance hash names what a run did."""
        cfg = write_config(tmp_path, "fl")
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        before = {p.name: p.read_bytes() for p in (tmp_path / "fl").iterdir()}
        proc = self._run("--config", str(cfg), *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: unrecognized arguments: ") and argv[1] in proc.stderr
        assert {p.name: p.read_bytes() for p in (tmp_path / "fl").iterdir()} == before
        fresh = write_config(tmp_path, "fresh")
        assert self._run("--config", str(fresh), *argv).returncode == 2
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("command,override,key", [
        ("solve", {"planner": {"r": "lots"}}, "planner.r"),
        ("search", {"planner": {"r": [-1]}}, "planner.r"),
        ("baseline", {"baseline_probs": [2.0]}, "baseline_probs"),
        ("baseline", {"baseline_probs": "x"}, "baseline_probs"),
        ("baseline", {"baseline_probs": ["a"]}, "baseline_probs"),
        ("baseline", {"eval_seeds": "x"}, "eval_seeds"),
        ("eval", {"eval_seeds": "x"}, "eval_seeds"),
        ("eval", {"eval_seeds": 0}, "eval_seeds"),
        ("collect", {"phase1_seeds": "x"}, "phase1_seeds"),
        ("annotate", {"helper_mode": "foo"}, "helper_mode"),
        ("gen", {"seed": "x"}, "seed"),
        ("collect", {"seed": 1.5}, "seed"),
        ("eval", {"seed": True}, "seed"),
        ("collect", {"schedule": "x"}, "schedule"),
        ("gen", {"env": {"n_train": "x"}}, "env.n_train"),
        ("gen", {"env": {"hint_sizes": [1, 2]}}, "env.hint_sizes"),
        ("collect", {"env": {"eta": "x"}}, "env.eta"),
        ("solve", {"planner": [1]}, "planner"),
        ("eval", {"intervention": ["strong"]}, "intervention"),
        ("eval", {"eval_seed": 10}, "eval_seed"),
        ("search", {"planner": {"varient": "paper_literal"}}, "planner.varient"),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, command, override, key):
        """A bad value or an unknown key exits 2 naming the key, on `gen` as on
        the command that reads it: the config is checked once, before any
        command body runs, so the out dir keeps its bytes."""
        cfg = write_config(tmp_path, "bv")
        for cmd in ("gen", "collect", "fit", "search", "annotate", "eval"):
            run_cmd(cfg, cmd)
        before = {p.name: p.read_bytes() for p in (tmp_path / "bv").iterdir()}
        bad = write_config(tmp_path, "bv", **override)
        fresh = write_config(tmp_path, "fresh", **override)
        for config in (bad, fresh):
            for cmd in ("gen", command):
                proc = self._run("--config", str(config), cmd)
                assert proc.returncode == 2, (cmd, proc.stderr)
                assert refusal(key) in proc.stderr
        assert {p.name: p.read_bytes() for p in (tmp_path / "bv").iterdir()} == before
        assert not (tmp_path / "fresh").exists()

    def test_value_only_search_reads_refuses_every_command(self, tmp_path):
        """planner.budget is read by `search` alone, yet a bad one refuses `gen`
        before any directory is made; a run that leaves it out runs every other
        command, and `search` refuses it."""
        bad = write_config(tmp_path, "nb", planner={"budget": -1})
        proc = self._run("--config", str(bad), "gen")
        assert proc.returncode == 2
        assert "planner.budget must be" in proc.stderr
        assert not (tmp_path / "nb").exists()
        config = json.loads(bad.read_text())
        del config["planner"]["budget"]
        bad.write_text(json.dumps(config))
        for cmd in ("gen", "collect", "fit", "solve", "annotate", "eval"):
            run_cmd(bad, cmd)
        proc = self._run("--config", str(bad), "search")
        assert proc.returncode == 2
        assert "search needs planner.budget" in proc.stderr

    def test_no_command_declares_an_option(self):
        """--config, --seed and --out come before the command; no command has
        a flag of its own that could bypass the hashed config."""
        top = parser()
        assert [a.dest for a in top._actions] == ["help", "config_path", "seed", "out", "command"]
        commands = top._actions[-1].choices
        assert list(commands) == ["gen", "collect", "fit", "solve", "search", "annotate", "eval", "baseline",
                                  "selfreg"]
        assert {name: [a.dest for a in sub._actions] for name, sub in commands.items()} == {
            name: ["help"] for name in commands}

    @pytest.mark.parametrize("argv,code,stdout,stderr", [
        ((), 2, "", "usage error: "),
        (("--help",), 0, "Usage: ", ""),
        (("gen",), 2, "", "usage error: "),
        (("--config", str(REFERENCE_CONFIG), "--seed", "x", "gen"), 2, "", "usage error: "),
        (("--config", str(REFERENCE_CONFIG), "nope"), 2, "", "usage error: "),
        (("--config", str(REFERENCE_CONFIG), "gen", "--seed", "3"), 2, "", "usage error: "),
    ], ids=["no-arguments", "help", "no-config", "seed-not-an-integer", "unknown-command", "option-after-command"])
    def test_command_line_errors_exit_2_and_help_exits_0(self, argv, code, stdout, stderr):
        """A command line that names no runnable command exits 2 with a usage
        error on stderr and nothing on stdout; --help alone prints the usage
        to stdout and exits 0."""
        proc = self._run(*argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith(stdout) and (stdout or not proc.stdout), proc.stdout
        assert proc.stderr.startswith(stderr) and (stderr or not proc.stderr), proc.stderr

    @pytest.mark.parametrize("key,value", [("bounds", [5, 0]), ("bounds", [0, 5, 9]),
                                           ("budget", -1), ("budget", "lots")])
    def test_bad_search_setting_is_usage_error(self, tmp_path, key, value):
        good = write_config(tmp_path, "bs")
        for cmd in ("gen", "collect", "fit"):
            run_cmd(good, cmd)
        cfg = write_config(tmp_path, "bs", planner={key: value})
        proc = self._run("--config", str(cfg), "search")
        assert proc.returncode == 2, proc.stderr
        assert f"planner.{key} must be" in proc.stderr
        assert not (tmp_path / "bs" / "solution.json").exists()
        assert not (tmp_path / "bs" / "search.json").exists()

    def test_config_may_repeat_the_fixed_planner_settings(self, tmp_path):
        cfg = write_config(tmp_path, "rp", planner={"gamma": 1.0, "epsilon": 1e-8, "max_iters": 10_000})
        for cmd in ("gen", "collect", "fit", "solve"):
            run_cmd(cfg, cmd)
        assert json.loads((tmp_path / "rp" / "solution.json").read_text())["converged"]

    def test_help_costs_must_match_the_intervention_kind(self, tmp_path):
        """K comes from `intervention` alone: a scalar r on a 'both' run and
        two costs on a 'strong' run are usage errors on every command, search
        (one cost) refuses a K = 2 run, and solve one that gives no r."""
        k2 = write_config(tmp_path, "k2", intervention="both", planner={"r": [0.3, 0.3]})
        k1 = write_config(tmp_path, "k1")
        for cfg in (k2, k1):
            for cmd in ("gen", "collect", "fit"):
                run_cmd(cfg, cmd)
        no_r = json.loads(k2.read_text())
        del no_r["planner"]["r"]
        (tmp_path / "no_r.json").write_text(json.dumps(no_r))
        both = write_config(tmp_path, "k2", name="both", intervention="both")
        strong = write_config(tmp_path, "k1", name="strong", planner={"r": [0.3, 0.3]})
        for cfg, cmd, message in (
            (both, "gen", "planner.r gives 1 help cost(s), but intervention 'both' has 2"),
            (both, "solve", "planner.r gives 1 help cost(s), but intervention 'both' has 2"),
            (k2, "search", "use `solve`"),
            (tmp_path / "no_r.json", "solve", "solve needs planner.r"),
            (strong, "gen", "planner.r gives 2 help cost(s), but intervention 'strong' has 1"),
            (strong, "solve", "planner.r gives 2 help cost(s), but intervention 'strong' has 1"),
        ):
            proc = self._run("--config", str(cfg), cmd)
            assert proc.returncode == 2, (cmd, proc.stderr)
            assert message in proc.stderr
        for out in ("k1", "k2"):
            assert not (tmp_path / out / "solution.json").exists()
            assert not (tmp_path / out / "search.json").exists()

    def test_out_of_order_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "i")
        proc = self._run("--config", str(cfg), "collect")
        assert proc.returncode == 2
        assert "gen" in proc.stderr

    def test_fit_without_log_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "j")
        run_cmd(cfg, "gen")
        proc = self._run("--config", str(cfg), "fit")
        assert proc.returncode == 2
        assert "phase1.jsonl missing" in proc.stderr and "`collect`" in proc.stderr

    def test_eval_without_helper_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "k")
        for cmd in ("gen", "collect", "fit", "search"):
            run_cmd(cfg, cmd)
        proc = self._run("--config", str(cfg), "eval")
        assert proc.returncode == 2
        assert "helper.json missing" in proc.stderr and "`annotate`" in proc.stderr

    @pytest.mark.parametrize("command,key", [("selfreg", "n_val"), ("selfreg", "n_test"),
                                             ("baseline", "n_test")])
    def test_empty_played_split_is_usage_error(self, tmp_path, monkeypatch, capsys, command, key):
        """`gen` may leave val or test empty, since the main chain never plays
        them; a command that plays the split refuses before it enumerates or
        rolls anything, and writes nothing."""
        from helpdp import env

        cfg = write_config(tmp_path, "e", env={key: 0})
        run_cmd(cfg, "gen")

        def played(*args, **kwargs):
            raise AssertionError("an empty split was played")

        monkeypatch.setattr(pipeline, "run_episode", played)
        monkeypatch.setattr(env, "exact_models", played)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), command])
        assert exc.value.code == 2
        assert f"{command} needs env.{key} >= 1" in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "e").iterdir()] == ["tasks.jsonl"]

    def test_trajectory_annotate_without_tasks_is_usage_error(self, tmp_path):
        """A trajectory_only annotate walks from the train starts of
        tasks.jsonl; the rollout log is not needed."""
        cfg = write_config(tmp_path, "l", helper_mode="trajectory_only")
        for cmd in ("gen", "collect", "fit", "search"):
            run_cmd(cfg, cmd)
        (tmp_path / "l" / "phase1.jsonl").unlink()
        run_cmd(cfg, "annotate")
        (tmp_path / "l" / "tasks.jsonl").unlink()
        proc = self._run("--config", str(cfg), "annotate")
        assert proc.returncode == 2
        assert "tasks.jsonl missing" in proc.stderr and "`gen`" in proc.stderr


class TestDeploy:
    def test_all_states_deploy_skips_fit_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "m")
        run_chain(cfg)
        out = tmp_path / "m"
        before = {name: (out / name).read_bytes() for name in ("helper.json", "metrics.json")}
        for name in ("counts.jsonl", "phase1.jsonl"):
            (out / name).unlink()
        run_cmd(cfg, "annotate")
        run_cmd(cfg, "eval")
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_trajectory_only_chain(self, tmp_path):
        cfg = write_config(tmp_path, "n", helper_mode="trajectory_only")
        outputs = run_chain(cfg)
        assert "helper mode=trajectory_only" in outputs[4]
        out = tmp_path / "n"
        helper = json.loads((out / "helper.json").read_text())
        policy = json.loads((out / "solution.json").read_text())["policy"]
        assert helper["mode"] == "trajectory_only"
        assert helper["table"] and helper["table"].items() <= policy.items()
        model = restrict_to_solvable(normalize(CountTable.load(out / "counts.jsonl")), 1)
        starts = [initial_state(t).key() for t in TaskSet.load(out / "tasks.jsonl").train]
        direct = build_helper(load_solution(out / "solution.json"), starts, model, "trajectory_only")
        assert helper["table"] == direct.table
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["all"]["episodes"] == CONFIG["env"]["n_train"] * CONFIG["eval_seeds"]

    def test_eval_splits_one_deployment_by_seen_and_unseen(self, tmp_path):
        """With a truncated model some starts are unseen; the seen and unseen
        rows are the metrics of one deployment's episodes on each subset."""
        cfg = write_config(tmp_path, "u", env={"n_train": 16})
        out = tmp_path / "u"
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        counts = out / "counts.jsonl"
        fixtures.truncate_counts(CountTable.load(counts), 0.7, seed=2).save(counts)
        for cmd in ("solve", "annotate", "eval"):
            run_cmd(cfg, cmd)
        report = json.loads((out / "metrics.json").read_text())
        assert report["seen"] and report["unseen"]
        assert report["seen"]["episodes"] + report["unseen"]["episodes"] == report["all"]["episodes"]

        train = TaskSet.load(out / "tasks.jsonl").train
        sol = load_solution(out / "solution.json")
        doc = json.loads((out / "helper.json").read_text())
        helper = pipeline.HelperPolicy(doc["table"], doc["mode"], doc["fallback"])
        starts = {t.task_id: initial_state(t).key() for t in train}
        _, log = pipeline.evaluate(helper.as_decider(), train, [pipeline.StrongActorIntervention()],
                                   CONFIG["seed"], n_seeds=CONFIG["eval_seeds"], seed_salt="eval-all")
        for name, ids in zip(("seen", "unseen"), pipeline.split_seen_unseen(starts, sol)):
            subset = RolloutLog([ep for ep in log if ep.task_id in ids])
            eu = expected_usage(sol, [starts[i] for i in ids])
            want = pipeline.metrics_from_log(subset, [t for t in train if t.task_id in ids], 1, eu)
            assert report[name] == json.loads(json.dumps(want.to_dict()))


def test_search_annotate_eval_share_one_budget_definition(tmp_path, monkeypatch):
    """With 18 of the 40 reference train starts off a truncated model, search
    fits the budget to the same E[U] that solution.json records and eval
    predicts: the mean over every train start, an off-model start adding 0."""
    monkeypatch.chdir(tmp_path)
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["planner"]["budget"] = 0.3
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(config))

    for cmd in ("gen", "collect", "fit"):
        main(["--config", str(path), "--out", "out", cmd], standalone_mode=False)
    counts = tmp_path / "out" / "counts.jsonl"
    fixtures.truncate_counts(CountTable.load(counts), 0.7, seed=2).save(counts)
    for cmd in ("search", "annotate", "eval"):
        main(["--config", str(path), "--out", "out", cmd], standalone_mode=False)
    search = json.loads((tmp_path / "out" / "search.json").read_text())
    solution = json.loads((tmp_path / "out" / "solution.json").read_text())
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["unseen"]["episodes"] == 18 * 3
    eu = search["expected_usage"]
    assert solution["expected_usage"] == metrics["all"]["EU"] == [eu]
    assert eu <= 0.3


def command_opens(monkeypatch, cfg: Path, out: Path, commands) -> list[tuple[str, str, bool]]:
    """Run each command (a space-separated argument string) in-process and
    record (command, file name, writes) for every open of a file in ``out``."""
    out = out.resolve()
    opens = []
    real_open = io.open

    def spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve().parent == out:
            opens.append((command, Path(file).name, bool(set(mode) & set("wax+"))))
        return real_open(file, mode, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", spy)
        m.setattr(io, "open", spy)  # pathlib opens through io.open
        for command in commands:
            main(["--config", str(cfg), *command.split()], standalone_mode=False)
    return opens


def test_model_commands_write_each_artifact_once(tmp_path, monkeypatch):
    """gen, collect and fit write each artifact in one pass, provenance header
    included: one open for writing, and no read-back by the writing command."""
    cfg = write_config(tmp_path, "w")
    out = tmp_path / "w"
    opens = command_opens(monkeypatch, cfg, out, ("gen", "collect", "fit"))
    writer = {"tasks.jsonl": "gen", "phase1.jsonl": "collect", "counts.jsonl": "fit"}
    assert sorted((name, cmd) for cmd, name, w in opens if w) == sorted(
        (name, cmd) for name, cmd in writer.items())
    assert {p.name for p in out.iterdir()} == set(writer)
    read_back = [(cmd, name) for cmd, name, w in opens if not w and writer[name] == cmd]
    assert read_back == []


def test_trajectory_annotate_opens_only_its_inputs(tmp_path, monkeypatch):
    """A trajectory_only annotate walks the fitted transitions from the train
    starts of tasks.jsonl and never opens the rollout log."""
    cfg = write_config(tmp_path, "sm", helper_mode="trajectory_only")
    out = tmp_path / "sm"
    for cmd in ("gen", "collect", "fit", "search"):
        run_cmd(cfg, cmd)
    assert {name for _, name, _ in command_opens(monkeypatch, cfg, out, ("annotate",))} == {
        "solution.json", "tasks.jsonl", "counts.jsonl", "helper.json"}


def test_rewritten_json_artifact_replaces_the_file(tmp_path):
    run = Run(str(write_config(tmp_path, "r")), None, None)
    path = run.write_json("doc.json", {"k": "x" * 200})
    old = path.read_bytes()
    link = tmp_path / "old.json"
    link.hardlink_to(path)
    run.write_json("doc.json", {"k": 1})
    assert json.loads(path.read_bytes()) == {"k": 1, "provenance": run.provenance}
    assert link.read_bytes() == old  # a new file, not the old one edited in place


@pytest.fixture
def restore_gc():
    yield
    gc.unfreeze()
    gc.enable()


def test_gc_is_switched_off_only_at_the_process_entry(tmp_path, monkeypatch, capsys, restore_gc):
    assert gc.isenabled()
    frozen = gc.get_freeze_count()
    main(["--config", str(write_config(tmp_path, "gc")), "gen"], standalone_mode=False)
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["helpdp", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 0
    assert "Usage" in capsys.readouterr().out
    assert not gc.isenabled()
    assert gc.get_freeze_count() > 0  # the exit has nothing left to collect


def test_failed_forked_collect_exits_1_and_writes_no_log(tmp_path, monkeypatch, capsys, restore_gc):
    cfg = write_config(tmp_path, "fk")
    run_cmd(cfg, "gen")
    monkeypatch.setattr(pipeline, "EPISODES_PER_WORKER", 1)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    # a schedule that calls help2 on a run with one help type
    monkeypatch.setattr(pipeline, "phase1_schedule", lambda n_help: [(0.0, 1.0)])
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), "collect"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    assert "unknown intervention index 2" in capsys.readouterr().err
    assert not (tmp_path / "fk" / "phase1.jsonl").exists()


def _kill_in_child(fn):
    """``fn``, except that a forked worker calling it kills itself."""
    parent = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("command,target,artifacts", [
    ("collect", "_play_phase1", ("phase1.jsonl",)),
    ("search", "solvable_rows", ("solution.json", "search.json")),
    ("eval", "run_episode", ("metrics.json",)),
])
def test_a_killed_worker_exits_1_naming_the_signal(tmp_path, monkeypatch, capsys, restore_gc, deadline,
                                                   command, target, artifacts):
    """A worker killed from outside (the OOM killer, say) fails its command
    at once, with no artifact and no child process left behind; a
    multiprocessing pool waited for ever on the lost job."""
    cfg = write_config(tmp_path, "kw")
    run_chain(cfg, COMMANDS[:COMMANDS.index(command)])
    monkeypatch.setattr(pipeline, "EPISODES_PER_WORKER", 1)
    monkeypatch.setattr(pipeline, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, target, _kill_in_child(getattr(pipeline, target)))
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), command])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    assert re.fullmatch(r"error: forked worker 2 of 2 \(pid \d+\) was killed by SIGKILL before sending its result\n",
                        capsys.readouterr().err)
    assert not any((tmp_path / "kw" / name).exists() for name in artifacts)
    assert_no_child_left()


@pytest.mark.parametrize("intervention", ["strong", "mcts", "both"])
def test_forked_eval_writes_the_serial_metrics(tmp_path, monkeypatch, intervention):
    """eval plays slices of the tasks in forked workers; metrics.json, seen
    and unseen splits included, is the serial run's for any worker count."""
    cfg = write_config(tmp_path, "fe", intervention=intervention,
                       planner={"r": [0.3, 0.5]} if intervention == "both" else {})
    run_chain(cfg, ("gen", "collect", "fit", "solve", "annotate"))
    metrics = tmp_path / "fe" / "metrics.json"
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    serial_output = run_cmd(cfg, "eval")
    serial = metrics.read_bytes()
    monkeypatch.setattr(pipeline, "EPISODES_PER_WORKER", 1)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    slices = spy_forks(monkeypatch)
    assert run_cmd(cfg, "eval") == serial_output
    assert slices == [(2, 5), (5, 8)]  # this process plays (0, 2) of the 8 train tasks
    assert metrics.read_bytes() == serial


def test_collect_on_a_malformed_task_exits_1_naming_it(tmp_path, monkeypatch, capsys, restore_gc):
    cfg = write_config(tmp_path, "mt")
    run_cmd(cfg, "gen")
    path = tmp_path / "mt" / "tasks.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"split":"train"', '"split":"dev"')
    path.write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), "collect"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    assert capsys.readouterr().err == (f"error: {path}: task train0000: split must be one of "
                                       f"['train', 'val', 'test'], got 'dev'\n")
    assert not (tmp_path / "mt" / "phase1.jsonl").exists()


@pytest.mark.parametrize("content", [b'\xff\xfe{"seed": 1}', b'{"seed": 1'], ids=["not-utf8", "not-json"])
def test_an_unreadable_config_exits_2(tmp_path, monkeypatch, capsys, restore_gc, content):
    """The README's exit codes make a config that cannot be read a usage
    error, whatever the reason; a non-UTF-8 config used to exit 1."""
    path = tmp_path / "c.json"
    path.write_bytes(content)
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(path), "gen"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage error: cannot read config {path}: ")
    assert not (tmp_path / "out").exists()


def _truncate(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 2], encoding="utf-8")


def _drop(key: str):
    def edit(path: Path) -> None:
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc[key]
        path.write_text(json.dumps(doc), encoding="utf-8")

    return edit


def _put(key: str, value):
    def edit(path: Path) -> None:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")

    return edit


ACTIONS = "actions of ['nohelp', 'help1']"


@pytest.mark.parametrize("command,name,edit,cause", [
    ("annotate", "solution.json", _truncate, "JSONDecodeError: "),
    ("annotate", "solution.json", _drop("policy"), "KeyError: 'policy')"),
    ("eval", "solution.json", _truncate, "JSONDecodeError: "),
    ("eval", "solution.json", _drop("policy"), "KeyError: 'policy')"),
    ("eval", "helper.json", _truncate, "JSONDecodeError: "),
    ("eval", "helper.json", _drop("table"), "KeyError: 'table')"),
    ("annotate", "solution.json", _put("r", []), "DataError: r must be a non-empty list of numbers, got [])"),
    ("annotate", "solution.json", _put("policy", []), f"DataError: policy must map state keys to {ACTIONS})"),
    ("annotate", "solution.json", _put("policy", {"x": 5}), f"DataError: policy must map state keys to {ACTIONS})"),
    ("annotate", "solution.json", _put("usage", {"a": "b"}),
     "DataError: usage must map state keys to lists of 1 numbers)"),
    ("annotate", "solution.json", _put("success", {"a": "x"}), "DataError: success must map state keys to numbers)"),
    ("annotate", "solution.json", _put("value", {"a": None}), "DataError: value must map state keys to numbers)"),
    ("eval", "helper.json", _put("table", [["s", "help1"]]), f"DataError: table must map state keys to {ACTIONS})"),
    ("eval", "helper.json", _put("table", {"s": "help2"}), f"DataError: table must map state keys to {ACTIONS})"),
    ("eval", "helper.json", _put("fallback", "help"),
     "DataError: fallback must be one of ['nohelp', 'help1'], got \"help\")"),
    ("eval", "helper.json", _put("mode", "x"),
     "DataError: mode must be one of ['all_states', 'trajectory_only'], got \"x\")"),
], ids=["annotate-solution-truncated", "annotate-solution-no-policy", "eval-solution-truncated",
        "eval-solution-no-policy", "eval-helper-truncated", "eval-helper-no-table", "solution-r-empty",
        "solution-policy-a-list", "solution-policy-not-actions", "solution-usage-not-lists", "solution-success-text",
        "solution-value-null", "helper-table-a-list", "helper-table-not-actions", "helper-fallback-not-an-action",
        "helper-mode-unknown"])
def test_a_corrupt_solution_or_helper_exits_1_naming_its_file(tmp_path, monkeypatch, capsys, restore_gc,
                                                               command, name, edit, cause):
    """A solution.json or helper.json that is not JSON, lacks a key, or has a
    table of the wrong shape is named with the cause, as the JSONL loaders
    name theirs, and the command writes nothing."""
    cfg = write_config(tmp_path, "cs")
    run_chain(cfg, ("gen", "collect", "fit", "search", "annotate"))
    path = tmp_path / "cs" / name
    edit(path)
    written = tmp_path / "cs" / ("helper.json" if command == "annotate" else "metrics.json")
    written.unlink(missing_ok=True)
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), command])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed document ({cause}") and err.endswith(")\n"), err
    assert not written.exists()


def test_collect_refuses_a_repeated_task_id(tmp_path, monkeypatch, capsys, restore_gc):
    """Seeds, state keys and start keys all go by task id, so two tasks may
    not share one."""
    cfg = write_config(tmp_path, "dup")
    run_cmd(cfg, "gen")
    path = tmp_path / "dup" / "tasks.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert '"task_id":"train0001"' in lines[2]
    lines[2] = lines[2].replace('"task_id":"train0001"', '"task_id":"train0000"')
    path.write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), "collect"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {path}: task train0000: duplicate task_id\n"
    assert not (tmp_path / "dup" / "phase1.jsonl").exists()


def test_mcts_collect_plays_tasks_deeper_than_the_recursion_limit(tmp_path, monkeypatch, restore_gc):
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"seed": 1, "intervention": "mcts", "phase1_seeds": 1, "out": str(tmp_path / "long"),
                               "env": {"room_count": 2, "max_steps": 600, "hint_sizes": {"1": 1.0},
                                       "n_train": 1, "n_val": 0, "n_test": 0}}))
    for command in ("gen", "collect"):
        monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), command])
        cli()  # a failed command exits
    assert (tmp_path / "long" / "phase1.jsonl").exists()


def test_import_leaves_scipy_unloaded():
    # fixtures and oracle are test aids that no command imports; solver is the array core
    code = ("import sys, helpdp.cli; print(any(m.split('.')[0] in ('numpy', 'scipy') for m in sys.modules), "
            "'helpdp.fixtures' in sys.modules, 'helpdp.oracle' in sys.modules, 'helpdp.solver' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False False False False"


def test_import_loads_no_third_party_module():
    """``import helpdp.cli`` adds only standard-library and helpdp modules;
    the baseline is the interpreter's own start, whose site hooks may load
    others (certifi, _distutils_hack) before any code runs."""
    code = ("import sys; base = set(sys.modules); import helpdp.cli; "
            "print(sorted(m for m in set(sys.modules) - base "
            "if m.split('.')[0] not in sys.stdlib_module_names | {'helpdp'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def modules_after(config: Path, out: Path, *commands: str) -> set[str]:
    """The modules a fresh process holds after running ``commands`` in order
    through ``cli.main``."""
    code = ("import sys; from helpdp.cli import main; "
            "[main(['--config', sys.argv[1], '--out', sys.argv[2], c], standalone_mode=False) "
            "for c in sys.argv[3:]]; print(' '.join(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, str(config), str(out), *commands],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def numeric_libraries_after(config: Path, out: Path, *commands: str) -> list[str]:
    """Which of numpy and scipy a fresh process holds after running
    ``commands`` in order through ``cli.main``."""
    return sorted({m.split(".")[0] for m in modules_after(config, out, *commands)} & {"numpy", "scipy"})


# The helpdp modules each command loads besides cli, mdp and planner, which
# `import helpdp.cli` loads to check a config; in chain order, so each
# command finds the artifacts it reads.
COMMAND_MODULES = {
    "gen": {"env"},
    "collect": {"env", "pipeline", "rollouts"},
    "fit": {"rollouts"},
    "solve": {"env", "pipeline", "rollouts", "solver"},
    "search": {"env", "pipeline", "rollouts", "solver"},
    "annotate": {"env", "pipeline", "rollouts"},
    "eval": {"env", "pipeline", "rollouts"},
    "baseline": {"env", "pipeline", "rollouts"},
    "selfreg": {"env", "pipeline", "rollouts"},
}


def test_each_command_loads_only_the_helpdp_modules_it_calls(tmp_path):
    """Each command imports the modules it calls in its own body, so a
    process compiles and runs no helpdp source it does not use; the config
    check needs no env, since EnvConfig lives in mdp."""
    assert env.EnvConfig is mdp.EnvConfig and env.EnvError is mdp.EnvError

    def helpdp_after(*commands: str) -> set[str]:
        return {m.removeprefix("helpdp.") for m in modules_after(REFERENCE_CONFIG, tmp_path / "out", *commands)
                if m.startswith("helpdp.")}

    assert helpdp_after() == {"cli", "mdp", "planner"}
    for command, modules in COMMAND_MODULES.items():
        assert helpdp_after(command) == {"cli", "mdp", "planner"} | modules, command


@pytest.mark.parametrize("intervention", ["strong", "mcts"])
def test_only_the_solving_commands_load_numpy_and_scipy(tmp_path, intervention):
    """Only `search` and `solve` do array work; every other command, the
    MCTS scorer's exact enumeration included, runs without numpy or scipy."""
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["intervention"] = intervention
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert numeric_libraries_after(path, out, "gen", "collect", "fit") == []
    assert numeric_libraries_after(path, out, "search") == ["numpy", "scipy"]
    assert numeric_libraries_after(path, out, "annotate", "eval", "baseline", "selfreg") == []
    assert numeric_libraries_after(path, out, "solve") == ["numpy", "scipy"]


def test_reference_collect_stays_serial(tmp_path):
    """configs/reference.json collects 560 episodes, too few to pay for a
    fork, so collect runs in the one process and never imports pickle,
    which only a forking call of pipeline.fork_jobs does."""
    code = ("import sys; from helpdp.cli import main; "
            "[main(['--config', sys.argv[1], '--out', sys.argv[2], c], standalone_mode=False) "
            "for c in ('gen', 'collect')]; print('pickle' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(REFERENCE_CONFIG), str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_no_command_imports_multiprocessing(tmp_path):
    """Importing the CLI loads neither pickle nor multiprocessing, and
    collect, search and eval fork their workers with os.fork, here forced to
    fork whatever their inputs: multiprocessing never loads."""
    proc = subprocess.run([sys.executable, "-c", "import sys, helpdp.cli; "
                           "print('pickle' in sys.modules, 'multiprocessing' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False False"
    code = ("import sys; from helpdp import pipeline; from helpdp.cli import main; "
            "pipeline.EPISODES_PER_WORKER, pipeline.FORK_MIN_BYTES = 1, 0; "
            "pipeline._usable_cpus = lambda: 2; forks = []; fork_jobs = pipeline.fork_jobs; "
            "pipeline.fork_jobs = lambda jobs: forks.append(len(jobs)) or fork_jobs(jobs); "
            "[main(['--config', sys.argv[1], c], standalone_mode=False) for c in sys.argv[2:]]; "
            "print(forks, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(write_config(tmp_path, "mp")), *COMMANDS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[2, 2, 2] False"  # collect, search and eval each forked


def test_benchmark_wrap_targets_exist():
    """bench/worker.py wraps helpdp functions by name for its traced run; a
    deleted or renamed target must fail here, not in the benchmark."""
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import worker; "
            "worker.instrument(worker.Tracer('t')); print('wrapped')")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root / "bench")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "wrapped"


def test_benchmark_traced_chain_reports_no_failures(tmp_path):
    """bench/worker.py's traced run also reads what wrapped functions return
    (the length of a collected log, the size of a saved file, a search's
    trace); a changed return shape must fail here, not in the benchmark."""
    root = Path(__file__).resolve().parents[1]
    spec = {"configs": [str(REFERENCE_CONFIG)], "cwds": [str(tmp_path)]}
    code = ("import json, sys; sys.path[:0] = sys.argv[2:]; import worker; "
            "tr = worker.Tracer('t'); worker.instrument(tr); res = worker.run_chains(json.loads(sys.argv[1]), tr); "
            "print(json.dumps({'failures': res['failures'], 'spans': sorted({s['name'] for s in tr.spans})}))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(spec), str(root / "src"), str(root / "bench")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["failures"] == []
    assert {f"cli.{cmd}" for cmd in ("gen", "collect", "fit", "search", "annotate", "eval")} <= set(res["spans"])


def test_benchmark_exact_step_keeps_its_fingerprint():
    """bench/worker.py's exact step calls planner.solve, expected_usage and
    decomposition_residual directly on the reference env's exact model; its
    fingerprint must not move under a refactor of those functions."""
    root = Path(__file__).resolve().parents[1]
    env_cfg = json.loads(REFERENCE_CONFIG.read_text())["env"]
    spec = {"env": env_cfg, "seed": 11, "r": 0.2, "residual_tol": 1e-9}
    code = ("import json, sys; sys.path[:0] = sys.argv[2:]; import worker; "
            "res = worker.run_exact(json.loads(sys.argv[1]), None); "
            "print(json.dumps({'failures': res['failures'], 'fingerprint': res['fingerprint']}))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(spec), str(root / "src"),
                           str(root / "bench")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["failures"] == []
    assert res["fingerprint"]["expected_usage"] == 0.8289813255931714
    assert res["fingerprint"]["solution_sha256"] == (
        "550dbd25481fc69311bcfe22ecfec4b549f81520ca2eda3423a055bde3105ef3")


def test_reference_search_factorizes_each_distinct_policy_once(tmp_path, monkeypatch):
    """search on configs/reference.json asks for 90 exact policy evaluations
    (probes plus polish rounds) of 10 distinct policies; each distinct
    policy costs one sparse LU factorization, and the rest are lookups."""
    from scipy.sparse import linalg

    from helpdp import solver

    monkeypatch.chdir(tmp_path)
    for cmd in ("gen", "collect", "fit"):
        main(["--config", str(REFERENCE_CONFIG), "--out", "out", cmd], standalone_mode=False)
    factorizations = 0
    policies = []
    real_splu, real_eval = linalg.splu, solver._exact_eval

    def counting_splu(*args, **kwargs):
        nonlocal factorizations
        factorizations += 1
        return real_splu(*args, **kwargs)

    def recording_eval(comp, cfg, choice):
        policies.append(choice.tobytes())
        return real_eval(comp, cfg, choice)

    monkeypatch.setattr(linalg, "splu", counting_splu)
    monkeypatch.setattr(solver, "_exact_eval", recording_eval)
    main(["--config", str(REFERENCE_CONFIG), "--out", "out", "search"], standalone_mode=False)
    assert len(policies) == 90
    assert factorizations == len(set(policies)) == 10


def _reference_digests(tmp_path, monkeypatch, commands, names, config=REFERENCE_CONFIG) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)  # with out="out" the provenance hash is path-free
    for cmd in commands:
        main(["--config", str(config), "--out", "out", cmd], standalone_mode=False)
    return {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in names}


def test_reference_search_artifacts_are_golden(tmp_path, monkeypatch):
    """gen -> collect -> fit -> search on configs/reference.json reproduces the
    recorded bytes; any refactor of the chain must keep them."""
    digest = _reference_digests(tmp_path, monkeypatch, ("gen", "collect", "fit", "search"),
                                ("tasks.jsonl", "phase1.jsonl", "counts.jsonl", "solution.json", "search.json"))
    assert digest == {
        "tasks.jsonl": "e478250249ab26a19980830d843fd5f88f11ceeb05f0036ab8eff04728f13d9f",
        "phase1.jsonl": "c7a944457cc922cb367c6ea082bbc84bf1db3323d72a5ddfd6541c3cec269b6e",
        "counts.jsonl": "cdc05fcf732ed4b3ae11ee5ae2935efa9a49c46e8d52e1b4c5b9ef1a0f7b397e",
        "solution.json": "65621cdfc4f34518d765f687ded67ad5dae4f9591d10ba3fac79c6cf8f08a4c9",
        "search.json": "ae708a56fbdbe64b46b6929c92a92906cb4de8b293ddd7feb0c4b54dcdc020c7",
    }


def test_reference_deploy_artifacts_are_golden(tmp_path, monkeypatch):
    """The whole chain on configs/reference.json, through annotate and eval,
    reproduces the recorded helper and metrics bytes."""
    digest = _reference_digests(tmp_path, monkeypatch, COMMANDS, ("helper.json", "metrics.json"))
    assert digest == {
        "helper.json": "9bfc0258cc362d20e2060bf524c07251a166a8c1112d3fcccb62d2b5c39778b5",
        "metrics.json": "bba5d325251a1089783742ee063e749e8b78aeae86d03c6dfd0d7c7f0c1789d8",
    }


def test_reference_trajectory_helper_is_golden(tmp_path, monkeypatch):
    """A trajectory_only annotate on configs/reference.json keeps the policy
    on the closure of each train start: 142 recorded entries."""
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["helper_mode"] = "trajectory_only"
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    for cmd in ("gen", "collect", "fit", "search", "annotate"):
        main(["--config", str(path), "--out", "out", cmd], standalone_mode=False)
    blob = (tmp_path / "out" / "helper.json").read_bytes()
    assert len(json.loads(blob)["table"]) == 142
    assert hashlib.sha256(blob).hexdigest() == (
        "67293cd0ab68de84c36e3c651aae73943b53d38a05253db36a6a3f275815f46b")


def test_reference_selfreg_is_golden(tmp_path, monkeypatch):
    """selfreg on configs/reference.json scores every state its val/test
    rollouts reach by the exact model of those tasks (a state off it would
    raise DataError) and reproduces the recorded bytes."""
    digest = _reference_digests(tmp_path, monkeypatch, ("gen", "selfreg"), ("selfreg.json",))
    assert digest == {"selfreg.json": "ba07806bcc1b9026d7183d6b423027d45023355c399ed959b625cf56b2be51ad"}


@pytest.mark.parametrize("kind,plan,golden", [
    ("both", "solve", {
        "phase1.jsonl": "d81f6e198130aea7df8e27ebae1b13a8454dfe47efe2a2367a79ddb60cfe1960",
        "counts.jsonl": "95deefb0098ce8f1616f310283fbd2da891fd52e10e995d2c8f6929421b2a50b",
        "helper.json": "f5499477d1abdf6f638499fd6d16c646ebac8be5c9d667a9e08593774666b7f6",
        "metrics.json": "37f0e9005f37dadf7fb965b4645b1f8176ddb04ea232bf3447f24643eea93410",
        "baseline.json": "5c3971be11f903aa53806446bf39076d25141d226187eacdcf305698feb52780",
    }),
    ("mcts", "search", {
        "phase1.jsonl": "40270560350851846a533a266315d8bb318995444e44bc10cb2583da430c5f9a",
        "helper.json": "5f9ce8a44a2b55a5c8549e3c9b22c5851d10e251d6d9714f5fde3286832306a1",
        "metrics.json": "20a7b871458d808ca4aaf212e6e6a550cb85ea2763759b85bbd6a1ba9db4e9f0",
        "baseline.json": "4b3edf54ee184cebbf67925c9944fd388b3e7ac153dded57f726e8c5655df448",
    }),
])
def test_reference_mcts_rollouts_are_golden(tmp_path, monkeypatch, kind, plan, golden):
    """The UCT picker's proposals, visit counts and random draws decide every
    MCTS step of collect, eval and baseline; with intervention 'both' (two
    costs, solved) and 'mcts' (searched) on configs/reference.json those
    rollouts reproduce the recorded bytes.  The scorer's p* comes from
    env.success_probability, so no command enumerates the exact model."""
    from helpdp import env

    def enumerated(*args, **kwargs):
        raise AssertionError("a command enumerated the exact model")

    monkeypatch.setattr(env, "exact_models", enumerated)
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["intervention"] = kind
    if kind == "both":
        config["planner"]["r"] = [0.3, 0.3]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(config))
    commands = ("gen", "collect", "fit", plan, "annotate", "eval", "baseline")
    assert _reference_digests(tmp_path, monkeypatch, commands, tuple(golden), path) == golden


@pytest.mark.parametrize("kind", ["strong", "both"])
def test_fit_pass_equals_the_per_episode_reference(tmp_path, kind):
    """fit_log's one pass over a saved log gives exactly the counts of
    RolloutLog.load and to_count_table, on seeded phase-1 logs of the
    reference tasks with one and two help types."""
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["intervention"] = kind
    if kind == "both":
        config["planner"]["r"] = [0.3, 0.3]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(config))
    run = Run(str(path), None, str(tmp_path / "out"))
    train = generate_tasks(run.env, run.seed).train
    log = pipeline.collect_phase1(list(train), run.interventions(), run.seed,
                                  n_seeds=run.phase1_seeds, eta=run.env.eta)
    saved = tmp_path / "phase1.jsonl"
    log.save(saved, header=run.provenance)
    table = fit_log(saved)
    branches = {"nohelp", "help1", "help2"} if kind == "both" else {"nohelp", "help1"}
    assert {a for (_, a, _), _ in table.items()} == branches
    assert list(table.items()) == list(RolloutLog.load(saved).to_count_table().items())


def _broken_log(tmp_path, edit) -> Path:
    """A small run's config after gen and collect, with ``edit`` applied to
    the first episode record of its phase1.jsonl (``None`` keeps only the header)."""
    cfg = write_config(tmp_path, "bad")
    for cmd in ("gen", "collect"):
        run_cmd(cfg, cmd)
    log = tmp_path / "bad" / "phase1.jsonl"
    header, first, *rest = log.read_text(encoding="utf-8").splitlines(keepends=True)
    if edit is None:
        log.write_text(header, encoding="utf-8")
    else:
        rec = json.loads(first)
        edit(rec)
        log.write_text(header + json.dumps(rec) + "\n" + "".join(rest), encoding="utf-8")
    return cfg


def _set(rec, *path_and_value):
    *path, last, value = path_and_value
    target = rec
    for key in path:
        target = target[key]
    target[last] = value


@pytest.mark.parametrize("edit,message", [
    (lambda rec: _set(rec, "steps", 0, 0, "room=0|outcome=success"),
     "terminal source state: 'room=0|outcome=success'"),
    (lambda rec: _set(rec, "steps", 0, 1, "help"), "unknown action 'help'"),
    (lambda rec: _set(rec, "outcome", "draw"), "rollout without terminal outcome: 'draw'"),
    (lambda rec: _set(rec, "steps", 0, ["s0", "nohelp", "explore", "x"]), "malformed record"),
    (lambda rec: _set(rec, "steps", "s0"), "malformed record"),
    (lambda rec: _set(rec, "final_state", None), "final state must be a string"),
    (None, "no episodes"),
], ids=["terminal-source", "unknown-action", "outcome", "step-shape", "steps-shape", "final-state", "empty"])
def test_fit_refuses_a_malformed_log(tmp_path, monkeypatch, capsys, restore_gc, edit, message):
    """Every check of the per-episode path still makes fit exit 1, and the
    error names the log and the episode record; fit writes nothing."""
    cfg = _broken_log(tmp_path, edit)
    first = None if edit is None else json.loads(
        (tmp_path / "bad" / "phase1.jsonl").read_text(encoding="utf-8").splitlines()[1])
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), "fit"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "bad" / "phase1.jsonl") in err and message in err
    if first is not None:
        assert f"episode {first['task_id']}:{first['seed']}:" in err
    assert not (tmp_path / "bad" / "counts.jsonl").exists()


def test_fit_refuses_a_record_without_task_id(tmp_path, monkeypatch, capsys, restore_gc):
    """One misspelt task_id used to drop that episode without a word."""
    cfg = _broken_log(tmp_path, lambda rec: rec.update(task=rec.pop("task_id")))
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), "fit"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'bad' / 'phase1.jsonl'}:2: expected a JSON object with 'task_id'" in err


def test_fit_builds_no_episode_objects(tmp_path, monkeypatch):
    """fit reads the log in one pass of its own; the per-episode loader is
    only the reference the tests compare against."""
    cfg = write_config(tmp_path, "noload")
    for cmd in ("gen", "collect"):
        run_cmd(cfg, cmd)

    def refuse(*args, **kwargs):
        raise AssertionError("fit called RolloutLog.load")

    monkeypatch.setattr(RolloutLog, "load", refuse)
    run_cmd(cfg, "fit")
    saved = tmp_path / "noload" / "phase1.jsonl"
    monkeypatch.undo()
    reference = RolloutLog.load(saved)
    assert list(CountTable.load(tmp_path / "noload" / "counts.jsonl").items()) == list(
        reference.to_count_table().items())


@pytest.fixture(scope="module")
def fitted(tmp_path_factory) -> dict[str, Path]:
    """counts.jsonl of two fitted runs: the reference config (K = 1) and a
    small ``intervention: "both"`` run (K = 2)."""
    root = tmp_path_factory.mktemp("fitted")
    both = write_config(root, "both", intervention="both", planner={"r": [0.3, 0.3]})
    for cmd in ("gen", "collect", "fit"):
        run_cmd(REFERENCE_CONFIG, "--out", str(root / "reference"), cmd)
        run_cmd(both, cmd)
    return {"reference": root / "reference" / "counts.jsonl", "both": root / "both" / "counts.jsonl"}


def _counts_input(fitted: dict[str, Path], case: str, tmp_path: Path) -> Path:
    if case in ("reference", "both"):
        return fitted[case]
    path = tmp_path / "counts.jsonl"
    table = CountTable.load(fitted["reference"])
    if case == "truncated":  # half the states lose their rows, so successors are remapped
        table = fixtures.truncate_counts(table, 0.5, seed=1)
        for (s, a, _), _ in table.items():  # and the remap target is also logged as it is
            table.record(s, a, pipeline.UNKNOWN_FAILURE)
        table.save(path)
    else:  # "reordered": records in reverse order, and one record's count split in two
        records = [{"state": s, "action": a, "next": s2, "count": c} for (s, a, s2), c in table.items()]
        first = next(r for r in records if r["count"] > 1)
        records.append(dict(first, count=1))
        first["count"] -= 1
        path.write_text("".join(json.dumps(r) + "\n" for r in reversed(records)), encoding="utf-8")
    return path


@pytest.mark.parametrize("case,n_help", [
    ("reference", 1), ("both", 2), ("both", 1), ("truncated", 1), ("reordered", 1),
])
def test_solvable_rows_compile_to_the_reference_arrays(fitted, tmp_path, case, n_help):
    """The one-pass reader and the CountTable -> normalize ->
    restrict_to_solvable chain compile to equal arrays.  At K = 1 the help2
    rows of a "both" log neither keep nor drop a state, but their terminal
    successors stay in the support."""
    from helpdp import solver

    path = _counts_input(fitted, case, tmp_path)
    raw = normalize(CountTable.load(path))
    model = restrict_to_solvable(raw, n_help)
    rows = pipeline.solvable_rows(path, n_help)
    got, want = solver._compile(rows, n_help), solver._compile(model, n_help)
    assert got.states == want.states
    for name in ("indptr", "indices", "data"):
        assert getattr(got.P, name).tolist() == getattr(want.P, name).tolist()
    assert got.succ.tolist() == want.succ.tolist()
    assert got.terminals == want.terminals
    reference = solver._rows(model, n_help)
    assert (rows.succ, rows.exits) == (reference.succ, reference.exits)
    assert rows.observed == len(raw.nonterminal_states())
    assert len(rows.states) < rows.observed
    if case == "truncated":
        assert pipeline.UNKNOWN_FAILURE in rows.terminals
    if case == "both" and n_help == 1:
        assert any(a == "help2" for _, a in raw.probs)


def _broken_counts(tmp_path: Path, case: str) -> tuple[Path, Path]:
    """A small run's config after gen, collect and fit, and its counts.jsonl
    broken as ``case`` says."""
    cfg = write_config(tmp_path, "badc")
    for cmd in ("gen", "collect", "fit"):
        run_cmd(cfg, cmd)
    path = tmp_path / "badc" / "counts.jsonl"
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    if case == "terminal-source":
        records[0]["state"] = "room=0|outcome=success"
    elif case.startswith("count="):
        records[0]["count"] = json.loads(case[len("count="):])
    elif case == "unknown-action":
        records[0]["action"] = "help"
    elif case in ("state=7", "next=7"):
        records[0][case[:-2]] = 7
    elif case == "no-state":
        del records[0]["state"]
    elif case == "header-only":
        records = []
    else:  # "no-coverage": no help1 row anywhere
        records = [r for r in records if r["action"] != "help1"]
    path.write_text(header + "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return cfg, path


def _force_read(monkeypatch, cpus: int) -> list:
    """Every counts.jsonl is large enough to fork for, and ``cpus`` CPUs are
    usable; returns the arguments of each read handed to a worker."""
    monkeypatch.setattr(pipeline, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    return spy_forks(monkeypatch)


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "forked"])
@pytest.mark.parametrize("case", [
    "terminal-source", "count=0", "count=-1", "count=1.5", "count=true", "unknown-action", "no-state",
    "state=7", "next=7", "header-only", "no-coverage",
])
def test_search_refuses_malformed_counts_like_the_reference(tmp_path, monkeypatch, capsys, restore_gc,
                                                            cpus, case):
    """search exits 1 with the message CountTable.load, normalize or
    restrict_to_solvable gives for the same file, and writes nothing.  A
    refused record is named with the path; a number as state or next used
    to end in a raw TypeError."""
    cfg, path = _broken_counts(tmp_path, case)
    forks = _force_read(monkeypatch, cpus)
    with pytest.raises(ValueError) as ref:
        restrict_to_solvable(normalize(CountTable.load(path)), 1)
    if case not in ("header-only", "no-coverage"):
        assert str(ref.value).startswith(f"{path}:{2 if case == 'no-state' else ' record ('}")
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), "search"])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {ref.value}\n"
    assert forks == ([(path, 1)] if cpus == 2 else [])
    assert not (tmp_path / "badc" / "solution.json").exists()
    assert not (tmp_path / "badc" / "search.json").exists()


@pytest.mark.parametrize("name,command,overrides,field,value,why", [
    ("counts.jsonl", "annotate", {"helper_mode": "trajectory_only"}, "count", 1.5,
     "count must be a positive integer, got 1.5"),
    ("counts.jsonl", "annotate", {"helper_mode": "trajectory_only"}, "state", 7, "state must be a string, got 7"),
], ids=["counts-count", "counts-state"])
def test_load_errors_name_the_file_and_the_record(tmp_path, monkeypatch, capsys, restore_gc,
                                                 name, command, overrides, field, value, why):
    """CountTable.load (annotate, trajectory_only) refuses a bad record with
    the path and the record's state and action in the message."""
    cfg = write_config(tmp_path, "badr", **overrides)
    for cmd in ("gen", "collect", "fit", "search"):
        run_cmd(cfg, cmd)
    path = tmp_path / "badr" / name
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(first)
    rec[field] = value
    path.write_text(header + json.dumps(rec) + "\n" + "".join(rest), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["helpdp", "--config", str(cfg), command])
    with pytest.raises(SystemExit) as exc:
        cli()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and why in err
    assert repr(rec["state"]) in err and repr(rec["action"]) in err


class TestForkedSearch:
    """search and solve read counts.jsonl in a forked worker while numpy and
    scipy load, once the file is large enough; here every file is."""

    @pytest.fixture
    def forks(self, monkeypatch) -> list:
        return _force_read(monkeypatch, 2)

    @pytest.mark.parametrize("command", ["search", "solve"])
    def test_forked_read_writes_the_inline_bytes(self, tmp_path, monkeypatch, forks, command):
        cfg = write_config(tmp_path, "fs")
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)
        out = tmp_path / "fs"
        names = ("solution.json", "search.json") if command == "search" else ("solution.json",)
        forked_output = run_cmd(cfg, command)
        assert forks == [(out / "counts.jsonl", 1)]
        forked = {name: (out / name).read_bytes() for name in names}
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        assert run_cmd(cfg, command) == forked_output
        assert len(forks) == 1  # the inline read forked nothing
        assert {name: (out / name).read_bytes() for name in names} == forked

    def test_worker_error_reaches_the_caller_with_its_type(self, tmp_path, forks):
        _, path = _broken_counts(tmp_path, "terminal-source")
        ran = []
        with pytest.raises(DataError, match=re.escape("terminal source state: 'room=0|outcome=success'")):
            pipeline.read_solvable_rows(path, 1, lambda: ran.append(True))
        assert forks == [(path, 1)] and ran == [True]

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "forked"])
    def test_search_and_solve_build_no_count_table_or_transition_model(self, tmp_path, monkeypatch, cpus):
        from helpdp import cli as climod, mdp

        cfg = write_config(tmp_path, "nb")
        for cmd in ("gen", "collect", "fit"):
            run_cmd(cfg, cmd)

        def refuse(*args, **kwargs):
            raise AssertionError("built the dict-layer model")

        forks = _force_read(monkeypatch, cpus)
        monkeypatch.setattr(CountTable, "load", refuse)
        monkeypatch.setattr(mdp, "normalize", refuse)
        monkeypatch.setattr(climod, "normalize", refuse)
        monkeypatch.setattr(pipeline, "restrict_to_solvable", refuse)
        monkeypatch.setattr(mdp.TransitionModel, "__post_init__", refuse)
        run_cmd(cfg, "search")
        run_cmd(cfg, "solve")
        assert len(forks) == (2 if cpus == 2 else 0)  # search's read and solve's
