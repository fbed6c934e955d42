"""Batch command-line front end.

Every command reads a JSON run config, derives all randomness from its
single seed, and writes artifacts under the output directory.  Outputs
embed the config hash and seed; reruns with unchanged inputs are
byte-identical.  Every run setting comes from the config: ``--seed`` and
``--out`` are folded into it before it is hashed, so the hash names the run.

Each command imports the other helpdp modules it calls in its own body, so
a process compiles and runs only those: importing this module loads
``mdp`` and ``planner`` alone, enough to check a config.

Exit codes: 0 success, 2 invalid usage or config, 3 infeasible budget,
1 any other error.
"""
from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import planner
from .mdp import (NOHELP, CountTable, EnvConfig, EnvError, TransitionModel, _dump, is_number, is_whole, normalize,
                  read_json)
from .mdp import estimate_success  # noqa: F401  (bench/worker.py traces it by this name)

if TYPE_CHECKING:
    from . import env as envmod

HELP_TYPES = {"strong": 1, "mcts": 1, "both": 2}  # K, the help types of each intervention kind


def _fixed(value) -> tuple:
    return value, f"is fixed at {_dump(value)}", lambda got: got == value


_SEEDS = (3, "must be an integer >= 1", lambda got: is_whole(got) and got >= 1)

# Every config key: its default, what a given value must be, and the check of a
# given value (defaults are not checked).  `seed` must be given; `planner.r` and
# `planner.budget` may be left out, and the one command that needs them refuses.
KEYS = {
    "seed": (None, "must be an integer", is_whole),
    "out": ("out", "must be a string", lambda got: isinstance(got, str)),
    "env": ({}, "must be an object", lambda got: isinstance(got, dict)),
    "phase1_seeds": _SEEDS,
    "schedule": _fixed(None),  # collect plays pipeline.phase1_schedule(K)
    "planner": ({}, "must be an object", lambda got: isinstance(got, dict)),
    "intervention": ("strong", f"must be one of {list(HELP_TYPES)}",
                     lambda got: isinstance(got, str) and got in HELP_TYPES),
    "helper_mode": ("all_states", f"must be one of {list(planner.HELPER_MODES)}",
                    lambda got: got in planner.HELPER_MODES),
    "eval_seeds": _SEEDS,
    "baseline_probs": ([0.0, 0.3, 1.0], "must be a list of numbers in [0, 1]",
                       lambda got: isinstance(got, list) and all(is_number(p) and 0 <= p <= 1 for p in got)),
}
PLANNER_KEYS = {  # gamma is 1 because the budget counts calls
    "gamma": _fixed(1.0),
    "epsilon": _fixed(planner.EPSILON),
    "max_iters": _fixed(planner.MAX_SWEEPS),
    "variant": _fixed("value_consistent"),  # the one policy rule: help iff dS > r.dM
    "r": (None, "must be a number >= 0 or a list of them",  # K = 1 defaults to 0.5
          lambda got: all(is_number(ri) and ri >= 0 for ri in (got if isinstance(got, list) else [got]))),
    "budget": (None, "must be a number >= 0", lambda got: is_number(got) and got >= 0),
    "bounds": ([0.0, 10.0], "must be [lo, hi] with 0 <= lo < hi",
               lambda got: isinstance(got, list) and len(got) == 2 and all(map(is_number, got))
               and 0 <= got[0] < got[1]),
}


def _read(section: dict, keys: dict, prefix: str = "") -> dict:
    """The value of every key of ``keys``; an unknown or bad key is a usage error."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise click.UsageError(f"{prefix}{unknown[0]} is unknown; the keys are {sorted(keys)}")
    for key, (_, rule, ok) in keys.items():
        if key in section and not ok(section[key]):
            raise click.UsageError(f"{prefix}{key} {rule}, got {section[key]!r}")
    return {key: section.get(key, default) for key, (default, _, _) in keys.items()}


class Run:
    """The config, read and checked once, plus the paths and provenance shared
    by commands; a bad config exits 2 before any command body runs."""

    def __init__(self, config_path: str, seed: int | None, out: str | None) -> None:
        try:
            config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config {config_path}: {exc}")
        if not isinstance(config, dict):
            raise click.UsageError(f"config {config_path} must be an object")
        if seed is not None:
            config["seed"] = seed
        if out is not None:
            config["out"] = out
        if "seed" not in config:
            raise click.UsageError("config must provide a seed")
        top = _read(config, KEYS)
        self.seed, self.intervention = top["seed"], top["intervention"]
        self.n_help = HELP_TYPES[self.intervention]  # K comes from `intervention` alone
        self.phase1_seeds, self.eval_seeds = top["phase1_seeds"], top["eval_seeds"]
        self.baseline_probs, self.helper_mode = top["baseline_probs"], top["helper_mode"]
        try:
            self.env = EnvConfig.from_dict(top["env"])
        except EnvError as exc:
            raise click.UsageError(f"env.{exc}")
        p = _read(top["planner"], PLANNER_KEYS, "planner.")
        r, self.reward = p["r"], None  # a K = 2 run without r can do all but `solve`
        if r is None and self.n_help == 1:
            r = 0.5
        if r is not None:
            r = tuple(r) if isinstance(r, list) else (float(r),)
            if len(r) != self.n_help:
                raise click.UsageError(f"planner.r gives {len(r)} help cost(s), but intervention "
                                       f"{self.intervention!r} has {self.n_help} help type(s)")
            self.reward = planner.RewardConfig(r=r)
        self.budget, self.bounds = p["budget"], tuple(p["bounds"])
        # made by `gen` or `write_json`, so a refused command leaves no directory
        self.out = Path(top["out"])
        self.config_hash = hashlib.sha256(_dump(config).encode()).hexdigest()[:16]

    @property
    def provenance(self) -> dict:
        return {"config_hash": self.config_hash, "seed": self.seed}

    def path(self, name: str) -> Path:
        return self.out / name

    def write_json(self, name: str, doc: dict) -> Path:
        doc = dict(doc)
        doc["provenance"] = self.provenance
        self.out.mkdir(parents=True, exist_ok=True)
        p = self.path(name)
        p.unlink(missing_ok=True)  # replace rather than truncate an earlier run's file
        p.write_text(_dump(doc) + "\n", encoding="utf-8")
        return p

    def interventions(self) -> list:
        """The configured executors; the MCTS scorer computes p* of a state
        only when a pick asks for it."""
        from . import env as envmod, pipeline

        strong = pipeline.StrongActorIntervention(self.env.eta_strong)
        if self.intervention == "strong":
            return [strong]
        mcts = pipeline.MctsIntervention(_mcts_q(envmod.success_probability(self.env.eta), self.seed))
        return [strong, mcts] if self.intervention == "both" else [mcts]

    def require(self, name: str, producer: str) -> Path:
        """Path of an upstream artifact; a missing one is a usage error."""
        p = self.path(name)
        if not p.exists():
            raise click.UsageError(f"{p} missing; run {producer} first")
        return p

    def load_tasks(self) -> envmod.TaskSet:
        from . import env as envmod

        return envmod.TaskSet.load(self.require("tasks.jsonl", "`gen`"))

    def load_model(self) -> TransitionModel:
        from . import pipeline

        cp = self.require("counts.jsonl", "`fit`")
        return pipeline.restrict_to_solvable(normalize(CountTable.load(cp)), self.n_help)

    def load_rows(self) -> planner.ModelRows:
        """``load_model`` laid out as the solver's rows, read in one pass
        (``pipeline.solvable_rows``) while this process imports numpy and
        scipy; a large file is read by a forked worker meanwhile."""
        from . import pipeline

        cp = self.require("counts.jsonl", "`fit`")
        return pipeline.read_solvable_rows(cp, self.n_help, planner.import_solver)

    def load_solution(self) -> planner.Solution:
        return planner.load_solution(self.require("solution.json", "`solve` or `search`"))

    def start_keys(self, tasks) -> list[str]:
        """Start state keys of ``tasks`` in order; every command that averages
        usage or walks the policy takes its starts from here."""
        from . import env as envmod

        return [envmod.initial_state(t).key() for t in tasks]


def _mcts_q(p_star, seed: int):
    """Noisy post-action success score used by the MCTS intervention: the
    exact p* of the successor (``env.success_probability``) plus seeded noise."""
    from . import env as envmod, pipeline

    def q(state: envmod.EnvState, action: str) -> float:
        nxt = envmod.env_step(state, action)
        rng = random.Random(pipeline.derive_seed(seed, "q", nxt.key(), action))
        return min(1.0, max(0.0, p_star(nxt) + rng.uniform(-0.05, 0.05)))

    return q


def _require_tasks(run: Run, command: str, *keys: str) -> None:
    """``gen`` may leave the val or test split empty, since the main chain
    never plays them; a command that does refuses such a run up front."""
    for key in keys:
        if getattr(run.env, key) == 0:
            raise click.UsageError(f"{command} needs env.{key} >= 1, got 0")


pass_run = click.make_pass_decorator(Run)


@click.group()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Override the output directory.")
@click.pass_context
def main(ctx: click.Context, config_path: str, seed: int | None, out: str | None) -> None:
    """Budget-aware intervention planning toolkit."""
    ctx.obj = Run(config_path, seed, out)


@main.command()
@pass_run
def gen(run: Run) -> None:
    """Generate the train/val/test taskset."""
    from . import env as envmod

    taskset = envmod.generate_tasks(run.env, run.seed)
    run.out.mkdir(parents=True, exist_ok=True)
    taskset.save(run.path("tasks.jsonl"), header=run.provenance)
    click.echo(
        f"tasks train={len(taskset.train)} val={len(taskset.val)} test={len(taskset.test)}"
    )


@main.command()
@pass_run
def collect(run: Run) -> None:
    """Randomized-intervention collection over the train split."""
    from . import pipeline

    taskset = run.load_tasks()
    n = pipeline.write_phase1(run.path("phase1.jsonl"), run.provenance, list(taskset.train),
                              run.interventions(), run.seed, n_seeds=run.phase1_seeds, eta=run.env.eta)
    click.echo(f"collected {n} episodes")


@main.command()
@pass_run
def fit(run: Run) -> None:
    """Estimate transition counts from the log."""
    from . import rollouts

    table = rollouts.fit_log(run.require("phase1.jsonl", "`collect`"))
    table.save(run.path("counts.jsonl"), header=run.provenance)
    click.echo(f"fit {len(table)} transition rows")


def _r_label(sol: planner.Solution) -> float | list[float]:
    return sol.r[0] if len(sol.r) == 1 else list(sol.r)


def _require_converged(sol: planner.Solution) -> None:
    """``annotate`` refuses an unconverged solution, so no command writes one."""
    if not sol.converged:
        raise planner.PlannerError(
            f"solution at r={_r_label(sol)} did not converge in {sol.iterations_run} sweeps"
        )


def _summary(sol: planner.Solution) -> str:
    eu = sum(sol.expected_usage) if sol.expected_usage else 0.0
    return f"r={_r_label(sol)} E[U]={eu:.6f} converged={sol.converged} iters={sol.iterations_run}"


@main.command()
@pass_run
def solve(run: Run) -> None:
    """Solve the fixed-cost planning problem on the fitted model."""
    if run.reward is None:
        raise click.UsageError(f"solve needs planner.r: intervention {run.intervention!r} has 2 help types")
    sol = planner.solve(run.load_rows(), None, run.reward)
    _require_converged(sol)
    starts = run.start_keys(run.load_tasks().train)
    sol = dataclasses.replace(sol, expected_usage=planner.expected_usage(sol, starts))
    run.write_json("solution.json", planner.solution_to_dict(sol))
    click.echo(_summary(sol))


@main.command()
@pass_run
def search(run: Run) -> None:
    """Bisect the help cost until expected usage fits the budget."""
    if run.n_help != 1:
        raise click.UsageError(f"search bisects one help cost, but intervention {run.intervention!r} "
                               f"has {run.n_help} help types; use `solve` with planner.r")
    if run.budget is None:
        raise click.UsageError("search needs planner.budget")
    rows = run.load_rows()
    starts = run.start_keys(run.load_tasks().train)
    # reward_search sets r at every probe
    result = planner.reward_search(rows, float(run.budget), run.bounds, starts, run.reward)
    run.write_json("solution.json", planner.solution_to_dict(result.solution))
    run.write_json(
        "search.json",
        {"budget": run.budget, "r": result.r, "expected_usage": result.solution.expected_usage[0],
         "trace": [[r, eu] for r, eu in result.trace]},
    )
    click.echo(_summary(result.solution))


@main.command()
@pass_run
def annotate(run: Run) -> None:
    """Distill the solved policy into a helper lookup table."""
    from . import pipeline

    sol = run.load_solution()
    starts = model = None
    if run.helper_mode == "trajectory_only":  # the only mode that walks the model from the train starts
        starts = run.start_keys(run.load_tasks().train)
        model = run.load_model()
    helper = pipeline.build_helper(sol, starts, model, mode=run.helper_mode)
    run.write_json(
        "helper.json",
        {"mode": helper.training_mode, "fallback": helper.fallback, "table": helper.table},
    )
    click.echo(f"helper mode={run.helper_mode} states={len(helper.table)}")


@main.command("eval")
@pass_run
def eval_cmd(run: Run) -> None:
    """Deploy the helper on the train tasks (fresh seeds) with a
    seen/unseen breakdown; the lookup table cannot generalize across task
    identities, so the deployment split is the one the policy was solved
    for."""
    from . import pipeline
    from .rollouts import RolloutLog

    taskset = run.load_tasks()
    helper = read_json(run.require("helper.json", "`annotate`"), lambda doc: pipeline.HelperPolicy(
        table=doc["table"], training_mode=doc["mode"], fallback=doc["fallback"]))
    sol = run.load_solution()
    tasks = {t.task_id: t for t in taskset.train}
    starts = dict(zip(tasks, run.start_keys(taskset.train)))
    seen_ids, unseen_ids = pipeline.split_seen_unseen(starts, sol)
    headline, log = pipeline.evaluate(
        helper.as_decider(), list(taskset.train), run.interventions(), run.seed, n_seeds=run.eval_seeds,
        eta=run.env.eta, expected=planner.expected_usage(sol, list(starts.values())), seed_salt="eval-all")
    report = {"all": headline.to_dict()}
    for name, ids in (("seen", seen_ids), ("unseen", unseen_ids)):
        if not ids:
            report[name] = None
            continue
        chosen = set(ids)
        subset = RolloutLog([ep for ep in log if ep.task_id in chosen])
        eu = planner.expected_usage(sol, [starts[i] for i in ids])
        report[name] = pipeline.metrics_from_log(
            subset, [tasks[i] for i in ids], len(headline.usage), eu).to_dict()
    run.write_json("metrics.json", report)
    eu = headline.expected_usage or ()
    click.echo(
        f"SR={headline.sr:.4f} SPL={headline.spl:.4f} L={headline.length:.3f} "
        f"U={[round(u, 4) for u in headline.usage]} EU={[round(u, 4) for u in eu]} "
        f"seen={len(seen_ids)} unseen={len(unseen_ids)}"
    )


@main.command()
@pass_run
def baseline(run: Run) -> None:
    """Random-trigger baselines on the test split."""
    from . import pipeline

    _require_tasks(run, "baseline", "n_test")
    taskset = run.load_tasks()
    interventions = run.interventions()
    report = {}
    for p in run.baseline_probs:
        metrics, _ = pipeline.evaluate(
            pipeline.baseline_random((p,) + (0.0,) * (len(interventions) - 1)), list(taskset.test),
            interventions, run.seed, n_seeds=run.eval_seeds, eta=run.env.eta, seed_salt=f"baseline-{p}")
        report[f"p={p}"] = metrics.to_dict()
        click.echo(f"p={p} SR={metrics.sr:.4f} U={[round(u, 4) for u in metrics.usage]}")
    run.write_json("baseline.json", report)


@main.command()
@pass_run
def selfreg(run: Run) -> None:
    """Calibrated halt-threshold evaluation on val/test rollouts.

    The difficulty scorer is the exact per-state success probability of the
    val/test tasks; empirical estimates never cover these states."""
    from . import env as envmod, pipeline
    from .rollouts import RolloutLog

    _require_tasks(run, "selfreg", "n_val", "n_test")
    taskset = run.load_tasks()
    _, success = envmod.exact_models(list(taskset.val) + list(taskset.test),
                                     eta=run.env.eta, eta_strong=run.env.eta_strong)

    def roll(tasks, salt):
        log = RolloutLog()
        for task in tasks:
            seed = pipeline.derive_seed(run.seed, salt, task.task_id)
            log.append(pipeline.run_episode(task, pipeline.always(NOHELP), [], seed, eta=run.env.eta))
        return log

    score = functools.partial(pipeline.state_score, success)  # a key off the enumeration raises DataError
    report = pipeline.self_regulation_eval(score, roll(taskset.val, "sr-val"), roll(taskset.test, "sr-test"))
    run.write_json(
        "selfreg.json",
        {"threshold": report.threshold, "accuracy": report.accuracy,
         "precision": report.precision, "recall": report.recall},
    )
    click.echo(
        f"threshold={report.threshold:.4f} acc={report.accuracy:.4f} "
        f"prec={report.precision:.4f} rec={report.recall:.4f}"
    )


def cli() -> None:
    """Process entry point.  A command builds hundreds of thousands of acyclic
    containers and then exits, so the cyclic GC only re-traverses them; it is
    switched off here.  What is left is frozen (``gc.freeze``) before the
    process exits, so the interpreter's shutdown collection, which runs even
    with the collector off, has nothing to traverse.  ``main`` (called
    in-process by tests) leaves the collector as it was."""
    gc.disable()
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(2)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except planner.BudgetInfeasibleError as exc:
        click.echo(f"infeasible budget: {exc}", err=True)
        sys.exit(3)
    except Exception as exc:  # categorized catch-all for batch usage
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    finally:
        gc.freeze()


if __name__ == "__main__":
    cli()
