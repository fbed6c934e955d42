"""Batch command-line front end.

Every command reads a JSON run config, derives all randomness from its
single seed, and writes artifacts under the output directory.  Outputs
embed the config hash and seed; reruns with unchanged inputs are
byte-identical.  Every run setting comes from the config: ``--seed`` and
``--out`` are folded into it before it is hashed, so the hash names the run.

Exit codes: 0 success, 2 invalid usage or config, 3 infeasible budget,
1 any other error.
"""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
import sys
from pathlib import Path

import click

from . import env as envmod
from . import pipeline, planner
from .mdp import NOHELP, CountTable, SuccessModel, TransitionModel, _dump, normalize, estimate_success
from .rollouts import RolloutLog

HELP_TYPES = {"strong": 1, "mcts": 1, "both": 2}  # K, the help types of each intervention kind


class Run:
    """Loaded config plus the paths and provenance shared by commands."""

    def __init__(self, config_path: str, seed: int | None, out: str | None) -> None:
        try:
            self.config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config {config_path}: {exc}")
        if seed is not None:
            self.config["seed"] = seed
        if out is not None:
            self.config["out"] = out
        if "seed" not in self.config:
            raise click.UsageError("config must provide a seed")
        self.seed = int(self.config["seed"])
        p = self.config.get("planner", {})
        # the planner's own settings; gamma is 1 because the budget counts calls
        for key, value in (("gamma", 1.0), ("epsilon", planner.EPSILON), ("max_iters", planner.MAX_SWEEPS)):
            if p.get(key, value) != value:
                raise click.UsageError(f"planner.{key} is fixed at {value}, got {p[key]!r}")
        self.intervention = self.config.get("intervention", "strong")
        if self.intervention not in HELP_TYPES:
            raise click.UsageError(f"unknown intervention kind {self.intervention!r}")
        self.n_help = HELP_TYPES[self.intervention]  # K comes from `intervention` alone
        # made by `gen` or `write_json`, so a command refused for a bad flag leaves no directory
        self.out = Path(self.config.get("out", "out"))
        self.config_hash = hashlib.sha256(_dump(self.config).encode()).hexdigest()[:16]

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

    def env_config(self) -> envmod.EnvConfig:
        try:
            return envmod.EnvConfig.from_dict(self.config.get("env", {}))
        except (envmod.EnvError, TypeError) as exc:
            raise click.UsageError(f"bad env config: {exc}")

    def planner_config(self) -> planner.RewardConfig:
        p = self.config.get("planner", {})
        r = p.get("r", 0.5)
        if not all(_is_number(ri) and ri >= 0 for ri in (r if isinstance(r, list) else [r])):
            raise click.UsageError(f"planner.r must be a number >= 0 or a list of them, got {r!r}")
        r = tuple(r) if isinstance(r, list) else (float(r),)
        if len(r) != self.n_help:
            raise click.UsageError(f"planner.r gives {len(r)} help cost(s), but intervention "
                                   f"{self.intervention!r} has {self.n_help} help type(s)")
        try:
            return planner.RewardConfig(r=r, variant=p.get("variant", "value_consistent"))
        except planner.PlannerError as exc:
            raise click.UsageError(f"bad planner config: {exc}")

    def search_settings(self) -> tuple[float, tuple[float, float]]:
        """``planner.budget`` and ``planner.bounds``, checked here as
        ``planner.r`` is, so a bad value exits 2 before anything is read."""
        p = self.config.get("planner", {})
        if "budget" not in p:
            raise click.UsageError("search needs planner.budget")
        budget = p["budget"]
        if not (_is_number(budget) and budget >= 0):
            raise click.UsageError(f"planner.budget must be a number >= 0, got {budget!r}")
        bounds = p.get("bounds", [0.0, 10.0])
        if not (isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_number, bounds))
                and 0 <= bounds[0] < bounds[1]):
            raise click.UsageError(f"planner.bounds must be [lo, hi] with 0 <= lo < hi, got {bounds!r}")
        return budget, tuple(bounds)

    def episodes_per_task(self, key: str) -> int:
        """``phase1_seeds`` or ``eval_seeds``: a whole number >= 1."""
        n = self.config.get(key, 3)
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
            raise click.UsageError(f"{key} must be an integer >= 1, got {n!r}")
        return n

    def baseline_probs(self) -> list:
        probs = self.config.get("baseline_probs", [0.0, 0.3, 1.0])
        if not (isinstance(probs, list) and all(_is_number(p) and 0 <= p <= 1 for p in probs)):
            raise click.UsageError(f"baseline_probs must be a list of numbers in [0, 1], got {probs!r}")
        return probs

    def helper_mode(self) -> str:
        mode = self.config.get("helper_mode", "all_states")
        if mode not in pipeline.HELPER_MODES:
            raise click.UsageError(f"helper_mode must be one of {list(pipeline.HELPER_MODES)}, got {mode!r}")
        return mode

    def interventions(self, tasks: tuple[envmod.Task, ...]) -> list:
        """The configured executors for episodes on ``tasks``; the MCTS scorer
        enumerates only those tasks, since every state key carries its task."""
        ec = self.env_config()
        strong = pipeline.StrongActorIntervention(ec.eta_strong)
        if self.intervention == "strong":
            return [strong]
        _, success = envmod.exact_models(tasks, eta=ec.eta, eta_strong=ec.eta_strong)
        mcts = pipeline.MctsIntervention(_q_from_success(success, self.seed))
        return [strong, mcts] if self.intervention == "both" else [mcts]

    def require(self, name: str, producer: str) -> Path:
        """Path of an upstream artifact; a missing one is a usage error."""
        p = self.path(name)
        if not p.exists():
            raise click.UsageError(f"{p} missing; run {producer} first")
        return p

    def load_tasks(self) -> envmod.TaskSet:
        return envmod.TaskSet.load(self.require("tasks.jsonl", "`gen`"))

    def load_log(self) -> RolloutLog:
        return RolloutLog.load(self.require("phase1.jsonl", "`collect`"))

    def load_model(self) -> TransitionModel:
        cp = self.require("counts.jsonl", "`fit`")
        return pipeline.restrict_to_solvable(normalize(CountTable.load(cp)), self.n_help)

    def load_success(self, cfg: planner.RewardConfig) -> SuccessModel | None:
        """The fitted success model if the policy rule of ``cfg`` reads it."""
        if not cfg.reads_success:
            return None
        return SuccessModel.load(self.require("success.jsonl", "`fit`"))

    def load_solution(self) -> planner.Solution:
        return planner.load_solution(self.require("solution.json", "`solve` or `search`"))

    def start_keys(self, tasks) -> list[str]:
        """Start state keys of ``tasks`` in order; every command that averages
        usage or walks the policy takes its starts from here."""
        return [envmod.initial_state(t).key() for t in tasks]


def _is_number(value) -> bool:
    """A finite JSON number; true and false are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _q_from_success(success: SuccessModel, seed: int):
    """Noisy post-action success score used by the MCTS intervention."""

    def q(state: envmod.EnvState, action: str) -> float:
        nxt = envmod.env_step(state, action)
        key = nxt.key()
        base = success.get(key, NOHELP) if success.has(key, NOHELP) else 0.5
        rng = random.Random(pipeline.derive_seed(seed, "q", key, action))
        return min(1.0, max(0.0, base + rng.uniform(-0.05, 0.05)))

    return q


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
    taskset = envmod.generate_tasks(run.env_config(), run.seed)
    run.out.mkdir(parents=True, exist_ok=True)
    taskset.save(run.path("tasks.jsonl"), header=run.provenance)
    click.echo(
        f"tasks train={len(taskset.train)} val={len(taskset.val)} test={len(taskset.test)}"
    )


@main.command()
@pass_run
def collect(run: Run) -> None:
    """Randomized-intervention collection over the train split."""
    n_seeds = run.episodes_per_task("phase1_seeds")
    taskset = run.load_tasks()
    ec = run.env_config()
    interventions = run.interventions(taskset.train)
    schedule = run.config.get("schedule")
    if schedule is not None:
        schedule = [tuple(p) for p in schedule]
    log = pipeline.collect_phase1(
        list(taskset.train),
        interventions,
        run.seed,
        schedule=schedule,
        n_seeds=n_seeds,
        eta=ec.eta,
    )
    log.save(run.path("phase1.jsonl"), header=run.provenance)
    click.echo(f"collected {len(log)} episodes")


@main.command()
@pass_run
def fit(run: Run) -> None:
    """Estimate transition counts and success probabilities from the log."""
    log = run.load_log()
    table = log.to_count_table()
    success = estimate_success(log)
    table.save(run.path("counts.jsonl"), header=run.provenance)
    success.save(run.path("success.jsonl"), header=run.provenance)
    click.echo(f"fit {len(table)} transition rows, {len(success.p)} success entries")


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
    cfg = run.planner_config()
    model, success = run.load_model(), run.load_success(cfg)
    sol = planner.solve(model, success, cfg)
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
    budget, bounds = run.search_settings()
    cfg = run.planner_config()  # reward_search sets r at every probe
    model, success = run.load_model(), run.load_success(cfg)
    starts = run.start_keys(run.load_tasks().train)
    result = planner.reward_search(model, success, float(budget), bounds, starts, cfg)
    _require_converged(result.solution)
    run.write_json("solution.json", planner.solution_to_dict(result.solution))
    run.write_json(
        "search.json",
        {"budget": budget, "r": result.r, "expected_usage": result.solution.expected_usage[0],
         "trace": [[r, eu] for r, eu in result.trace]},
    )
    click.echo(_summary(result.solution))


@main.command()
@pass_run
def annotate(run: Run) -> None:
    """Distill the solved policy into a helper lookup table."""
    mode = run.helper_mode()
    sol = run.load_solution()
    starts = model = None
    if mode == "trajectory_only":  # the only mode that walks the model from the train starts
        starts = run.start_keys(run.load_tasks().train)
        model = run.load_model()
    helper = pipeline.build_helper(sol, starts, model, mode=mode)
    run.write_json(
        "helper.json",
        {"mode": helper.training_mode, "fallback": helper.fallback, "table": helper.table},
    )
    click.echo(f"helper mode={mode} states={len(helper.table)}")


@main.command("eval")
@pass_run
def eval_cmd(run: Run) -> None:
    """Deploy the helper on the train tasks (fresh seeds) with a
    seen/unseen breakdown; the lookup table cannot generalize across task
    identities, so the deployment split is the one the policy was solved
    for."""
    n_seeds = run.episodes_per_task("eval_seeds")
    taskset = run.load_tasks()
    ec = run.env_config()
    doc = json.loads(run.require("helper.json", "`annotate`").read_text(encoding="utf-8"))
    helper = pipeline.HelperPolicy(
        table=doc["table"], training_mode=doc["mode"], fallback=doc["fallback"]
    )
    sol = run.load_solution()
    interventions = run.interventions(taskset.train)
    tasks = {t.task_id: t for t in taskset.train}
    starts = dict(zip(tasks, run.start_keys(taskset.train)))
    seen_ids, unseen_ids = pipeline.split_seen_unseen(starts, sol)
    headline, log = pipeline.evaluate(
        helper.as_decider(), list(taskset.train), interventions, run.seed, n_seeds=n_seeds,
        eta=ec.eta, expected=planner.expected_usage(sol, list(starts.values())),
        seed_salt="eval-all",
    )
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
    probs, n_seeds = run.baseline_probs(), run.episodes_per_task("eval_seeds")
    taskset = run.load_tasks()
    ec = run.env_config()
    interventions = run.interventions(taskset.test)
    report = {}
    for p in probs:
        metrics, _ = pipeline.evaluate(
            pipeline.baseline_random((p,) + (0.0,) * (len(interventions) - 1)),
            list(taskset.test),
            interventions,
            run.seed,
            n_seeds=n_seeds,
            eta=ec.eta,
            seed_salt=f"baseline-{p}",
        )
        report[f"p={p}"] = metrics.to_dict()
        click.echo(f"p={p} SR={metrics.sr:.4f} U={[round(u, 4) for u in metrics.usage]}")
    run.write_json("baseline.json", report)


@main.command()
@pass_run
def selfreg(run: Run) -> None:
    """Calibrated halt-threshold evaluation on val/test rollouts.

    The difficulty scorer is the exact per-state success probability of the
    val/test tasks; empirical estimates never cover these states."""
    taskset = run.load_tasks()
    ec = run.env_config()
    _, success = envmod.exact_models(
        list(taskset.val) + list(taskset.test), eta=ec.eta, eta_strong=ec.eta_strong
    )

    def score(key: str) -> float:
        return pipeline.state_score(success, key) if success.has(key, NOHELP) else 0.5

    def roll(tasks, salt):
        log = RolloutLog()
        for task in tasks:
            seed = pipeline.derive_seed(run.seed, salt, task.task_id)
            log.append(pipeline.run_episode(task, pipeline.always(NOHELP), [], seed, eta=ec.eta))
        return log

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
    switched off here, and ``main`` (called in-process by tests) keeps it."""
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


if __name__ == "__main__":
    cli()
