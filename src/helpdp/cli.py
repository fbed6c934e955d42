"""Batch command-line front end.

Every command reads a JSON run config, derives all randomness from its
single seed, and writes artifacts under the output directory.  Outputs
embed the config hash and seed; reruns with unchanged inputs are
byte-identical.  Every run setting comes from the config: ``--seed`` and
``--out`` are folded into it before it is hashed, so the hash names the run.

Each command imports the other helpdp modules it calls in its own body, so
a process compiles and runs only those: importing this module loads
``mdp`` and ``planner`` alone, enough to check a config.

The command line is parsed with ``argparse``, so importing this module
loads no third-party package.

Exit codes: 0 success, 2 invalid usage or config, 3 infeasible budget,
1 any other error.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import planner
from .mdp import NOHELP, EnvConfig, EnvError, _dump, dump_pieces, is_number, is_whole, write_lines
from .mdp import estimate_success, normalize  # noqa: F401  (bench/worker.py traces them by these names)

if TYPE_CHECKING:
    from . import env as envmod


class UsageError(Exception):
    """A bad command line or config, or a missing upstream artifact (exit 2)."""


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
    "helper_mode": _fixed("all_states"),  # annotate writes one helper; the key stays so configs that set it load
    "eval_seeds": _SEEDS,
    "baseline_probs": ([0.0, 0.3, 1.0], "must be a list of numbers in [0, 1]",
                       lambda got: isinstance(got, list) and all(is_number(p) and 0 <= p <= 1 for p in got)),
}
PLANNER_KEYS = {  # gamma is 1 because the budget counts calls
    "gamma": _fixed(1.0),
    "epsilon": _fixed(planner.EPSILON),
    "max_iters": _fixed(10_000),  # a former sweep cap: the sweeps on an acyclic model always settle
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
        raise UsageError(f"{prefix}{unknown[0]} is unknown; the keys are {sorted(keys)}")
    for key, (_, rule, ok) in keys.items():
        if key in section and not ok(section[key]):
            raise UsageError(f"{prefix}{key} {rule}, got {section[key]!r}")
    return {key: section.get(key, default) for key, (default, _, _) in keys.items()}


class Run:
    """The config, read and checked once, plus the paths and provenance shared
    by commands; a bad config exits 2 before any command body runs."""

    def __init__(self, config_path: str, seed: int | None, out: str | None) -> None:
        try:
            config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}")
        if not isinstance(config, dict):
            raise UsageError(f"config {config_path} must be an object")
        if seed is not None:
            config["seed"] = seed
        if out is not None:
            config["out"] = out
        if "seed" not in config:
            raise UsageError("config must provide a seed")
        top = _read(config, KEYS)
        self.seed, self.intervention = top["seed"], top["intervention"]
        self.n_help = HELP_TYPES[self.intervention]  # K comes from `intervention` alone
        self.phase1_seeds, self.eval_seeds = top["phase1_seeds"], top["eval_seeds"]
        self.baseline_probs = top["baseline_probs"]
        try:
            self.env = EnvConfig.from_dict(top["env"])
        except EnvError as exc:
            raise UsageError(f"env.{exc}")
        p = _read(top["planner"], PLANNER_KEYS, "planner.")
        r, self.reward = p["r"], None  # a K = 2 run without r can do all but `solve`
        if r is None and self.n_help == 1:
            r = 0.5
        if r is not None:
            r = tuple(r) if isinstance(r, list) else (float(r),)
            if len(r) != self.n_help:
                raise UsageError(f"planner.r gives {len(r)} help cost(s), but intervention "
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
        write_lines(p, dump_pieces(doc))  # replaces, never truncates, an earlier run's file
        return p

    def interventions(self) -> list:
        """The configured executors, each a callable ``(state, actor stream)
        -> env action``: the strong actor at ``env.eta_strong`` and the MCTS
        picker, whose scorer computes p* of a state only when a pick asks
        for it."""
        from . import env as envmod, pipeline

        strong = functools.partial(envmod.strong_actor, eta=self.env.eta_strong)
        if self.intervention == "strong":
            return [strong]
        mcts = pipeline.mcts_pick(_mcts_q(envmod.success_probability(self.env.eta), self.seed))
        return [strong, mcts] if self.intervention == "both" else [mcts]

    def require(self, name: str, producer: str) -> Path:
        """Path of an upstream artifact; a missing one is a usage error."""
        p = self.path(name)
        if not p.exists():
            raise UsageError(f"{p} missing; run {producer} first")
        return p

    def load_tasks(self) -> envmod.TaskSet:
        from . import env as envmod

        return envmod.TaskSet.load(self.require("tasks.jsonl", "`gen`"))

    def load_rows_and_starts(self) -> tuple[planner.ModelRows, list[str]]:
        """The solvable rows of ``counts.jsonl`` (``pipeline.solvable_rows``)
        and the train start keys, for ``solve`` and ``search``: from a large
        file on, a forked worker reads both while this process imports numpy
        and scipy.  A bad ``counts.jsonl`` is reported before a missing
        ``tasks.jsonl``."""
        from . import pipeline

        cp = self.require("counts.jsonl", "`fit`")
        return pipeline.read_solvable_rows(cp, self.n_help, lambda: self.start_keys(self.load_tasks().train))

    def load_solution(self) -> planner.Solution:
        return planner.load_solution(self.require("solution.json", "`solve` or `search`"))

    def start_keys(self, tasks) -> list[str]:
        """Start state keys of ``tasks`` in order; every command that averages
        usage takes its starts from here."""
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
            raise UsageError(f"{command} needs env.{key} >= 1, got 0")


COMMANDS: dict[str, Callable[[Run], None]] = {}  # command name -> body; the first docstring line is its help


def command(body: Callable[[Run], None]) -> Callable[[Run], None]:
    """Register ``body`` as the command named after it (``eval_cmd`` is ``eval``)."""
    COMMANDS[body.__name__.removesuffix("_cmd")] = body
    return body


@command
def gen(run: Run) -> None:
    """Generate the train/val/test taskset."""
    from . import env as envmod

    taskset = envmod.generate_tasks(run.env, run.seed)
    run.out.mkdir(parents=True, exist_ok=True)
    taskset.save(run.path("tasks.jsonl"), header=run.provenance)
    print(f"tasks train={len(taskset.train)} val={len(taskset.val)} test={len(taskset.test)}")


@command
def collect(run: Run) -> None:
    """Randomized-intervention collection over the train split."""
    from . import pipeline

    taskset = run.load_tasks()
    n = pipeline.write_phase1(run.path("phase1.jsonl"), run.provenance, list(taskset.train),
                              run.interventions(), run.seed, n_seeds=run.phase1_seeds, eta=run.env.eta)
    print(f"collected {n} episodes")


@command
def fit(run: Run) -> None:
    """Estimate transition counts from the log."""
    from . import rollouts

    table = rollouts.fit_log(run.require("phase1.jsonl", "`collect`"))
    table.save(run.path("counts.jsonl"), header=run.provenance)
    print(f"fit {len(table)} transition rows")


def _r_label(sol: planner.Solution) -> float | list[float]:
    return sol.r[0] if len(sol.r) == 1 else list(sol.r)


def _summary(sol: planner.Solution) -> str:
    eu = sum(sol.expected_usage) if sol.expected_usage else 0.0
    return f"r={_r_label(sol)} E[U]={eu:.6f} converged={sol.converged} iters={sol.iterations_run}"


@command
def solve(run: Run) -> None:
    """Solve the fixed-cost planning problem on the fitted model."""
    if run.reward is None:
        raise UsageError(f"solve needs planner.r: intervention {run.intervention!r} has 2 help types")
    rows, starts = run.load_rows_and_starts()
    sol = planner.solve(rows, None, run.reward)
    sol = sol._replace(expected_usage=planner.expected_usage(sol, starts))
    run.write_json("solution.json", planner.solution_to_dict(sol))
    print(_summary(sol))


@command
def search(run: Run) -> None:
    """Bisect the help cost until expected usage fits the budget."""
    if run.n_help != 1:
        raise UsageError(f"search bisects one help cost, but intervention {run.intervention!r} "
                         f"has {run.n_help} help types; use `solve` with planner.r")
    if run.budget is None:
        raise UsageError("search needs planner.budget")
    rows, starts = run.load_rows_and_starts()
    # reward_search sets r at every probe
    result = planner.reward_search(rows, float(run.budget), run.bounds, starts, run.reward)
    run.write_json("solution.json", planner.solution_to_dict(result.solution))
    run.write_json(
        "search.json",
        {"budget": run.budget, "r": result.r, "expected_usage": result.solution.expected_usage[0],
         "trace": [[r, eu] for r, eu in result.trace]},
    )
    print(_summary(result.solution))


@command
def annotate(run: Run) -> None:
    """Distill the solved policy into a helper lookup table."""
    from . import pipeline

    table = pipeline.build_helper(run.load_solution())
    run.write_json("helper.json", {"mode": "all_states", "fallback": NOHELP, "table": table})
    print(f"helper mode=all_states states={len(table)}")


@command
def eval_cmd(run: Run) -> None:
    """Deploy the helper on the train tasks (fresh seeds) with a
    seen/unseen breakdown; the lookup table cannot generalize across task
    identities, so the deployment split is the one the policy was solved
    for.  The helper deployed is ``pipeline.load_helper``'s decider, and
    the seen and unseen metrics are those of subsets of one deployment's
    outcome rows."""
    from . import pipeline

    taskset = run.load_tasks()
    decide = pipeline.load_helper(run.require("helper.json", "`annotate`"), run.n_help)
    sol = run.load_solution()
    starts = dict(zip([t.task_id for t in taskset.train], run.start_keys(taskset.train)))
    seen_ids, unseen_ids = pipeline.split_seen_unseen(starts, sol)
    headline, rows = pipeline.evaluate(
        decide, list(taskset.train), run.interventions(), run.seed, n_seeds=run.eval_seeds,
        eta=run.env.eta, expected=planner.expected_usage(sol, list(starts.values())), seed_salt="eval-all")
    report = {"all": headline.to_dict()}
    for name, ids in (("seen", seen_ids), ("unseen", unseen_ids)):
        if not ids:
            report[name] = None
            continue
        chosen = set(ids)
        eu = planner.expected_usage(sol, [starts[i] for i in ids])
        report[name] = pipeline.metrics([row for row in rows if row[0] in chosen], run.n_help, eu).to_dict()
    run.write_json("metrics.json", report)
    eu = headline.expected_usage or ()
    print(
        f"SR={headline.sr:.4f} SPL={headline.spl:.4f} L={headline.length:.3f} "
        f"U={[round(u, 4) for u in headline.usage]} EU={[round(u, 4) for u in eu]} "
        f"seen={len(seen_ids)} unseen={len(unseen_ids)}"
    )


@command
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
        print(f"p={p} SR={metrics.sr:.4f} U={[round(u, 4) for u in metrics.usage]}")
    run.write_json("baseline.json", report)


@command
def selfreg(run: Run) -> None:
    """Calibrated halt-threshold evaluation on val/test rollouts.

    The difficulty score of a state is 1 - p*, its exact base-actor success
    probability, filled in by one walk per val/test task (``env._walk``);
    empirical estimates never cover these states."""
    from . import env as envmod, pipeline
    from .rollouts import RolloutLog

    _require_tasks(run, "selfreg", "n_val", "n_test")
    taskset = run.load_tasks()
    p_star: dict[str, float] = {}
    for task in taskset.val + taskset.test:
        p_star.update(envmod._walk(envmod.initial_state(task), run.env.eta)[1])

    def roll(tasks, salt):
        log = RolloutLog()
        for task in tasks:
            seed = pipeline.derive_seed(run.seed, salt, task.task_id)
            log.append(pipeline.run_episode(task, pipeline.always(NOHELP), [], seed, eta=run.env.eta))
        return log

    report = pipeline.self_regulation_eval(lambda key: 1.0 - p_star[key], roll(taskset.val, "sr-val"),
                                           roll(taskset.test, "sr-test"))
    run.write_json(
        "selfreg.json",
        {"threshold": report.threshold, "accuracy": report.accuracy,
         "precision": report.precision, "recall": report.recall},
    )
    print(
        f"threshold={report.threshold:.4f} acc={report.accuracy:.4f} "
        f"prec={report.precision:.4f} rec={report.recall:.4f}"
    )


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, with ``--help`` as
    the one spelling of help and no abbreviated options."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise UsageError(message)


def parser() -> argparse.ArgumentParser:
    """``--config``, ``--seed`` and ``--out``, then one command, which takes
    no option of its own."""
    p = _Parser(prog="helpdp", description="Budget-aware intervention planning toolkit.")
    p.add_argument("--config", dest="config_path", required=True, metavar="PATH", help="Run config JSON.")
    p.add_argument("--seed", type=int, help="Override the config seed.")
    p.add_argument("--out", metavar="PATH", help="Override the output directory.")
    commands = p.add_subparsers(title="commands", dest="command", required=True, metavar="COMMAND")
    for name, body in COMMANDS.items():
        commands.add_parser(name, help=body.__doc__.split("\n")[0], description=body.__doc__)
    return p


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the one command that ``args`` (default ``sys.argv[1:]``) names.
    In ``standalone_mode`` an error is printed to stderr and exits with its
    code; otherwise it is raised, as tests and the benchmark call this
    in-process.  ``--help`` prints the usage and exits 0 in either mode."""
    if not standalone_mode:
        ns = parser().parse_args(args)
        COMMANDS[ns.command](Run(ns.config_path, ns.seed, ns.out))
        return
    try:
        main(args, standalone_mode=False)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(2)
    except KeyboardInterrupt:  # stopped by the user: no traceback
        sys.exit(2)
    except planner.BudgetInfeasibleError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        sys.exit(3)
    except Exception as exc:  # categorized catch-all for batch usage
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


def cli() -> None:
    """Process entry point: ``main``, with the cyclic GC off.  A command
    builds hundreds of thousands of acyclic containers and then exits, so
    the cyclic GC only re-traverses them.  What is left is frozen
    (``gc.freeze``) before the process exits, so the interpreter's shutdown
    collection, which runs even with the collector off, has nothing to
    traverse.  ``main`` (called in-process by tests) leaves the collector as
    it was."""
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    cli()
