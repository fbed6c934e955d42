"""Child-process side of the helpdp benchmark.

``bench.py`` starts this script as ``python3 bench/worker.py SPEC.json`` with
``src`` on ``PYTHONPATH``.  The spec's ``mode`` picks one job:

- ``chain``: run the six CLI commands of each listed config in this process
  through ``helpdp.cli.main(..., standalone_mode=False)``;
- ``exact``: run the exact-model step (generate, enumerate, solve at a
  fixed r, expected usage) in this process;
- ``check``: load each chain's ``solution.json`` and report its
  decomposition residual and convergence flag.

With ``trace`` set, the public functions of each helpdp module are wrapped
from here (the package itself is not edited) and every call records a span:
name, start, end and parent span, all under one run id.  Spans stay in
memory and go into the result file, which is written once at the end.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

COMMANDS = ("gen", "collect", "fit", "search", "annotate", "eval")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = True
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"run": self.run_id, "id": sid, "name": name, "parent": parent,
             "start": time.monotonic(), "end": None}
        )
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.monotonic()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, fn, name, after=None):
        """Return ``fn`` with a span around each call; ``name`` may be a
        function of the call's arguments, and ``after(result, args)``
        records counters once the span has closed."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(result, args)
            return result

        return traced


def instrument(tr: Tracer) -> None:
    """Wrap the module attributes the CLI and the exact workload call.

    ``helpdp.cli`` binds ``normalize`` and ``estimate_success`` by name, so
    those two are patched on ``helpdp.cli``; everything else is looked up
    through its module or class at call time.
    """
    from helpdp import cli, env, mdp, pipeline, planner, rollouts

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, tr.wrap(getattr(owner, attr), name, after))

    def patch_classmethod(cls, attr, name, after=None):
        func = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(tr.wrap(func, name, after)))

    def nonterminal(support) -> int:
        return sum(1 for s in support if not mdp.is_terminal(s))

    def after_restrict(model, args):
        tr.count("pipeline.states_observed", nonterminal(args[0].support))
        tr.count("pipeline.states_solvable", nonterminal(model.support))

    def after_search(result, args):
        tr.count("planner.search_probes", len(result.trace))
        tr.count("planner.search_distinct_eu", len({eu for _, eu in result.trace}))
        after_solution(result.solution, args)

    def after_solution(sol, args):
        tr.count("planner.solutions", 1)
        tr.count("planner.solve_iters", sol.iterations_run)
        tr.count("planner.states", len(sol.policy))

    def after_write(path, args):
        if args[1] == "solution.json":
            tr.count("planner.solution_bytes", os.path.getsize(path))

    patch(env, "generate_tasks", "env.generate_tasks")
    patch(env, "exact_models", "env.exact_models",
          lambda res, a: tr.count("env.exact_states", len({s for s, _ in res[0].probs})))
    patch(pipeline, "collect_phase1", "pipeline.collect_phase1",
          lambda log, a: tr.count("pipeline.collect_episodes", len(log)))
    patch(rollouts.RolloutLog, "save", "rollouts.save",
          lambda res, a: tr.count("rollouts.bytes", os.path.getsize(a[1])))
    patch_classmethod(rollouts.RolloutLog, "load", "rollouts.load")
    patch(rollouts.RolloutLog, "to_count_table", "rollouts.to_count_table")
    patch(cli, "estimate_success", "mdp.estimate_success")
    patch(cli, "normalize", "mdp.normalize",
          lambda model, a: (tr.count("mdp.rows", len(model.probs)), tr.count("mdp.models", 1)))
    patch_classmethod(mdp.CountTable, "load", "mdp.counts_load")
    patch_classmethod(mdp.SuccessModel, "load", "mdp.success_load")
    patch(pipeline, "restrict_to_solvable", "pipeline.restrict_to_solvable", after_restrict)
    patch(planner, "reward_search", "planner.reward_search", after_search)
    patch(planner, "solve", "planner.solve", after_solution)
    patch(planner, "expected_usage", "planner.expected_usage")
    patch(planner, "solution_to_dict", "planner.solution_to_dict")
    patch(planner, "load_solution", "planner.load_solution")
    patch(cli.Run, "write_json", lambda a: f"cli.write_json[{a[1]}]", after_write)
    patch(pipeline, "build_helper", "pipeline.build_helper")
    patch(pipeline, "split_seen_unseen", "pipeline.split_seen_unseen")
    patch(pipeline, "evaluate", "pipeline.evaluate",
          lambda res, a: tr.count("pipeline.eval_episodes", res[0].n_episodes))


def run_chains(spec: dict, tr: Tracer | None) -> dict:
    """Six CLI commands per config, each command one operation."""
    from helpdp.cli import main

    failures: list[dict] = []
    cpu0, t0 = _cpu_s(), time.monotonic()
    for chain, (config, cwd) in enumerate(zip(spec["configs"], spec["cwds"])):
        os.chdir(cwd)
        for cmd in COMMANDS:
            sid = tr.begin(f"cli.{cmd}") if tr else None
            try:
                main(["--config", config, cmd], standalone_mode=False)
            except Exception as exc:
                failures.append({"chain": chain, "op": cmd, "reason": repr(exc)})
                break
            finally:
                if tr:
                    tr.end(sid)
    return {"wall_s": time.monotonic() - t0, "cpu_s": _cpu_s() - cpu0, "failures": failures}


def run_exact(spec: dict, tr: Tracer | None) -> dict:
    """The exact-model step; each of its steps is timed."""
    from helpdp import env, planner

    steps: dict[str, float] = {}
    cpu0 = _cpu_s()
    t0 = last = time.monotonic()

    def lap(name: str) -> None:
        nonlocal last
        now = time.monotonic()
        steps[name] = now - last
        last = now

    ec = env.EnvConfig.from_dict(spec["env"])
    tasks = env.generate_tasks(ec, spec["seed"])
    lap("generate_tasks")
    model, success = env.exact_models(tasks.train, eta=ec.eta, eta_strong=ec.eta_strong)
    lap("exact_models")
    cfg = planner.RewardConfig(r=(spec["r"],), gamma=1.0)
    sol = planner.solve(model, success, cfg)
    lap("solve")
    starts = [env.initial_state(t).key() for t in tasks.train]
    eu = planner.expected_usage(sol, starts)
    lap("expected_usage")
    out = {"wall_s": time.monotonic() - t0, "cpu_s": _cpu_s() - cpu0,
           "peak_rss_mb": _peak_rss_mb(), "steps": steps}
    if tr:
        tr.active = False  # the checks below are not part of the workload

    failures = []
    residual = planner.decomposition_residual(sol)
    if residual > spec["residual_tol"]:
        failures.append({"op": "solve", "reason": f"decomposition residual {residual:.3e}"})
    if not sol.converged:
        failures.append({"op": "solve", "reason": "solution did not converge"})
    blob = _dump(planner.solution_to_dict(sol)).encode()
    out["failures"] = failures
    out["fingerprint"] = {
        "r": spec["r"],
        "expected_usage": eu[0],
        "success_rate": sum(sol.success[s] for s in starts) / len(starts),
        "solution_sha256": hashlib.sha256(blob).hexdigest(),
    }
    return out


def check_chains(spec: dict) -> dict:
    """Residual and convergence of each chain's solution.json."""
    from helpdp import planner

    out = []
    for path in spec["solutions"]:
        try:
            sol = planner.load_solution(path)
        except (OSError, ValueError, KeyError) as exc:
            out.append({"error": repr(exc)})
            continue
        out.append({"residual": planner.decomposition_residual(sol), "converged": sol.converged})
    return {"solutions": out}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    mode = spec["mode"]
    # imports stay outside every timed region
    if mode == "exact":
        import helpdp.env, helpdp.planner  # noqa: E401, F401
    else:
        import helpdp.cli  # noqa: F401

    tr = None
    if spec.get("trace"):
        tr = Tracer(spec["run_id"])
        instrument(tr)
    try:
        if mode == "chain":
            result = run_chains(spec, tr)
        elif mode == "exact":
            result = run_exact(spec, tr)
        elif mode == "check":
            result = check_chains(spec)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except Exception as exc:
        result = {"error": repr(exc), "traceback": traceback.format_exc()}
    if tr:
        result["spans"] = tr.spans
        result["counts"] = tr.counts
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
