"""Benchmark of the helpdp chain: end-to-end times, result quality and
per-module spans, on two workloads (see README.md in this directory).

Run from the repository root, with the standard library only:

    python3 bench/bench.py --workload paper --seed 11 --seconds 40 --trace 0
    python3 bench/bench.py        # all workloads at seed 11, untraced and traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced runs report
the end-to-end metrics of ``BENCHMARK.json``, traced runs its per-layer
metrics.  End-to-end times are scaled to a reference host speed that
``probe.py`` measures within the same run (see ``SideSamples``).  The exit
code is 0 only when every check passed.  Scratch files, spans, the
self-time table and full records go under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PY = sys.executable
COMMANDS = ("gen", "collect", "fit", "search", "annotate", "eval")
EXACT_STEPS = ("generate_tasks", "exact_models", "solve", "expected_usage")
RESIDUAL_TOL = 1e-9
IMPORTTIME_REPS = 3
RUN_DEADLINE_S = 170  # one workload run must end within this
PROBE = BENCH_DIR / "probe.py"
SIDE_EVERY_S = 5.0  # an untraced run takes side samples when none were taken for this long
REFERENCE_PROBE_S = 1.0  # the probe wall of the host speed times are reported at

# Fingerprints at seed 11 of the code this benchmark was written against (the
# first chain of a workload uses the workload seed itself; "exact" is the
# exact-model step of the traced paper run).  Only the all-workload command
# checks them; a change that alters results on purpose updates this table.
KNOWN_SEED = 11
KNOWN = {
    "reference": {
        "r": 0.12949640287786224,
        "expected_usage": 0.9435714285714285,
        "success_rate": 0.6333333333333333,
        "solution_sha256": "65621cdfc4f34518d765f687ded67ad5dae4f9591d10ba3fac79c6cf8f08a4c9",
    },
    "paper": {
        "r": 0.19999999999924967,
        "expected_usage": 0.967607740172618,
        "success_rate": 0.6113333333333333,
        "solution_sha256": "30964ca3bd8908e42cfdf53de34df09f462697e56490e6924a690624044e9a24",
    },
    "exact": {
        "r": 0.2,
        "expected_usage": 0.8469341941513541,
        "success_rate": 0.7372640483009415,
        "solution_sha256": "a90c0a07677966b6175cd1611c9dbd0a23c128b6a68cfe7ca6d49d78c4169714",
    },
}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(seed: int, i: int) -> int:
    """Seed of the i-th chain of a run; chain 0 uses the workload seed."""
    if i == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:4], "big") >> 1


# --------------------------------------------------------------------------
# Workloads


def paper_config(seed: int) -> dict:
    return {
        "seed": seed,
        "out": "out",
        "env": {},  # EnvConfig defaults: 10 rooms, 6 steps, 1000 train tasks
        "phase1_seeds": 3,
        "schedule": None,
        "planner": {"gamma": 1.0, "epsilon": 1e-08, "variant": "value_consistent",
                    "r": 0.2, "budget": 1.0, "bounds": [0.0, 5.0]},
        "intervention": "strong",
        "helper_mode": "all_states",
        "eval_seeds": 3,
    }


def reference_config(seed: int) -> dict:
    cfg = json.loads((ROOT / "configs" / "reference.json").read_text(encoding="utf-8"))
    cfg.update(seed=seed, out="out")
    return cfg


@dataclass(frozen=True)
class ExactStep:
    """Exact model of the train tasks, one solve at a fixed r and its
    expected usage, in one process with no I/O and no search."""

    env: dict = field(default_factory=dict)
    r: float = 0.2
    budget: float = 1.0  # the paper budget; budget_slack is reported, not gated

    def inputs(self, seed: int) -> dict:
        return {"env": self.env, "r": self.r, "seed": seed}


@dataclass(frozen=True)
class CliWorkload:
    """The six CLI commands as subprocesses, once per chain seed; then single
    commands again (``rerun_command``) until the run's time is up."""

    config: object  # seed -> config dict
    chains: int  # distinct chain seeds per run; success_rate is their mean
    exact: ExactStep | None = None  # also run in the traced run, for its layers


WORKLOADS: dict[str, CliWorkload] = {
    "reference": CliWorkload(config=reference_config, chains=8),
    "paper": CliWorkload(config=paper_config, chains=1, exact=ExactStep()),
}


# --------------------------------------------------------------------------
# Processes


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {RUN_DEADLINE_S} s")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one busy thread per process on a shared 2-core host
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    t_spawn: float


def run_timed(argv: list[str], cwd: Path, log: Path) -> Proc:
    """Run a child to completion; wall from spawn to exit, rusage of the child."""
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, ru.ru_maxrss / 1024.0, t0)


def tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1][:200] if lines else ""


def run_worker(spec: dict, workdir: Path, name: str) -> tuple[dict, Proc]:
    spec = dict(spec, result=str(workdir / f"{name}.result.json"))
    spec_path = workdir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log = workdir / f"{name}.log"
    proc = run_timed([PY, str(BENCH_DIR / "worker.py"), str(spec_path)], workdir, log)
    res_path = Path(spec["result"])
    if proc.code != 0 or not res_path.exists():
        return {"error": f"worker {name} exited {proc.code}: {tail(log)}"}, proc
    return json.loads(res_path.read_text(encoding="utf-8")), proc


class SideSamples:
    """Samples taken between the commands of an untraced run, about every
    SIDE_EVERY_S and once at each end: the wall of ``probe.py`` and the
    wall of a fresh interpreter that only imports ``helpdp.cli``, which
    every command pays before any work (``setup_s``).

    The probe is fixed work that uses no helpdp code.  The shared host this
    benchmark is built for changes speed by up to a half for minutes at a
    time, and every wall of a run moves with it, so raw walls of the same
    code spread past any useful bound.  End-to-end times are therefore
    reported at a reference speed: each is multiplied by ``scale``,
    REFERENCE_PROBE_S over the mean probe wall of the run.  The mean, not
    the median: the host flips between fast and slow spells of a few
    seconds, and the mean follows the share of time spent in each.  A
    change to helpdp moves the walls and not the probe.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.setup_argv = [PY, "-c", "import helpdp.cli"]
        self.probe_walls: list[float] = []
        self.setup_walls: list[float] = []
        self.last = -float("inf")
        self._wall("setup", self.setup_argv)  # warm-up: byte-code caches exist for any user

    def _wall(self, name: str, argv: list[str]) -> float:
        log = self.workdir / f"{name}.log"
        proc = run_timed(argv, self.workdir, log)
        if proc.code != 0:
            raise RuntimeError(f"{name} process exited {proc.code}: {tail(log)}")
        return proc.wall_s

    def take(self, due: bool = False) -> None:
        """One probe and one set-up wall; with ``due``, only if none were
        taken for SIDE_EVERY_S."""
        if due and time.monotonic() - self.last < SIDE_EVERY_S:
            return
        self.probe_walls.append(self._wall("probe", [PY, str(PROBE), str(self.workdir / "probe.jsonl")]))
        self.setup_walls.append(self._wall("setup", self.setup_argv))
        self.last = time.monotonic()

    @property
    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.probe_walls)


def measure_importtime(workdir: Path) -> dict:
    """cli.import_s and its numpy + scipy share, from ``-X importtime``."""
    totals, numeric = [], []
    for _ in range(IMPORTTIME_REPS):
        p = subprocess.run([PY, "-X", "importtime", "-c", "import helpdp.cli"], cwd=workdir,
                           env=child_env(), capture_output=True, text=True)
        if p.returncode != 0:
            raise RuntimeError(f"import helpdp.cli failed: {p.stderr[-300:]}")
        total = num = 0
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us = int(parts[0].split(":")[1])
            cum_us = int(parts[1])
            name = parts[2][1:]
            if not name.startswith(" ") and name.startswith("helpdp"):
                total += cum_us
            if name.strip().split(".")[0] in ("numpy", "scipy"):
                num += self_us
        totals.append(total / 1e6)
        numeric.append(num / 1e6)
    return {"cli.import_s": statistics.median(totals),
            "cli.import_numeric_s": statistics.median(numeric)}


# --------------------------------------------------------------------------
# Checks and fingerprints


@dataclass
class Chain:
    """One workload iteration: its operations, failures and fingerprint."""

    key: str  # identifies the inputs (config hash, or exact seed)
    ops: tuple[str, ...]
    failures: dict = field(default_factory=dict)  # op -> reason
    fingerprint: dict | None = None
    walls: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    out: Path | None = None

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)


def check_chain(chain: Chain, solution_check: dict | None) -> None:
    """Gate one CLI chain's artifacts and take its fingerprint."""
    out = chain.out
    try:
        search = json.loads((out / "search.json").read_text(encoding="utf-8"))
        sol_bytes = (out / "solution.json").read_bytes()
        if search["expected_usage"] > search["budget"]:
            chain.fail("search", f"E[U]={search['expected_usage']} > budget {search['budget']}")
        if solution_check is None or "error" in solution_check:
            chain.fail("search", f"solution not checked: {solution_check}")
        else:
            if solution_check["residual"] > RESIDUAL_TOL:
                chain.fail("search", f"decomposition residual {solution_check['residual']:.3e}")
            if not solution_check["converged"]:
                chain.fail("search", "solution did not converge")
    except (OSError, ValueError, KeyError) as exc:
        chain.fail("search", f"unreadable search artifacts: {exc!r}")
        return
    try:
        report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        cfg = json.loads((out.parent / "config.json").read_text(encoding="utf-8"))
        n_train = sum(
            1 for line in (out / "tasks.jsonl").read_text(encoding="utf-8").splitlines()
            if '"split":"train"' in line
        )
        want = n_train * int(cfg.get("eval_seeds", 3))
        if report["all"]["episodes"] != want:
            chain.fail("eval", f"{report['all']['episodes']} eval episodes, expected {want}")
        sr = report["all"]["SR"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        chain.fail("eval", f"unreadable eval artifacts: {exc!r}")
        return
    chain.fingerprint = {
        "r": search["r"],
        "expected_usage": search["expected_usage"],
        "budget_slack": search["budget"] - search["expected_usage"],
        "success_rate": sr,
        "solution_sha256": hashlib.sha256(sol_bytes).hexdigest(),
    }


def code_id() -> str:
    """Hash of the package sources: stands in for the commit in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class FingerprintStore:
    """Fingerprints seen for each (code, workload, inputs), kept across runs
    so that two runs of the same code with different outputs fail."""

    def __init__(self, path: Path, code: str) -> None:
        self.path, self.code = path, code
        try:
            self.seen = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.seen = {}

    def check(self, workload: str, chain: Chain) -> None:
        if chain.fingerprint is None or chain.failures:
            return
        key = f"{self.code}|{workload}|{chain.key}"
        prev = self.seen.setdefault(key, chain.fingerprint)
        if prev != chain.fingerprint:
            chain.fail(chain.ops[-1], f"fingerprint differs from an earlier run of the same code: "
                                      f"{prev} vs {chain.fingerprint}")

    def save(self) -> None:
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True), encoding="utf-8")


def provenance(seed: int, configs: dict) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = p.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": commit,
        "code_id": code_id(),
        "seed": seed,
        "config_hash": configs,
    }


# --------------------------------------------------------------------------
# Running workloads


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(_dump(cfg).encode()).hexdigest()[:16]


def run_cli_chain(cfg: dict, workdir: Path, side: SideSamples | None = None) -> Chain:
    """The six commands in order in a fresh directory."""
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(_dump(cfg), encoding="utf-8")
    chain = Chain(key=config_hash(cfg), ops=COMMANDS, out=workdir / "out")
    run_commands(chain, side)
    return chain


def rerun_command(chains: list[Chain], done: list[Chain], side: SideSamples) -> Chain:
    """Run one command again in the directory of a finished chain, whose
    artifacts are its inputs; it rewrites its outputs with the same bytes.
    The command is the one with the fewest walls so far, the cheapest on a
    tie, so that every command of a long chain gets several samples."""
    walls = {cmd: [c.walls[cmd] for c in chains if cmd in c.walls] for cmd in COMMANDS}
    cmd = min(COMMANDS, key=lambda k: (len(walls[k]), median(walls[k])))
    base = done[len(walls[cmd]) % len(done)]
    again = Chain(key=base.key, ops=(cmd,), out=base.out)
    run_commands(again, side)
    return again


def run_commands(chain: Chain, side: SideSamples | None) -> None:
    """Time ``chain.ops`` in the chain's directory, with side samples
    between them when due; stop at the first failure."""
    cwd = chain.out.parent
    for i, cmd in enumerate(chain.ops):
        if side is not None:
            side.take(due=True)
        log = cwd / f"{cmd}.log"
        proc = run_timed([PY, "-m", "helpdp.cli", "--config", str(cwd / "config.json"), cmd], cwd, log)
        chain.walls[cmd] = proc.wall_s
        chain.rss_mb = max(chain.rss_mb, proc.rss_mb)
        if proc.code != 0:
            chain.fail(cmd, f"exit code {proc.code}: {tail(log)}")
            for rest in chain.ops[i + 1:]:
                chain.fail(rest, "not run after a failed command")
            break


def check_cli_chains(chains: list[Chain], workdir: Path) -> None:
    chains = [c for c in chains if c.ops == COMMANDS]
    runnable = [c for c in chains if (c.out / "solution.json").exists()]
    res, _ = run_worker({"mode": "check", "solutions": [str(c.out / "solution.json") for c in runnable]},
                        workdir, "check")
    checks = dict(zip((id(c) for c in runnable), res.get("solutions", [])))
    for c in chains:
        if not c.failures:
            check_chain(c, checks.get(id(c), {"error": res.get("error", "no check result")}))


def inprocess_chains(configs: list[dict], workdir: Path, trace: bool, run_id: str) -> tuple[dict, list[Chain]]:
    """Run the chains inside one worker process, untraced or traced."""
    tag = "traced" if trace else "untraced"
    chains = []
    for i, cfg in enumerate(configs):
        d = workdir / f"{tag}{i}"
        d.mkdir(parents=True)
        (d / "config.json").write_text(_dump(cfg), encoding="utf-8")
        chains.append(Chain(key=config_hash(cfg), ops=COMMANDS, out=d / "out"))
    spec = {"mode": "chain", "trace": trace, "run_id": run_id,
            "configs": [str(c.out.parent / "config.json") for c in chains],
            "cwds": [str(c.out.parent) for c in chains]}
    res, _ = run_worker(spec, workdir, tag)
    if "error" in res:
        for c in chains:
            for op in c.ops:
                c.fail(op, res["error"])
    for f in res.get("failures", []):
        c = chains[f["chain"]]
        c.fail(f["op"], f["reason"])
        for rest in COMMANDS[COMMANDS.index(f["op"]) + 1:]:
            c.fail(rest, "not run after a failed command")
    return res, chains


def exact_step(w: ExactStep, seed: int, workdir: Path, run_id: str) -> tuple[dict, Chain]:
    """The traced exact step in its own worker process."""
    inputs = w.inputs(seed)
    spec = dict(inputs, mode="exact", trace=True, run_id=run_id, residual_tol=RESIDUAL_TOL)
    res, _ = run_worker(spec, workdir, "exact")
    chain = Chain(key=config_hash(inputs), ops=EXACT_STEPS)
    if "error" in res:
        for op in EXACT_STEPS:
            chain.fail(op, res["error"])
        return res, chain
    chain.walls = res["steps"]
    for f in res["failures"]:
        chain.fail(f["op"], f["reason"])
    chain.fingerprint = dict(res["fingerprint"], budget_slack=w.budget - res["fingerprint"]["expected_usage"])
    chain.rss_mb = res["peak_rss_mb"]
    return res, chain


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def e2e_cli(chains: list[Chain], side: SideSamples) -> dict:
    """Each command's median wall over every time it ran; a time metric is
    the sum of the medians of its commands, times the host-speed scale."""
    scale = side.scale
    med = {cmd: scale * median([c.walls[cmd] for c in chains if cmd in c.walls]) for cmd in COMMANDS}
    firsts = {}
    for c in chains:
        if c.fingerprint:
            firsts.setdefault(c.key, c.fingerprint["success_rate"])
    return {
        "wall_s": sum(med.values()),
        "setup_s": scale * median(side.setup_walls),
        "model_s": med["gen"] + med["collect"] + med["fit"],
        "plan_s": med["search"],
        "deploy_s": med["annotate"] + med["eval"],
        "peak_rss_mb": max([c.rss_mb for c in chains], default=0.0),
        "success_rate": statistics.fmean(firsts.values()) if firsts else 0.0,
    }


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total time, and self time (duration minus the
    time covered by its child spans; children never overlap here)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    table: dict[str, dict] = {}
    for s in spans:
        d = s["end"] - s["start"]
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += d
        row["self_s"] += d - child.get(s["id"], 0.0)
    return table


def span_totals(traced: dict) -> tuple[dict[str, float], dict[str, int]]:
    tot: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in traced.get("spans", []):
        tot[s["name"]] = tot.get(s["name"], 0.0) + s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    return tot, calls


def layer_metrics(traced: dict, untraced: dict, n: int, imports: dict, slack: float,
                  exact: dict | None) -> dict:
    """Per-layer metrics from the traced run, per chain.  The exact-model
    layers and the single large solve come from the traced exact step.  A
    layer a workload does not reach reports 0."""
    tot, calls = span_totals(traced)
    c = traced.get("counts", {})
    ex_tot, _ = span_totals(exact or {})
    ex = (exact or {}).get("counts", {})

    def per(name: str) -> float:
        return tot.get(name, 0.0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        **imports,
        "cli.inprocess_chain_s": untraced.get("wall_s", 0.0) / n,
        "env.generate_tasks_s": per("env.generate_tasks"),
        "env.exact_models_s": ex_tot.get("env.exact_models", 0.0),
        "env.exact_states": ex.get("env.exact_states", 0.0),
        "pipeline.collect_phase1_s": per("pipeline.collect_phase1"),
        "pipeline.collect_eps_per_s": ratio(c.get("pipeline.collect_episodes", 0.0), tot.get("pipeline.collect_phase1", 0.0)),
        "rollouts.save_s": per("rollouts.save"),
        "rollouts.load_s": per("rollouts.load"),
        "rollouts.bytes": c.get("rollouts.bytes", 0.0) / n,
        "rollouts.to_count_table_s": per("rollouts.to_count_table"),
        "mdp.estimate_success_s": per("mdp.estimate_success"),
        "mdp.counts_load_s": per("mdp.counts_load"),
        "mdp.success_load_s": per("mdp.success_load"),
        "mdp.normalize_s": per("mdp.normalize"),
        "mdp.rows": ratio(c.get("mdp.rows", 0.0), c.get("mdp.models", 0.0)),
        "pipeline.restrict_to_solvable_s": per("pipeline.restrict_to_solvable"),
        "pipeline.states_observed": ratio(c.get("pipeline.states_observed", 0.0), calls.get("pipeline.restrict_to_solvable", 0)),
        "pipeline.states_solvable": ratio(c.get("pipeline.states_solvable", 0.0), calls.get("pipeline.restrict_to_solvable", 0)),
        "pipeline.solvable_ratio": ratio(c.get("pipeline.states_solvable", 0.0), c.get("pipeline.states_observed", 0.0)),
        "planner.reward_search_s": per("planner.reward_search"),
        "planner.search_probes": c.get("planner.search_probes", 0.0) / n,
        "planner.search_distinct_eu": c.get("planner.search_distinct_eu", 0.0) / n,
        "planner.search_useful_ratio": ratio(c.get("planner.search_distinct_eu", 0.0), c.get("planner.search_probes", 0.0)),
        "planner.probe_s": ratio(tot.get("planner.reward_search", 0.0), c.get("planner.search_probes", 0.0)),
        "planner.solve_s": ex_tot.get("planner.solve", 0.0),
        "planner.solve_iters": ratio(ex.get("planner.solve_iters", 0.0), ex.get("planner.solutions", 0.0)),
        "planner.states": ratio(ex.get("planner.states", 0.0), ex.get("planner.solutions", 0.0)),
        "planner.solution_dump_s": per("planner.solution_to_dict") + per("cli.write_json[solution.json]"),
        "planner.solution_bytes": c.get("planner.solution_bytes", 0.0) / n,
        "planner.load_solution_s": per("planner.load_solution"),
        "planner.budget_slack": slack,
        "pipeline.build_helper_s": per("pipeline.build_helper"),
        "pipeline.split_seen_unseen_s": per("pipeline.split_seen_unseen"),
        "pipeline.evaluate_s": per("pipeline.evaluate"),
        "pipeline.eval_eps_per_s": ratio(c.get("pipeline.eval_episodes", 0.0), tot.get("pipeline.evaluate", 0.0)),
        "process.cpu_s": untraced.get("cpu_s", 0.0) / n,
        "trace.overhead_s": (traced.get("wall_s", 0.0) - untraced.get("wall_s", 0.0)) / n,
    }


@dataclass
class Result:
    workload: str
    trace: bool
    metrics: dict
    chains: list[Chain]
    setup_samples: list[float] = field(default_factory=list)
    probe_walls: list[float] = field(default_factory=list)
    self_time: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(c.ops) for c in self.chains)

    @property
    def failed(self) -> int:
        return sum(len(c.failures) for c in self.chains)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    w = WORKLOADS[name]
    run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    configs = [w.config(derive_seed(seed, i)) for i in range(w.chains)]
    if not trace:
        side = SideSamples(workdir)
        side.take()
        t0 = time.monotonic()
        chains = [run_cli_chain(cfg, workdir / f"chain{i}", side) for i, cfg in enumerate(configs)]
        done = [c for c in chains if not c.failures]
        while done and time.monotonic() - t0 < seconds:
            chains.append(rerun_command(chains, done, side))
        side.take()
        check_cli_chains(chains, workdir)
        return Result(name, False, e2e_cli(chains, side), chains, side.setup_walls, side.probe_walls)
    imports = measure_importtime(workdir)
    untraced, chains_u = inprocess_chains(configs, workdir, False, run_id)
    traced, chains_t = inprocess_chains(configs, workdir, True, run_id)
    chains = chains_u + chains_t
    check_cli_chains(chains, workdir)
    exact = None
    if w.exact is not None:
        exact, chain = exact_step(w.exact, seed, workdir, run_id)
        chains.append(chain)
    slacks = [c.fingerprint["budget_slack"] for c in chains_t if c.fingerprint]
    slack = statistics.fmean(slacks) if slacks else 0.0
    metrics = layer_metrics(traced, untraced, len(configs), imports, slack, exact)
    spans = traced.get("spans", []) + (exact or {}).get("spans", [])
    return Result(name, True, metrics, chains, self_time=self_times(spans), spans=spans)


# --------------------------------------------------------------------------
# Reporting


def metric_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def as_reported(result: Result, spec: dict, prefix: str = "") -> dict:
    group = spec["per_layer"] if result.trace else spec["end_to_end"]
    missing = [m["name"] for m in group if m["name"] not in result.metrics]
    if missing:
        raise KeyError(f"{result.workload}: no value for {missing}")
    return {prefix + m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]} for m in group}


def check_known(result: Result, seed: int) -> None:
    """At the known seed, the first chain's fingerprint (and that of the
    exact step) must match KNOWN."""
    if seed != KNOWN_SEED:
        return
    firsts: dict[str, Chain] = {}
    for c in result.chains:
        firsts.setdefault("exact" if c.ops == EXACT_STEPS else result.workload, c)
    for name, first in firsts.items():
        fp = first.fingerprint or {}
        for k, v in KNOWN.get(name, {}).items():
            if fp.get(k) != v:
                first.fail(first.ops[-1], f"known seed-{seed} {name} {k} is {v}, got {fp.get(k)}")


def write_record(result: Result, seed: int, prov: dict) -> Path:
    d = OUT / f"{result.workload}-seed{seed}-{'traced' if result.trace else 'untraced'}"
    d.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": result.workload,
        "trace": result.trace,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": [{"chain": i, "op": op, "reason": why}
                     for i, c in enumerate(result.chains) for op, why in c.failures.items()],
        "metrics": result.metrics,
        "setup_samples_s": result.setup_samples,
        "probe_walls_s": result.probe_walls,
        "chains": [{"key": c.key, "walls_s": c.walls, "peak_rss_mb": c.rss_mb,
                    "fingerprint": c.fingerprint} for c in result.chains],
        "provenance": prov,
    }
    (d / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if result.trace:
        with open(d / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in result.spans:
                fh.write(_dump(s) + "\n")
        rows = sorted(result.self_time.items(), key=lambda kv: -kv[1]["self_s"])
        with open(d / "self_time.tsv", "w", encoding="utf-8") as fh:
            fh.write("span\tcalls\ttotal_s\tself_s\n")
            for k, v in rows:
                fh.write(f"{k}\t{v['calls']}\t{v['total_s']:.6f}\t{v['self_s']:.6f}\n")
    return d


def print_result(result: Result, spec: dict, record_dir: Path) -> None:
    mode = "traced" if result.trace else "untraced"
    print(f"== {result.workload} ({mode}): {result.failed} of {result.attempted} operations failed")
    for i, c in enumerate(result.chains):
        for op, why in c.failures.items():
            print(f"   FAILED chain {i} {op}: {why}")
    if result.probe_walls:
        print(f"   host-speed probe: mean {statistics.fmean(result.probe_walls):.4f} s over "
              f"{len(result.probe_walls)} samples; times below are walls x {REFERENCE_PROBE_S} s / that mean")
    for name, m in as_reported(result, spec).items():
        print(f"   {name:34s} {m['value']:>16.6f} {m['unit']}")
    for i, c in enumerate(result.chains):
        if c.fingerprint:
            print(f"   fingerprint chain {i} [{c.key}]: {_dump(c.fingerprint)}")
    if result.trace:
        print("   self time per span (traced run, all chains):")
        for k, v in sorted(result.self_time.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"     {k:40s} calls={v['calls']:<5d} total={v['total_s']:.4f}s self={v['self_s']:.4f}s")
    print(f"   record: {record_dir.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help=f"one of {sorted(WORKLOADS)} or 'all'")
    ap.add_argument("--seed", type=int, default=KNOWN_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics (default for 'all': both)")
    args = ap.parse_args(argv)

    if not (SRC / "helpdp" / "cli.py").is_file():
        print(f"error: no helpdp sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace is None:
        traces = [False, True] if args.workload == "all" else [False]
    else:
        traces = [bool(args.trace)]

    spec = metric_spec()
    OUT.mkdir(exist_ok=True)
    store = FingerprintStore(OUT / "fingerprints.json", code_id())
    results: list[Result] = []
    configs = {}
    for name in names:
        w = WORKLOADS[name]
        configs[name] = [config_hash(w.config(derive_seed(args.seed, i))) for i in range(w.chains)]
        if w.exact is not None:
            configs[f"{name}.exact"] = config_hash(w.exact.inputs(args.seed))
    prov = provenance(args.seed, configs)

    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for name in names:
            for trace in traces:
                workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
                signal.alarm(RUN_DEADLINE_S)
                try:
                    result = run_workload(name, args.seed, args.seconds, trace, workdir)
                finally:
                    signal.alarm(0)
                    shutil.rmtree(workdir, ignore_errors=True)
                for c in result.chains:
                    store.check(name, c)
                if args.workload == "all":
                    check_known(result, args.seed)
                results.append(result)
                print_result(result, spec, write_record(result, args.seed, prov))
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGALRM, old)
        store.save()

    print(f"provenance: {_dump(prov)}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics: dict = {}
    for r in results:
        prefix = f"{r.workload}." if len(names) > 1 else ""
        metrics.update(as_reported(r, spec, prefix))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
