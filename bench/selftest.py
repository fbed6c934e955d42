"""Self-test of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py

It runs the harness on tiny inputs (a few seconds each), checks that every
metric named in BENCHMARK.json comes out with its unit, that a corrupted
artifact or a changed fingerprint fails the run, and that the harness refuses
to run without the helpdp sources.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

TINY_ENV = {"room_count": 4, "max_steps": 5, "hint_sizes": {"2": 1.0},
            "n_train": 8, "n_val": 2, "n_test": 2}


def tiny_config(seed: int) -> dict:
    cfg = bench.reference_config(seed)
    cfg.update(env=TINY_ENV, phase1_seeds=1, eval_seeds=2)
    return cfg


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.saved = (dict(bench.WORKLOADS), bench.IMPORTTIME_REPS, bench.OUT)
        bench.OUT.mkdir(exist_ok=True)
        bench.OUT = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))
        bench.WORKLOADS["tiny-cli"] = bench.CliWorkload(config=tiny_config, chains=2)
        bench.WORKLOADS["tiny-exact"] = bench.CliWorkload(config=tiny_config, chains=1,
                                                          exact=bench.ExactStep(env=TINY_ENV))
        bench.IMPORTTIME_REPS = 1
        cls.spec = bench.metric_spec()

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(bench.OUT, ignore_errors=True)
        workloads, bench.IMPORTTIME_REPS, bench.OUT = cls.saved
        bench.WORKLOADS.clear()
        bench.WORKLOADS.update(workloads)

    def run_bench(self, workload: str, trace: int, seconds: int = 0) -> tuple[int, dict]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench.main(["--workload", workload, "--seed", "5", "--seconds", str(seconds),
                               "--trace", str(trace)])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_every_metric_with_its_unit(self) -> None:
        for workload in ("tiny-cli", "tiny-exact"):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, res = self.run_bench(workload, trace, seconds=3)
                    self.assertEqual(code, 0, res)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[group]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in res["metrics"].items():
                        self.assertIsInstance(v["value"], float, k)

    def test_budget_overrun_in_search_json_fails(self) -> None:
        original = bench.run_timed

        def corrupting(argv, cwd, log):
            proc = original(argv, cwd, log)
            if argv[-1] == "search":
                path = Path(cwd) / "out" / "search.json"
                doc = json.loads(path.read_text(encoding="utf-8"))
                doc["expected_usage"] = doc["budget"] + 0.5
                path.write_text(json.dumps(doc), encoding="utf-8")
            return proc

        bench.run_timed = corrupting
        try:
            code, res = self.run_bench("tiny-cli", 0)
        finally:
            bench.run_timed = original
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_changed_fingerprint_fails(self) -> None:
        with tempfile.TemporaryDirectory(dir=bench.OUT) as d:
            store = bench.FingerprintStore(Path(d) / "fp.json", "code")
            fp = {"r": 0.1, "expected_usage": 0.9, "success_rate": 0.5, "solution_sha256": "a"}
            first = bench.Chain(key="k", ops=bench.COMMANDS, fingerprint=fp)
            store.check("w", first)
            store.save()
            again = bench.Chain(key="k", ops=bench.COMMANDS, fingerprint=dict(fp, solution_sha256="b"))
            bench.FingerprintStore(Path(d) / "fp.json", "code").check("w", again)
        self.assertEqual(first.failures, {})
        self.assertEqual(list(again.failures), ["eval"])

    def test_refuses_without_sources(self) -> None:
        with tempfile.TemporaryDirectory(dir=bench.OUT) as d:
            shutil.copy(bench.ROOT / "BENCHMARK.json", d)
            shutil.copytree(bench.BENCH_DIR, Path(d) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "bench/bench.py", "--workload", "paper",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
