"""Self-test of the benchmark on tiny workloads; takes well under a minute.

    python3 bench/selftest.py

Checks that BENCHMARK.json names what run.py reports, that the golden files
match their checksums, that every smoke workload passes its output check
untraced and traced, that traced counts repeat exactly, and that a
corrupted golden file or a missing source tree makes the benchmark fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402

SMOKE = [w for w in run.WORKLOADS if w.startswith("smoke-")]


def bench(*args, root=run.ROOT):
    """Run bench/run.py under ``root``; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines):
    rec = json.loads(lines[-1])
    if set(rec) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(rec)}")
    return rec


class Contract(unittest.TestCase):

    def test_benchmark_json_matches_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.MAIN_WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: u for k, (u, _) in run.END_TO_END.items()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_golden_checksums(self):
        with open(os.path.join(run.GOLDEN, "SHA256SUMS")) as fh:
            sums = dict(reversed(line.split()) for line in fh if line.strip())
        self.assertEqual(set(sums), {f"{w}.json" for w in run.WORKLOADS})
        for name, digest in sums.items():
            with open(os.path.join(run.GOLDEN, name), "rb") as fh:
                self.assertEqual(hashlib.sha256(fh.read()).hexdigest(), digest,
                                 name)


class Smoke(unittest.TestCase):

    def test_untraced(self):
        for w in SMOKE:
            for seed in (1, 2):
                with self.subTest(workload=w, seed=seed):
                    code, lines = bench("--workload", w, "--seed", str(seed),
                                        "--seconds", "0.5", "--trace", "0")
                    rec = result(lines)
                    self.assertEqual(code, 0)
                    self.assertTrue(rec["correct"])
                    self.assertEqual(rec["failed"], 0)
                    self.assertGreaterEqual(rec["attempted"], 1)
                    self.assertEqual(set(rec["metrics"]), set(run.END_TO_END))
                    for m in rec["metrics"].values():
                        self.assertGreater(m["value"], 0)

    def test_traced_counts_repeat(self):
        for w in SMOKE:
            with self.subTest(workload=w):
                runs = []
                for seed in (1, 2):
                    code, lines = bench("--workload", w, "--seed", str(seed),
                                        "--seconds", "0.5", "--trace", "1")
                    rec = result(lines)
                    self.assertEqual(code, 0)
                    self.assertTrue(rec["correct"])
                    self.assertEqual(set(rec["metrics"]), set(run.PER_LAYER))
                    runs.append({k: m["value"] for k, m in rec["metrics"].items()
                                 if not k.endswith(("_s", "_frac"))})
                self.assertEqual(runs[0], runs[1])


class Failures(unittest.TestCase):

    def setUp(self):
        os.makedirs(run.RESULTS, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=run.RESULTS)
        shutil.copytree(BENCH, os.path.join(self.tmp, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), self.tmp)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _with_src(self):
        shutil.copytree(run.SRC, os.path.join(self.tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))

    def _rewrite_golden(self, workload, data, update_sum):
        golden = os.path.join(self.tmp, "bench", "golden")
        with open(os.path.join(golden, f"{workload}.json"), "wb") as fh:
            fh.write(data)
        if update_sum:
            sums = os.path.join(golden, "SHA256SUMS")
            with open(sums) as fh:
                lines = [line for line in fh if not line.endswith(f" {workload}.json\n")]
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {workload}.json\n")
            with open(sums, "w") as fh:
                fh.writelines(lines)

    def _assert_all_ops_fail(self, workload):
        code, lines = bench("--workload", workload, "--seconds", "0.2",
                            root=self.tmp)
        rec = result(lines)
        self.assertEqual(code, 1)
        self.assertFalse(rec["correct"])
        self.assertGreaterEqual(rec["attempted"], 1)
        self.assertEqual(rec["failed"], rec["attempted"])

    def test_corrupted_golden_file_fails(self):
        self._with_src()
        self._rewrite_golden("smoke-pfaffian-n4", b"{}\n", update_sum=False)
        self._assert_all_ops_fail("smoke-pfaffian-n4")

    def test_output_differing_from_golden_fails(self):
        self._with_src()
        path = os.path.join(run.GOLDEN, "smoke-macdonald-n2.json")
        with open(path, "rb") as fh:
            data = fh.read().replace(b"1", b"2", 1)
        self._rewrite_golden("smoke-macdonald-n2", data, update_sum=True)
        self._assert_all_ops_fail("smoke-macdonald-n2")

    def test_missing_source_fails_without_result(self):
        code, lines = bench("--workload", run.MAIN_WORKLOADS[0], "--seconds",
                            "1", root=self.tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
