"""Self-test of the benchmark at a tiny size.

    python3 benchmark/selftest.py

Checks that every workload emits each end-to-end metric (untraced) and
each per-layer metric (traced) named in ``BENCHMARK.json``, with its unit;
that a p1-resume ledger with one flipped byte fails the byte-identity
check and raises ``failed_frac``; and that the benchmark refuses to run,
printing no result, in a directory without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# Every end-to-end metric the benchmark prints; BENCHMARK.json gates a subset.
PRINTED_END_TO_END = {
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "bbe_per_s": "BBE/s",
    "best_acc_mean": "fraction", "best_acc_25pct": "fraction", "epochs_per_full": "epochs",
    "failed_frac": "ratio", "peak_rss_mb": "MiB",
}


class MetricsEmitted(unittest.TestCase):
    def check(self, trace: int, key: str, printed: dict) -> None:
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"], trace=trace):
                done = bench("--workload", workload["name"], "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--tiny")
                self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                emitted = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(emitted, expected)
                lines = [line.split() for line in done.stdout.splitlines() if line.startswith("metric ")]
                self.assertEqual({words[1]: words[4] for words in lines}, printed)

    def test_end_to_end(self):
        self.check(0, "end_to_end", PRINTED_END_TO_END)

    def test_per_layer(self):
        self.check(1, "per_layer", {m["name"]: m["unit"] for m in SPEC["per_layer"]})


class ResumeCorruption(unittest.TestCase):
    def test_flipped_byte_fails_the_resume_check(self):
        self.assertIsNone(run.load_program())
        from harness import end_to_end, run_ops
        from workloads import P1Resume, campaign_seeds

        workload = P1Resume(tiny=True)
        seeds = campaign_seeds(workload.name, 3, workload.pool_size)
        work = run.WORK_ROOT / f"selftest-{os.getpid()}"
        flipped = []

        def flip_first_score_digit(op_dir: Path) -> None:
            if flipped:
                return
            ledger = op_dir / "ledger.csv"
            data = bytearray(ledger.read_bytes())
            row = data.index(b"\n0,full-eval,")
            score = data.index(b",", data.index(b",", row + 13) + 1) - 1  # last digit of the score
            data[score] ^= 0x01
            ledger.write_bytes(bytes(data))
            flipped.append(op_dir.name)

        try:
            work.mkdir(parents=True)
            workload.prepare(seeds, work)
            result = run_ops(workload, seeds, 0.0, work, before_op=flip_first_score_digit)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertIn("resumed ledger is not byte-identical to its reference", result.ops[0].problems)
        # ops of the other seed are untouched and pass
        self.assertTrue(all(not op.problems for op in result.ops if op.seed != seeds[0]))
        result.probes.append(1.0)
        metrics, _ = end_to_end(result)
        self.assertGreater(metrics["failed_frac"][0], 0.0)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = run.WORK_ROOT / f"bare-{os.getpid()}"
        try:
            bare.mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
