#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program it measures).

    python3 perfbench/test_perfbench.py

The argument and schema tests are instant; the determinism and digest
tests build the worker and run real workload inputs (about two minutes).
"""

import contextlib
import io
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the module under test)

SCRATCH = run.ROOT / ".bench_build" / "perfbench-tests"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args):
    return subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def worker(workload, seed, index=0):
    report = run.run_worker(workload, seed, index)
    if report is None:
        raise AssertionError(f"worker failed on {workload} seed {seed}")
    return report


MODEL_KEYS = ("digest", "sessions", "cells", "aborted", "idelay_p50_s",
              "idelay_p98_s", "idelay_samples", "gpu_hours",
              "gpu_hours_committed")


class ArgumentTest(unittest.TestCase):
    """Bad arguments exit 2 with a named error, before anything builds."""

    def test_malformed_seed(self):
        result = bench("--workload", "proto_excerpt", "--seed", "12x",
                       "--seconds", "1", "--trace", "0")
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed seed '12x'", result.stderr)
        self.assertEqual(result.stdout, "")

    def test_negative_seed(self):
        result = bench("--workload", "proto_excerpt", "--seed=-1",
                       "--seconds", "1", "--trace", "0")
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed seed", result.stderr)

    def test_unknown_workload(self):
        result = bench("--workload", "no_such_workload", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
        self.assertEqual(result.returncode, 2)
        self.assertIn("invalid choice: 'no_such_workload'", result.stderr)
        self.assertEqual(result.stdout, "")


class SchemaTest(unittest.TestCase):
    """Every metric the command prints is declared, with its unit."""

    def setUp(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            self.spec = json.load(handle)

    def test_declared_metrics_match_printed_ones(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER_UNITS)

    def test_workloads_match(self):
        names = tuple(w["name"] for w in self.spec["workloads"])
        self.assertEqual(names, run.WORKLOADS)

    def test_names_units_and_bounds(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics + self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in metrics:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class DeterminismTest(unittest.TestCase):
    """Same seed, same input and results; another seed, another input."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("worker does not build here")

    def test_same_seed_same_digest_and_model_metrics(self):
        first = worker("proto_excerpt", 7)
        second = worker("proto_excerpt", 7)
        for key in MODEL_KEYS:
            self.assertEqual(first[key], second[key], key)

    def test_other_seed_other_input(self):
        first = worker("proto_excerpt", 7)
        other = worker("proto_excerpt", 8)
        self.assertNotEqual(first["digest"], other["digest"])
        self.assertNotEqual((first["sessions"], first["cells"]),
                            (other["sessions"], other["cells"]))

    def test_inputs_of_one_run_differ(self):
        self.assertNotEqual(worker("proto_excerpt", 7, 0)["digest"],
                            worker("proto_excerpt", 7, 1)["digest"])


class DigestCheckTest(unittest.TestCase):
    """The recorded digest is what a run reproduces, and a corrupted one
    fails the run: "correct": false, every cell failed, exit 1."""

    WORKLOAD = "stream_autoscale"
    SEED = "1"

    @staticmethod
    def bench_with_table(table, *extra):
        """run.main in this process, checking against @table; returns
        (exit code, result line, notes)."""
        notes, stdout = [], io.StringIO()
        with mock.patch.object(run, "DIGESTS", table), \
                mock.patch.object(run, "note", notes.append), \
                contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", DigestCheckTest.WORKLOAD,
                             "--seed", DigestCheckTest.SEED, "--seconds",
                             "1", "--trace", "0", *extra])
        return code, json.loads(stdout.getvalue().splitlines()[-1]), notes

    def test_recorded_digest_reproduces_and_corruption_fails(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        table = SCRATCH / "digests.json"
        table.unlink(missing_ok=True)
        code, _, notes = self.bench_with_table(table, "--record")
        self.assertEqual(code, 0, notes)
        digest = json.loads(table.read_text())[self.WORKLOAD][self.SEED]
        shipped = run.load_digests()
        if self.SEED in shipped.get(self.WORKLOAD, {}):
            self.assertEqual(digest, shipped[self.WORKLOAD][self.SEED])

        table.write_text(json.dumps(
            {self.WORKLOAD: {self.SEED: "0" * len(digest)}}))
        code, result, notes = self.bench_with_table(table)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["completed_frac"]["value"], 0.0)
        self.assertTrue(any("!= recorded" in note for note in notes), notes)


if __name__ == "__main__":
    unittest.main()
