#!/usr/bin/env python3
"""Short smoke of every workload, for the benchmark's own tests.

    python3 fleetbench/smoke_test.py        (from the repository root)

For each workload it runs fleetbench/run.py once untraced and once traced
with a short measurement, and checks that every verdict was right, that
every metric BENCHMARK.json names is printed with its unit, and that each
workload does what it was chosen for: the replay memo serves idle-poll and
is bypassed elsewhere, and replay dominates replay-long. replay-long is
smoked too although BENCHMARK.json does not list it (see README.md). It
also checks that the benchmark fails cleanly in a directory holding only
BENCHMARK.json and fleetbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "4"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("fleetbench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class Smoke(unittest.TestCase):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]] + ["replay-long"]
    results = {}

    @classmethod
    def result(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.results:
            proc = run(workload, trace)
            if proc.returncode != 0:
                raise AssertionError(
                    f"{workload} trace={trace} exited {proc.returncode}:\n"
                    f"{proc.stderr[-3000:]}")
            lines = proc.stdout.strip().splitlines()
            cls.results[key] = (json.loads(lines[-2]), json.loads(lines[-1]))
        return cls.results[key]

    def check_run(self, workload, trace, names):
        info, res = self.result(workload, trace)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], info["detail"])
        self.assertEqual(res["failed"], 0, info["detail"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(info["detail"]["failed_frac"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in names})
        for m in names:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        for key in ("nproc", "cpu_model", "loadavg_1m_at_start",
                    "sha256_backend", "build_type", "seed", "source_id"):
            self.assertIn(key, info["host"])
        for key in ("input.frame_bytes_mean", "input.log_bytes_mean",
                    "input.attack_share"):
            self.assertIn(key, info["workload_descriptors"])
        return res["metrics"]

    def test_end_to_end_metrics(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                m = self.check_run(w, 0, self.spec["end_to_end"])
                for name, v in m.items():
                    self.assertGreater(v["value"], 0, name)

    def test_traced_layers(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                m = self.check_run(w, 1, self.spec["per_layer"])
                v = {k: x["value"] for k, x in m.items()}
                self.assertEqual(v["failed_frac"], 0)
                # The generator must stay well below one core, or it and
                # not the service would set the sat rate.
                self.assertLess(v["load.gen_busy_frac"], 0.75)
                if w == "idle-poll":
                    self.assertGreaterEqual(v["fleet.memo_hit_ratio"], 0.9)
                else:
                    self.assertLess(v["fleet.memo_hit_ratio"], 0.05)
                if w == "replay-long":
                    # The stages of one report's verification. net.self_us
                    # is left out: for a lone round it is mostly thread
                    # wake-up waits, not work done per report.
                    layers = ("fleet.self_us", "proto.decode_us",
                              "rot.mac_us", "store.journal_us",
                              "verifier.replay_us")
                    self.assertEqual(max(layers, key=lambda k: v[k]),
                                     "verifier.replay_us")

    def test_fails_without_sources(self):
        build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                     or os.path.join(ROOT, ".bench_build"))
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in self.spec["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "b"))
            proc = subprocess.run(
                [sys.executable, os.path.join("fleetbench", "run.py"),
                 "--workload", "idle-poll", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
