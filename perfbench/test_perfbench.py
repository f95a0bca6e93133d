#!/usr/bin/env python3
"""Self-tests of the benchmark, on small inputs.

    python3 perfbench/test_perfbench.py

Builds the two benchmark programs (as run.py does) and checks that
  * the traced program simulates exactly what the clean one does (same
    counts and outcome_hash) on a small grid, monolithic and sharded, and on
    the seeded serve replay;
  * the sharded grid outcome does not depend on the shard count;
  * both programs report every metric BENCHMARK.json lists, in its units.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SMALL_GRID = ["--cells", 100, "--portables", 5000, "--sim-seconds", 1800]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.clean, cls.traced = run.build()
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def report(self, program, workload, *extra):
        return run.run_program(program, ["--workload", workload, "--seed", 7, "--seconds", 0.1,
                                         "--max-jobs", 1, *extra])

    def assert_traced_matches_clean(self, workload, *extra):
        clean = self.report(self.clean, workload, *extra)
        traced = self.report(self.traced, workload, *extra)
        self.assertTrue(clean["correct"], clean["problems"])
        self.assertTrue(traced["correct"], traced["problems"])
        self.assertTrue(clean["digest"])
        self.assertEqual(clean["digest"], traced["digest"])
        self.assertEqual(clean["layers"], {})
        return clean, traced

    def test_traced_grid_reproduces_clean(self):
        _, traced = self.assert_traced_matches_clean("grid_campus", *SMALL_GRID)
        layers = traced["layers"]
        self.assertGreater(layers["profiles.record_handoff.calls"]["value"], 0)
        self.assertGreater(layers["profiles.record_handoff.self_s"]["value"], 0)
        self.assertGreater(layers["prediction.predict.calls"]["value"], 0)
        self.assertGreater(layers["reservation.admit_handoff.calls"]["value"], 0)

    def test_traced_sharded_grid_reproduces_clean(self):
        _, traced = self.assert_traced_matches_clean("grid_campus_sharded", *SMALL_GRID,
                                                     "--shards", 2)
        self.assertGreater(traced["layers"]["sim.shard.boundary_messages"]["value"], 0)

    def test_traced_serve_replay_reproduces_clean(self):
        _, traced = self.assert_traced_matches_clean("serve_open_loop")
        self.assertGreater(traced["layers"]["core.open_connection.calls"]["value"], 0)
        self.assertGreater(traced["layers"]["qos.admit.calls"]["value"], 0)

    def test_sharded_outcome_independent_of_shard_count(self):
        digests = {k: self.report(self.clean, "grid_campus_sharded", *SMALL_GRID,
                                  "--shards", k)["digest"] for k in (1, 2, 4)}
        self.assertEqual(len(set(digests.values())), 1, digests)

    def test_reports_cover_the_spec(self):
        traced = self.report(self.traced, "grid_campus_sharded", *SMALL_GRID)
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in traced["end_to_end"].items()}, e2e)
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for name, m in traced["layers"].items():
            self.assertEqual(per_layer.get(name), m["unit"], name)
        names = {m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        self.assertEqual(len(names), len(self.spec["end_to_end"]) + len(self.spec["per_layer"]))


if __name__ == "__main__":
    unittest.main()
