#!/usr/bin/env python3
"""Tests of run.py's BENCHMARK.json and result checks: python3 perfbench/test_run.py"""
import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SpecTest(unittest.TestCase):
    def test_committed_spec_is_valid(self):
        self.assertEqual(run.check_spec(SPEC), [])

    def test_every_workload_records_why(self):
        for w in SPEC["workloads"]:
            self.assertTrue(w["why"].strip(), w["name"])

    def test_bad_names_and_caps_are_refused(self):
        for mutate in (
            lambda s: s["end_to_end"].append(dict(s["end_to_end"][1], name="bad name")),
            lambda s: s["per_layer"].append(dict(s["per_layer"][0])),  # duplicate
            lambda s: s["end_to_end"].extend(
                dict(s["end_to_end"][1], name=f"m{i}") for i in range(16)),
            lambda s: s["per_layer"].extend(
                dict(s["per_layer"][0], name=f"l{i}") for i in range(128)),
            lambda s: s["workloads"][0].update(why="two\nlines"),
            lambda s: s["end_to_end"][1].update(bound=0.3),
            lambda s: s["end_to_end"][0].update(bound=0.01),  # setup_s not largest
        ):
            spec = copy.deepcopy(SPEC)
            mutate(spec)
            self.assertNotEqual(run.check_spec(spec), [])

    def test_result_must_carry_exactly_the_catalogue(self):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        good = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        self.assertEqual(run.check_result(good, SPEC, trace=0), [])
        self.assertNotEqual(run.check_result(good, SPEC, trace=1), [])
        missing = copy.deepcopy(good)
        missing["metrics"].pop("setup_s")
        self.assertNotEqual(run.check_result(missing, SPEC, trace=0), [])
        none = dict(good, attempted=0)
        self.assertNotEqual(run.check_result(none, SPEC, trace=0), [])


if __name__ == "__main__":
    unittest.main()
