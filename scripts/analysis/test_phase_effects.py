#!/usr/bin/env python3
"""Fixture self-tests for the phase-effects analyzer (phase_effects.py).

Mirrors test_callgraph.py: every fixture has an exact expected census, so
both a missed detection and an over-trigger fail. The `good` fixture pins
the full extracted artifact (ownership maps, shared-write allow list,
barrier events), each `bad_*` fixture seeds exactly one contract
violation, and the live-tree tests assert the real engine passes and the
committed phase_effects.json stays fresh.

Stdlib only; runs under ctest as `phase_effects_selftest`.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import phase_effects  # noqa: E402

EFFECTS = HERE / "fixtures" / "effects"
REPO = HERE.parent.parent


def run_effects(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = phase_effects.main(argv)
        except SystemExit as e:  # argparse or fatal errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def census(root: pathlib.Path) -> list[tuple[str, int]]:
    model = phase_effects.load_model(root)
    result = phase_effects.analyze(model)
    return sorted((f.rule, f.line) for f in result.findings)


class GoodFixture(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.model = phase_effects.load_model(EFFECTS / "good")
        cls.result = phase_effects.analyze(cls.model)
        cls.artifact = phase_effects.build_artifact(cls.model, cls.result)

    def test_check_passes(self):
        code, out = run_effects(["--root", str(EFFECTS / "good"), "check"])
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_no_findings(self):
        self.assertEqual(self.result.findings, [])

    def test_parallel_region_census(self):
        self.assertEqual(
            sorted(self.artifact["phases"]["parallel"]),
            ["drain", "kRoute", "kScan"],
        )

    def test_pipeline_order(self):
        self.assertEqual(self.artifact["pipeline"], ["kScan", "kRoute"])
        self.assertEqual(self.artifact["task_kinds"], ["kScan", "kRoute"])

    def test_scan_phase_write_set_is_owned(self):
        scan = self.artifact["phases"]["parallel"]["kScan"]
        self.assertEqual(scan["writes"], {"scratch_": "owned"})
        self.assertEqual(scan["reads"]["flight_.pos_"], "owned")

    def test_route_phase_column_summary(self):
        # flight_.move(i, ...) must surface as an owned write of the pos_
        # column, and the annotated total_ accumulation as "annotated".
        route = self.artifact["phases"]["parallel"]["kRoute"]
        self.assertEqual(
            route["writes"],
            {"flight_.pos_": "owned", "out_": "owned", "total_": "annotated"},
        )

    def test_shared_write_allow_list(self):
        self.assertEqual(
            self.artifact["shared_writes"],
            [
                {
                    "member": "total_",
                    "file": "src/sim/engine.cpp",
                    "line": 66,
                    "reason": "per-range deltas commute; sum is order-free",
                }
            ],
        )

    def test_barrier_event_census(self):
        self.assertEqual(
            self.artifact["barriers"],
            {
                "events": {
                    "drain_tasks": ["next_task"],
                    "run_sharded": ["open", "close"],
                    "worker_loop": ["wait_open", "leave"],
                },
                "executors": ["drain_tasks"],
            },
        )

    def test_owner_index_derivation(self):
        # begin/end are derived from the task id inside run_task, so they
        # must enter the derived set when seeded with the fn's params.
        analyzer = phase_effects.RegionAnalyzer(self.model)
        fn = self.model.by_name["run_task"]
        derived, _ = analyzer.derive(fn.body, set(fn.params))
        self.assertLessEqual({"task", "begin", "end"}, derived)

    def test_flight_table_method_summaries(self):
        analyzer = phase_effects.RegionAnalyzer(self.model)
        self.assertEqual(
            analyzer.column_summary("FlightTable", "move"), [("pos_", "write")]
        )
        self.assertEqual(
            analyzer.column_summary("FlightTable", "pos"), [("pos_", "read")]
        )

    def test_method_constness_db(self):
        self.assertTrue(self.model.method_const[("FlightTable", "pos")])
        self.assertFalse(self.model.method_const[("FlightTable", "move")])


class BadFixtures(unittest.TestCase):
    """One seeded violation per fixture; censuses are exact."""

    def test_unowned_parallel_write(self):
        self.assertEqual(
            census(EFFECTS / "bad_unowned_write"),
            [("unowned-parallel-write", 56)],
        )

    def test_unannotated_shared_write_in_drain(self):
        self.assertEqual(
            census(EFFECTS / "bad_unannotated_shared"),
            [("unowned-parallel-write", 26)],
        )

    def test_intra_phase_write_read_hazard(self):
        self.assertEqual(
            census(EFFECTS / "bad_missing_barrier"),
            [("intra-phase-hazard", 63)],
        )

    def test_executor_without_barrier_epoch(self):
        self.assertEqual(
            census(EFFECTS / "bad_unbracketed"),
            [("unbracketed-executor", 34)],
        )

    def test_open_without_close(self):
        self.assertEqual(
            census(EFFECTS / "bad_unbalanced"),
            [("unbalanced-barrier", 35), ("unbracketed-executor", 36)],
        )

    def test_annotation_without_reason(self):
        self.assertEqual(
            census(EFFECTS / "bad_reasonless"), [("missing-reason", 65)]
        )

    def test_stale_annotation(self):
        self.assertEqual(
            census(EFFECTS / "bad_stale_annotation"),
            [("stale-annotation", 55)],
        )

    def test_enum_value_without_case(self):
        self.assertEqual(
            census(EFFECTS / "bad_missing_case"), [("missing-case", 40)]
        )

    def test_check_exit_code_and_rule_tag(self):
        code, out = run_effects(
            ["--root", str(EFFECTS / "bad_unowned_write"), "check"]
        )
        self.assertEqual(code, 1)
        self.assertIn("[unowned-parallel-write]", out)
        self.assertIn("1 finding(s)", out)


class ArtifactFreshness(unittest.TestCase):
    def copy_good(self, td: str) -> pathlib.Path:
        root = pathlib.Path(td) / "tree"
        shutil.copytree(EFFECTS / "good", root)
        return root

    def test_missing_artifact_fails_check(self):
        with tempfile.TemporaryDirectory() as td:
            root = self.copy_good(td)
            code, out = run_effects(
                ["--root", str(root), "artifact", "--check"]
            )
            self.assertEqual(code, 1)
            self.assertIn("not committed", out)

    def test_write_then_check_is_fresh(self):
        with tempfile.TemporaryDirectory() as td:
            root = self.copy_good(td)
            code, out = run_effects(["--root", str(root), "artifact", "--write"])
            self.assertEqual(code, 0, out)
            code, out = run_effects(
                ["--root", str(root), "artifact", "--check"]
            )
            self.assertEqual(code, 0, out)
            self.assertIn("fresh", out)

    def test_stale_artifact_is_detected(self):
        with tempfile.TemporaryDirectory() as td:
            root = self.copy_good(td)
            run_effects(["--root", str(root), "artifact", "--write"])
            cpp = root / "src" / "sim" / "engine.cpp"
            cpp.write_text(
                cpp.read_text().replace(
                    "out_[i] = flight_.pos(i) + 1;",
                    "scratch_[i] = flight_.pos(i) + 1;",
                )
            )
            code, out = run_effects(
                ["--root", str(root), "artifact", "--check"]
            )
            self.assertEqual(code, 1)
            self.assertIn("stale", out)

    def test_write_and_check_conflict(self):
        code, _ = run_effects(
            ["--root", str(EFFECTS / "good"), "artifact", "--write", "--check"]
        )
        self.assertEqual(code, 2)

    def test_artifact_schema(self):
        with tempfile.TemporaryDirectory() as td:
            root = self.copy_good(td)
            run_effects(["--root", str(root), "artifact", "--write"])
            data = json.loads((root / "phase_effects.json").read_text())
            self.assertEqual(data["schema"], phase_effects.SCHEMA)
            self.assertEqual(
                sorted(data),
                [
                    "barriers",
                    "cross_phase",
                    "files",
                    "phases",
                    "pipeline",
                    "schema",
                    "shared_writes",
                    "task_kinds",
                ],
            )


class LiveTree(unittest.TestCase):
    """The real engine must satisfy the contracts it documents."""

    def test_live_check_passes(self):
        code, out = run_effects(["--root", str(REPO), "check"])
        self.assertEqual(code, 0, out)

    def test_live_pipeline_census(self):
        model = phase_effects.load_model(REPO)
        self.assertEqual(
            phase_effects.extract_pipeline(model),
            ["kScan", "kBucket", "kRoute", "kMove"],
        )

    def test_live_shared_writes_are_annotated_with_reasons(self):
        model = phase_effects.load_model(REPO)
        result = phase_effects.analyze(model)
        members = sorted(w["member"] for w in result.shared_writes)
        self.assertEqual(members, ["policy_", "shards_"])
        for w in result.shared_writes:
            self.assertTrue(w["reason"].strip(), w)

    def test_committed_artifact_is_fresh(self):
        code, out = run_effects(["--root", str(REPO), "artifact", "--check"])
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
