#!/usr/bin/env python3
"""Fixture self-tests for the whole-program analyzer (callgraph.py).

Mirrors scripts/lint/test_determinism_lint.py: every fixture has an exact
expected census, so both a missed detection and an over-trigger fail. The
reach fixture also drives the determinism lint end-to-end, asserting the
acceptance property of the PR: an unordered-container iteration in a
routing-REACHABLE src/core function is caught once the artifact widens the
scope — and, crucially, is missed with the prefix floor alone.

Stdlib only; runs under ctest as `callgraph_selftest`.
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
sys.path.insert(0, str(HERE.parent / "lint"))

import callgraph  # noqa: E402
import determinism_lint  # noqa: E402

REACH = HERE / "fixtures" / "reach"
LAYER = HERE / "fixtures" / "layering"
SHIP = HERE / "fixtures" / "shipping"


def run_lint(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = determinism_lint.main(argv)
    return code, out.getvalue()


def run_callgraph(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = callgraph.main(argv)
        except SystemExit as e:  # argparse or fatal errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


class ReachabilityFixture(unittest.TestCase):
    """Census of the call-graph closure from Engine::step."""

    @classmethod
    def setUpClass(cls):
        program = callgraph.load_program(REACH, None)
        cls.artifact = callgraph.build_artifact(
            program, callgraph.DEFAULT_ROOTS
        )

    def test_reachable_file_census(self):
        self.assertEqual(
            self.artifact["files"],
            [
                "src/core/helper.cpp",
                "src/sim/engine.cpp",
                "src/stats/tick_impl.cpp",
            ],
        )

    def test_direct_call_reaches_core_definition(self):
        self.assertEqual(
            self.artifact["functions"]["src/core/helper.cpp"],
            ["hp::core::route_phase"],
        )

    def test_virtual_dispatch_reaches_override(self):
        # engine.cpp only ever writes `obs_->on_tick()`; the stats-layer
        # override must still be certified.
        self.assertEqual(
            self.artifact["functions"]["src/stats/tick_impl.cpp"],
            ["hp::stats::TickCounter::on_tick"],
        )

    def test_uncalled_function_stays_out(self):
        self.assertNotIn("src/stats/unreached.cpp", self.artifact["files"])

    def test_schema_fields(self):
        self.assertEqual(self.artifact["schema"], callgraph.SCHEMA)
        self.assertEqual(self.artifact["engine"], "regex")
        self.assertEqual(self.artifact["roots"], ["hp::sim::Engine::step"])


class ReachScopesDeterminismLint(unittest.TestCase):
    """The artifact must widen the lint scope — the acceptance criterion."""

    def setUp(self):
        program = callgraph.load_program(REACH, None)
        artifact = callgraph.build_artifact(program, callgraph.DEFAULT_ROOTS)
        self.tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        )
        self.addCleanup(pathlib.Path(self.tmp.name).unlink)
        json.dump(artifact, self.tmp)
        self.tmp.close()

    def test_reachable_core_iteration_is_caught(self):
        code, out = run_lint(
            ["--root", str(REACH), "--reachable", self.tmp.name]
        )
        self.assertEqual(code, 1, out)
        findings = [l for l in out.splitlines() if "src/" in l and "[" in l]
        census = {}
        for line in findings:
            path = line.split(":", 1)[0]
            rule = line.split("[", 1)[1].split("]", 1)[0]
            census[(path, rule)] = census.get((path, rule), 0) + 1
        self.assertEqual(
            census,
            {
                ("src/core/helper.cpp", "unordered-member"): 1,
                ("src/core/helper.cpp", "unordered-iteration"): 1,
            },
        )

    def test_unreached_stats_file_is_not_flagged(self):
        code, out = run_lint(
            ["--root", str(REACH), "--reachable", self.tmp.name]
        )
        self.assertNotIn("unreached.cpp", out)

    def test_prefix_floor_alone_misses_the_core_finding(self):
        # The pre-artifact behaviour: src/core escapes all routing rules.
        # This is exactly the gap the call-graph scope closes.
        code, out = run_lint(["--root", str(REACH), "--no-reachable"])
        self.assertEqual(code, 0, out)

    def test_missing_explicit_artifact_is_an_error(self):
        code, out = run_lint(
            ["--root", str(REACH), "--reachable", "/nonexistent/a.json"]
        )
        self.assertEqual(code, 2, out)


class ArtifactFreshness(unittest.TestCase):
    def test_check_fails_on_stale_artifact(self):
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td) / "tree"
            shutil.copytree(REACH, root)
            code, out = run_callgraph(
                ["--root", str(root), "reachable", "--write"]
            )
            self.assertEqual(code, 0, out)
            code, out = run_callgraph(
                ["--root", str(root), "reachable", "--check"]
            )
            self.assertEqual(code, 0, out)
            # Grow the reachable set: a fresh call edge into unreached.cpp.
            engine = root / "src" / "sim" / "engine.cpp"
            engine.write_text(
                engine.read_text().replace(
                    "core::route_phase(3);",
                    "core::route_phase(3);\n  hp::stats::orphan_stat();",
                )
            )
            code, out = run_callgraph(
                ["--root", str(root), "reachable", "--check"]
            )
            self.assertEqual(code, 1, out)
            self.assertIn("stale", out)
            self.assertIn("+ src/stats/unreached.cpp", out)

    def test_check_fails_when_artifact_missing(self):
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td) / "tree"
            shutil.copytree(REACH, root)
            code, out = run_callgraph(
                ["--root", str(root), "reachable", "--check"]
            )
            self.assertEqual(code, 1, out)


class ShippingGate(unittest.TestCase):
    """`shipping --check` over a miniature src/ + examples/ tree."""

    def setUp(self):
        td = tempfile.TemporaryDirectory()
        self.addCleanup(td.cleanup)
        self.root = pathlib.Path(td.name) / "tree"
        shutil.copytree(SHIP, self.root)
        self.allowlist = self.root / "shipping.json"

    def check(self) -> tuple[int, str]:
        return run_callgraph(
            [
                "--root", str(self.root),
                "shipping", "--check", "--allowlist", str(self.allowlist),
            ]
        )

    def add_src(self, text: str) -> None:
        lib = self.root / "src" / "util" / "lib.cpp"
        lib.write_text(lib.read_text() + text)

    def set_allowlist(self, entries: list[dict]) -> None:
        self.allowlist.write_text(json.dumps({"test_only": entries}))

    def test_fixture_passes(self):
        code, out = self.check()
        self.assertEqual(code, 0, out)

    def test_test_only_census(self):
        program = callgraph.load_program(
            self.root, None, ("src",) + callgraph.SHIPPED_DIRS
        )
        self.assertEqual(
            sorted(callgraph.test_only_functions(program)), ["hp::paper_bound"]
        )

    def test_operator_constructor_and_macro_body_calls_pass(self):
        # Nothing shipped names Vec, its operator[], its destructor or
        # detail::fail_if (only the LIB_CHECK body does); none is flagged.
        program = callgraph.load_program(
            self.root, None, ("src",) + callgraph.SHIPPED_DIRS
        )
        reached = set(callgraph.test_only_functions(program))
        for name in (
            "hp::Vec::Vec", "hp::Vec::~Vec", "hp::Vec::operator[]",
            "hp::detail::fail_if",
        ):
            self.assertNotIn(name, reached)

    def test_non_main_shipped_function_is_a_root(self):
        # examples/demo.cpp's print_report is never called from main, yet
        # report_stat, which only it calls, counts as shipped.
        code, out = self.check()
        self.assertEqual(code, 0, out)
        self.assertNotIn("report_stat", out)

    def test_new_unlisted_test_only_function_fails(self):
        self.add_src("namespace hp {\nint only_tests_call_me() { return 1; }\n}\n")
        code, out = self.check()
        self.assertEqual(code, 1, out)
        self.assertIn("hp::only_tests_call_me is reached only by tests", out)

    def test_build_tree_is_not_shipped(self):
        gen = self.root / "examples" / "build" / "gen.cpp"
        gen.parent.mkdir()
        gen.write_text("int main() { return hp::paper_bound(2); }\n")
        code, out = self.check()
        self.assertEqual(code, 0, out)

    def test_stale_entry_for_missing_function_fails(self):
        self.set_allowlist(
            [
                {"function": "hp::paper_bound", "reason": "paper artifact"},
                {"function": "hp::deleted_long_ago", "reason": "was one"},
            ]
        )
        code, out = self.check()
        self.assertEqual(code, 1, out)
        self.assertIn("stale allowlist entry hp::deleted_long_ago", out)

    def test_stale_entry_for_shipped_function_fails(self):
        self.set_allowlist(
            [
                {"function": "hp::paper_bound", "reason": "paper artifact"},
                {"function": "hp::shipped_helper", "reason": "reference"},
            ]
        )
        code, out = self.check()
        self.assertEqual(code, 1, out)
        self.assertIn("hp::shipped_helper: a shipped binary reaches it", out)

    def test_reasonless_entry_is_rejected(self):
        self.set_allowlist([{"function": "hp::paper_bound", "reason": " "}])
        code, out = self.check()
        self.assertEqual(code, 2, out)


class LayeringFixture(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        program = callgraph.load_program(LAYER, None)
        config = callgraph.load_layering_config(
            LAYER / "layering_config.json"
        )
        cls.violations = callgraph.check_layering(program, config)

    def test_exact_violation_census(self):
        edges = sorted((v.src, v.dst) for v in self.violations)
        self.assertEqual(
            edges,
            [
                ("src/core/deleted_long_ago.cpp", "src/sim/engine.hpp"),
                ("src/core/mid.hpp", "src/sim/engine.hpp"),
            ],
        )

    def test_upward_include_is_the_violation(self):
        real = [v for v in self.violations if v.src == "src/core/mid.hpp"]
        self.assertEqual(len(real), 1)
        self.assertIn("must not include layer 'sim'", real[0].detail)

    def test_stale_exception_is_reported(self):
        stale = [
            v
            for v in self.violations
            if v.src == "src/core/deleted_long_ago.cpp"
        ]
        self.assertEqual(len(stale), 1)
        self.assertIn("stale edge_exception", stale[0].detail)

    def test_excused_edge_and_downward_includes_are_clean(self):
        srcs = {v.src for v in self.violations}
        self.assertNotIn("src/routing/excused.cpp", srcs)
        self.assertNotIn("src/sim/engine.hpp", srcs)

    def test_override_outside_src_joins_the_gate(self):
        # A harness header kept beside its tests but placed on the util
        # layer is held to that rank.
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td) / "tree"
            shutil.copytree(LAYER, root)
            harness = root / "tests" / "model" / "harness.hpp"
            harness.parent.mkdir(parents=True)
            harness.write_text('#include "sim/engine.hpp"\n')
            config = json.loads((root / "layering_config.json").read_text())
            config["file_overrides"]["tests/model/harness.hpp"] = {
                "layer": "util",
                "reason": "model-checker harness",
            }
            path = root / "layering_config.json"
            path.write_text(json.dumps(config))
            code, out = run_callgraph(
                ["--root", str(root), "layering", "--config", str(path)]
            )
            self.assertEqual(code, 1, out)
            self.assertIn(
                "tests/model/harness.hpp: [layering] layer 'util'", out
            )

    def test_reasonless_exception_is_rejected(self):
        config = json.loads(
            (LAYER / "layering_config.json").read_text()
        )
        config["edge_exceptions"][0]["reason"] = "  "
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(config, f)
            f.flush()
            with self.assertRaises(SystemExit):
                callgraph.load_layering_config(pathlib.Path(f.name))


class ParserRobustness(unittest.TestCase):
    """Direct parse_file checks for constructs that trip naive scanners."""

    def test_ctor_init_list_and_braced_init(self):
        pf = callgraph.parse_file(
            "src/sim/x.cpp",
            "namespace hp::sim {\n"
            "Foo::Foo(int a) : a_(a), b_{a + 1}, c_(helper(a)) {\n"
            "  init_tables();\n"
            "}\n"
            "}\n",
        )
        self.assertEqual(len(pf.functions), 1)
        fn = pf.functions[0]
        self.assertEqual(fn.qualified, "hp::sim::Foo::Foo")
        self.assertIn("init_tables", fn.calls)
        self.assertIn("helper", fn.calls)

    def test_declaration_is_not_a_definition(self):
        pf = callgraph.parse_file(
            "src/sim/x.hpp",
            "namespace hp {\n"
            "void declared_only(int x);\n"
            "int defaulted() = delete;\n"
            "struct S { virtual void pure() = 0; ~S() = default; };\n"
            "}\n",
        )
        self.assertEqual(pf.functions, [])

    def test_control_keywords_are_not_calls(self):
        pf = callgraph.parse_file(
            "src/sim/x.cpp",
            "namespace hp {\n"
            "void f() {\n"
            "  if (g()) { while (h()) { return; } }\n"
            "  for (int i = 0; i < 3; ++i) { k(i); }\n"
            "}\n"
            "}\n",
        )
        (fn,) = pf.functions
        self.assertEqual(fn.calls, {"g", "h", "k"})

    def test_strings_and_comments_hide_calls(self):
        pf = callgraph.parse_file(
            "src/sim/x.cpp",
            'namespace hp {\nvoid f() {\n  const char* s = "fake()";\n'
            "  // commented_call();\n}\n}\n",
        )
        (fn,) = pf.functions
        self.assertEqual(fn.calls, set())

    def test_macro_continuation_is_not_a_definition(self):
        pf = callgraph.parse_file(
            "src/util/x.hpp",
            "#define CHECK(e) \\\n"
            "  ::hp::detail::fail(e)\n"
            "namespace hp {\nint after() { return 1; }\n}\n",
        )
        self.assertEqual([fn.qualified for fn in pf.functions], ["hp::after"])
        self.assertEqual(pf.macro_calls, {"fail"})

    def test_template_parameter_is_not_the_class_name(self):
        pf = callgraph.parse_file(
            "src/util/x.hpp",
            "namespace hp {\ntemplate <class Sync>\n"
            'class ATTR("cap") Barrier {\n public:\n'
            "  explicit Barrier(int n) : n_(n) {}\n"
            "  int open() { return n_; }\n  int n_;\n};\n}\n",
        )
        self.assertEqual(
            [fn.qualified for fn in pf.functions],
            ["hp::Barrier::Barrier", "hp::Barrier::open"],
        )
        self.assertEqual(pf.classes, {"Barrier"})

    def test_digit_separator_does_not_open_a_char_literal(self):
        pf = callgraph.parse_file(
            "src/sim/x.cpp",
            "namespace hp {\nvoid f() {\n  const int n = 100'000;\n"
            "  g(n);\n}\nvoid h() { k(); }\n}\n",
        )
        self.assertEqual(
            {fn.qualified: fn.calls for fn in pf.functions},
            {"hp::f": {"g"}, "hp::h": {"k"}},
        )

    def test_class_mention_reaches_constructor(self):
        pf = callgraph.parse_file(
            "src/sim/x.cpp",
            "namespace hp {\n"
            "struct Rng { Rng(int s) { seed(s); } };\n"
            "void f() {\n  Rng node_rng{42};\n  (void)node_rng;\n}\n"
            "}\n",
        )
        program = callgraph.Program({"src/sim/x.cpp": pf})
        names = {fn.qualified for fn in program.functions}
        self.assertIn("hp::Rng::Rng", names)
        f = next(fn for fn in pf.functions if fn.name == "f")
        self.assertIn("Rng", f.idents)
        reach = callgraph.reachable_functions(program, ("hp::f",))
        self.assertEqual(
            {fn.qualified for fn in reach},
            {"hp::f", "hp::Rng::Rng"},  # seed() has no definition here
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
