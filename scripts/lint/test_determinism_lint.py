#!/usr/bin/env python3
"""Self-tests for the determinism lint: every known-bad fixture must be
flagged with exactly the expected rule counts, every good fixture must pass,
and the allow-annotation machinery must behave (reason mandatory, comment
blocks scanned upward). Runs on the Python standard library alone so it
works in containers without pytest; ctest registers it as
`determinism_lint_selftest`."""

from __future__ import annotations

import collections
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import determinism_lint  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# fixture file -> expected {rule: count}. A bad fixture's expectation is the
# full census: any extra or missing finding is a regression in the lint.
EXPECTED = {
    "bad_unordered_member.cpp": {"unordered-member": 3},
    "bad_unordered_iteration.cpp": {
        "unordered-iteration": 3,
        "unordered-member": 1,
    },
    "bad_rand.cpp": {"raw-random": 3},
    "bad_pointer_order.cpp": {"pointer-order": 3},
    "bad_static_local.cpp": {"static-local": 3},
    "bad_span_retention.cpp": {"span-retention": 3},
    "bad_atomic_seqcst.cpp": {"atomic-implicit-seqcst": 7},
    "bad_atomic_store_no_notify.cpp": {"atomic-store-no-notify": 3},
    "bad_volatile.cpp": {"volatile-qualifier": 2},
    "bad_stale_allow.cpp": {"stale-allow": 2},
    "good_allowlisted.cpp": {},
    "good_atomics.cpp": {},
}


def lint_fixture(name: str) -> list[determinism_lint.Finding]:
    path = FIXTURES / name
    linter = determinism_lint.FileLinter(
        name, path.read_text(encoding="utf-8"), force_all_rules=True
    )
    return linter.lint()


class FixtureCorpus(unittest.TestCase):
    def test_fixture_census(self) -> None:
        for name, expected in EXPECTED.items():
            with self.subTest(fixture=name):
                findings = lint_fixture(name)
                census = collections.Counter(f.rule for f in findings)
                self.assertEqual(
                    dict(census),
                    expected,
                    msg="\n".join(str(f) for f in findings) or "(no findings)",
                )

    def test_every_rule_has_a_bad_fixture(self) -> None:
        covered = set()
        for expected in EXPECTED.values():
            covered.update(expected)
        self.assertEqual(covered, set(determinism_lint.RULES))

    def test_cli_exits_nonzero_on_bad_fixture(self) -> None:
        for name, expected in EXPECTED.items():
            with self.subTest(fixture=name):
                rc = determinism_lint.main(
                    ["--engine", "regex", "--fixture-mode", str(FIXTURES / name)]
                )
                self.assertEqual(rc, 1 if expected else 0)


class AllowAnnotations(unittest.TestCase):
    def lint_text(self, text: str) -> list[determinism_lint.Finding]:
        return determinism_lint.FileLinter(
            "inline.cpp", text, force_all_rules=True
        ).lint()

    def test_allow_with_reason_suppresses(self) -> None:
        text = (
            "// hp-lint: allow(unordered-member) digest-keyed, never iterated\n"
            "std::unordered_map<int, int> seen_;\n"
        )
        self.assertEqual(self.lint_text(text), [])

    def test_allow_scans_comment_block_upward(self) -> None:
        text = (
            "// hp-lint: allow(unordered-member) digest-keyed, never iterated;\n"
            "// continuation line of the rationale, still one comment block\n"
            "std::unordered_map<int, int> seen_;\n"
        )
        self.assertEqual(self.lint_text(text), [])

    def test_allow_without_reason_is_a_finding(self) -> None:
        text = "std::unordered_map<int, int> m_;  // hp-lint: allow(unordered-member)\n"
        findings = self.lint_text(text)
        self.assertEqual(len(findings), 1)
        self.assertIn("missing its reason", findings[0].detail)

    def test_allow_for_wrong_rule_does_not_suppress(self) -> None:
        text = (
            "// hp-lint: allow(raw-random) wrong rule entirely\n"
            "std::unordered_map<int, int> m_;\n"
        )
        findings = self.lint_text(text)
        # The member is still flagged, and the mismatched allow — which now
        # suppresses nothing — is reported stale.
        self.assertEqual(
            [f.rule for f in findings], ["unordered-member", "stale-allow"]
        )

    def test_atomic_allow_with_reason_suppresses(self) -> None:
        text = (
            "std::atomic<int> hits_{0};\n"
            "// hp-lint: allow(atomic-implicit-seqcst) cold path, seq_cst fine\n"
            "void bump() { hits_.fetch_add(1); }\n"
        )
        self.assertEqual(self.lint_text(text), [])

    def test_store_no_notify_allow_suppresses(self) -> None:
        text = (
            "std::atomic<int> gate_{0};\n"
            "void block() { gate_.wait(0, std::memory_order_acquire); }\n"
            "// hp-lint: allow(atomic-store-no-notify) caller notifies after\n"
            "// batching several gates; see flush_gates()\n"
            "void arm() { gate_.store(1, std::memory_order_release); }\n"
        )
        self.assertEqual(self.lint_text(text), [])

    def test_policy_alias_atomic_is_tracked(self) -> None:
        # The BasicPhaseBarrier style: Atomic<T> is a Sync-policy alias for
        # std::atomic<T>; waited-on members must still pair mutations with
        # notifies.
        text = (
            "Atomic<std::uint64_t> epoch_{0};\n"
            "void park() { epoch_.wait(0, std::memory_order_acquire); }\n"
            "void bump() { epoch_.fetch_add(2, std::memory_order_release); }\n"
        )
        findings = self.lint_text(text)
        self.assertEqual([f.rule for f in findings], ["atomic-store-no-notify"])

    def test_explicit_order_is_clean(self) -> None:
        text = (
            "std::atomic<int> hits_{0};\n"
            "void bump() { hits_.fetch_add(1, std::memory_order_relaxed); }\n"
        )
        self.assertEqual(self.lint_text(text), [])

    def test_comment_contents_are_not_code(self) -> None:
        text = (
            "// for (auto& kv : seen_) { std::rand(); }\n"
            "/* std::unordered_map<int, int> ghost_; */\n"
            'const char* s = "std::random_device in a string";\n'
        )
        self.assertEqual(self.lint_text(text), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
