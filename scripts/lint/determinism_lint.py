#!/usr/bin/env python3
"""Repo-specific determinism lint for the hot-potato routing engine.

PR 1's headline guarantee is that routing results are bit-identical for any
thread count. That property is enforced dynamically by golden-fingerprint
tests, but a single careless construct — iterating an ``std::unordered_map``,
ordering by pointer value, drawing from ``std::rand`` — silently breaks it
until a fingerprint drifts. This tool statically rejects the *class* of code
that can break determinism, mirroring how the paper proves properties of an
algorithm class rather than of one run.

Rules (full rationale in docs/STATIC_ANALYSIS.md):

  unordered-member     Declaring std::unordered_map/unordered_set in
                       routing-reachable code requires an allow annotation
                       stating the order-independence discipline (e.g. the
                       LivelockDetector's commutative digest). "Reachable" =
                       the src/sim + src/routing prefix floor, widened by the
                       committed call-graph artifact routing_reachable.json
                       (scripts/analysis/callgraph.py).
  unordered-iteration  Iterating such a container (range-for, begin()/end())
                       in routing-reachable code. Iteration order is
                       unspecified and varies across libstdc++/libc++ and
                       across runs with pointer-salted hashing.
  raw-random           std::rand / srand / random_device / mt19937 etc.
                       anywhere in src/ outside src/util/rng.*. All
                       randomness must flow through the per-(seed,step,node)
                       streams so runs are replayable.
  pointer-order        Ordering or hashing by pointer value in
                       routing-reachable code: pointer-keyed map/set,
                       std::hash over a pointer type, casting a pointer to
                       (u)intptr_t. Allocation addresses differ run to run.
  static-local         Mutable function-local statics in routing-reachable
                       code. Hidden cross-run/cross-shard state breaks both
                       replayability and the sharded-routing proof that node
                       decisions are pure functions of node-local inputs.
  span-retention       A StepObserver::on_step override storing the record's
                       spans (assignments/arrivals) or the record's address.
                       The spans alias per-step scratch buffers and die with
                       the call (see sim/observer.hpp).

Allow annotations::

    std::unordered_map<K, V> seen_;  // hp-lint: allow(unordered-member) <why>

  The annotation may sit on the flagged line or the line directly above it.
  A reason is mandatory; a bare allow is itself a finding.

Engines: by default the lint runs its pure-regex engine (Python stdlib only,
so it works in a container with no LLVM). When the ``clang.cindex`` bindings
are importable, ``--engine=clang`` (or ``--engine=auto``) additionally
confirms unordered-iteration findings against the AST, eliminating regex
false positives; the regex engine remains the source of truth for the other
rules.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys

RULES = {
    "unordered-member": (
        "unordered container in routing-reachable code needs an "
        "'hp-lint: allow(unordered-member) <reason>' annotation documenting "
        "its order-independence discipline"
    ),
    "unordered-iteration": (
        "iteration over an unordered container in routing-reachable code; "
        "iteration order is unspecified and breaks bit-identical results"
    ),
    "raw-random": (
        "raw randomness outside src/util/rng.*; use the engine's "
        "per-(seed, step, node) streams so runs are replayable"
    ),
    "pointer-order": (
        "ordering/hashing by pointer value; allocation addresses vary "
        "between runs and break determinism"
    ),
    "static-local": (
        "mutable function-local static in routing-reachable code; hidden "
        "state breaks replayability and sharded-routing purity"
    ),
    "span-retention": (
        "StepObserver::on_step stores a span/record that dies with the "
        "call; copy what you keep (see sim/observer.hpp)"
    ),
    "atomic-implicit-seqcst": (
        "atomic operation relies on the implicit seq_cst default; spell "
        "the std::memory_order explicitly so the synchronization protocol "
        "is reviewable (see phase_barrier.hpp for the house style)"
    ),
    "volatile-qualifier": (
        "volatile is not a synchronization primitive; use std::atomic "
        "with an explicit order, or annotate the MMIO-style exception"
    ),
    "atomic-store-no-notify": (
        "mutation of an atomic that threads park on via wait() has no "
        "notify_one/notify_all before the enclosing block ends; a missed "
        "wakeup strands the parked thread (the lost-wakeup class the model "
        "checker in tests/model/ proves absent)"
    ),
    "stale-allow": (
        "hp-lint allow annotation no longer suppresses any finding; "
        "delete it or move it back onto the offending line"
    ),
}

ALLOW_RE = re.compile(r"//\s*hp-lint:\s*allow\(([a-z-]+)\)\s*(.*?)\s*(?:\*/)?\s*$")

# Scope predicates, keyed by rule. Paths are POSIX-style and repo-relative.
#
# The *floor* of the routing scope is the textual prefix below. On top of it,
# the committed call-graph artifact (routing_reachable.json, regenerated by
# scripts/analysis/callgraph.py) contributes every file holding a function
# reachable from Engine::step — so core observers, topology caches and stats
# recorders are certified too. The union is a ratchet: reachability can only
# WIDEN the scope beyond the prefix floor, never narrow it, which guards the
# engine-room directories against any miss of the call-graph heuristics.
ROUTING_SCOPE = ("src/sim/", "src/routing/")
REACHABLE_ARTIFACT = "routing_reachable.json"
REACHABLE_SCHEMA = "hp-routing-reachable-v1"
# The model-checker harness lives beside its tests, but it instantiates the
# engine's own barrier template and replays its schedules, so every rule that
# binds shipped engine code binds it too.
HARNESS_FILES = ("tests/model/model_sync.hpp", "tests/model/model_checker.hpp")


def in_routing_scope(relpath: str) -> bool:
    return relpath.startswith(ROUTING_SCOPE) or relpath in HARNESS_FILES


def load_reachable_files(artifact_path: pathlib.Path) -> set[str] | None:
    """File set of the committed reachability artifact, or None when the
    artifact is absent/unreadable (the prefix floor then stands alone).
    Freshness of the artifact is enforced separately by
    `callgraph.py reachable --check`, not here."""
    try:
        data = json.loads(artifact_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if data.get("schema") != REACHABLE_SCHEMA:
        return None
    files = data.get("files", [])
    if not isinstance(files, list):
        return None
    return {f for f in files if isinstance(f, str)}


def in_raw_random_scope(relpath: str) -> bool:
    return (
        relpath.startswith("src/") and not relpath.startswith("src/util/rng.")
    ) or relpath in HARNESS_FILES


def in_atomics_scope(relpath: str) -> bool:
    # Tests may exercise implicit-order atomics on purpose (e.g. the barrier
    # stress harness); the discipline applies to shipped engine code and the
    # model-checker harness only.
    return relpath.startswith("src/") or relpath in HARNESS_FILES


@dataclasses.dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    detail: str

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.rule}] {RULES[self.rule]}"
            + (f" ({self.detail})" if self.detail else "")
        )


def _in_number(cur: list[str]) -> bool:
    """True when the code emitted so far on this line ends inside a numeric
    literal: the word before the cursor starts with a digit."""
    j = len(cur)
    while j > 0 and (cur[j - 1].isalnum() or cur[j - 1] in "_'."):
        j -= 1
    return j < len(cur) and cur[j].isdigit()


def strip_code(text: str) -> list[str]:
    """Returns per-line code with comments and string/char literals blanked.

    Line structure is preserved so findings keep their line numbers. This is
    a lexer, not a parser: it only understands //, /* */, "..." (with escapes
    and the few raw strings the tree uses), '...' and the digit separator of
    numeric literals (``100'000``).
    """
    out: list[str] = []
    i, n = 0, len(text)
    cur: list[str] = []
    state = "code"  # code | block_comment | line_comment | dq | sq
    while i < n:
        c = text[i]
        if c == "\n":
            out.append("".join(cur))
            cur = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            two = text[i : i + 2]
            if two == "//":
                state = "line_comment"
                i += 2
            elif two == "/*":
                state = "block_comment"
                i += 2
            elif c == '"':
                state = "dq"
                cur.append(c)
                i += 1
            elif c == "'" and _in_number(cur):
                cur.append(c)  # digit separator, not a char literal
                i += 1
            elif c == "'":
                state = "sq"
                cur.append(c)
                i += 1
            else:
                cur.append(c)
                i += 1
        elif state == "block_comment":
            if text[i : i + 2] == "*/":
                state = "code"
                i += 2
            else:
                i += 1
        elif state == "line_comment":
            i += 1
        elif state in ("dq", "sq"):
            quote = '"' if state == "dq" else "'"
            if c == "\\":
                i += 2
            elif c == quote:
                state = "code"
                cur.append(c)
                i += 1
            else:
                cur.append(" ")  # blank literal contents, keep width
                i += 1
    if cur or (text and not text.endswith("\n")):
        out.append("".join(cur))
    return out


class FileLinter:
    """Applies every in-scope rule to one file."""

    def __init__(
        self,
        relpath: str,
        raw_text: str,
        *,
        force_all_rules: bool = False,
        routing_scope: bool | None = None,
    ) -> None:
        self.relpath = relpath
        self.raw_lines = raw_text.splitlines()
        self.code_lines = strip_code(raw_text)
        self.force = force_all_rules
        # None = decide by path prefix (legacy floor); the driver injects the
        # call-graph verdict (prefix floor ∪ reachable set) when available.
        self.routing_scope = routing_scope
        self.findings: list[Finding] = []
        # Lines (1-based) whose allow annotation suppressed a finding; the
        # complement of this set drives the stale-allow rule.
        self.used_allows: set[int] = set()

    # -- allow annotations ------------------------------------------------
    def allow_for(self, lineno: int, rule: str) -> bool:
        """True iff line `lineno` (1-based) carries or inherits a valid
        allow(rule) annotation: on the flagged line itself, or anywhere in
        the contiguous comment block directly above it. A reasonless allow
        is itself reported and suppresses nothing further."""
        candidates = [lineno]
        above = lineno - 1
        while (
            1 <= above <= len(self.raw_lines)
            and self.raw_lines[above - 1].lstrip().startswith("//")
        ):
            candidates.append(above)
            above -= 1
        for candidate in candidates:
            if 1 <= candidate <= len(self.raw_lines):
                m = ALLOW_RE.search(self.raw_lines[candidate - 1])
                if m and m.group(1) == rule:
                    self.used_allows.add(candidate)
                    if not m.group(2):
                        self.findings.append(
                            Finding(
                                self.relpath,
                                candidate,
                                rule,
                                "allow annotation is missing its reason",
                            )
                        )
                        return True  # already reported; don't double-flag
                    return True
        return False

    def flag(self, lineno: int, rule: str, detail: str = "") -> None:
        if not self.allow_for(lineno, rule):
            self.findings.append(Finding(self.relpath, lineno, rule, detail))

    # -- rules ------------------------------------------------------------
    UNORDERED_DECL = re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\s*<"
    )
    UNORDERED_NAME = re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s+"
        r"(\w+)\s*[;={,)]"
    )
    RAW_RANDOM = re.compile(
        r"\b(?:std::)?(?:s?rand\s*\(|random_device\b|mt19937(?:_64)?\b|"
        r"default_random_engine\b|minstd_rand0?\b|random_shuffle\b)"
    )
    POINTER_KEY = re.compile(
        r"\b(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
    )
    POINTER_HASH = re.compile(r"\bhash\s*<[^<>]*\*\s*>")
    POINTER_TO_INT = re.compile(
        r"(?:reinterpret|static)_cast\s*<\s*(?:std::)?u?intptr_t\s*>"
    )
    #: A `static` declaration opening a line, or following a `{` or `;`
    #: on it (`int f() { static int n = 0; ... }`); group 1 is the
    #: declaration from the keyword on.
    STATIC_LOCAL = re.compile(
        r"(?:^\s+|[{;]\s*)(static\s+(?!const\b|constexpr\b|consteval\b|"
        r"constinit\b|assert\b|_assert).*)"
    )
    #: A static member *function* (`static void relax() { ... }`) is not a
    #: function-local static; exempt declarator-shaped declarations,
    #: including the zero-argument form that the `(`-in-declarator check
    #: below misses (it strips `()` to ignore call parens in initializers).
    STATIC_FN = re.compile(
        r"static\s+[\w:<>,&*\s]+\b\w+\s*\([^()]*\)\s*"
        r"(?:const\s*)?(?:noexcept\s*)?[;{]"
    )
    SPAN_MEMBER = re.compile(
        r"\bstd::span\s*<[^;]*>\s+\w+_\s*(?:;|=|\{)"
    )
    RECORD_RETAIN = re.compile(
        r"\w+_\s*=\s*record\s*;"  # member copy of the whole record
        r"|=\s*&\s*record\b"  # storing its address
        r"|\bStepRecord\s*\*\s*\w+_\s*(?:;|=)"  # record-pointer member
        r"|\bconst\s+StepRecord\s*&\s*\w+_\s*;"  # record-reference member
    )
    RECORD_SPAN_RETAIN = re.compile(
        r"\w+_\s*=\s*record\s*\.\s*(?:assignments|arrivals)\b"
    )
    # [Aa]tomic: covers std::atomic and the BasicPhaseBarrier-style policy
    # alias `Atomic<T>` (template parameter selecting real vs model shim).
    ATOMIC_DECL = re.compile(
        r"\b(?:std::)?[Aa]tomic\s*<[^;{}]*>\s*&?\s+(\w+)\s*[;={,)[]"
        r"|\b(?:std::)?atomic_flag\s+(\w+)\s*[;={,)[]"
    )
    # Member functions whose trailing memory_order argument defaults to
    # seq_cst; notify_one/notify_all take no order and are exempt.
    ATOMIC_ORDERED_METHODS = (
        "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
        "fetch_xor|wait|test|test_and_set|clear|"
        "compare_exchange_weak|compare_exchange_strong"
    )
    VOLATILE = re.compile(r"\bvolatile\b")
    INLINE_ASM = re.compile(r"\basm\b|__asm")

    def lint(self) -> list[Finding]:
        routing = self.force or (
            self.routing_scope
            if self.routing_scope is not None
            else in_routing_scope(self.relpath)
        )
        raw_random = self.force or in_raw_random_scope(self.relpath)
        atomics = self.force or in_atomics_scope(self.relpath)
        has_on_step = any("on_step" in line for line in self.code_lines)

        unordered_names: set[str] = set()
        if routing:
            for line in self.code_lines:
                m = self.UNORDERED_NAME.search(line)
                if m:
                    unordered_names.add(m.group(1))
        unordered_iter = (
            re.compile(
                r"for\s*\([^;()]*:\s*(?:this->)?(?:"
                + "|".join(map(re.escape, sorted(unordered_names)))
                + r")\b"
                r"|\b(?:"
                + "|".join(map(re.escape, sorted(unordered_names)))
                + r")\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\("
            )
            if unordered_names
            else None
        )

        atomic_names: set[str] = set()
        atomic_decl_lines: set[int] = set()
        if atomics:
            for idx, line in enumerate(self.code_lines, start=1):
                for m in self.ATOMIC_DECL.finditer(line):
                    atomic_names.add(m.group(1) or m.group(2))
                    atomic_decl_lines.add(idx)
        names_alt = "|".join(map(re.escape, sorted(atomic_names)))
        atomic_call = (
            re.compile(
                rf"\b(?:{names_alt})\s*\.\s*"
                rf"(?:{self.ATOMIC_ORDERED_METHODS})\s*\("
            )
            if atomic_names
            else None
        )
        atomic_op = (
            re.compile(
                rf"(?:\+\+|--)\s*(?:{names_alt})\b"
                rf"|\b(?:{names_alt})\s*(?:\+\+|--)"
                rf"|\b(?:{names_alt})\s*(?:[-+*/%&|^]|<<|>>)="
                rf"|\b(?:{names_alt})\s*=(?!=)"
            )
            if atomic_names
            else None
        )

        # atomic-store-no-notify: the waited set is every declared atomic
        # this file parks on via `X.wait(...)`; mutations of those names must
        # be followed by a notify on the same name before their enclosing
        # block closes (brace-delta scan — the leave()-style
        # `if (fetch_sub(...) == 1) notify_one();` pattern stays in scope).
        waited_names: set[str] = set()
        if atomic_names:
            wait_use = re.compile(rf"\b({names_alt})\s*\.\s*wait\s*\(")
            for line in self.code_lines:
                for m in wait_use.finditer(line):
                    waited_names.add(m.group(1))
        waited_mutation = (
            re.compile(
                r"\b(" + "|".join(map(re.escape, sorted(waited_names))) + r")"
                r"\s*\.\s*(?:store|exchange|fetch_add|fetch_sub|fetch_and|"
                r"fetch_or|fetch_xor|compare_exchange_weak|"
                r"compare_exchange_strong)\s*\("
            )
            if waited_names
            else None
        )

        def notify_follows(lineno: int, name: str) -> bool:
            """True iff `name` is notified between line `lineno` (1-based,
            inclusive) and the close of the enclosing block."""
            notify = re.compile(
                rf"\b{re.escape(name)}\s*\.\s*notify_(?:one|all)\s*\("
            )
            depth = 0
            for j in range(lineno, len(self.code_lines) + 1):
                line = self.code_lines[j - 1]
                if notify.search(line):
                    return True
                depth += line.count("{") - line.count("}")
                if depth < 0:
                    return False
            return False

        def call_extent(lineno: int, open_col: int) -> str:
            """Text inside the (possibly multi-line) call starting at the
            '(' at (lineno, open_col), up to its matching ')'."""
            depth, out = 0, []
            for j in range(lineno - 1, min(lineno + 4, len(self.code_lines))):
                line = self.code_lines[j]
                for ch in line[open_col if j == lineno - 1 else 0 :]:
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            return "".join(out)
                    if depth >= 1:
                        out.append(ch)
            return "".join(out)

        for idx, line in enumerate(self.code_lines, start=1):
            if line.lstrip().startswith("#"):
                continue  # preprocessor: includes are not declarations
            if routing:
                if self.UNORDERED_DECL.search(line):
                    self.flag(idx, "unordered-member", line.strip()[:80])
                if unordered_iter and unordered_iter.search(line):
                    self.flag(idx, "unordered-iteration", line.strip()[:80])
                if re.search(
                    r"for\s*\([^;()]*:\s*[^()]*\bunordered_(?:map|set)", line
                ):
                    self.flag(idx, "unordered-iteration", line.strip()[:80])
                if (
                    self.POINTER_KEY.search(line)
                    or self.POINTER_HASH.search(line)
                    or self.POINTER_TO_INT.search(line)
                ):
                    self.flag(idx, "pointer-order", line.strip()[:80])
                static = self.STATIC_LOCAL.search(line)
                decl = static.group(1) if static else ""
                if (
                    static
                    and not self.STATIC_FN.match(decl)
                    and "(" not in decl.split("=")[0].split(";")[0].replace("()", "")
                ):
                    self.flag(idx, "static-local", line.strip()[:80])
            if raw_random and self.RAW_RANDOM.search(line):
                self.flag(idx, "raw-random", line.strip()[:80])
            if atomics:
                if self.VOLATILE.search(line) and not self.INLINE_ASM.search(
                    line
                ):
                    self.flag(idx, "volatile-qualifier", line.strip()[:80])
                implicit = False
                if atomic_call:
                    for m in atomic_call.finditer(line):
                        if "memory_order" not in call_extent(idx, m.end() - 1):
                            implicit = True
                if (
                    not implicit
                    and atomic_op
                    and idx not in atomic_decl_lines
                    and atomic_op.search(line)
                ):
                    implicit = True
                if implicit:
                    self.flag(idx, "atomic-implicit-seqcst", line.strip()[:80])
                if waited_mutation:
                    for m in waited_mutation.finditer(line):
                        if not notify_follows(idx, m.group(1)):
                            self.flag(
                                idx,
                                "atomic-store-no-notify",
                                f"{m.group(1)}: " + line.strip()[:70],
                            )
            if has_on_step and (
                self.RECORD_SPAN_RETAIN.search(line)
                or self.RECORD_RETAIN.search(line)
                or self.SPAN_MEMBER.search(line)
            ):
                self.flag(idx, "span-retention", line.strip()[:80])

        # stale-allow: any allow annotation that suppressed nothing above,
        # restricted to rules actually in force for this file (an allow for
        # a routing rule in non-routing code is dormant, not stale).
        in_force: set[str] = set()
        if routing:
            in_force |= {
                "unordered-member",
                "unordered-iteration",
                "pointer-order",
                "static-local",
            }
        if raw_random:
            in_force.add("raw-random")
        if atomics:
            in_force |= {
                "atomic-implicit-seqcst",
                "volatile-qualifier",
                "atomic-store-no-notify",
            }
        if has_on_step:
            in_force.add("span-retention")
        for idx, raw in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(raw)
            if m and idx not in self.used_allows:
                rule = m.group(1)
                if rule in in_force or rule not in RULES:
                    self.findings.append(
                        Finding(self.relpath, idx, "stale-allow", f"allow({rule})")
                    )
        return self.findings


# -- optional clang engine ----------------------------------------------------
def clang_confirm_unordered_iteration(
    findings: list[Finding], root: pathlib.Path
) -> list[Finding]:
    """AST pass over unordered-iteration findings: keeps only those whose
    line really sits inside a range-for over an unordered container. Used
    when the libclang bindings are importable; otherwise the regex verdicts
    stand as-is."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return findings

    keep: list[Finding] = []
    other = [f for f in findings if f.rule != "unordered-iteration"]
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        if f.rule == "unordered-iteration":
            by_file.setdefault(f.path, []).append(f)

    index = cindex.Index.create()
    for relpath, file_findings in by_file.items():
        try:
            tu = index.parse(
                str(root / relpath), args=["-std=c++20", "-I", str(root / "src")]
            )
        except cindex.TranslationUnitLoadError:
            keep.extend(file_findings)  # cannot parse: trust the regex
            continue
        iter_lines: set[int] = set()
        def visit(node):  # noqa: ANN001
            if node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                for child in node.get_children():
                    if "unordered_" in (child.type.spelling or ""):
                        iter_lines.add(node.location.line)
                        break
            for child in node.get_children():
                visit(child)
        visit(tu.cursor)
        keep.extend(f for f in file_findings if f.line in iter_lines)
    return other + keep


# -- driver -------------------------------------------------------------------
SCAN_DIRS = ("src", "bench", "examples", "tests")
EXTS = (".hpp", ".cpp", ".h", ".cc")


def iter_tree(root: pathlib.Path):
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in EXTS and p.is_file():
                yield p


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], prog="determinism_lint"
    )
    ap.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)",
    )
    ap.add_argument(
        "files",
        nargs="*",
        type=pathlib.Path,
        help="lint only these files instead of the whole tree",
    )
    ap.add_argument(
        "--fixture-mode",
        action="store_true",
        help="treat the given files as routing-reachable and apply every "
        "rule regardless of path (used by the self-test corpus)",
    )
    ap.add_argument(
        "--engine",
        choices=("auto", "regex", "clang"),
        default="auto",
        help="auto = regex, plus AST confirmation when libclang imports",
    )
    ap.add_argument(
        "--reachable",
        type=pathlib.Path,
        default=None,
        help="routing_reachable.json to widen the routing scope with "
        f"(default: <root>/{REACHABLE_ARTIFACT}; the scope is always at "
        "least the src/sim + src/routing prefix floor)",
    )
    ap.add_argument(
        "--no-reachable",
        action="store_true",
        help="ignore the reachability artifact; prefix floor only",
    )
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, text in RULES.items():
            print(f"{rule}: {text}")
        return 0

    root = args.root.resolve()
    if args.files:
        paths = [p.resolve() for p in args.files]
    else:
        paths = list(iter_tree(root))
    if not paths:
        print("determinism_lint: nothing to scan", file=sys.stderr)
        return 2

    reachable: set[str] | None = None
    if not args.no_reachable and not args.fixture_mode:
        artifact = args.reachable or (root / REACHABLE_ARTIFACT)
        reachable = load_reachable_files(artifact)
        if reachable is None and args.reachable is not None:
            print(
                f"determinism_lint: cannot read reachability artifact "
                f"{artifact}",
                file=sys.stderr,
            )
            return 2

    findings: list[Finding] = []
    for path in paths:
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        routing = None
        if reachable is not None:
            routing = in_routing_scope(rel) or rel in reachable
        findings.extend(
            FileLinter(
                rel,
                text,
                force_all_rules=args.fixture_mode,
                routing_scope=routing,
            ).lint()
        )

    if args.engine in ("auto", "clang"):
        if args.engine == "clang":
            try:
                import clang.cindex  # type: ignore  # noqa: F401
            except ImportError:
                print(
                    "determinism_lint: --engine=clang but libclang bindings "
                    "are not importable",
                    file=sys.stderr,
                )
                return 2
        findings = clang_confirm_unordered_iteration(findings, root)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(
            f"determinism_lint: {len(findings)} finding(s); see "
            "docs/STATIC_ANALYSIS.md for the rules and the allow syntax",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
