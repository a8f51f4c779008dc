#!/usr/bin/env python3
"""Phase-effects analyzer: certify the engine's parallel-phase contracts.

The deterministic phase-pipeline (src/sim/engine.cpp) is serial-equivalent
only if three structural contracts hold:

  (a) every write a parallel task performs lands in owner-computed /
      shard-confined state — anything else carries a mandatory-reason
      ``HP_SHARED_WRITE(reason)`` annotation on (or just above) the line;
  (b) every parallel region is bracketed by a PhaseBarrier epoch
      (open/close on the main thread, wait_open/leave on workers);
  (c) within one parallel phase no member is both written and read through
      a non-owner-derived index (cross-phase pairs are ordered by the
      barrier's release/acquire epoch edges, which (b) guarantees).

Like scripts/analysis/callgraph.py this is a conservative, stdlib-only
token analyzer, not a compiler: ownership is *name derivation* — an index
expression is owner-derived when it (transitively) mentions the task /
shard parameter of the enclosing region. Over-approximation flags safe
code (annotate it, with a reason); it never hides a genuinely shared
write. The committed ``phase_effects.json`` artifact makes the extracted
read/write sets a reviewed object, with the same --write/--check
freshness UX as ``routing_reachable.json``.

Exit codes: 0 clean/fresh, 1 findings or stale artifact, 2 usage/parse.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys

SCRIPT_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPT_DIR))
sys.path.insert(0, str(SCRIPT_DIR.parent / "lint"))

from callgraph import (  # noqa: E402
    IDENT_RE,
    NON_CALL_KEYWORDS,
    Token,
    _match_group,
    _parse_declarator_name,
    _scan_after_params,
    tokenize,
)
from determinism_lint import strip_code  # noqa: E402

SCHEMA = "hp-phase-effects-v1"
ARTIFACT = "phase_effects.json"

#: Files the analyzer parses (repo-relative). The first two are mandatory;
#: the rest refine method-constness / column knowledge when present.
REQUIRED_FILES = ("src/sim/engine.hpp", "src/sim/engine.cpp")
OPTIONAL_FILES = (
    "src/sim/flight_table.hpp",
    "src/sim/flight_table.cpp",
    "src/sim/policy.hpp",
    "src/util/phase_barrier.hpp",
)

#: Orchestrators are never inlined into a region's effect set: they *are*
#: regions (or pure plumbing), each analyzed under its own seed.
ORCHESTRATORS = frozenset(
    {
        "run_task", "run_sharded", "drain_tasks", "worker_loop", "step",
        "build_occupancy", "route_all", "apply_assignments", "inject",
        "try_inject", "run", "run_for", "make_result", "start_pool",
        "stop_pool",
    }
)

#: Serial regions recorded in the artifact (effects unconstrained: they
#: run on the main thread between epochs).
SERIAL_REGIONS = (
    "step", "inject", "try_inject", "build_occupancy", "route_all",
    "apply_assignments", "run_sharded", "worker_loop",
)

#: Container methods assumed to mutate / not mutate the receiver when the
#: receiver's class is not part of the parse set (std:: containers).
MUTATING_METHODS = frozenset(
    {
        "clear", "push_back", "emplace_back", "pop_back", "resize",
        "reserve", "insert", "erase", "assign", "swap", "emplace", "push",
        "pop", "append", "store", "exchange", "fetch_add", "fetch_sub",
    }
)
CONST_METHODS = frozenset(
    {
        "size", "empty", "begin", "end", "cbegin", "cend", "get", "c_str",
        "count", "find", "capacity", "back", "front", "load", "contains",
        "full", "records", "at",
    }
)

#: PhaseBarrier protocol verbs (check (b)). ``shutdown`` tears the pool
#: down and pairs with nothing; ``next_task`` marks the caller a region
#: executor.
BARRIER_OPENERS = frozenset({"open", "wait_open"})
BARRIER_CLOSERS = frozenset({"close", "leave"})

#: Classes whose members speak the barrier protocol. ``PhaseBarrier`` is a
#: ``using`` alias of the Sync-templated ``BasicPhaseBarrier``; member types
#: are resolved through namespace-scope aliases in :func:`load_model`, so
#: either spelling may survive as ``Member.obj_cls``.
BARRIER_CLASSES = frozenset({"PhaseBarrier", "BasicPhaseBarrier"})

ANNOTATION_RE = re.compile(r"\bHP_SHARED_WRITE\s*\(")
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


# ---------------------------------------------------------------------------
# Parsed model
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Member:
    name: str
    cls: str
    line: int
    const_typed: bool
    type_idents: tuple[str, ...]  # raw type tokens, resolved to obj_cls later
    obj_cls: str | None = None


@dataclasses.dataclass
class Fn:
    qualified: str
    name: str
    cls: str | None
    file: str
    line: int
    params: list[str]
    is_const: bool
    body: list[Token]  # tokens strictly inside the outer braces


@dataclasses.dataclass
class Model:
    root: pathlib.Path
    files: list[str] = dataclasses.field(default_factory=list)
    raw_lines: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    classes: dict[str, dict[str, Member]] = dataclasses.field(
        default_factory=dict
    )
    fns: dict[str, Fn] = dataclasses.field(default_factory=dict)
    by_name: dict[str, Fn] = dataclasses.field(default_factory=dict)
    method_const: dict[tuple[str, str], bool] = dataclasses.field(
        default_factory=dict
    )
    enums: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    #: namespace-scope ``using Alias = Target<...>;`` → target idents, used
    #: to resolve member types declared via an alias (e.g. PhaseBarrier).
    type_aliases: dict[str, tuple[str, ...]] = dataclasses.field(
        default_factory=dict
    )

    def engine_members(self) -> dict[str, Member]:
        return self.classes.get("Engine", {})

    def task_kinds(self) -> list[str]:
        return self.enums.get("TaskKind", [])


def _parse_params(tokens: list[Token], lparen: int, past: int) -> list[str]:
    """Parameter names: last plain identifier of each top-level comma
    segment (before any default-argument ``=``)."""
    seg: list[Token] = []
    out: list[str] = []

    def flush() -> None:
        names = [
            t.value
            for t in seg
            if t.is_ident and t.value not in NON_CALL_KEYWORDS
        ]
        out.append(names[-1] if names else "")

    depth = 0
    truncated = False
    for t in tokens[lparen + 1 : past - 1]:
        if t.value in ("(", "[", "{"):
            depth += 1
        elif t.value in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and t.value == ",":
            flush()
            seg = []
            truncated = False
            continue
        elif depth == 0 and t.value == "=":
            truncated = True
        if not truncated:
            seg.append(t)
    if seg or out:
        flush()
    return out


def _member_from_stmt(
    stmt: list[Token], cls: str
) -> Member | None:
    """A class-level statement declares a data member when a ``_``-suffixed
    identifier is immediately followed by ``;``, ``=``, ``{`` or ``[``."""
    vals = [t.value for t in stmt]
    if any(
        v in ("using", "typedef", "friend", "static_assert", "return")
        for v in vals
    ):
        return None
    for i, t in enumerate(stmt):
        if not t.is_ident or not t.value.endswith("_"):
            continue
        nxt = stmt[i + 1].value if i + 1 < len(stmt) else ";"
        if nxt not in (";", "=", "{", "["):
            continue
        type_toks = tuple(
            w.value for w in stmt[:i] if w.is_ident
        )
        return Member(
            name=t.value,
            cls=cls,
            line=t.line,
            const_typed="const" in vals[:i],
            type_idents=type_toks,
        )
    return None


def _method_const_from_stmt(
    stmt: list[Token], cls: str, db: dict[tuple[str, str], bool]
) -> None:
    """Record constness of a method *declaration* (``...(...) const;``)."""
    for i, t in enumerate(stmt):
        if not t.is_ident or t.value in NON_CALL_KEYWORDS:
            continue
        parsed = _parse_declarator_name(stmt, i)
        if parsed is None:
            continue
        name, lparen = parsed
        past = _match_group(stmt, lparen, "(", ")")
        is_const = past < len(stmt) and stmt[past].value == "const"
        db[(cls, name.rsplit("::", 1)[-1])] = is_const
        return


def _parse_enum(tokens: list[Token], i: int, enums: dict[str, list[str]]) -> int:
    """tokens[i] == 'enum'. Records enumerators; returns index past body."""
    j = i + 1
    if j < len(tokens) and tokens[j].value in ("class", "struct"):
        j += 1
    name = ""
    if j < len(tokens) and tokens[j].is_ident:
        name = tokens[j].value
        j += 1
    while j < len(tokens) and tokens[j].value not in ("{", ";"):
        j += 1
    if j >= len(tokens) or tokens[j].value == ";":
        return j
    end = _match_group(tokens, j, "{", "}")
    values: list[str] = []
    depth = 0
    expect = True  # next ident at depth 1 starts an enumerator
    for t in tokens[j : end - 1]:
        if t.value == "{":
            depth += 1
            continue
        if t.value == "}":
            depth -= 1
            continue
        if depth != 1:
            continue
        if t.value == ",":
            expect = True
        elif expect and t.is_ident:
            values.append(t.value)
            expect = False
    if name:
        enums[name] = values
    return end


def parse_into_model(model: Model, relpath: str, raw_text: str) -> None:
    raw = raw_text.splitlines()
    model.raw_lines[relpath] = raw
    code_lines = strip_code(raw_text)
    tokens = tokenize(code_lines)
    n = len(tokens)
    model.files.append(relpath)

    scopes: list[tuple[str, str]] = []  # (kind, name)
    stmt: list[Token] = []

    def cur_class() -> str | None:
        if scopes and scopes[-1][0] == "class":
            return scopes[-1][1]
        return None

    def end_stmt() -> None:
        cls = cur_class()
        if cls is None or not stmt:
            stmt.clear()
            return
        if any(t.value == "(" for t in stmt):
            _method_const_from_stmt(stmt, cls, model.method_const)
        else:
            m = _member_from_stmt(stmt, cls)
            if m is not None:
                model.classes.setdefault(cls, {})[m.name] = m
        stmt.clear()

    i = 0
    while i < n:
        t = tokens[i]
        v = t.value

        if v == "namespace":
            j = i + 1
            parts: list[str] = []
            while j < n and (tokens[j].is_ident or tokens[j].value == "::"):
                if tokens[j].is_ident:
                    parts.append(tokens[j].value)
                j += 1
            if j < n and tokens[j].value == "{":
                scopes.append(("namespace", "::".join(parts)))
                i = j + 1
                continue
            if j < n and tokens[j].value == "=":
                while j < n and tokens[j].value != ";":
                    j += 1
            i = j + 1
            continue

        if v == "template":
            # Skip the parameter list so `class`/`typename` inside it does
            # not open a bogus class scope; the templated declaration that
            # follows is parsed like any other. (`Sync::template Atomic<T>`
            # has no `<` directly after the keyword and falls through.)
            j = i + 1
            if j < n and tokens[j].value == "<":
                depth = 0
                while j < n:
                    w = tokens[j].value
                    if w == "<":
                        depth += 1
                    elif w in (">", ">="):
                        depth -= 1
                    elif w == ">>":
                        depth -= 2
                    j += 1
                    if depth <= 0:
                        break
                i = j
                continue
            i += 1
            continue

        if v == "using" and cur_class() is None and not stmt:
            # `using Alias = Target<...>;` at namespace scope: remember the
            # target's identifiers so members typed via the alias resolve
            # to the underlying class. `using namespace` / bare
            # `using ns::name;` carry no `=` and are skipped whole.
            j = i + 1
            alias = ""
            if j < n and tokens[j].is_ident:
                alias = tokens[j].value
                j += 1
            target: list[str] = []
            saw_eq = False
            while j < n and tokens[j].value != ";":
                if tokens[j].value == "=":
                    saw_eq = True
                elif saw_eq and tokens[j].is_ident:
                    target.append(tokens[j].value)
                j += 1
            if alias and saw_eq and target:
                model.type_aliases[alias] = tuple(target)
            i = j + 1
            continue

        if v in ("class", "struct") and (i == 0 or tokens[i - 1].value != "enum"):
            j = i + 1
            name = ""
            while j < n and (tokens[j].is_ident or tokens[j].value == "("):
                if tokens[j].value == "(":  # alignas(...) etc.
                    j = _match_group(tokens, j, "(", ")")
                    continue
                if tokens[j].value in ("alignas", "final"):
                    j += 1
                    continue
                name = tokens[j].value
                j += 1
            angle = 0
            while j < n:
                w = tokens[j].value
                if w == "<":
                    angle += 1
                elif w == ">":
                    angle = max(0, angle - 1)
                elif angle == 0 and w in ("{", ";"):
                    break
                j += 1
            if j < n and tokens[j].value == "{":
                end_stmt()
                scopes.append(("class", name))
                model.classes.setdefault(name, {})
                i = j + 1
                continue
            i = j + 1
            continue

        if v == "enum":
            end_stmt()
            i = _parse_enum(tokens, i, model.enums)
            continue

        if v == ";":
            end_stmt()
            i += 1
            continue

        if v == "{":
            prev = tokens[i - 1].value if i > 0 else ""
            if cur_class() is not None and (
                IDENT_RE.match(prev) or prev in (">", "]", "=")
            ):
                # brace init of a member (`epoch_{0}`) — keep the statement
                i = _match_group(tokens, i, "{", "}")
                continue
            end_stmt()
            scopes.append(("block", ""))
            i += 1
            continue
        if v == "}":
            end_stmt()
            if scopes:
                scopes.pop()
            i += 1
            continue

        parsed = None
        if (
            t.is_ident and v not in NON_CALL_KEYWORDS and v not in ("public", "private", "protected", "virtual", "static", "inline", "explicit", "constexpr", "friend")
        ) or v in ("~", "operator"):
            parsed = _parse_declarator_name(tokens, i)
        if parsed is not None:
            name, lparen = parsed
            past = _match_group(tokens, lparen, "(", ")")
            body = _scan_after_params(tokens, past)
            if body is not None:
                end_stmt()
                ns_parts = [s[1] for s in scopes if s[0] == "namespace" and s[1]]
                cls_parts = [s[1] for s in scopes if s[0] == "class" and s[1]]
                short = name.rsplit("::", 1)[-1]
                cls = cls_parts[-1] if cls_parts else (
                    name.rsplit("::", 2)[-2] if "::" in name else None
                )
                qualified = "::".join(ns_parts + cls_parts + name.split("::"))
                is_const = past < n and tokens[past].value == "const"
                k = _match_group(tokens, body, "{", "}")
                fn = Fn(
                    qualified=qualified,
                    name=short,
                    cls=cls,
                    file=relpath,
                    line=t.line,
                    params=_parse_params(tokens, lparen, past),
                    is_const=is_const,
                    body=tokens[body + 1 : k - 1],
                )
                model.fns[qualified] = fn
                model.by_name.setdefault(short, fn)
                if cls is not None:
                    model.method_const[(cls, short)] = is_const
                i = k
                continue
            # declaration only — still records method constness (`...(...)
            # const;` / pure virtuals), which drives receiver-write
            # classification for opaque objects like the routing policy
            decl_cls = cur_class()
            if decl_cls:
                short = name.rsplit("::", 1)[-1]
                model.method_const[(decl_cls, short)] = (
                    past < n and tokens[past].value == "const"
                )
            i = past
            continue

        stmt.append(t)
        i += 1

    # Resolve member object classes now that every class name is known.


def load_model(root: pathlib.Path) -> Model:
    model = Model(root=root)
    for rel in REQUIRED_FILES:
        p = root / rel
        if not p.is_file():
            raise FileNotFoundError(rel)
        parse_into_model(model, rel, p.read_text(encoding="utf-8"))
    for rel in OPTIONAL_FILES:
        p = root / rel
        if p.is_file():
            parse_into_model(model, rel, p.read_text(encoding="utf-8"))
    known = set(model.classes)

    def resolve(ident: str, seen: frozenset[str]) -> str | None:
        """Class named by `ident`, following `using` aliases (cycle-safe)."""
        if ident in known:
            return ident
        if ident in seen or ident not in model.type_aliases:
            return None
        for target in model.type_aliases[ident]:
            hit = resolve(target, seen | {ident})
            if hit is not None:
                return hit
        return None

    for members in model.classes.values():
        for m in members.values():
            for ident in m.type_idents:
                hit = resolve(ident, frozenset())
                if hit is not None and hit != m.cls:
                    m.obj_cls = hit
                    break
    return model


# ---------------------------------------------------------------------------
# Effect extraction
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Effect:
    member: str  # "occ_ids_" or column form "flight_.pos_"
    kind: str  # "read" | "write"
    owned: bool
    file: str
    line: int
    cover_lines: tuple[int, ...]  # lines an HP_SHARED_WRITE may sit on


@dataclasses.dataclass
class BarrierEvent:
    method: str
    index: int  # token index in the function body (ordering only)
    line: int


@dataclasses.dataclass
class Analysis:
    """Per-region result: effects tagged with the top-level token index
    they were reached from (for run_task case-segment attribution)."""

    effects: list[tuple[int, Effect]] = dataclasses.field(default_factory=list)


def _arg_segments(body: list[Token], lparen: int) -> list[list[Token]]:
    """Top-level comma segments of the group opening at body[lparen]."""
    end = _match_group(body, lparen, "(", ")")
    segs: list[list[Token]] = []
    cur: list[Token] = []
    depth = 0
    for t in body[lparen + 1 : end - 1]:
        if t.value in ("(", "[", "{"):
            depth += 1
        elif t.value in (")", "]", "}"):
            depth -= 1
        if depth == 0 and t.value == ",":
            segs.append(cur)
            cur = []
            continue
        cur.append(t)
    if cur:
        segs.append(cur)
    return segs


def _idents(tokens: list[Token]) -> set[str]:
    return {
        t.value
        for t in tokens
        if t.is_ident and t.value not in NON_CALL_KEYWORDS
    }


class RegionAnalyzer:
    """Extracts the effect set of one function body under a derivation
    seed. Helper methods of the same translation unit are inlined
    (depth-capped); orchestrators are not."""

    MAX_DEPTH = 8

    def __init__(self, model: Model):
        self.model = model
        self.members = model.engine_members()
        self._param_writes_memo: dict[str, set[int]] = {}
        self._in_progress: set[str] = set()

    # -- derivation ---------------------------------------------------------

    def derive(
        self, body: list[Token], seed: set[str]
    ) -> tuple[set[str], dict[str, tuple[str, int, set[str]]]]:
        """Fixpoint of name derivation. Members are never derivation
        sources (PhaseBarrier::next_task tickets are deliberately opaque:
        a ticket-indexed write is shared until annotated)."""
        derived = set(seed)
        aliases: dict[str, tuple[str, int, set[str]]] = {}
        n = len(body)
        for _ in range(4):
            before = (len(derived), len(aliases))
            i = 0
            while i < n:
                t = body[i]
                if t.value == "for" and i + 1 < n and body[i + 1].value == "(":
                    self._derive_range_for(body, i + 1, derived)
                if t.is_ident and t.value not in NON_CALL_KEYWORDS:
                    prev = body[i - 1].value if i > 0 else ""
                    nxt = body[i + 1].value if i + 1 < n else ""
                    if (
                        nxt == "="
                        and prev not in (".", "->")
                        and t.value not in self.members
                    ):
                        ext = self._stmt_extent(body, i + 2)
                        if _idents(ext) & derived:
                            derived.add(t.value)
                        if prev == "&":  # reference binding, not a copy
                            self._maybe_alias(t, ext, aliases)
                    elif (
                        nxt in ("(", "{")
                        and prev
                        and (IDENT_RE.match(prev) or prev in ("&", "*", ">"))
                        and t.value not in self.members
                    ):
                        end = _match_group(
                            body, i + 1, nxt, ")" if nxt == "(" else "}"
                        )
                        if _idents(body[i + 2 : end - 1]) & derived:
                            derived.add(t.value)
                i += 1
            if (len(derived), len(aliases)) == before:
                break
        return derived, aliases

    def _stmt_extent(self, body: list[Token], i: int) -> list[Token]:
        out: list[Token] = []
        depth = 0
        while i < len(body):
            v = body[i].value
            if v in ("(", "[", "{"):
                depth += 1
            elif v in (")", "]", "}"):
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and (v == ";" or v == ","):
                break
            out.append(body[i])
            i += 1
        return out

    def _maybe_alias(
        self,
        name: Token,
        ext: list[Token],
        aliases: dict[str, tuple[str, int, set[str]]],
    ) -> None:
        """``T& x = member_[idx];`` binds x as an alias of the member with
        the subscript identifiers as its ownership tokens."""
        if not ext or not ext[0].is_ident or ext[0].value not in self.members:
            return
        j = 1
        own: set[str] = set()
        if j < len(ext) and ext[j].value == "[":
            end = _match_group(ext, j, "[", "]")
            own = _idents(ext[j + 1 : end - 1])
            j = end
        if j == len(ext):
            aliases[name.value] = (ext[0].value, name.line, own)

    def _derive_range_for(
        self, body: list[Token], lparen: int, derived: set[str]
    ) -> None:
        end = _match_group(body, lparen, "(", ")")
        head = body[lparen + 1 : end - 1]
        colon = None
        depth = 0
        for k, t in enumerate(head):
            if t.value in ("(", "[", "{"):
                depth += 1
            elif t.value in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and t.value == ";":
                return  # classic for: generic rules handle the init
            elif depth == 0 and t.value == ":":
                colon = k
                break
        if colon is None:
            return
        left, rng = head[:colon], head[colon + 1 :]
        if not (_idents(rng) & derived):
            return
        names: list[str] = []
        if any(t.value == "[" for t in left):  # structured binding
            k = next(i for i, t in enumerate(left) if t.value == "[")
            e = _match_group(left, k, "[", "]")
            names = [t.value for t in left[k + 1 : e - 1] if t.is_ident]
        else:
            idents = [
                t.value
                for t in left
                if t.is_ident and t.value not in NON_CALL_KEYWORDS
            ]
            if idents:
                names = [idents[-1]]
        derived.update(names)

    # -- method summaries ---------------------------------------------------

    def column_summary(self, cls: str, method: str) -> list[tuple[str, str]] | None:
        """Direct column effects of a parsed class's method body:
        [(column, kind)]. None when the method body is unknown."""
        fn = None
        for cand in self.model.fns.values():
            if cand.cls == cls and cand.name == method:
                fn = cand
                break
        if fn is None:
            return None
        cols = self.model.classes.get(cls, {})
        out: list[tuple[str, str]] = []
        body = fn.body
        for i, t in enumerate(body):
            if not t.is_ident or t.value not in cols:
                continue
            prev = body[i - 1].value if i > 0 else ""
            if prev in (".", "->"):
                continue
            j = i + 1
            while j < len(body) and body[j].value == "[":
                j = _match_group(body, j, "[", "]")
            nxt = body[j].value if j < len(body) else ""
            nxt2 = body[j + 1].value if j + 1 < len(body) else ""
            kind = "read"
            if (
                prev in ("++", "--")
                or nxt in ("++", "--")
                or nxt == "="
                or (nxt in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>") and nxt2 == "=")
            ):
                kind = "write"
            elif nxt in (".", "->") and nxt2 in MUTATING_METHODS:
                kind = "write"
            out.append((t.value, kind))
        # dedupe, writes win for display stability
        seen: dict[str, str] = {}
        for col, kind in out:
            if seen.get(col) != "write":
                seen[col] = kind
        return sorted(seen.items())

    def param_writes(self, fn: Fn) -> set[int]:
        """Indices of parameters the function writes through (directly or
        by forwarding to a callee that does)."""
        if fn.qualified in self._param_writes_memo:
            return self._param_writes_memo[fn.qualified]
        if fn.qualified in self._in_progress:
            return set()
        self._in_progress.add(fn.qualified)
        written: set[int] = set()
        params = {p: k for k, p in enumerate(fn.params) if p}
        body = fn.body
        n = len(body)
        i = 0
        while i < n:
            t = body[i]
            if t.is_ident and t.value in params:
                prev = body[i - 1].value if i > 0 else ""
                if prev not in (".", "->"):
                    j = i + 1
                    while j < n and body[j].value == "[":
                        j = _match_group(body, j, "[", "]")
                    nxt = body[j].value if j < n else ""
                    nxt2 = body[j + 1].value if j + 1 < n else ""
                    if (
                        prev in ("++", "--")
                        or nxt in ("++", "--")
                        or nxt == "="
                        or (nxt in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>") and nxt2 == "=")
                    ):
                        written.add(params[t.value])
                    elif nxt in (".", "->") and j + 2 < n and body[j + 2].value == "(":
                        meth = nxt2
                        if meth in MUTATING_METHODS or (
                            meth not in CONST_METHODS and meth != "data"
                        ):
                            written.add(params[t.value])
            callee = self._callee_at(body, i)
            if callee is not None and callee.qualified != fn.qualified:
                for argpos, seg in enumerate(_arg_segments(body, i + 1)):
                    if argpos in self.param_writes(callee):
                        ids = _idents(seg)
                        for p, k in params.items():
                            if p in ids:
                                written.add(k)
            i += 1
        self._in_progress.discard(fn.qualified)
        self._param_writes_memo[fn.qualified] = written
        return written

    def _callee_at(self, body: list[Token], i: int) -> Fn | None:
        t = body[i]
        if not t.is_ident or t.value in NON_CALL_KEYWORDS:
            return None
        if i + 1 >= len(body) or body[i + 1].value != "(":
            return None
        prev = body[i - 1].value if i > 0 else ""
        if prev in (".", "->", "::"):
            return None
        return self.model.by_name.get(t.value)

    # -- the body walk ------------------------------------------------------

    def collect(
        self,
        fn: Fn,
        seed: set[str],
        depth: int = 0,
        _memo: dict | None = None,
    ) -> list[tuple[int, Effect]]:
        """Effects of `fn` with `seed` as the derived parameter names.
        Returned pairs are (top-level token index, effect); expansion
        effects inherit the call site's index."""
        if _memo is None:
            _memo = {}
        key = (fn.qualified, frozenset(seed))
        if key in _memo:
            return _memo[key]
        _memo[key] = []  # cycle guard
        derived, aliases = self.derive(fn.body, seed)
        derived |= {a for a, (_, _, own) in aliases.items() if own & derived}
        out: list[tuple[int, Effect]] = []
        body = fn.body
        n = len(body)
        i = 0
        while i < n:
            t = body[i]
            if t.is_ident:
                v = t.value
                if v in self.members or v in aliases:
                    i = self._chain(fn, body, i, derived, aliases, out)
                    continue
                callee = self._callee_at(body, i)
                if callee is not None:
                    self._call_site(
                        fn, body, i, callee, derived, aliases, out,
                        depth, _memo,
                    )
                    # fall through: args still get scanned for member reads
            i += 1
        _memo[key] = out
        return out

    def _owned(self, own: set[str], derived: set[str]) -> bool:
        return bool(own & derived)

    def _chain(
        self,
        fn: Fn,
        body: list[Token],
        i: int,
        derived: set[str],
        aliases: dict[str, tuple[str, int, set[str]]],
        out: list[tuple[int, Effect]],
    ) -> int:
        """Classify one member/alias access chain starting at body[i].
        Returns the index to resume the outer walk from."""
        n = len(body)
        t = body[i]
        prev = body[i - 1].value if i > 0 else ""
        if prev in (".", "->", "::"):
            return i + 1  # a field of something else, not an Engine member
        own: set[str] = set()
        cover = [t.line, t.line - 1]
        if t.value in aliases:
            base, decl_line, own0 = aliases[t.value]
            if t.line == decl_line and i + 1 < n and body[i + 1].value == "=":
                return i + 1  # the alias's own declaration, not an access
            own |= own0
            if t.value in derived:
                own.add(t.value)
            cover += [decl_line, decl_line - 1]
        else:
            base = t.value
        member = self.members.get(base)
        obj_cls = member.obj_cls if member is not None else None
        const_typed = member.const_typed if member is not None else False

        def emit(kind: str, name: str | None = None, extra_own: set[str] | None = None) -> None:
            o = set(own)
            if extra_own:
                o |= extra_own
            out.append(
                (
                    i,
                    Effect(
                        member=name or base,
                        kind=kind,
                        owned=self._owned(o, derived),
                        file=fn.file,
                        line=t.line,
                        cover_lines=tuple(sorted(set(cover))),
                    ),
                )
            )

        j = i + 1
        while j < n and body[j].value == "[":
            end = _match_group(body, j, "[", "]")
            own |= _idents(body[j + 1 : end - 1])
            j = end

        while j + 1 < n and body[j].value in (".", "->") and body[j + 1].is_ident:
            meth = body[j + 1].value
            if j + 2 < n and body[j + 2].value == "(":
                arg_end = _match_group(body, j + 2, "(", ")")
                argids = _idents(body[j + 3 : arg_end - 1])
                resume = j + 3  # the outer walk re-scans the argument list
                if obj_cls in BARRIER_CLASSES:
                    return resume
                summary = (
                    self.column_summary(obj_cls, meth)
                    if obj_cls is not None
                    else None
                )
                if summary is not None:
                    is_const = self.model.method_const.get((obj_cls, meth))
                    for col, kind in summary:
                        if is_const:
                            kind = "read"
                        emit(kind, name=f"{base}.{col}", extra_own=argids)
                    if not summary:
                        if is_const:
                            emit("read", extra_own=argids)
                        else:
                            emit("write")
                    return resume
                if obj_cls is not None:
                    is_const = self.model.method_const.get((obj_cls, meth))
                    if is_const is None:
                        is_const = meth in CONST_METHODS
                    # Opaque-object writes earn ownership only from the
                    # receiver chain: a derived *argument* does not make a
                    # shared object (the policy) task-confined.
                    emit("read" if is_const else "write")
                    return resume
                if meth in MUTATING_METHODS:
                    emit("write")
                elif meth == "data":
                    if const_typed:
                        emit("read")
                    else:
                        # `x.data() + begin` escapes a mutable pointer; the
                        # trailing expression supplies the owner index.
                        trail: set[str] = set()
                        k = arg_end
                        while k < n and body[k].value not in (",", ")", ";"):
                            if body[k].is_ident:
                                trail.add(body[k].value)
                            k += 1
                        emit("write", extra_own=trail)
                elif meth in CONST_METHODS or const_typed:
                    emit("read")
                else:
                    emit("write")
                return resume
            # plain field access: fold into the same member effect
            j += 2
            while j < n and body[j].value == "[":
                end = _match_group(body, j, "[", "]")
                own |= _idents(body[j + 1 : end - 1])
                j = end

        nxt = body[j].value if j < n else ""
        nxt2 = body[j + 1].value if j + 1 < n else ""
        escaped = prev == "&" and (
            body[i - 2].value in ("(", ",") if i >= 2 else False
        )
        if (
            prev in ("++", "--")
            or nxt in ("++", "--")
            or nxt == "="
            or (nxt in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>") and nxt2 == "=")
            or (escaped and not const_typed)
        ):
            emit("write")
        else:
            emit("read")
        return max(j, i + 1)

    def _call_site(
        self,
        fn: Fn,
        body: list[Token],
        i: int,
        callee: Fn,
        derived: set[str],
        aliases: dict[str, tuple[str, int, set[str]]],
        out: list[tuple[int, Effect]],
        depth: int,
        memo: dict,
    ) -> None:
        segs = _arg_segments(body, i + 1)
        pw = self.param_writes(callee)
        # member (or member-alias) arguments at written-parameter
        # positions are writes *here*, owned by the argument expression
        for argpos, seg in enumerate(segs):
            if argpos not in pw or not seg:
                continue
            head = seg[0].value
            if head == "&" and len(seg) > 1:
                head = seg[1].value
            target = None
            cover = [seg[0].line, seg[0].line - 1]
            if head in self.members:
                target = head
            elif head in aliases:
                target, decl_line, own0 = aliases[head]
                cover += [decl_line, decl_line - 1]
            if target is None:
                continue
            own = _idents(seg)
            if head in aliases:
                own |= aliases[head][2]
            out.append(
                (
                    i,
                    Effect(
                        member=target,
                        kind="write",
                        owned=self._owned(own, derived),
                        file=fn.file,
                        line=seg[0].line,
                        cover_lines=tuple(sorted(set(cover))),
                    ),
                )
            )
        # inline expansion of helper callees
        if (
            callee.name in ORCHESTRATORS
            or depth >= self.MAX_DEPTH
            or callee.qualified == fn.qualified
        ):
            return
        callee_seed = {
            p
            for argpos, p in enumerate(callee.params)
            if p
            and argpos < len(segs)
            and (_idents(segs[argpos]) & derived)
        }
        for _, eff in self.collect(callee, callee_seed, depth + 1, memo):
            out.append((i, eff))

    # -- barrier events -----------------------------------------------------

    def barrier_events(self, fn: Fn) -> list[BarrierEvent]:
        out: list[BarrierEvent] = []
        body = fn.body
        n = len(body)
        for i, t in enumerate(body):
            if not t.is_ident or t.value not in self.members:
                continue
            if self.members[t.value].obj_cls not in BARRIER_CLASSES:
                continue
            j = i + 1
            if j < n and body[j].value in (".", "->") and j + 2 < n:
                if body[j + 1].is_ident and body[j + 2].value == "(":
                    out.append(BarrierEvent(body[j + 1].value, i, t.line))
        return out

    def executor_calls(self, fn: Fn, executors: set[str]) -> list[tuple[str, int, int]]:
        """(callee name, token index, line) of calls to region executors."""
        out = []
        body = fn.body
        for i, t in enumerate(body):
            callee = self._callee_at(body, i)
            if callee is not None and callee.name in executors:
                out.append((callee.name, i, t.line))
        return out


# ---------------------------------------------------------------------------
# HP_SHARED_WRITE annotations (raw-line scan: reasons are string literals,
# which strip_code blanks out of the token stream)
# ---------------------------------------------------------------------------


def collect_annotations(model: Model) -> dict[tuple[str, int], str]:
    anns: dict[tuple[str, int], str] = {}
    for relpath, lines in model.raw_lines.items():
        for idx, line in enumerate(lines, start=1):
            if re.match(r"\s*#\s*define\b", line):
                continue
            m = ANNOTATION_RE.search(line)
            if m is None:
                continue
            # argument extent: from the '(' to its match, spanning at most
            # three raw lines (clang-format never wraps wider than that)
            text = line[m.end() :]
            for extra in lines[idx : idx + 2]:
                text += "\n" + extra
            depth = 1
            arg = []
            for ch in text:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        break
                arg.append(ch)
            reason = " ".join(STRING_RE.findall("".join(arg))).strip()
            anns[(relpath, idx)] = reason
    return anns


# ---------------------------------------------------------------------------
# Regions, checks, artifact
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class Result:
    parallel: dict[str, list[Effect]]
    serial: dict[str, list[Effect]]
    findings: list[Finding]
    shared_writes: list[dict]
    events_by_fn: dict[str, list[str]]
    executors: list[str]
    pipeline: list[str]
    task_kinds: list[str]


def _case_segments(body: list[Token]) -> tuple[int, list[tuple[str, int]]]:
    """(index of the switch, [(enumerator, label index), ...])."""
    switch_at = next(
        (i for i, t in enumerate(body) if t.value == "switch"), len(body)
    )
    labels: list[tuple[str, int]] = []
    i = switch_at
    while i < len(body):
        if body[i].value == "case":
            j = i + 1
            idents: list[str] = []
            while j < len(body) and body[j].value != ":":
                if body[j].is_ident:
                    idents.append(body[j].value)
                j += 1
            if idents:
                labels.append((idents[-1], i))
            i = j
        i += 1
    return switch_at, labels


def _phase_of_index(
    idx: int, switch_at: int, labels: list[tuple[str, int]]
) -> str | None:
    """None = preamble (belongs to every phase)."""
    if idx < switch_at or not labels:
        return None
    phase = None
    for name, at in labels:
        if at <= idx:
            phase = name
        else:
            break
    return phase


def extract_pipeline(model: Model) -> list[str]:
    """TaskKind enumerators in the order step() runs their epochs."""
    order: list[str] = []
    visited: set[str] = set()

    def visit(fn: Fn) -> None:
        if fn.qualified in visited:
            return
        visited.add(fn.qualified)
        body = fn.body
        for i, t in enumerate(body):
            if (
                t.value == "run_sharded"
                and i + 1 < len(body)
                and body[i + 1].value == "("
            ):
                segs = _arg_segments(body, i + 1)
                if segs:
                    kinds = [
                        w.value for w in segs[0] if w.is_ident
                    ]
                    if kinds:
                        order.append(kinds[-1])
                continue
            if not t.is_ident or i + 1 >= len(body):
                continue
            if body[i + 1].value != "(":
                continue
            prev = body[i - 1].value if i > 0 else ""
            if prev in (".", "->", "::"):
                continue
            callee = model.by_name.get(t.value)
            if callee is not None and callee.cls == fn.cls:
                visit(callee)

    step = model.by_name.get("step")
    if step is not None:
        visit(step)
    seen: set[str] = set()
    out = []
    for k in order:
        if k not in seen:
            seen.add(k)
            out.append(k)
    return out


def analyze(model: Model) -> Result:
    an = RegionAnalyzer(model)
    annotations = collect_annotations(model)
    used: set[tuple[str, int]] = set()
    findings: list[Finding] = []
    shared_writes: list[dict] = []
    task_kinds = model.task_kinds()

    parallel: dict[str, list[Effect]] = {}
    run_task = model.by_name.get("run_task")
    if run_task is not None:
        seed = {p for p in run_task.params if p}
        tagged = an.collect(run_task, seed)
        switch_at, labels = _case_segments(run_task.body)
        for kind in task_kinds:
            parallel[kind] = []
        for idx, eff in tagged:
            phase = _phase_of_index(idx, switch_at, labels)
            if phase is None:
                for kind in task_kinds:
                    parallel.setdefault(kind, []).append(eff)
            else:
                parallel.setdefault(phase, []).append(eff)
        label_names = {name for name, _ in labels}
        for kind in task_kinds:
            if kind not in label_names:
                findings.append(
                    Finding(
                        "missing-case",
                        run_task.file,
                        run_task.line,
                        f"TaskKind::{kind} has no case in run_task — "
                        "an epoch of that kind would silently do nothing",
                    )
                )
    drain = model.by_name.get("drain_tasks")
    if drain is not None:
        parallel["drain"] = [eff for _, eff in an.collect(drain, set())]

    serial: dict[str, list[Effect]] = {}
    for name in SERIAL_REGIONS:
        fn = model.by_name.get(name)
        if fn is not None:
            seed = {p for p in fn.params if p}
            serial[name] = [eff for _, eff in an.collect(fn, seed)]

    # -- check (a): parallel writes are owned or annotated-with-reason ------
    def annotation_for(eff: Effect) -> tuple[int, str] | None:
        for ln in eff.cover_lines:
            key = (eff.file, ln)
            if key in annotations:
                return ln, annotations[key]
        return None

    annotated_writes: dict[str, set[str]] = {}  # region -> member names
    reported: set[tuple[str, str, int]] = set()
    for region, effects in parallel.items():
        for eff in effects:
            if eff.kind != "write" or eff.owned:
                continue
            hit = annotation_for(eff)
            dedup = (region, eff.member, eff.line)
            if hit is None:
                if dedup not in reported:
                    reported.add(dedup)
                    findings.append(
                        Finding(
                            "unowned-parallel-write",
                            eff.file,
                            eff.line,
                            f"write to '{eff.member}' in parallel phase "
                            f"'{region}' is not owner-derived; confine it "
                            "to task-owned state or annotate with "
                            "HP_SHARED_WRITE(reason)",
                        )
                    )
                continue
            ln, reason = hit
            used.add((eff.file, ln))
            annotated_writes.setdefault(region, set()).add(eff.member)
            if not reason:
                if dedup not in reported:
                    reported.add(dedup)
                    findings.append(
                        Finding(
                            "missing-reason",
                            eff.file,
                            ln,
                            "HP_SHARED_WRITE needs a non-empty reason "
                            f"string for the shared write to '{eff.member}'",
                        )
                    )
                continue
            entry = {
                "member": eff.member,
                "file": eff.file,
                "line": ln,
                "reason": reason,
            }
            if entry not in shared_writes:
                shared_writes.append(entry)

    # -- check (c): no unannotated write + unowned read of one member
    # inside the same epoch (cross-task visibility without a barrier) -------
    for region, effects in parallel.items():
        ann = annotated_writes.get(region, set())
        by_member: dict[str, list[Effect]] = {}
        for eff in effects:
            by_member.setdefault(eff.member, []).append(eff)
        for member, effs in sorted(by_member.items()):
            writes = [
                e
                for e in effs
                if e.kind == "write"
                and not (not e.owned and annotation_for(e) is not None)
            ]
            unowned_reads = [
                e for e in effs if e.kind == "read" and not e.owned
            ]
            if member in ann:
                continue
            if writes and unowned_reads:
                w, r = writes[0], unowned_reads[0]
                findings.append(
                    Finding(
                        "intra-phase-hazard",
                        r.file,
                        r.line,
                        f"'{member}' is written (line {w.line}) and read "
                        f"through a non-owner index in the same parallel "
                        f"phase '{region}' — no barrier orders the pair",
                    )
                )

    # stale annotations: every HP_SHARED_WRITE must justify a live shared
    # write (dead ones hide future races behind a stale excuse)
    for (relpath, ln), _reason in sorted(annotations.items()):
        if (relpath, ln) not in used:
            findings.append(
                Finding(
                    "stale-annotation",
                    relpath,
                    ln,
                    "HP_SHARED_WRITE does not cover any shared write in a "
                    "parallel phase — delete it or move it onto the write",
                )
            )

    # -- check (b): barrier bracketing --------------------------------------
    events_by_fn: dict[str, list[str]] = {}
    events_idx: dict[str, list[BarrierEvent]] = {}
    executors: set[str] = set()
    for fn in model.fns.values():
        evs = an.barrier_events(fn)
        if evs:
            events_by_fn[fn.name] = [e.method for e in evs]
            events_idx[fn.name] = evs
        if any(e.method == "next_task" for e in evs):
            executors.add(fn.name)
    for fn in model.fns.values():
        evs = events_idx.get(fn.name, [])
        bal = 0
        for e in evs:
            if e.method in BARRIER_OPENERS:
                bal += 1
            elif e.method in BARRIER_CLOSERS:
                bal -= 1
            if bal < 0:
                findings.append(
                    Finding(
                        "unbalanced-barrier",
                        fn.file,
                        e.line,
                        f"{fn.name} closes a barrier epoch it never opened",
                    )
                )
                bal = 0
        if bal != 0:
            findings.append(
                Finding(
                    "unbalanced-barrier",
                    fn.file,
                    evs[-1].line,
                    f"{fn.name} opens a barrier epoch it never closes",
                )
            )
        for callee, idx, line in an.executor_calls(fn, executors):
            opened = any(
                e.index < idx and e.method in BARRIER_OPENERS for e in evs
            )
            closed = any(
                e.index > idx and e.method in BARRIER_CLOSERS for e in evs
            )
            if not (opened and closed):
                findings.append(
                    Finding(
                        "unbracketed-executor",
                        fn.file,
                        line,
                        f"{fn.name} runs the parallel executor '{callee}' "
                        "outside an open/close (or wait_open/leave) "
                        "PhaseBarrier epoch",
                    )
                )

    return Result(
        parallel=parallel,
        serial=serial,
        findings=findings,
        shared_writes=shared_writes,
        events_by_fn=events_by_fn,
        executors=sorted(executors),
        pipeline=extract_pipeline(model),
        task_kinds=task_kinds,
    )


# ---------------------------------------------------------------------------
# Artifact
# ---------------------------------------------------------------------------


def _access_summary(effects: list[Effect], kind: str, annotated: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    by_member: dict[str, list[Effect]] = {}
    for e in effects:
        if e.kind == kind:
            by_member.setdefault(e.member, []).append(e)
    for member, effs in sorted(by_member.items()):
        if all(e.owned for e in effs):
            out[member] = "owned"
        elif kind == "write" and member in annotated:
            out[member] = "annotated"
        else:
            out[member] = "shared"
    return out


def build_artifact(model: Model, result: Result) -> dict:
    annotated = {sw["member"] for sw in result.shared_writes}
    phases_parallel: dict[str, dict] = {}
    for region in sorted(result.parallel):
        effs = result.parallel[region]
        phases_parallel[region] = {
            "reads": _access_summary(effs, "read", annotated),
            "writes": _access_summary(effs, "write", annotated),
        }
    phases_serial: dict[str, dict] = {}
    for region in sorted(result.serial):
        effs = result.serial[region]
        phases_serial[region] = {
            "reads": sorted({e.member for e in effs if e.kind == "read"}),
            "writes": sorted({e.member for e in effs if e.kind == "write"}),
        }
    cross_phase: list[dict] = []
    for wi, write_phase in enumerate(result.pipeline):
        wset = {
            e.member
            for e in result.parallel.get(write_phase, [])
            if e.kind == "write"
        }
        for read_phase in result.pipeline[wi + 1 :]:
            rset = {
                e.member
                for e in result.parallel.get(read_phase, [])
                if e.kind == "read"
            }
            for member in sorted(wset & rset):
                cross_phase.append(
                    {
                        "member": member,
                        "write_phase": write_phase,
                        "read_phase": read_phase,
                        "ordered_by": "PhaseBarrier",
                    }
                )
    return {
        "schema": SCHEMA,
        "files": sorted(model.files),
        "task_kinds": result.task_kinds,
        "pipeline": result.pipeline,
        "phases": {"parallel": phases_parallel, "serial": phases_serial},
        "shared_writes": sorted(
            result.shared_writes,
            key=lambda sw: (sw["file"], sw["line"], sw["member"]),
        ),
        "barriers": {
            "events": {
                k: result.events_by_fn[k] for k in sorted(result.events_by_fn)
            },
            "executors": result.executors,
        },
        "cross_phase": cross_phase,
    }


def artifact_to_text(artifact: dict) -> str:
    return json.dumps(artifact, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load(root: pathlib.Path) -> Model | None:
    try:
        return load_model(root)
    except FileNotFoundError as missing:
        print(
            f"phase_effects: required file {missing} not found under {root}",
            file=sys.stderr,
        )
        return None


def cmd_check(args: argparse.Namespace) -> int:
    model = _load(args.root.resolve())
    if model is None:
        return 2
    result = analyze(model)
    for finding in result.findings:
        print(f"phase_effects: {finding.render()}", file=sys.stderr)
    if result.findings:
        print(
            f"phase_effects: {len(result.findings)} finding(s) — the "
            "parallel-phase contracts do not hold (see "
            "docs/STATIC_ANALYSIS.md, layer 6)",
            file=sys.stderr,
        )
        return 1
    n_parallel = len(result.parallel)
    n_shared = len(result.shared_writes)
    print(
        f"phase_effects: OK — {n_parallel} parallel region(s), "
        f"{n_shared} annotated shared write(s), pipeline "
        + " -> ".join(result.pipeline)
    )
    return 0


def cmd_artifact(args: argparse.Namespace) -> int:
    root = args.root.resolve()
    model = _load(root)
    if model is None:
        return 2
    result = analyze(model)
    artifact = build_artifact(model, result)
    text = artifact_to_text(artifact)
    out_path = root / ARTIFACT

    if args.check:
        if not out_path.exists():
            print(
                f"phase_effects: {ARTIFACT} is not committed; run "
                "`python3 scripts/analysis/phase_effects.py artifact "
                "--write` and review the diff",
                file=sys.stderr,
            )
            return 1
        committed = out_path.read_text(encoding="utf-8")
        if committed != text:
            print(
                f"phase_effects: {ARTIFACT} is stale — the extracted "
                "read/write sets changed. Regenerate with `python3 "
                "scripts/analysis/phase_effects.py artifact --write` and "
                "review the diff (a new shared write is a reviewed event, "
                "see docs/STATIC_ANALYSIS.md).",
                file=sys.stderr,
            )
            try:
                old = json.loads(committed)
                for key in ("pipeline", "shared_writes"):
                    new_v = json.dumps(artifact.get(key), sort_keys=True)
                    old_v = json.dumps(old.get(key), sort_keys=True)
                    if new_v != old_v:
                        print(f"  {key}: {old_v} -> {new_v}", file=sys.stderr)
            except json.JSONDecodeError:
                pass
            return 1
        print(
            f"phase_effects: {ARTIFACT} is fresh "
            f"({len(artifact['phases']['parallel'])} parallel regions, "
            f"{len(artifact['shared_writes'])} shared writes)"
        )
        return 0

    if args.write:
        out_path.write_text(text, encoding="utf-8")
        print(
            f"phase_effects: wrote {ARTIFACT} "
            f"({len(artifact['phases']['parallel'])} parallel regions)"
        )
        return 0

    sys.stdout.write(text)
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    model = _load(args.root.resolve())
    if model is None:
        return 2
    result = analyze(model)
    for region in sorted(result.parallel):
        print(f"parallel {region}:")
        for eff in result.parallel[region]:
            own = "owned" if eff.owned else "SHARED"
            print(
                f"  {eff.kind:5} {own:6} {eff.member:28} "
                f"{eff.file}:{eff.line}"
            )
    for region in sorted(result.serial):
        effs = result.serial[region]
        reads = sorted({e.member for e in effs if e.kind == "read"})
        writes = sorted({e.member for e in effs if e.kind == "write"})
        print(f"serial {region}: reads={reads} writes={writes}")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="phase_effects", description=__doc__.splitlines()[0]
    )
    ap.add_argument(
        "--root",
        type=pathlib.Path,
        default=SCRIPT_DIR.parent.parent,
        help="repository root (fixture trees mirror src/sim/...)",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser(
        "check", help="verify the parallel-phase contracts (a)/(b)/(c)"
    )
    p_art = sub.add_parser(
        "artifact", help=f"emit or verify the committed {ARTIFACT}"
    )
    p_art.add_argument("--write", action="store_true")
    p_art.add_argument("--check", action="store_true")
    sub.add_parser("dump", help="human-readable per-region effect listing")
    args = ap.parse_args(argv)
    if args.cmd == "check":
        return cmd_check(args)
    if args.cmd == "artifact":
        if args.write and args.check:
            print("phase_effects: --write and --check conflict", file=sys.stderr)
            return 2
        return cmd_artifact(args)
    return cmd_dump(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
