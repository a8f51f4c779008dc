#!/usr/bin/env python3
"""Whole-program determinism certification for the hot-potato engine.

PR 2's determinism lint certified a *textual* scope — every file under
``src/sim/`` and ``src/routing/``. But the bit-identical-for-any-thread-count
guarantee depends on every function *reachable* from the routing phase:
potential observers in ``src/core``, topology caches in ``src/topology``,
recorders in ``src/stats``. This tool makes the certified class the actual
call-graph-reachable set, mirroring the paper's Theorem 17 move of proving a
property for every member of a class once instead of per run.

Four subcommands:

  reachable   Build the call graph of ``src/``, compute the set of functions
              reachable from the routing roots (``Engine::step``), and write
              or verify the committed ``routing_reachable.json`` artifact.
              The determinism lint consumes the artifact's file set, so lint
              scope follows reachability, not directory layout — and scope
              growth shows up as a reviewable diff of the artifact.
  shipping    List the ``src/`` functions that no shipped file (``examples/``,
              ``bench/``, ``benchmark/``) reaches; with ``--check``, fail on
              any that ``scripts/analysis/shipping.json`` does not list with
              a reason, and on stale entries there.
  layering    Enforce the declared layering DAG (``scripts/analysis/
              layering.json``) over the include graph of ``src/``. A file may
              include only files of its own or a lower layer; every exception
              must be listed in the config with a reason.
  dump        Print the extracted functions and call edges (debugging aid).

Engines: the default is a pure-regex/token engine (Python stdlib only, so it
runs in containers without LLVM). The call graph it builds is *conservative*:
calls resolve by simple name to every function sharing that name, so virtual
dispatch (``obs->on_step(...)``) reaches every override, and any mention of a
class name inside a body reaches that class's constructor and destructor.
Over-approximation widens the certified set — it can only make the lint
stricter, never weaker. When the ``clang.cindex`` bindings are importable,
``--engine=clang`` builds an AST-precise graph from ``compile_commands.json``
as a cross-check; the regex engine remains the source of truth for the
committed artifact (same discipline as the determinism lint's engines).

Exit status: 0 = clean/ok, 1 = findings or stale artifact, 2 = usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import posixpath
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "lint"))
from determinism_lint import strip_code  # noqa: E402

SCHEMA = "hp-routing-reachable-v1"
DEFAULT_ROOTS = ("hp::sim::Engine::step",)
ARTIFACT = "routing_reachable.json"
LAYERING_CONFIG = pathlib.Path(__file__).resolve().parent / "layering.json"
SHIPPING_ALLOWLIST = pathlib.Path(__file__).resolve().parent / "shipping.json"

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"  # identifiers / keywords
    r"|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\[\[|\]\]"
    r"|[0-9][0-9A-Za-z_.']*"  # numeric literals (one token)
    r"|[{}()\[\];:,<>~=!&|+\-*/.?%^]"
)

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Keywords that look like calls (``if (...)``) or never are ones.
NON_CALL_KEYWORDS = frozenset(
    {
        "if", "for", "while", "switch", "return", "catch", "sizeof",
        "alignof", "alignas", "decltype", "new", "delete", "throw",
        "static_assert", "assert", "defined", "noexcept", "else", "do",
        "case", "default", "using", "typedef", "typename", "template",
        "static_cast", "const_cast", "dynamic_cast", "reinterpret_cast",
        "co_await", "co_return", "co_yield", "requires", "operator",
    }
)

SCOPE_KEYWORDS = frozenset({"namespace", "class", "struct", "union", "enum"})


@dataclasses.dataclass
class Token:
    value: str
    line: int  # 1-based

    @property
    def is_ident(self) -> bool:
        return bool(IDENT_RE.match(self.value))


def tokenize(code_lines: list[str]) -> list[Token]:
    out: list[Token] = []
    directive = False
    for lineno, line in enumerate(code_lines, start=1):
        # Preprocessor directives, continuation lines included, carry no
        # declarations (a macro body is not a function definition).
        if directive or line.lstrip().startswith("#"):
            directive = line.rstrip().endswith("\\")
            continue
        for m in TOKEN_RE.finditer(line):
            out.append(Token(m.group(0), lineno))
    return out


# ---------------------------------------------------------------------------
# Function extraction (regex/token engine)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FunctionDef:
    qualified: str  # e.g. hp::sim::Engine::step
    name: str  # last component, e.g. step
    file: str  # repo-relative POSIX path
    line: int  # definition start (1-based)
    calls: set[str] = dataclasses.field(default_factory=set)
    idents: set[str] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class ParsedFile:
    relpath: str
    functions: list[FunctionDef]
    includes: list[str]  # resolved repo-relative paths of quoted includes
    classes: set[str]  # class/struct names defined here
    macro_calls: set[str] = dataclasses.field(default_factory=set)


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
DEFINE_RE = re.compile(r"^\s*#\s*define\s+\w+(?:\([^)]*\))?(.*)$")
CALL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def macro_calls(code_lines: list[str]) -> set[str]:
    """Names called inside ``#define`` bodies (continuation lines included).
    The tokenizer drops directives, so without this a function that only a
    macro calls (``HP_CHECK`` -> ``detail::check_failed``) has no caller."""
    out: set[str] = set()
    lines = iter(code_lines)
    for line in lines:
        m = DEFINE_RE.match(line)
        if m is None:
            continue
        body = m.group(1)
        while line.rstrip().endswith("\\"):
            line = next(lines, "")
            body += " " + line
        out |= {c for c in CALL_RE.findall(body) if c not in NON_CALL_KEYWORDS}
    return out


def _match_group(tokens: list[Token], i: int, open_: str, close: str) -> int:
    """Index just past the group that opens at tokens[i] (== open_)."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if v == open_:
            depth += 1
        elif v == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _parse_declarator_name(tokens: list[Token], i: int) -> tuple[str, int] | None:
    """Parses a (possibly qualified) declarator name ending right before a
    '('. Returns (name, index_of_lparen) or None. Handles ``A::B::f``,
    ``~A``, ``operator==`` and conversion operators."""
    parts: list[str] = []
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.value == "~" and i + 1 < n and tokens[i + 1].is_ident:
            parts.append("~" + tokens[i + 1].value)
            i += 2
        elif t.value == "operator":
            # operator()(...)  |  operator==(...)  |  operator bool(...)
            j = i + 1
            sym = ""
            if j + 1 < n and tokens[j].value == "(" and tokens[j + 1].value == ")":
                sym, j = "()", j + 2
            else:
                while j < n and tokens[j].value != "(":
                    sym += tokens[j].value
                    j += 1
            parts.append("operator" + sym)
            i = j
            break
        elif t.is_ident:
            parts.append(t.value)
            i += 1
        else:
            return None
        if i < n and tokens[i].value == "::":
            i += 1
            continue
        break
    if not parts or i >= n or tokens[i].value != "(":
        return None
    return "::".join(parts), i


def _skip_ctor_init_list(tokens: list[Token], i: int) -> int | None:
    """Past-`:` scan of a constructor initializer list. Returns the index of
    the body '{' or None if the construct turns out not to be one."""
    n = len(tokens)
    angle = 0
    while i < n:
        v = tokens[i].value
        if v == "<":
            angle += 1
        elif v == ">":
            angle = max(0, angle - 1)
        elif angle == 0 and v == "(":
            i = _match_group(tokens, i, "(", ")")
            # after a completed initializer: ',' continues, '{' is the body
            if i < n and tokens[i].value == "{":
                return i
            continue
        elif angle == 0 and v == "{":
            # `member{...}` braced init only directly after a name/template;
            # otherwise this is the body.
            prev = tokens[i - 1].value if i > 0 else ""
            if IDENT_RE.match(prev) or prev == ">":
                i = _match_group(tokens, i, "{", "}")
                if i < n and tokens[i].value == "{":
                    return i
                continue
            return i
        elif v == ";":
            return None
        i += 1
    return None


def _scan_after_params(tokens: list[Token], i: int) -> int | None:
    """tokens[i] is just past the closing ')' of a parameter list. Returns
    the index of the body '{' when this is a definition, else None."""
    n = len(tokens)
    angle = 0
    while i < n:
        v = tokens[i].value
        if v == "noexcept" and i + 1 < n and tokens[i + 1].value == "(":
            i = _match_group(tokens, i + 1, "(", ")")
            continue
        if v == "<":
            angle += 1
        elif v == ">":
            angle = max(0, angle - 1)
        elif angle == 0:
            if v == "{":
                return i
            if v == ";":
                return None
            if v == "=":  # = default / = delete / = 0
                return None
            if v == ":":
                return _skip_ctor_init_list(tokens, i + 1)
            if v in ("(", "["):
                # unexpected group (attribute, asm...): skip it
                i = _match_group(tokens, i, v, ")" if v == "(" else "]")
                continue
        i += 1
    return None


def parse_file(relpath: str, raw_text: str) -> ParsedFile:
    includes = [
        m.group(1)
        for line in raw_text.splitlines()
        if (m := INCLUDE_RE.match(line))
    ]
    code_lines = strip_code(raw_text)
    tokens = tokenize(code_lines)
    n = len(tokens)

    functions: list[FunctionDef] = []
    classes: set[str] = set()
    # scope stack entries: (kind, name) where kind in
    # {namespace, class, block}
    scopes: list[tuple[str, str]] = []
    i = 0
    while i < n:
        t = tokens[i]
        v = t.value

        if v == "namespace":
            j = i + 1
            name_parts: list[str] = []
            while j < n and (tokens[j].is_ident or tokens[j].value == "::"):
                if tokens[j].is_ident:
                    name_parts.append(tokens[j].value)
                j += 1
            if j < n and tokens[j].value == "{":
                # C++17 nested `namespace a::b {` opens ONE brace
                scopes.append(("namespace", "::".join(name_parts)))
                i = j + 1
                continue
            if j < n and tokens[j].value == "=":  # namespace alias
                while j < n and tokens[j].value != ";":
                    j += 1
            i = j + 1
            continue

        if v in ("class", "struct") and (
            i == 0 or tokens[i - 1].value not in ("enum", "<", ",")
        ):
            j = i + 1
            name = ""
            # `class HP_CAPABILITY("barrier") Name {`: an attribute macro
            # may sit between the keyword and the name.
            while (
                j + 1 < n and tokens[j].is_ident and tokens[j + 1].value == "("
            ):
                j = _match_group(tokens, j + 1, "(", ")")
            if j < n and tokens[j].is_ident:
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
                scopes.append(("class", name))
                if name:
                    classes.add(name)
                i = j + 1
                continue
            i = j + 1
            continue

        if v in ("enum", "union"):
            j = i + 1
            while j < n and tokens[j].value not in ("{", ";"):
                j += 1
            if j < n and tokens[j].value == "{":
                j = _match_group(tokens, j, "{", "}")
            i = j
            continue

        if v == "{":
            scopes.append(("block", ""))
            i += 1
            continue
        if v == "}":
            if scopes:
                scopes.pop()
            i += 1
            continue

        parsed = None
        if (t.is_ident and v not in NON_CALL_KEYWORDS and v not in SCOPE_KEYWORDS) or v in ("~", "operator"):
            parsed = _parse_declarator_name(tokens, i)
        if parsed is not None:
            name, lparen = parsed
            past_params = _match_group(tokens, lparen, "(", ")")
            body = _scan_after_params(tokens, past_params)
            if body is not None:
                qual_parts = [s[1] for s in scopes if s[0] in ("namespace", "class") and s[1]]
                qualified = "::".join(qual_parts + [name])
                fn = FunctionDef(
                    qualified=qualified,
                    name=name.rsplit("::", 1)[-1],
                    file=relpath,
                    line=tokens[i].line,
                )
                # ctor-init-list / trailing tokens before the body carry
                # real call edges too (`c_(helper(a))`, default member
                # factories) — scan them the same way as the body.
                for k in range(past_params, body):
                    w = tokens[k]
                    if w.is_ident and w.value not in NON_CALL_KEYWORDS:
                        fn.idents.add(w.value)
                        if k + 1 < n and tokens[k + 1].value == "(":
                            fn.calls.add(w.value)
                # walk the body: record calls + identifiers
                depth = 0
                k = body
                while k < n:
                    w = tokens[k]
                    if w.value == "{":
                        depth += 1
                    elif w.value == "}":
                        depth -= 1
                        if depth == 0:
                            k += 1
                            break
                    elif w.is_ident:
                        if w.value not in NON_CALL_KEYWORDS:
                            fn.idents.add(w.value)
                            if k + 1 < n and tokens[k + 1].value == "(":
                                fn.calls.add(w.value)
                    k += 1
                functions.append(fn)
                i = k
                continue
            # declaration only: resume right after the parameter list so a
            # same-line second declarator or initializer is handled sanely.
            i = past_params
            continue

        i += 1

    return ParsedFile(
        relpath=relpath,
        functions=functions,
        includes=includes,
        classes=classes,
        macro_calls=macro_calls(code_lines),
    )


# ---------------------------------------------------------------------------
# Tree loading
# ---------------------------------------------------------------------------

SRC_EXTS = (".hpp", ".cpp", ".h", ".cc")
#: Directories whose code ships as a binary (examples, experiment benches,
#: the repository benchmark); `shipping` roots its closure in them.
SHIPPED_DIRS = ("examples", "bench", "benchmark")


def source_files(
    root: pathlib.Path, dirs: tuple[str, ...] = ("src",)
) -> list[pathlib.Path]:
    out: list[pathlib.Path] = []
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        out.extend(
            p
            for p in base.rglob("*")
            if p.suffix in SRC_EXTS
            and p.is_file()
            # build trees (build/, build-*/) hold generated sources
            and not any(
                part.startswith("build") for part in p.relative_to(base).parts
            )
        )
    return sorted(out)


def tu_list_from_compile_commands(path: pathlib.Path, root: pathlib.Path) -> set[str]:
    """Repo-relative paths of the src/ translation units in the database."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    out: set[str] = set()
    for entry in entries:
        f = pathlib.Path(entry["file"])
        if not f.is_absolute():
            f = pathlib.Path(entry.get("directory", ".")) / f
        try:
            rel = f.resolve().relative_to(root).as_posix()
        except ValueError:
            continue
        if rel.startswith("src/"):
            out.add(rel)
    return out


@dataclasses.dataclass
class Program:
    files: dict[str, ParsedFile]

    @property
    def functions(self) -> list[FunctionDef]:
        return [fn for pf in self.files.values() for fn in pf.functions]

    def by_simple_name(self) -> dict[str, list[FunctionDef]]:
        idx: dict[str, list[FunctionDef]] = {}
        for fn in self.functions:
            idx.setdefault(fn.name, []).append(fn)
        return idx

    def class_names(self) -> set[str]:
        out: set[str] = set()
        for pf in self.files.values():
            out |= pf.classes
        return out


def load_program(
    root: pathlib.Path,
    compile_commands: pathlib.Path | None,
    dirs: tuple[str, ...] = ("src",),
) -> Program:
    paths = source_files(root, dirs)
    if compile_commands is not None and compile_commands.exists():
        tus = tu_list_from_compile_commands(compile_commands, root)
        known = {p.relative_to(root).as_posix() for p in paths}
        missing = tus - known
        for rel in sorted(missing):
            print(
                f"callgraph: note: {rel} is in {compile_commands.name} but "
                "not on disk",
                file=sys.stderr,
            )
    files: dict[str, ParsedFile] = {}
    for path in paths:
        rel = path.relative_to(root).as_posix()
        files[rel] = parse_file(
            rel, path.read_text(encoding="utf-8", errors="replace")
        )
    return Program(files)


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def reachable_functions(
    program: Program, roots: tuple[str, ...] = DEFAULT_ROOTS
) -> list[FunctionDef]:
    """Conservative closure over the name-resolved call graph.

    Call edges resolve a called simple name to EVERY function definition
    sharing it (this subsumes virtual dispatch: `on_step` reaches every
    override). Additionally, mentioning a class name inside a body reaches
    that class's constructors and destructor — object construction sites
    (`Rng node_rng(...)`, `make_unique<T>(...)`) call them without a
    name-followed-by-paren shape.
    """
    roots_found = [
        fn
        for fn in program.functions
        if any(fn.qualified == r or fn.qualified.endswith("::" + r) for r in roots)
    ]
    if not roots_found:
        raise SystemExit(
            f"callgraph: none of the roots {list(roots)} were found; "
            "did Engine::step get renamed?"
        )
    return closure(program, roots_found)


def closure(program: Program, start: list[FunctionDef]) -> list[FunctionDef]:
    by_name = program.by_simple_name()
    classes = program.class_names()

    def targets(fn: FunctionDef) -> set[str]:
        out: set[str] = set(fn.calls)
        for ident in fn.idents:
            if ident in classes:
                out.add(ident)  # constructors share the class name
                out.add("~" + ident)
        return out

    seen: set[int] = set()
    order: list[FunctionDef] = []
    stack = list(start)
    while stack:
        fn = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        order.append(fn)
        for name in targets(fn):
            for callee in by_name.get(name, ()):
                if id(callee) not in seen:
                    stack.append(callee)
    return order


def build_artifact(program: Program, roots: tuple[str, ...]) -> dict:
    reach = reachable_functions(program, roots)
    per_file: dict[str, list[str]] = {}
    for fn in reach:
        per_file.setdefault(fn.file, []).append(fn.qualified)
    for names in per_file.values():
        names.sort()
    return {
        "schema": SCHEMA,
        "engine": "regex",
        "roots": sorted(roots),
        "files": sorted(per_file),
        "functions": {f: per_file[f] for f in sorted(per_file)},
    }


def artifact_to_text(artifact: dict) -> str:
    return json.dumps(artifact, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# Optional clang engine (cross-check only)
# ---------------------------------------------------------------------------


def clang_reachable_files(
    root: pathlib.Path, compile_commands: pathlib.Path, roots: tuple[str, ...]
) -> set[str] | None:
    """AST-precise reachable file set via libclang, or None when the
    bindings are unavailable. Used as a cross-check: the regex engine stays
    the source of truth for the committed artifact."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None

    try:
        db = cindex.CompilationDatabase.fromDirectory(str(compile_commands.parent))
    except cindex.CompilationDatabaseError:
        return None

    index = cindex.Index.create()
    defs: dict[str, list[tuple[str, str]]] = {}  # usr -> [(file, qualified)]
    edges: dict[str, set[str]] = {}  # caller usr -> callee usrs
    names: dict[str, str] = {}  # usr -> qualified name

    def qualified_name(cursor) -> str:  # noqa: ANN001
        parts = []
        c = cursor
        while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    fn_kinds = {
        cindex.CursorKind.FUNCTION_DECL,
        cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.CONSTRUCTOR,
        cindex.CursorKind.DESTRUCTOR,
        cindex.CursorKind.FUNCTION_TEMPLATE,
    }

    for path in source_files(root):
        if path.suffix not in (".cpp", ".cc"):
            continue
        cmds = db.getCompileCommands(str(path))
        args = []
        if cmds:
            args = [a for a in list(cmds[0].arguments)[1:] if a != str(path)]
        try:
            tu = index.parse(str(path), args=args)
        except cindex.TranslationUnitLoadError:
            continue

        def visit(node, current_usr):  # noqa: ANN001
            if node.kind in fn_kinds and node.is_definition():
                usr = node.get_usr()
                rel = None
                if node.location.file is not None:
                    try:
                        rel = (
                            pathlib.Path(str(node.location.file))
                            .resolve()
                            .relative_to(root)
                            .as_posix()
                        )
                    except ValueError:
                        rel = None
                if rel is not None and rel.startswith("src/"):
                    defs.setdefault(usr, []).append((rel, qualified_name(node)))
                    names[usr] = qualified_name(node)
                current_usr = usr
            elif node.kind == cindex.CursorKind.CALL_EXPR and current_usr:
                ref = node.referenced
                if ref is not None:
                    edges.setdefault(current_usr, set()).add(ref.get_usr())
            for child in node.get_children():
                visit(child, current_usr)

        visit(tu.cursor, None)

    root_usrs = [
        usr for usr, qn in names.items() if any(qn.endswith(r.split("::")[-1]) and r in qn for r in roots)
    ]
    seen: set[str] = set()
    stack = list(root_usrs)
    while stack:
        usr = stack.pop()
        if usr in seen:
            continue
        seen.add(usr)
        stack.extend(edges.get(usr, ()))
    out: set[str] = set()
    for usr in seen:
        for rel, _ in defs.get(usr, ()):
            out.add(rel)
    return out


# ---------------------------------------------------------------------------
# Shipping gate
# ---------------------------------------------------------------------------


def is_special_member(fn: FunctionDef) -> bool:
    """Operators, constructors and destructors. Their calls carry no name
    (`v[i]`, `Rng rng{seed}`, scope exit), so the shipping gate counts them
    as reached instead of asking for allowlist entries."""
    if fn.name.startswith(("operator", "~")):
        return True
    parts = fn.qualified.split("::")
    return len(parts) >= 2 and parts[-2] == fn.name


def test_only_functions(program: Program) -> dict[str, FunctionDef]:
    """``src/`` functions that no shipped file reaches, keyed by qualified
    name. Roots: every function defined outside ``src/`` (not only ``main``:
    a helper a binary calls through a function pointer or a lambda table is
    still shipped), every special member, and every name a ``#define``
    body calls."""
    by_name = program.by_simple_name()
    start = [
        fn
        for fn in program.functions
        if not fn.file.startswith("src/") or is_special_member(fn)
    ]
    for pf in program.files.values():
        for name in pf.macro_calls:
            start.extend(by_name.get(name, ()))
    reached = {id(fn) for fn in closure(program, start)}
    out: dict[str, FunctionDef] = {}
    for fn in program.functions:
        if id(fn) not in reached:
            out.setdefault(fn.qualified, fn)
    return out


def load_shipping_allowlist(path: pathlib.Path) -> set[str]:
    """Qualified names of the allowlisted test-only functions. A reasonless
    entry fails the load."""
    config = json.loads(path.read_text(encoding="utf-8"))
    for entry in config["test_only"]:
        if not entry.get("reason", "").strip():
            raise SystemExit(
                f"shipping allowlist: {entry.get('function')} is missing its "
                "mandatory reason"
            )
    return {entry["function"] for entry in config["test_only"]}


def check_shipping(program: Program, allowlist: set[str]) -> list[str]:
    test_only = test_only_functions(program)
    defined = {fn.qualified for fn in program.functions}
    findings = [
        f"{fn.file}:{fn.line}: [shipping] {name} is reached only by tests; "
        "delete it, or allowlist it with a reason"
        for name, fn in sorted(
            test_only.items(), key=lambda kv: (kv[1].file, kv[1].line)
        )
        if name not in allowlist
    ]
    for name in sorted(allowlist):
        if name not in defined:
            findings.append(
                f"[shipping] stale allowlist entry {name}: no such function"
            )
        elif name not in test_only:
            findings.append(
                f"[shipping] stale allowlist entry {name}: a shipped binary "
                "reaches it now"
            )
    return findings


# ---------------------------------------------------------------------------
# Layering gate
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class LayeringViolation:
    src: str
    dst: str
    detail: str

    def __str__(self) -> str:
        return f"{self.src}: [layering] {self.detail} (includes {self.dst})"


def load_layering_config(path: pathlib.Path) -> dict:
    config = json.loads(path.read_text(encoding="utf-8"))
    for key in ("ranks", "file_overrides", "edge_exceptions"):
        if key not in config:
            raise SystemExit(f"layering config {path} is missing '{key}'")
    for exc in config["edge_exceptions"]:
        if not exc.get("reason", "").strip():
            raise SystemExit(
                f"layering config: exception {exc.get('from')} -> "
                f"{exc.get('to')} is missing its mandatory reason"
            )
    return config


def check_layering(program: Program, config: dict) -> list[LayeringViolation]:
    ranks: dict[str, int] = config["ranks"]
    overrides: dict[str, str] = {
        k: v["layer"] if isinstance(v, dict) else v
        for k, v in config["file_overrides"].items()
    }
    exceptions = {
        (e["from"], e["to"]) for e in config["edge_exceptions"]
    }
    violations: list[LayeringViolation] = []
    used_exceptions: set[tuple[str, str]] = set()
    used_overrides: set[str] = set()

    def layer_of(relpath: str) -> str | None:
        if relpath in overrides:
            used_overrides.add(relpath)
            return overrides[relpath]
        parts = relpath.split("/")
        if len(parts) >= 3 and parts[0] == "src":
            return parts[1]
        return None

    for relpath, parsed in sorted(program.files.items()):
        src_layer = layer_of(relpath)
        if src_layer is None:
            continue
        if src_layer not in ranks:
            violations.append(
                LayeringViolation(relpath, "", f"unknown layer '{src_layer}'")
            )
            continue
        for inc in parsed.includes:
            dst = "src/" + inc
            sibling = posixpath.join(posixpath.dirname(relpath), inc)
            if dst not in program.files and sibling in program.files:
                dst = sibling  # `#include "x.hpp"` next to the includer
            if dst not in program.files:
                continue  # system/non-src include
            dst_layer = layer_of(dst)
            if dst_layer is None or dst_layer not in ranks:
                continue
            if ranks[dst_layer] <= ranks[src_layer]:
                continue
            if (relpath, dst) in exceptions:
                used_exceptions.add((relpath, dst))
                continue
            violations.append(
                LayeringViolation(
                    relpath,
                    dst,
                    f"layer '{src_layer}' (rank {ranks[src_layer]}) must not "
                    f"include layer '{dst_layer}' (rank {ranks[dst_layer]})",
                )
            )

    # Stale config entries are findings too: an exception or override that no
    # longer matches anything silently widens what a future edit may do.
    for exc in sorted(exceptions - used_exceptions):
        violations.append(
            LayeringViolation(
                exc[0], exc[1], "stale edge_exception: include no longer exists"
            )
        )
    for relpath in sorted(set(overrides) - used_overrides - set(program.files)):
        violations.append(
            LayeringViolation(
                relpath, "", "stale file_override: file does not exist"
            )
        )
    return violations


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def cmd_reachable(args: argparse.Namespace) -> int:
    root = args.root.resolve()
    program = load_program(root, args.compile_commands)
    artifact = build_artifact(program, tuple(args.roots))
    text = artifact_to_text(artifact)
    out_path = root / args.output

    if args.engine == "clang":
        if args.compile_commands is None:
            print("callgraph: --engine=clang needs --compile-commands", file=sys.stderr)
            return 2
        clang_files = clang_reachable_files(
            root, args.compile_commands, tuple(args.roots)
        )
        if clang_files is None:
            print(
                "callgraph: clang.cindex bindings unavailable; regex artifact "
                "stands unverified",
                file=sys.stderr,
            )
        else:
            only_clang = sorted(clang_files - set(artifact["files"]))
            for f in only_clang:
                print(
                    f"callgraph: clang cross-check: {f} reachable per AST but "
                    "missed by the regex engine",
                    file=sys.stderr,
                )
            if only_clang:
                return 1

    if args.check:
        if not out_path.exists():
            print(
                f"callgraph: {args.output} is not committed; run "
                f"`python3 scripts/analysis/callgraph.py reachable --write` "
                "and review the diff",
                file=sys.stderr,
            )
            return 1
        committed = out_path.read_text(encoding="utf-8")
        if committed != text:
            print(
                f"callgraph: {args.output} is stale — the reachable set "
                "changed. Regenerate with `python3 scripts/analysis/"
                "callgraph.py reachable --write` and review the diff "
                "(scope growth is a reviewed event, see "
                "docs/STATIC_ANALYSIS.md).",
                file=sys.stderr,
            )
            try:
                old = json.loads(committed)
                added = sorted(set(artifact["files"]) - set(old.get("files", [])))
                removed = sorted(set(old.get("files", [])) - set(artifact["files"]))
                for f in added:
                    print(f"  + {f}", file=sys.stderr)
                for f in removed:
                    print(f"  - {f}", file=sys.stderr)
            except json.JSONDecodeError:
                pass
            return 1
        print(
            f"callgraph: {args.output} is fresh "
            f"({len(artifact['files'])} files, "
            f"{sum(len(v) for v in artifact['functions'].values())} functions)"
        )
        return 0

    if args.write:
        out_path.write_text(text, encoding="utf-8")
        print(
            f"callgraph: wrote {args.output} ({len(artifact['files'])} files)"
        )
        return 0

    sys.stdout.write(text)
    return 0


def cmd_shipping(args: argparse.Namespace) -> int:
    root = args.root.resolve()
    program = load_program(root, args.compile_commands, ("src",) + SHIPPED_DIRS)
    if not args.check:
        for name, fn in sorted(
            test_only_functions(program).items(),
            key=lambda kv: (kv[1].file, kv[1].line),
        ):
            print(f"{fn.file}:{fn.line}: {name}")
        return 0
    allowlist = load_shipping_allowlist(args.allowlist)
    findings = check_shipping(program, allowlist)
    for f in findings:
        print(f)
    if findings:
        print(
            f"shipping: {len(findings)} finding(s); reviewed test-only "
            f"functions live in {args.allowlist.name}",
            file=sys.stderr,
        )
        return 1
    print(
        f"shipping: every src/ function is reached by a shipped binary or "
        f"allowlisted ({len(allowlist)} entries)"
    )
    return 0


def cmd_layering(args: argparse.Namespace) -> int:
    root = args.root.resolve()
    program = load_program(root, args.compile_commands)
    config = load_layering_config(args.config)
    # An override may place a file outside src/ (the model-checker harness
    # under tests/model/) on a layer; such files join the gate.
    for rel in config["file_overrides"]:
        path = root / rel
        if not rel.startswith("src/") and path.is_file():
            program.files[rel] = parse_file(
                rel, path.read_text(encoding="utf-8", errors="replace")
            )
    violations = check_layering(program, config)
    for v in violations:
        print(v)
    if violations:
        print(
            f"layering: {len(violations)} violation(s); the declared DAG and "
            "its reviewed exceptions live in scripts/analysis/layering.json",
            file=sys.stderr,
        )
        return 1
    print("layering: include graph respects the declared DAG")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    root = args.root.resolve()
    program = load_program(root, args.compile_commands)
    for fn in sorted(program.functions, key=lambda f: (f.file, f.line)):
        print(f"{fn.file}:{fn.line}: {fn.qualified}")
        for callee in sorted(fn.calls):
            print(f"    -> {callee}")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="callgraph", description=__doc__.splitlines()[0]
    )
    ap.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)",
    )
    ap.add_argument(
        "--compile-commands",
        type=pathlib.Path,
        default=None,
        help="compile_commands.json to take the TU list from (optional; "
        "the tree walk of src/ is authoritative either way)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    reach = sub.add_parser("reachable", help="routing-reachable set artifact")
    reach.add_argument("--write", action="store_true", help="write the artifact")
    reach.add_argument(
        "--check",
        action="store_true",
        help="fail if the committed artifact differs from a fresh run",
    )
    reach.add_argument(
        "--output", default=ARTIFACT, help="artifact path relative to root"
    )
    reach.add_argument(
        "--roots",
        nargs="+",
        default=list(DEFAULT_ROOTS),
        help="qualified names (or ::suffixes) of the routing-phase roots",
    )
    reach.add_argument(
        "--engine",
        choices=("regex", "clang"),
        default="regex",
        help="clang = additionally cross-check against a libclang AST pass",
    )
    reach.set_defaults(func=cmd_reachable)

    lay = sub.add_parser("layering", help="include-graph layering gate")
    lay.add_argument(
        "--config", type=pathlib.Path, default=LAYERING_CONFIG
    )
    lay.set_defaults(func=cmd_layering)

    ship = sub.add_parser(
        "shipping", help="src/ functions that only tests reach"
    )
    ship.add_argument(
        "--check",
        action="store_true",
        help="fail on any test-only function missing from the allowlist, "
        "and on stale allowlist entries",
    )
    ship.add_argument(
        "--allowlist", type=pathlib.Path, default=SHIPPING_ALLOWLIST
    )
    ship.set_defaults(func=cmd_shipping)

    dump = sub.add_parser("dump", help="print functions and call edges")
    dump.set_defaults(func=cmd_dump)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
