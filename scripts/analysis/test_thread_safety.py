#!/usr/bin/env python3
"""Thread-safety fixture tests: Clang's capability analysis as a gate.

Compiles the fixtures in fixtures/threadsafety/ with
``clang++ -fsyntax-only -Wthread-safety -Wthread-safety-beta -Werror``:

  good_pool_discipline.cpp  the engine's pool discipline in miniature —
                            must compile clean
  bad_unguarded_access.cpp  guarded member touched without its mutex —
                            must fail with "requires holding"
  bad_lock_order.cpp        declared acquisition order violated — must
                            fail (needs -Wthread-safety-beta)

and finally syntax-checks the REAL engine TU (src/sim/engine.cpp) under the
same flags, so the committed annotations are themselves certified, not just
the toy fixtures.

When clang++ is not installed the script prints SKIPPED and exits 0 — the
container bakes in gcc only; CI runs the real thing. Exit: 0 = ok/skip,
1 = a fixture behaved wrong.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FIXTURES = HERE / "fixtures" / "threadsafety"

FLAGS = [
    "-std=c++20",
    "-fsyntax-only",
    "-I",
    str(ROOT / "src"),
    # sync.hpp: the annotated Mutex/MutexLock the fixtures lock with.
    "-I",
    str(FIXTURES),
    "-Wthread-safety",
    "-Wthread-safety-beta",
    "-Werror",
]

#: fixture -> (must_compile, required stderr substring on failure)
EXPECTED = {
    "good_pool_discipline.cpp": (True, ""),
    "bad_unguarded_access.cpp": (False, "requires holding"),
    "bad_lock_order.cpp": (False, "must be acquired"),
}


def compile_one(clangxx: str, path: pathlib.Path) -> tuple[int, str]:
    proc = subprocess.run(
        [clangxx, *FLAGS, str(path)],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stderr


def main() -> int:
    clangxx = shutil.which("clang++")
    if clangxx is None:
        print(
            "test_thread_safety: SKIPPED — clang++ not installed (the "
            "capability analysis is clang-only; CI runs it)"
        )
        return 0

    failures = 0
    for name, (must_compile, needle) in sorted(EXPECTED.items()):
        rc, stderr = compile_one(clangxx, FIXTURES / name)
        if must_compile and rc != 0:
            print(f"FAIL {name}: expected clean compile, got:\n{stderr}")
            failures += 1
        elif not must_compile and rc == 0:
            print(
                f"FAIL {name}: compiled clean but must be rejected by "
                "-Wthread-safety"
            )
            failures += 1
        elif not must_compile and needle not in stderr:
            print(
                f"FAIL {name}: rejected, but without the expected "
                f"'{needle}' diagnostic:\n{stderr}"
            )
            failures += 1
        else:
            print(f"ok   {name}")

    rc, stderr = compile_one(clangxx, ROOT / "src" / "sim" / "engine.cpp")
    if rc != 0:
        print(
            "FAIL src/sim/engine.cpp: the real engine annotations do not "
            f"pass the analysis:\n{stderr}"
        )
        failures += 1
    else:
        print("ok   src/sim/engine.cpp (real engine TU)")

    if failures:
        print(f"test_thread_safety: {failures} failure(s)")
        return 1
    print("test_thread_safety: all fixtures behave as declared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
