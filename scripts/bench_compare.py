#!/usr/bin/env python3
"""Gate fresh benchmark results against the committed baselines.

Three checks, chosen by the baseline's schema or by --scaling:

  BENCH_sweep.json   hotpotato-bench-sweep-v1: the saturation-sweep grid
                     (bench_sweep / scripts/sweep.py). Per cell a probed
                     saturation point plus a load curve, all virtual-time
                     (saturation_rate for *_saturation entries, delivered
                     throughput for *_loadNNN entries) and therefore
                     deterministic; --only restricts the comparison to
                     cells with a given key prefix (CI's smoke job reruns a
                     mini-grid, not all 16 cells).
  BENCH_smoke.json   hotpotato-bench-smoke-v1: steps_per_s of each
                     benchmark/ workload on a recorded host. The fresh file
                     holds one line per workload, `WORKLOAD {json}`, the
                     JSON being the last line of
                     `benchmark/run.py --workload WORKLOAD`. Every baseline
                     workload must be there, read "correct": true (its
                     pinned digests matched) and keep steps_per_s within
                     --threshold of the baseline.
  --scaling          --baseline and --fresh are the stderr of two
                     `hpsim --profile` runs of one workload, at 1 and at 4
                     threads. Steps per accounted ms (the header line
                     `engine phase profile (S steps, T ms accounted)`) at 4
                     threads must be at least that at 1 thread: the
                     phase pipeline must never again run slower in parallel
                     than serially. The ratio is taken within one host, so
                     runner speed cancels out. Below 4 cores it reports
                     SKIPPED and passes: there a floor of 1.0 certifies
                     nothing.

A value falls short when it is below (1 - --threshold) x its baseline
(default 0.15 = 15%). A baseline entry missing from the fresh run is a
failure, never a pass. Improvements are reported, never fatal; ratcheting a
baseline is a reviewed event: regenerate it and commit the new JSON.

Usage:
  scripts/bench_compare.py --baseline BENCH_sweep.json --fresh f.json \\
      --threshold 0.02 --only restricted_uniform_p0
  scripts/bench_compare.py --baseline BENCH_smoke.json --fresh smoke.txt \\
      --threshold 0.5
  scripts/bench_compare.py --scaling --baseline t1.prof --fresh t4.prof
  scripts/bench_compare.py --self-test

Exit: 0 = within threshold, 1 = regression, 2 = usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import sys

SMOKE_SCHEMA = "hotpotato-bench-smoke-v1"
SWEEP_SCHEMA = "hotpotato-bench-sweep-v1"
SMOKE_METRIC = "steps_per_s"
# --scaling: the 4-thread run must reach this share of the 1-thread run's
# throughput, on a host with at least MIN_CORES cores.
MIN_SCALING = 1.0
MIN_CORES = 4
PROFILE_HEADER = re.compile(
    r"^engine phase profile \((\d+) steps, ([0-9.eE+-]+) ms accounted\)",
    re.MULTILINE,
)


def sweep_metric(name: str) -> str:
    """The gated metric of one sweep entry, chosen by its name suffix."""
    return "saturation_rate" if name.endswith("_saturation") else "throughput"


def read_text(path: pathlib.Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")


def load(path: pathlib.Path) -> dict:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    if data.get("schema") not in (SMOKE_SCHEMA, SWEEP_SCHEMA):
        raise SystemExit(
            f"bench_compare: {path} has unknown schema "
            f"{data.get('schema')!r}"
        )
    if not isinstance(data.get("entries"), dict) or not data["entries"]:
        raise SystemExit(f"bench_compare: {path} has no entries")
    return data


def shortfall(name: str, metric: str, base: float, new: float,
              threshold: float, fmt: str = ".6g") -> str | None:
    """Prints the verdict on one gated value; returns its problem, if any."""
    ratio = new / base
    verdict, problem = "ok", None
    if ratio < 1.0 - threshold:
        verdict = "REGRESSION"
        problem = (f"{name}: {metric} {base:{fmt}} -> {new:{fmt}} "
                   f"({(1.0 - ratio) * 100.0:.1f}% lower, limit "
                   f"{threshold * 100.0:.0f}%)")
    elif ratio > 1.0 + threshold:
        verdict = "improved"
    print(f"  {name}: {base:{fmt}} -> {new:{fmt}} {metric} "
          f"(x{ratio:.3f}) {verdict}")
    return problem


def compare_sweep(
    baseline: dict, fresh: dict, threshold: float, only: list[str] | None
) -> list[str]:
    """Per-entry comparison of the sweep grid. Every baseline entry (after
    the --only prefix filter) must exist in the fresh run — a dropped cell
    reads as a pass otherwise — and its gated metric must not regress by
    more than threshold. Near-zero baselines (a cell probed as dead) are
    compared by absolute deviation instead of a meaningless ratio."""
    problems: list[str] = []
    names = [
        n
        for n in sorted(baseline["entries"])
        if only is None or any(n.startswith(p) for p in only)
    ]
    if not names:
        return ["--only filter matched no baseline entries"]
    for name in names:
        fresh_entry = fresh["entries"].get(name)
        if fresh_entry is None:
            problems.append(f"{name}: missing from the fresh run")
            continue
        metric = sweep_metric(name)
        if metric not in fresh_entry:
            problems.append(f"{name}: fresh entry lacks {metric}")
            continue
        base, new = baseline["entries"][name][metric], fresh_entry[metric]
        if base <= 1e-9:
            verdict = "ok" if abs(new - base) <= 1e-9 else "CHANGED"
            if verdict != "ok":
                problems.append(
                    f"{name}: {metric} {base:.6g} -> {new:.6g} "
                    "(dead-cell baseline changed)"
                )
            print(f"  {name}: {base:.6g} -> {new:.6g} {metric} {verdict}")
            continue
        problem = shortfall(name, metric, base, new, threshold)
        if problem:
            problems.append(problem)
    return problems


def parse_smoke(text: str) -> dict[str, object]:
    """Workload -> its run.py result line (a dict), or the raw text of a
    line that is not one (a crashed run prints no JSON)."""
    results: dict[str, object] = {}
    for line in text.splitlines():
        name, _, rest = line.strip().partition(" ")
        if not name:
            continue
        try:
            results[name] = json.loads(rest)
        except json.JSONDecodeError:
            results[name] = rest
    return results


def compare_smoke(baseline: dict, fresh: dict[str, object],
                  threshold: float) -> list[str]:
    """Each baseline workload must be present, carry correct digests and
    keep SMOKE_METRIC within threshold of its baseline."""
    problems: list[str] = []
    for name, base_entry in sorted(baseline["entries"].items()):
        result = fresh.get(name)
        if result is None:
            problems.append(f"{name}: missing from the fresh run")
            continue
        try:
            correct = result["correct"]
            new = float(result["metrics"][SMOKE_METRIC]["value"])
        except (TypeError, KeyError, ValueError):
            problems.append(f"{name}: unparsable result line {result!r}")
            continue
        if correct is not True:
            problems.append(f"{name}: \"correct\": {json.dumps(correct)}, "
                            "the pinned digests did not match")
            continue
        problem = shortfall(name, SMOKE_METRIC, base_entry[SMOKE_METRIC],
                            new, threshold, ".1f")
        if problem:
            problems.append(problem)
    return problems


def steps_per_ms(label: str, profile: str) -> float | None:
    match = PROFILE_HEADER.search(profile)
    if match is None:
        return None
    steps, ms = int(match.group(1)), float(match.group(2))
    print(f"  {label}: {steps} steps, {ms:.2f} ms accounted")
    return steps / ms if ms > 0 else None


def compare_scaling(t1_profile: str, t4_profile: str,
                    cores: int | None) -> list[str]:
    """t4's steps per accounted ms must reach MIN_SCALING x t1's, unless the
    host has fewer than MIN_CORES cores (an unknown count counts as 1)."""
    cores = cores or 1
    if cores < MIN_CORES:
        print(f"  scaling check SKIPPED (host has {cores} "
              f"core{'s' if cores != 1 else ''}, need >={MIN_CORES})")
        return []
    t1 = steps_per_ms("t1", t1_profile)
    t4 = steps_per_ms("t4", t4_profile)
    problems = [
        f"{label}: no 'engine phase profile (S steps, T ms accounted)' "
        "header with T > 0"
        for label, rate in (("t1", t1), ("t4", t4))
        if rate is None
    ]
    if problems:
        return problems
    ratio = t4 / t1
    verdict = "ok" if ratio >= MIN_SCALING else "SCALING REGRESSION"
    print(f"  t4 / t1 = x{ratio:.3f} (floor x{MIN_SCALING:.3f}) {verdict}")
    if ratio < MIN_SCALING:
        problems.append(f"t4 reached only x{ratio:.3f} of t1 "
                        f"(floor x{MIN_SCALING:.3f})")
    return problems


def self_test() -> int:
    """Synthetic census: pass/fail verdicts on constructed inputs, so the
    comparison logic is itself regression-tested (ctest: bench_compare_selftest)."""
    sweep = lambda sat, tp: {  # noqa: E731
        "schema": SWEEP_SCHEMA,
        "entries": {
            "restricted_uniform_p0_saturation": {"saturation_rate": sat},
            "restricted_uniform_p0_load050": {"throughput": tp},
        },
    }
    smoke_base = {
        "schema": SMOKE_SCHEMA,
        "entries": {"mesh_perm": {SMOKE_METRIC: 500.0},
                    "sweep_grid": {SMOKE_METRIC: 150000.0}},
    }

    def line(name: str, value: float, correct: bool = True) -> str:
        return name + " " + json.dumps({
            "correct": correct, "attempted": 2, "failed": 0 if correct else 1,
            "metrics": {SMOKE_METRIC: {"value": value, "unit": "1/s"}}})

    def smoke(*lines: str) -> list[str]:
        return compare_smoke(smoke_base, parse_smoke("\n".join(lines)), 0.5)

    def prof(steps: int, ms: float) -> str:
        return (f"engine phase profile ({steps} steps, {ms} ms accounted)\n"
                "  inject: 0 ns (0%), 0 calls, 0 ns/step\n")

    cases = [
        # (description, problems-expected, thunk)
        ("sweep within threshold passes", False,
         lambda: compare_sweep(sweep(0.30, 0.15), sweep(0.29, 0.15),
                               0.15, None)),
        ("sweep saturation regression fails", True,
         lambda: compare_sweep(sweep(0.30, 0.15), sweep(0.20, 0.15),
                               0.15, None)),
        ("sweep load-curve throughput regression fails", True,
         lambda: compare_sweep(sweep(0.30, 0.15), sweep(0.30, 0.10),
                               0.15, None)),
        ("sweep improvement never fails", False,
         lambda: compare_sweep(sweep(0.30, 0.15), sweep(0.60, 0.30),
                               0.15, None)),
        ("sweep dropped cell fails", True,
         lambda: compare_sweep(
             sweep(0.30, 0.15),
             {"schema": SWEEP_SCHEMA,
              "entries": {"other_saturation": {"saturation_rate": 1.0}}},
             0.15, None,
         )),
        ("sweep --only filters to the mini-grid", False,
         lambda: compare_sweep(
             sweep(0.30, 0.15),
             {"schema": SWEEP_SCHEMA,
              "entries": {
                  "restricted_uniform_p0_saturation":
                      {"saturation_rate": 0.30},
              }},
             0.15, ["restricted_uniform_p0_sat"],
         )),
        ("sweep --only with no match fails", True,
         lambda: compare_sweep(sweep(0.30, 0.15), sweep(0.30, 0.15),
                               0.15, ["nonexistent_"])),
        ("sweep dead-cell baseline must stay dead", True,
         lambda: compare_sweep(sweep(0.0, 0.15), sweep(0.05, 0.15),
                               0.15, ["restricted_uniform_p0_sat"])),
        ("smoke above the floor passes", False,
         lambda: smoke(line("mesh_perm", 300.0),
                       line("sweep_grid", 80000.0))),
        ("smoke improvement never fails", False,
         lambda: smoke(line("mesh_perm", 5000.0),
                       line("sweep_grid", 900000.0))),
        ("smoke below the floor fails", True,
         lambda: smoke(line("mesh_perm", 240.0),
                       line("sweep_grid", 150000.0))),
        ("smoke missing workload fails", True,
         lambda: smoke(line("mesh_perm", 500.0))),
        ("smoke correct: false fails", True,
         lambda: smoke(line("mesh_perm", 500.0),
                       line("sweep_grid", 150000.0, correct=False))),
        ("smoke line without JSON fails", True,
         lambda: smoke(line("mesh_perm", 500.0),
                       "sweep_grid run.py: hp_bench exited 1")),
        ("scaling improvement passes", False,
         lambda: compare_scaling(prof(492, 1258.3), prof(492, 650.0), 4)),
        ("scaling below floor fails", True,
         lambda: compare_scaling(prof(492, 1000.0), prof(492, 1100.0), 4)),
        ("scaling unparsable profile header fails", True,
         lambda: compare_scaling(prof(492, 1000.0),
                                 "engine phase profile (492 steps)\n", 8)),
        ("scaling zero accounted time fails", True,
         lambda: compare_scaling(prof(492, 0.0), prof(492, 900.0), 4)),
        # Below the core floor the check reports SKIPPED and passes, even
        # on inputs that would fail: a vacuous pass is never printed as ok.
        ("scaling skipped below 4 cores", False,
         lambda: compare_scaling(prof(492, 1000.0), prof(492, 2000.0), 2)),
        ("scaling skipped when core count unknown", False,
         lambda: compare_scaling(prof(492, 1000.0), prof(492, 2000.0), None)),
    ]
    failures = 0
    for desc, expect_problems, thunk in cases:
        problems = thunk()
        if bool(problems) != expect_problems:
            print(f"SELF-TEST FAIL: {desc} -> {problems}")
            failures += 1
        else:
            print(f"self-test ok: {desc}")
    if failures:
        print(f"bench_compare: {failures} self-test failure(s)")
        return 1
    print("bench_compare: self-test clean")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="bench_compare", description=__doc__.splitlines()[0]
    )
    ap.add_argument("--baseline", type=pathlib.Path)
    ap.add_argument("--fresh", type=pathlib.Path)
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="fractional shortfall that fails (default 0.15; CI passes "
        "0.02 for the sweep and 0.5 for the smoke baseline — see "
        ".github/workflows/ci.yml)",
    )
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument(
        "--only",
        action="append",
        help="sweep mode: restrict the comparison to baseline entries whose "
        "name starts with this prefix (repeatable; used by the CI smoke "
        "job, which regenerates a mini-grid rather than all cells)",
    )
    ap.add_argument(
        "--scaling",
        action="store_true",
        help="--baseline and --fresh are hpsim --profile reports at 1 and 4 "
        "threads; the 4-thread one must be at least as fast",
    )
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.baseline is None or args.fresh is None:
        ap.error("--baseline and --fresh are required (or --self-test)")
    if args.scaling:
        print(f"scaling check: {args.baseline} (t1) vs {args.fresh} (t4)")
        problems = compare_scaling(read_text(args.baseline),
                                   read_text(args.fresh), os.cpu_count())
    else:
        baseline = load(args.baseline)
        print(f"comparing against {args.baseline} "
              f"(schema {baseline['schema']})")
        if baseline["schema"] == SMOKE_SCHEMA:
            problems = compare_smoke(
                baseline, parse_smoke(read_text(args.fresh)), args.threshold)
        else:
            fresh = load(args.fresh)
            if fresh["schema"] != SWEEP_SCHEMA:
                print(f"bench_compare: schema mismatch {SWEEP_SCHEMA} vs "
                      f"{fresh['schema']}", file=sys.stderr)
                return 2
            problems = compare_sweep(baseline, fresh, args.threshold,
                                     args.only)

    if problems:
        for p in problems:
            print(f"bench_compare: {p}", file=sys.stderr)
        return 1
    print("bench_compare: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
