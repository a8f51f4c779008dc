#!/usr/bin/env python3
"""The repository benchmark (README.md in this directory).

  run.py [--seed N] [--out PATH]   full set: every workload
  run.py --smoke [--seed N]        one rep each, digests checked
  run.py --workload W --seed N --seconds S --trace 0|1
  run.py compare A.json B.json     B (change) against A (parent)
  run.py --self-test

Every mode except compare and --self-test first builds hp_bench with CMake
into benchmark/build. A --workload run measures one workload for about S
seconds and ends its output with one JSON line holding the metrics
BENCHMARK.json names: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "hp_bench")
EXPECTED = os.path.join(HERE, "expected.json")
DEFINITION = os.path.join(ROOT, "BENCHMARK.json")

# Timed reps per workload in a full set; README.md gives each one's reason.
FULL_REPS = {
    "mesh_perm": 9,
    "cube_saturated": 9,
    "mesh_scale_t4": 5,
    "torus_steady": 5,
    "sweep_grid": 7,
}

# The open-loop workload, whose per-step latency is a user-visible metric.
STEADY = "torus_steady"

# name: (unit, better). Taken from untraced reps.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "moves_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "bytes_per_node": ("B", "lower"),
    "checkpoint_save_s": ("s", "lower"),
    "checkpoint_restore_s": ("s", "lower"),
    "step_us_p50": ("us", "lower"),
    "failed_fraction": ("ratio", "lower"),
}

# Bounds of `compare`, which sets one full set against another: the share
# by which the change may be worse than the parent before the verdict is
# "worse". Each is the larger of the worst change between three full sets of
# one build and twice the largest rep IQR/median within them, rounded up to
# 0.05 (0.01 for peak RSS); exact metrics get 0. README.md has the
# measurements. BENCHMARK.json's bounds serve medians of many runs instead.
_ALL_WORKLOADS = {"bytes_per_node": 0.0, "failed_fraction": 0.0,
                 "peak_rss_mb": 0.01}
BOUNDS = {
    "mesh_perm": dict(_ALL_WORKLOADS, setup_s=0.20, wall_s=0.30,
                      steps_per_s=0.30, moves_per_s=0.30),
    "cube_saturated": dict(_ALL_WORKLOADS, setup_s=0.25, wall_s=0.20,
                           steps_per_s=0.20, moves_per_s=0.20),
    "mesh_scale_t4": dict(_ALL_WORKLOADS, setup_s=0.45, wall_s=0.40,
                          steps_per_s=0.40, moves_per_s=0.40,
                          checkpoint_save_s=0.75, checkpoint_restore_s=0.70),
    "torus_steady": dict(_ALL_WORKLOADS, setup_s=0.25, wall_s=0.15,
                         steps_per_s=0.15, moves_per_s=0.15,
                         step_us_p50=0.10),
    "sweep_grid": dict(_ALL_WORKLOADS, setup_s=0.10, wall_s=0.20,
                       steps_per_s=0.20, moves_per_s=0.20),
}

# name: (unit, better). Taken from traced reps, except sim.step_us_p99
# (see step_latency).
PER_LAYER = {
    "topology.good_masks_ns_per_packet": ("ns", "lower"),
    "topology.good_masks_ns_per_step": ("ns", "lower"),
    "routing.route_calls": ("count", "lower"),
    "routing.packets_per_call": ("packets", "higher"),
    "routing.route_ns_per_call": ("ns", "lower"),
    "routing.route_ns_per_step": ("ns", "lower"),
    "sim.occupancy_ns_per_step": ("ns", "lower"),
    "sim.route_ns_per_step": ("ns", "lower"),
    "sim.route_self_ns_per_step": ("ns", "lower"),
    "sim.apply_ns_per_step": ("ns", "lower"),
    "sim.inject_ns_per_step": ("ns", "lower"),
    "sim.epochs_per_step": ("count", "lower"),
    "sim.occupancy_imbalance": ("ratio", "lower"),
    "sim.route_imbalance": ("ratio", "lower"),
    "sim.apply_imbalance": ("ratio", "lower"),
    "sim.topology_bytes_per_node": ("B", "lower"),
    "sim.flight_bytes_per_node": ("B", "lower"),
    "sim.occupancy_bytes_per_node": ("B", "lower"),
    "sim.scratch_bytes_per_node": ("B", "lower"),
    "sim.checkpoint_bytes": ("B", "lower"),
    "sim.checkpoint_save_mb_per_s": ("MB/s", "higher"),
    "sim.checkpoint_restore_mb_per_s": ("MB/s", "higher"),
    "sim.fingerprint_ms": ("ms", "lower"),
    "sim.deflection_ratio": ("ratio", "lower"),
    "sim.step_us_p99": ("us", "lower"),
    "sim.phase_coverage": ("ratio", "higher"),
    "workload.generate_s": ("s", "lower"),
    "workload.inject_ns_per_step": ("ns", "lower"),
    "workload.admit_fraction": ("ratio", "higher"),
    "obs.observe_ns_per_step": ("ns", "lower"),
    "obs.observe_share": ("ratio", "lower"),
    "stats.cell_s_p50": ("s", "lower"),
    "stats.cell_s_max": ("s", "lower"),
    "stats.probe_windows": ("count", "lower"),
    "stats.sim_steps": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

MIN_PHASE_COVERAGE = 0.95
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


class BenchError(Exception):
    """The benchmark could not produce a result."""


# --- statistics --------------------------------------------------------------


def summary(values, value=None):
    """The reported value of one metric (the samples' median unless given)
    with n, median, quartiles and IQR/median of its per-rep samples."""
    vals = sorted(values)
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {
        "value": med if value is None else value,
        "n": len(vals),
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_rel": (q3 - q1) / abs(med) if med else 0.0,
        "values": list(values),
    }


def tail_percentile(n):
    """Highest percentile of the ladder with at least ten of n samples
    beyond it; None when even the median has fewer."""
    # In tenths of a percent, so 99.9 leaves exactly n/1000 samples beyond.
    allowed = [p for p in PERCENTILE_LADDER
               if n * (1000 - round(p * 10)) >= 10 * 1000]
    return max(allowed) if allowed else None


def percentile(values, p):
    """Nearest-rank percentile."""
    vals = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(vals)))
    return vals[rank - 1]


def fastest_run_s(reps):
    """Seconds of the run when each step takes the least time it took in
    any of `reps`. Every rep of one seed runs the same steps, so host noise
    that slows some reps' copy of a step drops out."""
    return sum(min(step) for step in zip(*(r["run_ns"] for r in reps))) / 1e9


def verdict(parent, change, better, bound):
    """ok, worse or unresolved for `change` against `parent` (summaries).

    Unresolved when either side's IQR/median exceeds the bound, unless
    every rep of the change beats every rep of the parent."""
    a, b = parent["value"], change["value"]
    sign = 1.0 if better == "lower" else -1.0
    if a == b:
        worsening = 0.0
    elif a == 0:
        worsening = math.copysign(math.inf, sign * (b - a))
    else:
        worsening = sign * (b - a) / abs(a)
    if max(parent["iqr_rel"], change["iqr_rel"]) > bound:
        if better == "lower":
            beats = max(change["values"]) < min(parent["values"])
        else:
            beats = min(change["values"]) > max(parent["values"])
        return "ok" if beats else "unresolved"
    return "worse" if worsening > bound else "ok"


# --- digests -----------------------------------------------------------------


def load_expected(workload, seed):
    """The digest pinned for this workload and seed, or None."""
    with open(EXPECTED) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def count_failed(reps, expected):
    """Reps that failed an invariant check or whose digest differs from the
    pinned one (unpinned seeds: from the first rep's)."""
    if not reps:
        return 0
    reference = expected if expected is not None else reps[0]["digest"]
    return sum(1 for r in reps if r["error"] or r["digest"] != reference)


def digest_hash(digest):
    canonical = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --- build and run -----------------------------------------------------------


def build():
    """Configures (once) and builds hp_bench; the log goes to stderr."""
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hp_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        sys.stderr.write(proc.stdout)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_bench(workload, seed, reps, seconds=0.0, traced=0, warmup=True,
              trace_out=None):
    """One hp_bench process; returns its parsed samples document."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--reps", str(reps), "--seconds", str(seconds),
           "--traced", str(traced)]
    if not warmup:
        cmd.append("--no-warmup")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        raise BenchError(workload + ": hp_bench timed out")
    if proc.returncode != 0:
        raise BenchError("%s: hp_bench failed: %s"
                         % (workload, proc.stderr.strip()))
    return json.loads(proc.stdout)


# --- summaries ---------------------------------------------------------------


def end_to_end(untraced, doc):
    """End-to-end metrics of the untraced reps of one hp_bench document."""
    def samples(name):
        return [r["metrics"][name] for r in untraced if name in r["metrics"]]

    m = [r["metrics"] for r in untraced]
    run_s = fastest_run_s(untraced)
    rest_s = min(x["wall_s"] - x["setup_s"] - x["run_s"] for x in m)
    steps, moves = m[0]["steps"], m[0]["moves"]
    e2e = {
        "setup_s": summary(samples("setup_s")),
        "wall_s": summary(samples("wall_s"),
                          min(samples("setup_s")) + run_s + rest_s),
        "steps_per_s": summary([x["steps"] / x["run_s"] for x in m],
                               steps / run_s),
        "moves_per_s": summary([x["moves"] / x["run_s"] for x in m],
                               moves / run_s),
        "peak_rss_mb": summary([doc["peak_rss_mb"]]),
        "bytes_per_node": summary(samples("bytes_per_node")),
    }
    for name in ("checkpoint_save_s", "checkpoint_restore_s"):
        if samples(name):
            e2e[name] = summary(samples(name))
    return e2e


def step_latency(untraced):
    """Percentiles of every step of every rep, pooled, each with at least
    ten samples beyond it. The p99 moved by a fifth between full sets of one
    host, too far for a bound, so it is reported as a layer metric."""
    per_rep = [[ns / 1e3 for ns in r["run_ns"]] for r in untraced]
    pooled = [us for rep in per_rep for us in rep]
    out = {}
    for name, p in (("step_us_p50", 50.0), ("sim.step_us_p99", 99.0)):
        if (tail_percentile(len(pooled)) or 0) >= p:
            out[name] = summary([percentile(rep, p) for rep in per_rep],
                                percentile(pooled, p))
            out[name]["n"] = len(pooled)
    return out


def summarize(doc):
    """Per-workload results of one hp_bench document: end-to-end metrics
    from its untraced reps, per-layer metrics from its traced ones."""
    workload, seed = doc["workload"], doc["seed"]
    reps = doc["reps"]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    expected = load_expected(workload, seed)
    failed = count_failed(reps, expected)

    e2e = end_to_end(untraced, doc)
    e2e["failed_fraction"] = summary([failed / len(reps)])

    layers = {}
    for name in PER_LAYER:
        vals = [r["metrics"][name] for r in traced if name in r["metrics"]]
        if vals:
            layers[name] = summary(vals)
    if workload == STEADY:
        for name, s in step_latency(untraced).items():
            (e2e if name in END_TO_END else layers)[name] = s
    if traced:
        untraced_wall = e2e["wall_s"]["median"]
        layers["trace.overhead"] = summary(
            [r["metrics"]["wall_s"] / untraced_wall - 1.0 for r in traced])

    digest = reps[0]["digest"]
    return {
        "seed": seed,
        "threads": doc["threads"],
        "unmeasured": doc.get("unmeasured"),
        "attempted": len(reps),
        "failed": failed,
        "digest_pinned": expected is not None,
        "digest_sha": digest_hash(digest),
        "digest": digest,
        "errors": sorted({r["error"] for r in reps if r["error"]}),
        "end_to_end": e2e,
        "per_layer": layers,
    }


def fmt(v):
    return "%.6g" % v


def print_workload(name, res):
    pin = "pinned, " + ("matches" if res["failed"] == 0 else "MISMATCH") \
        if res["digest_pinned"] else "unpinned, sha " + res["digest_sha"]
    note = "  UNMEASURED: " + res["unmeasured"] if res["unmeasured"] else ""
    print("%s  seed %d  threads %d  failed %d/%d  digest %s%s" % (
        name, res["seed"], res["threads"], res["failed"], res["attempted"],
        pin, note))
    for err in res["errors"]:
        print("  error: " + err)
    if not res["digest_pinned"]:
        short = {k: v for k, v in res["digest"].items() if k != "entries"}
        print("  digest " + json.dumps(short, sort_keys=True))
    for block, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for metric, s in res[block].items():
            unit, better = table[metric]
            flag = ""
            if (metric == "sim.phase_coverage"
                    and s["value"] < MIN_PHASE_COVERAGE):
                flag = "  BELOW %.2f" % MIN_PHASE_COVERAGE
            print("  %-34s %-12s %-7s %-6s n=%-6d median %-12s IQR %s (%.1f%%)%s"
                  % (metric, fmt(s["value"]), unit, better, s["n"],
                     fmt(s["median"]), fmt(s["q3"] - s["q1"]),
                     100.0 * s["iqr_rel"], flag))


def load_definition():
    with open(DEFINITION) as f:
        return json.load(f)


def result_line(res, trace, definition):
    """The one-line result of a --workload run: the BENCHMARK.json metrics
    of one block."""
    block = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in definition[block]:
        s = res[block].get(m["name"])
        if s is None or not math.isfinite(s["value"]):
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": s["value"], "unit": m["unit"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def host_metadata(doc):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": doc["compiler"], "build_type": doc["build_type"],
            "git_sha": sha}


# --- modes -------------------------------------------------------------------


def workload_mode(args):
    build()
    definition = load_definition()
    if args.trace:
        # Untraced reps for half the time give trace.overhead its base.
        os.makedirs(OUT, exist_ok=True)
        doc = run_bench(args.workload, args.seed, reps=2,
                        seconds=args.seconds / 2, traced=2,
                        trace_out=os.path.join(OUT, "trace_%s.json"
                                               % args.workload))
    else:
        doc = run_bench(args.workload, args.seed, reps=2, seconds=args.seconds)
    res = summarize(doc)
    print_workload(args.workload, res)
    print(json.dumps(result_line(res, args.trace, definition)))
    return 0


def full_mode(args):
    build()
    os.makedirs(OUT, exist_ok=True)
    load_before = os.getloadavg()
    results = {}
    first = None
    below = []
    for workload, reps in FULL_REPS.items():
        if args.smoke:
            doc = run_bench(workload, args.seed, reps=1, warmup=False)
        else:
            doc = run_bench(
                workload, args.seed, reps=reps, traced=1,
                trace_out=os.path.join(OUT, "trace_%s.json" % workload))
        first = first or doc
        results[workload] = summarize(doc)
        coverage = results[workload]["per_layer"].get("sim.phase_coverage")
        if coverage and coverage["value"] < MIN_PHASE_COVERAGE:
            below.append(workload)
        print_workload(workload, results[workload])
        sys.stdout.flush()
    failed = sum(r["failed"] for r in results.values())
    if not args.smoke:
        report = {"schema": "hp-bench-results-v1",
                  "host": dict(host_metadata(first),
                               loadavg_before=load_before,
                               loadavg_after=os.getloadavg()),
                  "workloads": results}
        out = args.out or os.path.join(OUT, "results.json")
        with open(out, "w") as f:
            json.dump(report, f, indent=1)
        print("wrote " + out)
    print("failed reps: %d" % failed)
    if below:
        print("phase coverage below %.2f: %s" % (MIN_PHASE_COVERAGE,
                                                 " ".join(below)))
    return 1 if failed or below else 0


def compare(parent, change):
    """Verdict lines for every end-to-end metric of every workload two
    results documents share, and the number of `worse` verdicts."""
    lines = []
    worse = 0
    for workload, bounds in BOUNDS.items():
        a_res, b_res = parent.get(workload), change.get(workload)
        if a_res is None or b_res is None:
            continue
        if a_res["unmeasured"] or b_res["unmeasured"]:
            lines.append("%-15s unmeasured" % workload)
            continue
        for metric, (unit, better) in END_TO_END.items():
            a = a_res["end_to_end"].get(metric)
            b = b_res["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            v = verdict(a, b, better, bounds[metric])
            worse += v == "worse"
            delta = (b["value"] / a["value"] - 1.0) if a["value"] else 0.0
            lines.append(
                "%-15s %-21s %-5s %12s -> %-12s %+7.2f%%  bound %3.0f%%  %s"
                % (workload, metric, unit, fmt(a["value"]), fmt(b["value"]),
                   100.0 * delta, 100.0 * bounds[metric], v))
    return lines, worse


def compare_mode(parent_path, change_path):
    with open(parent_path) as f:
        parent = json.load(f)["workloads"]
    with open(change_path) as f:
        change = json.load(f)["workloads"]
    lines, worse = compare(parent, change)
    print("\n".join(lines))
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT.json CHANGE.json",
                  file=sys.stderr)
            return 2
        return compare_mode(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(FULL_REPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        import unittest
        sys.path.insert(0, HERE)
        suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1
    try:
        if args.workload:
            return workload_mode(args)
        return full_mode(args)
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
