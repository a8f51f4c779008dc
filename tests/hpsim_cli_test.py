#!/usr/bin/env python3
"""CLI tests for hpsim's observability flags.

Covers what the C++ suites cannot: flag parsing, the output-file round
trip (the emitted metrics/trace files parse as JSON and carry the schema
the docs promise), rejection of conflicting flags, and byte-identical
artifacts across --threads values.

Usage: hpsim_cli_test.py /path/to/hpsim
"""

import json
import pathlib
import subprocess
import sys
import tempfile

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  {status}: {name}" + (f" — {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def run(hpsim, *args, cwd=None):
    return subprocess.run(
        [hpsim, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def batch_args(*extra):
    return [
        "--topology", "mesh", "--n", "8", "--workload", "saturated",
        "--policy", "restricted", "--seed", "3", *extra,
    ]


def test_metrics_and_trace_roundtrip(hpsim, tmp):
    metrics = tmp / "run.metrics.json"
    trace = tmp / "run.trace.json"
    proc = run(hpsim, *batch_args("--metrics", str(metrics),
                                  "--trace", str(trace), "--profile"))
    check("batch run exits 0", proc.returncode == 0, proc.stderr)
    check("profile report on stderr", "engine phase profile" in proc.stderr)

    doc = json.loads(metrics.read_text())
    check("metrics schema", doc.get("schema") == "hp-metrics-v1")
    check("metrics counters present",
          {"engine.steps", "packets.delivered"} <= set(doc.get("counters", {})))
    check("metrics distributions present",
          "packet.latency" in doc.get("distributions", {}))
    lat = doc["distributions"]["packet.latency"]
    check("latency bins populated", sum(lat["bins"]) == lat["count"])

    tdoc = json.loads(trace.read_text())
    check("trace has events", len(tdoc.get("traceEvents", [])) > 0)
    phases = {e.get("ph") for e in tdoc["traceEvents"]}
    check("trace has spans and counters", {"X", "C"} <= phases)


def test_metrics_csv_roundtrip(hpsim, tmp):
    csv_path = tmp / "run.metrics.csv"
    proc = run(hpsim, *batch_args("--metrics", str(csv_path)))
    check("csv run exits 0", proc.returncode == 0, proc.stderr)
    lines = csv_path.read_text().splitlines()
    check("csv header",
          lines and lines[0] == "kind,name,value,count,mean,min,max,sum")
    check("csv has rows", len(lines) > 1)


def test_thread_count_invariance(hpsim, tmp):
    artifacts = []
    for threads in ("1", "4"):
        metrics = tmp / f"t{threads}.metrics.json"
        trace = tmp / f"t{threads}.trace.json"
        proc = run(hpsim, *batch_args("--threads", threads,
                                      "--metrics", str(metrics),
                                      "--trace", str(trace)))
        check(f"threads={threads} run exits 0", proc.returncode == 0,
              proc.stderr)
        artifacts.append((metrics.read_bytes(), trace.read_bytes()))
    check("metrics bytes identical across threads",
          artifacts[0][0] == artifacts[1][0])
    check("trace bytes identical across threads",
          artifacts[0][1] == artifacts[1][1])


def inject_args(*extra):
    return [
        "--inject", "0.05", "--inject-steps", "300", "--topology", "mesh",
        "--n", "8", "--seed", "3", *extra,
    ]


def test_inject_observability(hpsim, tmp):
    metrics = tmp / "inject.metrics.json"
    trace = tmp / "inject.trace.json"
    proc = run(hpsim, *inject_args("--metrics", str(metrics),
                                   "--trace", str(trace), "--profile"))
    check("--inject with observers exits 0", proc.returncode == 0,
          proc.stderr)
    check("--inject profile report on stderr",
          "engine phase profile" in proc.stderr)
    doc = json.loads(metrics.read_text())
    check("--inject metrics schema", doc.get("schema") == "hp-metrics-v1")
    check("--inject metrics count deliveries",
          doc.get("counters", {}).get("packets.delivered", 0) > 0)
    tdoc = json.loads(trace.read_text())
    check("--inject trace has events", len(tdoc.get("traceEvents", [])) > 0)

    # Without --profile the artifacts are virtual-time only.
    outputs = []
    for threads in ("1", "4"):
        metrics = tmp / f"inject_t{threads}.metrics.json"
        trace = tmp / f"inject_t{threads}.trace.json"
        proc = run(hpsim, *inject_args("--threads", threads, "--fingerprint",
                                       "--metrics", str(metrics),
                                       "--trace", str(trace)))
        check(f"--inject --threads {threads} exits 0", proc.returncode == 0,
              proc.stderr)
        fingerprint = [line for line in proc.stdout.splitlines()
                       if line.startswith("state fingerprint : 0x")]
        check(f"--inject --threads {threads} prints the fingerprint",
              len(fingerprint) == 1)
        outputs.append((metrics.read_bytes(), trace.read_bytes(),
                        fingerprint))
    check("--inject metrics identical across threads",
          outputs[0][0] == outputs[1][0])
    check("--inject trace identical across threads",
          outputs[0][1] == outputs[1][1])
    check("--inject fingerprint identical across threads",
          outputs[0][2] == outputs[1][2])

    csv = run(hpsim, *inject_args("--csv"))
    check("--inject --csv exits 0", csv.returncode == 0, csv.stderr)
    check("--inject --csv prints the per-step header",
          csv.stdout.startswith("step,in_flight,advanced,deflected,arrived,"
                                "total_distance\n"))


def test_inject_conflicts(hpsim, tmp):
    for flag in (["--audit"], ["--save", str(tmp / "x.txt")],
                 ["--load", str(tmp / "x.txt")],
                 ["--checkpoint", str(tmp / "x.ckpt")],
                 ["--restore", str(tmp / "x.ckpt")]):
        proc = run(hpsim, *inject_args(*flag))
        check(f"--inject rejects {flag[0]}", proc.returncode == 2,
              f"exit={proc.returncode}")
        check(f"{flag[0]} conflict names --inject", "--inject" in proc.stderr)
    check("rejected --save writes no file", not (tmp / "x.txt").exists())


def test_missing_values(hpsim):
    for flag in ("--metrics", "--trace"):
        proc = run(hpsim, flag)
        check(f"{flag} without value exits 2", proc.returncode == 2,
              f"exit={proc.returncode}")


def probe_args(*extra):
    return [
        "--topology", "mesh", "--n", "6", "--workload", "uniform",
        "--policy", "restricted", "--seed", "3", *extra,
    ]


def test_probe_mode(hpsim):
    proc = run(hpsim, "--probe", *probe_args())
    check("probe run exits 0", proc.returncode == 0, proc.stderr)
    check("probe prints trajectory header",
          "window" in proc.stdout and "stable" in proc.stdout)
    check("probe prints saturation", "saturation rate" in proc.stdout)
    check("probe converged", "converged       : yes" in proc.stdout)

    pareto = run(hpsim, "--probe", *probe_args("--pareto"))
    check("probe --pareto exits 0", pareto.returncode == 0, pareto.stderr)
    check("probe --pareto labels the traffic",
          "pareto flows" in pareto.stdout)
    check("pareto changes the trajectory", pareto.stdout != proc.stdout)


def test_sweep_cell_mode(hpsim):
    proc = run(hpsim, "--sweep-cell", *probe_args())
    check("sweep-cell run exits 0", proc.returncode == 0, proc.stderr)
    check("sweep-cell prints the load curve",
          "load" in proc.stdout and "peak_in_flight" in proc.stdout)
    curve_rows = [
        line for line in proc.stdout.splitlines()
        if line.strip().startswith("0.") or line.strip().startswith("1.0")
    ]
    check("sweep-cell curve has 10 load points", len(curve_rows) == 10,
          f"got {len(curve_rows)}")


def test_probe_determinism_across_threads(hpsim):
    outputs = []
    for threads in ("1", "4"):
        proc = run(hpsim, "--probe", *probe_args("--threads", threads))
        check(f"probe --threads {threads} exits 0", proc.returncode == 0,
              proc.stderr)
        outputs.append(proc.stdout)
    check("probe output identical across threads",
          outputs[0] == outputs[1])


def test_probe_conflicts(hpsim, tmp):
    # Same convention as --inject vs the batch-only flags: incompatible
    # modes exit 2 and the message names the flags.
    for mode in ("--probe", "--sweep-cell"):
        for flag in (["--metrics", str(tmp / "x.json")],
                     ["--trace", str(tmp / "x.trace")],
                     ["--profile"], ["--csv"], ["--audit"],
                     ["--inject", "0.1"]):
            proc = run(hpsim, mode, *probe_args(), *flag)
            check(f"{mode} rejects {flag[0]}", proc.returncode == 2,
                  f"exit={proc.returncode}")
            check(f"{mode} {flag[0]} conflict names the mode",
                  mode in proc.stderr)
    both = run(hpsim, "--probe", "--sweep-cell", *probe_args())
    check("--probe --sweep-cell exits 2", both.returncode == 2,
          f"exit={both.returncode}")
    lone = run(hpsim, "--pareto", *probe_args())
    check("--pareto alone exits 2", lone.returncode == 2,
          f"exit={lone.returncode}")
    batch_pattern = run(hpsim, "--probe", *batch_args())
    check("--probe rejects batch workload names",
          batch_pattern.returncode == 2, f"exit={batch_pattern.returncode}")


# Exact stdout of the steady-state paths: --inject (Bernoulli arrivals) and
# --probe (closed-loop windows, unit and Pareto flows). Virtual-time only,
# so the text is the same at every --threads value.
STEADY_STATE_PINS = [
    (["--inject", "0.05", "--inject-steps", "1000", "--topology", "mesh",
      "--n", "16", "--seed", "3"],
     """network         : mesh-2d-16
policy          : restricted-priority
offered rate    : 0.05 per node per step
admit fraction  : 0.998987
throughput      : 0.0505225 deliveries per node per step
mean latency    : 10.9603
p99 latency     : 24
mean in flight  : 142.154
deflections/pkt : 0.158017
"""),
    (["--inject", "0.1", "--inject-steps", "500", "--topology", "torus",
      "--n", "8", "--seed", "3"],
     """network         : torus-2d-8
policy          : restricted-priority
offered rate    : 0.1 per node per step
admit fraction  : 0.999687
throughput      : 0.0996094 deliveries per node per step
mean latency    : 4.16218
p99 latency     : 8
mean in flight  : 26.5775
deflections/pkt : 0.0603922
"""),
    (["--probe", "--topology", "mesh", "--n", "6", "--workload", "uniform",
      "--seed", "3"],
     """network         : mesh-2d-6
policy          : restricted-priority
traffic         : uniform (unit flows)
window    rate  stable  throughput  admit      lo      hi
     0  0.0500     yes      0.0511  1.000  0.0500     inf
     1  0.1000     yes      0.1041  1.000  0.1000     inf
     2  0.2000     yes      0.1988  0.997  0.2000     inf
     3  0.4000      no      0.3908  0.920  0.2000  0.4000
     4  0.3000     yes      0.2965  0.979  0.3000  0.4000
     5  0.3500     yes      0.3417  0.956  0.3500  0.4000
     6  0.3750     yes      0.3657  0.940  0.3750  0.4000
     7  0.3875     yes      0.3784  0.928  0.3875  0.4000
converged       : yes (8 windows)
saturation rate : 0.3875 packets per node per step
throughput      : 0.37838
mean latency    : 5.05199
"""),
    (["--probe", "--topology", "mesh", "--n", "6", "--workload", "uniform",
      "--seed", "3", "--pareto"],
     """network         : mesh-2d-6
policy          : restricted-priority
traffic         : uniform + pareto flows
window    rate  stable  throughput  admit      lo      hi
     0  0.0500     yes      0.0581  1.000  0.0500     inf
     1  0.1000     yes      0.1112  0.999  0.1000     inf
     2  0.2000     yes      0.2225  0.966  0.2000     inf
     3  0.4000      no      0.3425  0.881  0.2000  0.4000
     4  0.3000     yes      0.2727  0.971  0.3000  0.4000
     5  0.3500     yes      0.3215  0.945  0.3500  0.4000
     6  0.3750     yes      0.3240  0.929  0.3750  0.4000
     7  0.3875      no      0.3425  0.900  0.3750  0.3875
converged       : yes (8 windows)
saturation rate : 0.375 packets per node per step
throughput      : 0.324028
mean latency    : 5.14507
"""),
]


def test_steady_state_pins(hpsim):
    for args, expected in STEADY_STATE_PINS:
        for threads in ("1", "4"):
            proc = run(hpsim, *args, "--threads", threads)
            check(f"pinned stdout of {' '.join(args)} --threads {threads}",
                  proc.returncode == 0 and proc.stdout == expected,
                  f"exit={proc.returncode}\n{proc.stdout}{proc.stderr}")


def summary_tail(stdout):
    """The summary lines a restored run must reproduce exactly."""
    return [
        line for line in stdout.splitlines()
        if line.startswith(("steps", "deflections", "state fingerprint"))
    ]


def test_checkpoint_roundtrip(hpsim, tmp):
    ckpt = tmp / "run.ckpt"
    full = run(hpsim, *batch_args("--fingerprint"))
    check("fingerprint run exits 0", full.returncode == 0, full.stderr)
    check("fingerprint line printed",
          any(line.startswith("state fingerprint : 0x")
              for line in full.stdout.splitlines()))

    mid = run(hpsim, *batch_args("--checkpoint", str(ckpt),
                                 "--checkpoint-at", "5", "--fingerprint"))
    check("checkpointed run exits 0", mid.returncode == 0, mid.stderr)
    check("checkpoint file written", ckpt.is_file() and ckpt.stat().st_size > 0)
    check("mid-run checkpoint leaves the run unchanged",
          summary_tail(mid.stdout) == summary_tail(full.stdout))

    restored = run(hpsim, "--topology", "mesh", "--n", "8",
                   "--policy", "restricted", "--seed", "3",
                   "--restore", str(ckpt), "--fingerprint")
    check("restored run exits 0", restored.returncode == 0, restored.stderr)
    check("restored run matches the uninterrupted one",
          summary_tail(restored.stdout) == summary_tail(full.stdout))


def test_checkpoint_conflicts(hpsim, tmp):
    ckpt = tmp / "x.ckpt"
    for mode in ("--probe", "--sweep-cell"):
        for flag in (["--checkpoint", str(ckpt)], ["--restore", str(ckpt)],
                     ["--fingerprint"]):
            proc = run(hpsim, mode, *probe_args(), *flag)
            check(f"{mode} rejects {flag[0]}", proc.returncode == 2,
                  f"exit={proc.returncode}")
            check(f"{mode} {flag[0]} conflict names the mode",
                  mode in proc.stderr)
    inject = run(hpsim, "--inject", "0.01", "--inject-steps", "50",
                 "--checkpoint", str(ckpt))
    check("--inject rejects --checkpoint", inject.returncode == 2,
          f"exit={inject.returncode}")
    orphan = run(hpsim, *batch_args("--checkpoint-at", "5"))
    check("--checkpoint-at without --checkpoint exits 2",
          orphan.returncode == 2, f"exit={orphan.returncode}")
    mixed = run(hpsim, *batch_args("--restore", str(ckpt),
                                   "--load", str(tmp / "y.json")))
    check("--restore rejects --load", mixed.returncode == 2,
          f"exit={mixed.returncode}")


def test_restore_mismatch_rejected(hpsim, tmp):
    ckpt = tmp / "mismatch.ckpt"
    written = run(hpsim, *batch_args("--checkpoint", str(ckpt),
                                     "--checkpoint-at", "5"))
    check("checkpoint for mismatch test exits 0", written.returncode == 0,
          written.stderr)
    wrong = run(hpsim, "--topology", "torus", "--n", "8",
                "--policy", "restricted", "--seed", "3",
                "--restore", str(ckpt))
    check("restore into a different topology exits 2",
          wrong.returncode == 2, f"exit={wrong.returncode}")
    check("topology mismatch error names both networks",
          "mesh" in wrong.stderr and "torus" in wrong.stderr)
    truncated = tmp / "truncated.ckpt"
    truncated.write_bytes(ckpt.read_bytes()[:20])
    cut = run(hpsim, "--topology", "mesh", "--n", "8",
              "--policy", "restricted", "--seed", "3",
              "--restore", str(truncated))
    check("truncated checkpoint exits 2", cut.returncode == 2,
          f"exit={cut.returncode}")
    check("truncation error is clear", "truncat" in cut.stderr)


def main():
    if len(sys.argv) != 2:
        print("usage: hpsim_cli_test.py /path/to/hpsim", file=sys.stderr)
        return 2
    hpsim = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = pathlib.Path(tmpdir)
        test_metrics_and_trace_roundtrip(hpsim, tmp)
        test_metrics_csv_roundtrip(hpsim, tmp)
        test_thread_count_invariance(hpsim, tmp)
        test_inject_observability(hpsim, tmp)
        test_inject_conflicts(hpsim, tmp)
        test_missing_values(hpsim)
        test_probe_mode(hpsim)
        test_sweep_cell_mode(hpsim)
        test_probe_determinism_across_threads(hpsim)
        test_probe_conflicts(hpsim, tmp)
        test_steady_state_pins(hpsim)
        test_checkpoint_roundtrip(hpsim, tmp)
        test_checkpoint_conflicts(hpsim, tmp)
        test_restore_mismatch_rejected(hpsim, tmp)
    if FAILURES:
        print(f"{len(FAILURES)} failure(s): {', '.join(FAILURES)}")
        return 1
    print("all hpsim CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
