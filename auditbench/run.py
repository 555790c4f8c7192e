#!/usr/bin/env python3
"""ICE audit benchmark entry point.

Builds the repository's libraries and the benchmark driver from source
(into .bench_build/auditbench at the repository root), runs one workload and
prints every metric by name with its unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, computed by summarize.py from the
spans the traced run writes.

    python3 auditbench/run.py --workload basic-pir --seed 1 --seconds 10 --trace 0

Exits 0 when every correctness gate held, 1 when one failed, 2 when the
benchmark could not be built or run.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "auditbench")
BINARY = os.path.join(BUILD, "audit_bench")
WORKLOADS = ("basic-pir", "basic-proof", "batch-churn")
# Untraced runs split their window over this many driver processes and pool
# the samples: single-thread speed differs by up to ~10% from one process to
# the next on a shared 4-core VM, and pooling averages that out.
PROCESSES = 3
# Printed with the end-to-end metrics but kept out of BENCHMARK.json: the fail
# ratio must read 0 (the result line's attempted/failed carry it), and an
# epoch close is two loopback round trips whose run-to-run spread on a shared
# VM exceeds any bound the benchmark may set (its per-layer twin is
# ice.close_epochs_ms).
REPORTED_ONLY = {"audit_fail_ratio": "ratio", "epoch_close_p50_ms": "ms"}
# p90 needs at least ten samples beyond it.
MIN_AUDITS = 100
# All driver processes of one run must end well inside the 180 s it may take.
RUN_BUDGET_S = 165

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import summarize  # noqa: E402


def fail(message):
    print(f"auditbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_driver(args, seconds, extra, echo_metrics, timeout):
    """Runs audit_bench once; echoes its gate (and metric) lines."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        if echo_metrics or line.startswith("gate "):
            print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver output is not JSON (exit {proc.returncode}): {lines[-1]}")


def percentile(values, q):
    """Nearest-rank percentile, as the driver computes it per process."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def pool(results):
    """End-to-end metrics over the pooled samples of several processes."""
    samples = {k: [v for r in results for v in r["samples"][k]]
               for k in ("audit_ms", "update_ms", "close_ms")}
    attempted = sum(r["attempted"] for r in results)
    return {
        "audit_p50_ms": percentile(samples["audit_ms"], 0.5),
        "audit_p90_ms": percentile(samples["audit_ms"], 0.9),
        "audits_per_s": sum(r["passed"] for r in results)
                        / sum(r["window_s"] for r in results),
        "wire_bytes_per_audit": sum(r["wire_bytes"] for r in results)
                                / max(attempted, 1),
        "setup_s": statistics.median(
            r["metrics"]["setup_s"]["value"] for r in results),
        "peak_rss_mb": statistics.median(
            r["metrics"]["peak_rss_mb"]["value"] for r in results),
        "update_p50_ms": percentile(samples["update_ms"], 0.5),
        "epoch_close_p50_ms": percentile(samples["close_ms"], 0.5),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    metrics = {}
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")
        result = run_driver(args, args.seconds,
                            ["--trace", "1", "--trace-out", trace_path],
                            echo_metrics=True, timeout=RUN_BUDGET_S)
        results = [result]
        if result.get("correct") and "trace_file" in result:
            layers = summarize.summarize(trace_path)
            summarize.print_table(layers)
            print(f"spans written to {trace_path}")
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": layers[m["name"]]["value"],
                                      "unit": m["unit"]}
    else:
        extra = ["--min-audits", str(math.ceil(MIN_AUDITS / PROCESSES))]
        results = [run_driver(args, args.seconds / PROCESSES, extra,
                              echo_metrics=False,
                              timeout=RUN_BUDGET_S / PROCESSES)
                   for _ in range(PROCESSES)]
        if all(r.get("correct") for r in results):
            pooled = pool(results)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            units.update(REPORTED_ONLY)
            for name, value in pooled.items():
                print(f"{name:24} {value:14.6f} {units[name]}")
            for m in spec["end_to_end"]:
                metrics[m["name"]] = {"value": pooled[m["name"]],
                                      "unit": m["unit"]}
    result = results[0]
    correct = all(r.get("correct") for r in results)
    attempted = sum(int(r.get("attempted", 0)) for r in results)
    failed = sum(int(r.get("failed", 0)) for r in results)
    print(f"{'audit_fail_ratio':24} {failed / max(attempted, 1):14.6f} ratio")
    print(json.dumps({"workload": result.get("workload"),
                      "seed": result.get("seed"),
                      "nproc": result.get("nproc"),
                      "client_threads": result.get("client_threads"),
                      "connections": result.get("connections")}))
    print(json.dumps({"correct": correct,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
