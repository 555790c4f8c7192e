#!/usr/bin/env python3
"""Self-check of the benchmark's deterministic counts.

Runs every workload at tiny size, traced, twice with the same seed and a
fixed number of audits, and checks that the counts which must repeat for a
seed do repeat: net.calls_per_audit, pir.query_bytes and pir.response_bytes
exactly, and wire_bytes_per_audit to within the slack of the bigint
encoding. Also pins the call structure of one audit, which guards the span
joins the summarizer relies on.

    python3 auditbench/test_counts.py

wire_bytes_per_audit cannot repeat to the byte: session values (blindings,
challenge keys, proofs, repacked tags) are drawn from the program's own
CSPRNGs, which the benchmark does not seed, and the wire carries bigints in
minimal big-endian form, so a value with a leading zero byte is one byte
shorter. Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import summarize  # noqa: E402

SEED = 7
AUDITS = 6
# Outbound calls in one audit, nested calls included.
#   ICE-basic: index_query, share_blinding, start_audit -> edge challenge,
#              two shard queries, submit_repacked.
#   ICE-batch over 4 edges: 4 index_query, batch_begin, 4 batch_challenge ->
#              4 submit_proof, shard_map (the commit dropped the planner),
#              two shard queries, batch_finish.
EXPECTED_CALLS = {"basic-pir": 7, "basic-proof": 7, "batch-churn": 17}
EXACT = ("net.calls_per_audit", "pir.query_bytes", "pir.response_bytes")
WIRE_SLACK = 0.001


def tiny_run(workload, rep):
    trace = os.path.join(run.BUILD, "traces", f"tiny-{workload}-{rep}.jsonl")
    cmd = [run.BINARY, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1", "--trace-out", trace, "--tiny",
           "--audits", str(AUDITS)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload}: gates failed: {result.get('gates')}")
    layers = summarize.summarize(trace)
    return result["metrics"]["wire_bytes_per_audit"]["value"], layers


def main():
    run.build()
    os.makedirs(os.path.join(run.BUILD, "traces"), exist_ok=True)
    failures = []
    for workload in run.WORKLOADS:
        (wire_a, a), (wire_b, b) = tiny_run(workload, 0), tiny_run(workload, 1)
        for name in EXACT:
            ok = a[name]["value"] == b[name]["value"]
            print(f"{workload:12} {name:22} {a[name]['value']:>12} "
                  f"{b[name]['value']:>12} {'ok' if ok else 'DIFFERS'}")
            if not ok:
                failures.append(f"{workload} {name}")
        drift = abs(wire_a - wire_b) / max(wire_a, 1.0)
        ok = drift <= WIRE_SLACK
        print(f"{workload:12} {'wire_bytes_per_audit':22} {wire_a:12.1f} "
              f"{wire_b:12.1f} {'ok' if ok else 'DIFFERS'} (drift {drift:.5f})")
        if not ok:
            failures.append(f"{workload} wire_bytes_per_audit")
        calls = a["net.calls_per_audit"]["value"]
        if calls != EXPECTED_CALLS[workload]:
            failures.append(f"{workload} calls per audit {calls}, "
                            f"expected {EXPECTED_CALLS[workload]}")
        if a["audits_traced"]["value"] != AUDITS * (2 if workload == "basic-proof" else 1):
            failures.append(f"{workload} traced {a['audits_traced']['value']} audits")
    for f in failures:
        print(f"FAILED: {f}")
    print("test_counts OK" if not failures else "test_counts FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
