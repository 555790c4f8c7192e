#!/usr/bin/env python3
"""Per-layer summary of a traced audit_bench run.

Reads the JSON-lines span file the traced run writes (first line: run
metadata; then one span per line) and prints one row per layer metric with
the end-to-end metric it feeds:

    python3 auditbench/summarize.py .bench_build/auditbench/traces/basic-pir-1.jsonl

Span model (auditbench/trace.h): kind is client (a call through a channel
the benchmark handed the system), server (a handler the benchmark served)
or local (a call the benchmark made itself). A span's parent is the span
that was open on the same thread when it started. A server span reached
over TCP has no parent; it joins the client call with the same request hash
whose interval contains it. Audit ids (client, seq) sit on the user's
client spans and on the audit spans; every other span inherits one through
its parent or the client call it joined. Self time is a span's duration
minus the part of it its children cover.
"""

import json
import statistics
import sys
from collections import defaultdict

# (name, unit, end-to-end metric it feeds, how it is measured)
LAYERS = [
    ("pir.respond_tpa0_ms", "ms", "audit_p50_ms", "handler span of 310 at tpa0"),
    ("pir.respond_tpa1_ms", "ms", "audit_p50_ms", "handler span of 310 at tpa1"),
    ("pir.plan_ms", "ms", "audit_p50_ms", "direct ShardPlanner::plan"),
    ("pir.decode_ms", "ms", "audit_p50_ms", "direct ShardPlanner::merge_decode"),
    ("pir.query_bytes", "B", "wire_bytes_per_audit", "310 request bytes per audit"),
    ("pir.response_bytes", "B", "wire_bytes_per_audit", "310 response bytes per audit"),
    ("pir.shards_touched", "count", "audit_p50_ms", "shards in the probe's plan"),
    ("bignum.repack_ms", "ms", "audit_p50_ms", "direct repack_tags / batch_repack"),
    ("ice.edge_proof_ms", "ms", "audit_p50_ms", "edge 204, or 205 minus its 306"),
    ("ice.tpa_challenge_self_ms", "ms", "audit_p50_ms", "tpa0 303 minus its 204"),
    ("ice.tpa_verify_ms", "ms", "audit_p50_ms", "tpa0 304 / 307"),
    ("ice.batch_fanout_ms", "ms", "audit_p50_ms", "first 205 start to last 205 end"),
    ("ice.user_self_ms", "ms", "audit_p50_ms", "audit minus its outbound calls"),
    ("ice.tag_update_ms", "ms", "update_p50_ms", "handler span of 308"),
    ("ice.epoch_close_ms", "ms", "audits_per_s", "handler span of 313"),
    ("ice.close_epochs_ms", "ms", "audits_per_s", "UserClient::close_epochs call"),
    ("ice.edge_writeback_ms", "ms", "audits_per_s", "edge 201 and 206"),
    ("ice.taggen_s", "s", "setup_s", "setup_file return value"),
    ("ice.store_tags_s", "s", "setup_s", "handler span of 301"),
    ("net.wait_ms", "ms", "audit_p90_ms", "per audit, sum of call minus handler"),
    ("net.hol_wait_ms", "ms", "audit_p50_ms", "tpa0 310 call minus its handler"),
    ("net.calls_per_audit", "count", "wire_bytes_per_audit", "outbound calls per audit"),
    ("net.error_replies", "count", "audit_fail_ratio", "replies whose status is not kOk"),
    ("trace_overhead_ratio", "ratio", "(sanity)", "traced / untraced audit p50"),
]
# Timed layers also report how many spans their median covers.
COUNTED = [name for name, unit, _, _ in LAYERS if unit in ("ms", "s")
           and name not in ("ice.taggen_s",)]

CLIENT, SERVER, LOCAL = "client", "server", "local"
M_SHARD_QUERY = 310


def load(path):
    with open(path) as f:
        meta = json.loads(f.readline())
        spans = [json.loads(line) for line in f if line.strip()]
    return meta, spans


def duration_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def covered_ms(span, others):
    """Length of [span] covered by the union of `others`, in ms."""
    lo, hi = span["start_ns"], span["end_ns"]
    parts = sorted((max(lo, o["start_ns"]), min(hi, o["end_ns"])) for o in others)
    total, cur_lo, cur_hi = 0, None, None
    for a, b in parts:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total / 1e6


def self_ms(span, children):
    return duration_ms(span) - covered_ms(span, children.get(span["id"], []))


class Trace:
    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s["parent"]:
                self.children[s["parent"]].append(s)
        self.server_of = {}  # client span id -> the handler span it reached
        by_hash = defaultdict(list)
        for s in spans:
            if s["kind"] == CLIENT:
                by_hash[s["hash"]].append(s)
        for s in spans:
            if s["kind"] != SERVER:
                continue
            parent = self.by_id.get(s["parent"])
            if parent is not None and parent["kind"] == CLIENT:
                self.server_of[parent["id"]] = s  # in-memory call
                continue
            around = [c for c in by_hash[s["hash"]]
                      if c["start_ns"] <= s["start_ns"] and s["end_ns"] <= c["end_ns"]
                      and c["id"] not in self.server_of]
            if around:
                caller = max(around, key=lambda c: c["start_ns"])
                self.server_of[caller["id"]] = s
                s["joined"] = caller["id"]
        self._audit = {}

    def audit_of(self, span):
        """(client, seq) of the measured audit a span belongs to, or None."""
        sid = span["id"]
        if sid in self._audit:
            return self._audit[sid]
        if span["client"] >= 0:
            result = (span["client"], span["seq"]) if span["seq"] >= 0 else None
        else:
            up = span.get("joined") or span["parent"]
            result = self.audit_of(self.by_id[up]) if up in self.by_id else None
        self._audit[sid] = result
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(path):
    """Returns {metric name: {"value", "unit", "feeds", "calls"}}."""
    meta, spans = load(path)
    t = Trace(spans)
    audits = {}
    per_audit = defaultdict(list)
    for s in spans:
        a = t.audit_of(s)
        if a is None:
            continue
        if s["kind"] == LOCAL and s["name"] == "audit":
            audits[a] = s
        else:
            per_audit[a].append(s)

    def in_audits(kind, method, name_pred=lambda n: True):
        return [s for a in audits for s in per_audit[a]
                if s["kind"] == kind and s["method"] == method and name_pred(s["name"])]

    def anywhere(kind, method):
        return [s for s in spans if s["kind"] == kind and s["method"] in method]

    def local(name):
        return [duration_ms(s) for s in spans if s["kind"] == LOCAL and s["name"] == name]

    is_edge = lambda n: n.startswith("edge")
    samples = {}
    samples["pir.respond_tpa0_ms"] = [duration_ms(s) for s in in_audits(SERVER, M_SHARD_QUERY, lambda n: n == "tpa0")]
    samples["pir.respond_tpa1_ms"] = [duration_ms(s) for s in in_audits(SERVER, M_SHARD_QUERY, lambda n: n == "tpa1")]
    samples["pir.plan_ms"] = local("probe.plan")
    samples["pir.decode_ms"] = local("probe.decode")
    samples["bignum.repack_ms"] = local("probe.repack")
    samples["ice.edge_proof_ms"] = (
        [duration_ms(s) for s in in_audits(SERVER, 204, is_edge)]
        + [self_ms(s, t.children) for s in in_audits(SERVER, 205, is_edge)])
    samples["ice.tpa_challenge_self_ms"] = [
        self_ms(s, t.children) for s in in_audits(SERVER, 303, lambda n: n == "tpa0")]
    samples["ice.tpa_verify_ms"] = [
        duration_ms(s) for m in (304, 307) for s in in_audits(SERVER, m, lambda n: n == "tpa0")]
    samples["ice.tag_update_ms"] = [duration_ms(s) for s in anywhere(SERVER, (308,))]
    samples["ice.epoch_close_ms"] = [duration_ms(s) for s in anywhere(SERVER, (313,))]
    samples["ice.close_epochs_ms"] = local("close_epochs")
    samples["ice.edge_writeback_ms"] = [
        duration_ms(s) for s in anywhere(SERVER, (201, 206)) if is_edge(s["name"])]
    samples["ice.store_tags_s"] = [duration_ms(s) / 1e3 for s in anywhere(SERVER, (301,))]

    fanout, user_self, wait, hol, calls, qbytes, rbytes, traced = [], [], [], [], [], [], [], []
    for a, audit in audits.items():
        mine = per_audit[a]
        traced.append(duration_ms(audit))
        outbound = [s for s in mine if s["kind"] == CLIENT]
        users = [s for s in outbound if s["client"] >= 0]
        calls.append(len(outbound))
        user_self.append(duration_ms(audit) - covered_ms(audit, users))
        queries = [s for s in users if s["method"] == M_SHARD_QUERY]
        qbytes.append(sum(s["req"] for s in queries))
        rbytes.append(sum(s["resp"] for s in queries))
        waits = [duration_ms(c) - duration_ms(t.server_of[c["id"]])
                 for c in outbound if c["id"] in t.server_of]
        wait.append(sum(waits))
        hol += [duration_ms(c) - duration_ms(t.server_of[c["id"]]) for c in queries
                if c["name"].endswith("->tpa0") and c["id"] in t.server_of]
        challenges = [s for s in users if s["method"] == 205]
        if challenges:
            fanout.append((max(s["end_ns"] for s in challenges)
                           - min(s["start_ns"] for s in challenges)) / 1e6)
    samples["ice.batch_fanout_ms"] = fanout
    samples["ice.user_self_ms"] = user_self
    samples["net.wait_ms"] = wait
    samples["net.hol_wait_ms"] = hol

    n_audits = max(len(audits), 1)
    units = {name: unit for name, unit, _, _ in LAYERS}
    feeds = {name: f for name, _, f, _ in LAYERS}
    out = {}
    for name, values in samples.items():
        out[name] = {"value": median(values), "calls": len(values)}
    out["pir.query_bytes"] = {"value": sum(qbytes) / n_audits, "calls": len(qbytes)}
    out["pir.response_bytes"] = {"value": sum(rbytes) / n_audits, "calls": len(rbytes)}
    out["pir.shards_touched"] = {"value": meta["shards_touched"], "calls": 1}
    out["ice.taggen_s"] = {"value": meta["taggen_s"], "calls": 1}
    out["net.calls_per_audit"] = {"value": sum(calls) / n_audits, "calls": len(calls)}
    out["net.error_replies"] = {
        "value": sum(1 for s in spans if s["kind"] == CLIENT and s["status"] != 0),
        "calls": sum(1 for s in spans if s["kind"] == CLIENT)}
    untraced = meta.get("untraced_p50_ms") or 0.0
    out["trace_overhead_ratio"] = {
        "value": median(traced) / untraced if untraced > 0 else 0.0,
        "calls": len(traced)}
    for name in out:
        out[name]["unit"] = units[name]
        out[name]["feeds"] = feeds[name]
    for name in COUNTED:
        out[name.rsplit("_", 1)[0] + "_calls"] = {
            "value": out[name]["calls"], "unit": "count", "feeds": feeds[name],
            "calls": out[name]["calls"]}
    out["audits_traced"] = {"value": len(audits), "unit": "count",
                            "feeds": "audits_per_s", "calls": len(audits)}
    return out


def print_table(layers):
    print(f"{'layer metric':28} {'value':>14} {'unit':6} {'calls':>6}  feeds")
    for name, unit, feeds, how in LAYERS:
        row = layers[name]
        print(f"{name:28} {row['value']:14.4f} {unit:6} {row['calls']:6d}  {feeds}  ({how})")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: summarize.py SPANS.jsonl", file=sys.stderr)
        return 2
    meta, _ = load(sys.argv[1])
    print(f"workload {meta['workload']} seed {meta['seed']} nproc {meta['nproc']}")
    print_table(summarize(sys.argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
