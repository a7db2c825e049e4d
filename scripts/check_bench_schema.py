#!/usr/bin/env python3
"""Validates bench results JSON against the obs::Snapshot schema.

CI runs short deterministic benches (bench_table2_log_micro,
bench_fig6_7_tpcc, bench_fig8_order_processing, bench_fig9_advertisement,
bench_fig11_ebp_query_speedup, bench_fig12_ebp_size, bench_fig14_pushdown,
bench_ablation_costbased_pq, bench_ablation_segmentring and the chaos
benches) and feeds the files they wrote into this checker. The point is schema drift: if the C++
exporter (src/obs/export.cc) changes shape without bumping
Snapshot::kSchemaVersion and updating this script, the bench-smoke job
fails. Pure stdlib; exits non-zero with a pointed message on violation.

Usage: check_bench_schema.py results/bench_table2_log_micro.json [...]
"""

import json
import math
import sys

SCHEMA_VERSION = 1


class Drift(Exception):
    pass


def expect(cond, path, msg):
    if not cond:
        raise Drift(f"{path}: {msg}")


def check_labels(labels, path):
    expect(isinstance(labels, dict), path, "labels must be an object")
    for k, v in labels.items():
        expect(isinstance(k, str) and isinstance(v, str), path,
               "labels must map string -> string")
    expect(list(labels.keys()) == sorted(labels.keys()), path,
           "label keys must be sorted (canonical form)")


def check_sample(sample, path, value_fields):
    expect(isinstance(sample, dict), path, "sample must be an object")
    expect(isinstance(sample.get("name"), str), path, "missing string 'name'")
    check_labels(sample.get("labels"), f"{path}.labels")
    for field in value_fields:
        expect(isinstance(sample.get(field), int), path,
               f"missing integer '{field}' (floats are schema drift: the "
               "exporter emits integers only)")


def check_snapshot(snap, path):
    expect(isinstance(snap, dict), path, "snapshot must be an object")
    expect(snap.get("schema_version") == SCHEMA_VERSION, path,
           f"schema_version must be {SCHEMA_VERSION}, got "
           f"{snap.get('schema_version')!r}")
    expect(isinstance(snap.get("virtual_time_ns"), int), path,
           "missing integer 'virtual_time_ns'")
    expect(isinstance(snap.get("run_label"), str), path,
           "missing string 'run_label'")
    for kind, fields in (("counters", ["value"]),
                         ("gauges", ["value"]),
                         ("histograms",
                          ["count", "sum", "min", "max", "p50", "p95", "p99"])):
        arr = snap.get(kind)
        expect(isinstance(arr, list), path, f"missing array '{kind}'")
        keys = []
        for i, sample in enumerate(arr):
            check_sample(sample, f"{path}.{kind}[{i}]", fields)
            keys.append((sample["name"], tuple(sorted(sample["labels"].items()))))
        expect(keys == sorted(keys), f"{path}.{kind}",
               "samples must be sorted by (name, labels) — determinism drift")


def find_sample(snap, kind, name, labels):
    for sample in snap.get(kind, []):
        if sample["name"] == name and sample["labels"] == labels:
            return sample
    return None


def check_cm_failover_chaos(doc, filename):
    """Bench-specific contract for bench_cm_failover_chaos: the chaos
    acceptance bar must be visible in the results document, and the extras
    must agree with the embedded snapshot's counters."""
    for key in ("chaos_pass", "deterministic", "double_grant"):
        expect(isinstance(doc.get(key), bool), filename,
               f"missing boolean '{key}'")
    for key in ("operations", "errors", "retries", "cm_failovers",
                "client_cm_failovers", "lease_renew_failures", "final_term"):
        expect(isinstance(doc.get(key), int), filename,
               f"missing integer '{key}'")
    expect(isinstance(doc.get("final_primary"), str), filename,
           "missing string 'final_primary'")
    snap = doc["configs"][0]
    expect(snap.get("run_label") == "cm_failover_chaos", filename,
           "first config must carry run_label 'cm_failover_chaos'")
    failovers = sum(s["value"] for s in snap.get("counters", [])
                    if s["name"] == "cm.failovers")
    expect(failovers == doc["cm_failovers"], filename,
           "cm_failovers extra disagrees with the snapshot counter")
    retries = sum(s["value"] for s in snap.get("counters", [])
                  if s["name"] == "astore.client.retries")
    expect(retries == doc["retries"], filename,
           "retries extra disagrees with the snapshot counter")


def check_scrub_chaos(doc, filename):
    """Bench-specific contract for bench_scrub_chaos: the integrity
    acceptance bar (durability oracle, clean replicas, determinism) must be
    visible in the results document, and the repair/quarantine extras must
    agree with the embedded snapshot's counters."""
    for key in ("chaos_pass", "deterministic", "durability_ok",
                "replicas_clean"):
        expect(isinstance(doc.get(key), bool), filename,
               f"missing boolean '{key}'")
    for key in ("operations", "errors", "retries", "injected",
                "corrupt_reads", "read_repairs", "scrub_repairs",
                "scrub_reports", "quarantines", "rebuilds"):
        expect(isinstance(doc.get(key), int), filename,
               f"missing integer '{key}'")
    snap = doc["configs"][0]
    expect(snap.get("run_label") == "scrub_chaos", filename,
           "first config must carry run_label 'scrub_chaos'")
    for prefix in ("astore.scrub.", "astore.repair."):
        expect(any(s["name"].startswith(prefix)
                   for s in snap.get("counters", [])), filename,
               f"snapshot lacks any '{prefix}*' counter — the scrubber or "
               "repair path did not run")
    for extra, counter in (("scrub_repairs", "astore.scrub.repairs"),
                           ("read_repairs", "astore.repair.read_repairs"),
                           ("quarantines", "astore.repair.quarantines")):
        total = sum(s["value"] for s in snap.get("counters", [])
                    if s["name"] == counter)
        expect(total == doc[extra], filename,
               f"{extra} extra disagrees with the '{counter}' snapshot sum")


def check_table2(doc, filename):
    """Bench-specific contract for bench_table2_log_micro: the log hot-path
    gate (client-dominated share after the doorbell-coalescing rework) and
    the doorbell telemetry must be visible in the results document, and the
    extras must agree with the pmem config's snapshot."""
    expect(isinstance(doc.get("breakdown_pass"), bool), filename,
           "missing boolean 'breakdown_pass'")
    for key in ("client_share_pm", "ring_doorbells", "coalesced_appends"):
        expect(isinstance(doc.get(key), int), filename,
               f"missing integer '{key}'")
    expect(0 <= doc["client_share_pm"] <= 1000, filename,
           "client_share_pm must be per-mille (0..1000)")
    by_label = {s.get("run_label"): s for s in doc["configs"]}
    expect("table2/pmem" in by_label, filename,
           "missing 'table2/pmem' config")
    pmem = by_label["table2/pmem"]
    doorbells = find_sample(pmem, "counters", "ring.doorbells", {})
    expect(doorbells is not None, filename,
           "pmem config lacks the 'ring.doorbells' counter")
    expect(doorbells["value"] == doc["ring_doorbells"], filename,
           "ring_doorbells extra disagrees with the snapshot counter")
    batch = find_sample(pmem, "histograms", "ring.doorbell_batch", {})
    expect(batch is not None, filename,
           "pmem config lacks the 'ring.doorbell_batch' histogram "
           "(per-doorbell batch sizes)")
    expect(batch["count"] == doc["ring_doorbells"], filename,
           "every doorbell must contribute one doorbell_batch sample")
    coalesced = find_sample(pmem, "counters",
                            "astore.client.coalesced_appends", {})
    expect(coalesced is not None, filename,
           "pmem config lacks the 'astore.client.coalesced_appends' counter")
    expect(coalesced["value"] == doc["coalesced_appends"], filename,
           "coalesced_appends extra disagrees with the snapshot counter")
    expect(isinstance(doc.get("breakdown"), dict), filename,
           "table2 must embed a non-null 'breakdown' object")


def check_answers(queries, configs, filename):
    """Each query's answer oracle (bench::Answer in bench/bench_util.h): a
    row count and a CRC32C digest per configuration, which every
    configuration must agree on, since none of them may change a query's
    answer. An empty answer has digest 0."""
    for q in queries:
        answers = []
        for config in configs:
            rows = q.get(f"{config}_rows")
            digest = q.get(f"{config}_digest")
            expect(isinstance(rows, int) and rows >= 0, filename,
                   f"Q{q['query']} {config}_rows must be a count, got "
                   f"{rows!r}")
            expect(isinstance(digest, int) and 0 <= digest < 2**32, filename,
                   f"Q{q['query']} {config}_digest must be a CRC32C, got "
                   f"{digest!r}")
            expect(rows > 0 or digest == 0, filename,
                   f"Q{q['query']} {config} has no rows but digest {digest}")
            answers.append((config, rows, digest))
        expect(len({(r, d) for _, r, d in answers}) == 1, filename,
               f"Q{q['query']} answers differ across configurations: "
               + ", ".join(f"{c} {r} rows/{d:08x}" for c, r, d in answers))


def check_fig14(doc, filename):
    """Bench-specific contract for bench_fig14_pushdown: all 22 CH queries
    with a positive virtual time and one answer in each configuration, and
    geomeans that follow from those times."""
    queries = doc.get("queries")
    expect(isinstance(queries, list) and len(queries) == 22, filename,
           "'queries' must list the 22 CH queries")
    fields = ("baseline_ms", "plan_change_ms", "pq_ebp_ms")
    for i, q in enumerate(queries):
        expect(isinstance(q, dict) and q.get("query") == i + 1, filename,
               f"queries[{i}] must be query {i + 1}")
        for field in fields:
            v = q.get(field)
            expect(isinstance(v, (int, float)) and v > 0, filename,
                   f"Q{i + 1} {field} must be a positive number, got {v!r}")

    def geomean(ratio):
        return math.exp(sum(math.log(ratio(q)) for q in queries) / 22)

    for key, ratio in (
            ("geomean_pq_speedup",
             lambda q: q["baseline_ms"] / q["pq_ebp_ms"]),
            ("geomean_plan_change_speedup",
             lambda q: q["baseline_ms"] / q["plan_change_ms"]),
            ("geomean_pq_vs_plan_change",
             lambda q: q["plan_change_ms"] / q["pq_ebp_ms"])):
        got = doc.get(key)
        expect(isinstance(got, (int, float)) and got > 0, filename,
               f"missing positive number '{key}'")
        want = geomean(ratio)
        expect(math.isclose(got, want, rel_tol=1e-9), filename,
               f"{key} is {got} but the per-query times give {want}")
    check_answers(queries, ("baseline", "plan_change", "pq_ebp"), filename)


FIG8_CLIENTS = [8, 16, 64]


def check_fig8(doc, filename):
    """Bench-specific contract for bench_fig8_order_processing: TPS per
    client count and log backend for both panels, one registry snapshot per
    run, and a verdict that follows from the single-insert speedup at 8
    clients (the paper's >3x)."""
    for panel in ("single_insert", "order_txn"):
        rows = doc.get(panel)
        expect(isinstance(rows, list) and
               [r.get("clients") if isinstance(r, dict) else None
                for r in rows] == FIG8_CLIENTS, filename,
               f"'{panel}' must list client counts {FIG8_CLIENTS} in order")
        for r in rows:
            for field in ("ssd_tps", "astore_tps"):
                v = r.get(field)
                expect(isinstance(v, (int, float)) and v > 0, filename,
                       f"{panel} {r['clients']} clients {field} must be a "
                       f"positive number, got {v!r}")
    first = doc["single_insert"][0]
    got = doc.get("insert_speedup_8")
    want = first["astore_tps"] / first["ssd_tps"]
    expect(isinstance(got, (int, float)) and
           math.isclose(got, want, rel_tol=1e-9), filename,
           f"insert_speedup_8 is {got!r} but the 8-client TPS give {want}")
    expect(isinstance(doc.get("verdict_pass"), bool), filename,
           "missing boolean 'verdict_pass'")
    expect(doc["verdict_pass"] == (want >= 3.0), filename,
           f"verdict_pass is {doc['verdict_pass']} but the speedup is {want}")
    labels = [c.get("run_label") for c in doc["configs"]]
    want_labels = [f"fig8/{panel}/{log}/{c}"
                   for panel in ("insert", "order") for c in FIG8_CLIENTS
                   for log in ("ssd", "astore")]
    expect(labels == want_labels, filename,
           f"configs must be {want_labels}, got {labels}")


def check_fig9(doc, filename):
    """Bench-specific contract for bench_fig9_advertisement: avg/P99/max
    per log backend, one registry snapshot per run, and a verdict that
    follows from them (AStore lowers all three)."""
    fields = ("avg_ms", "p99_ms", "max_ms")
    for config in ("stock", "astore"):
        res = doc.get(config)
        expect(isinstance(res, dict), filename, f"missing object '{config}'")
        for field in fields:
            v = res.get(field)
            expect(isinstance(v, (int, float)) and v > 0, filename,
                   f"{config} {field} must be a positive number, got {v!r}")
    expect(isinstance(doc.get("verdict_pass"), bool), filename,
           "missing boolean 'verdict_pass'")
    want = all(doc["astore"][f] < doc["stock"][f] for f in fields)
    expect(doc["verdict_pass"] == want, filename,
           f"verdict_pass is {doc['verdict_pass']} but the latencies give "
           f"{want}")
    labels = [c.get("run_label") for c in doc["configs"]]
    expect(labels == ["fig9/stock", "fig9/astore"], filename,
           f"configs must be ['fig9/stock', 'fig9/astore'], got {labels}")


FIG11_QUERIES = [1, 4, 6, 7, 11, 12, 14, 16, 19, 22]


def check_fig11(doc, filename):
    """Bench-specific contract for bench_fig11_ebp_query_speedup: the
    figure's ten CH queries with a positive virtual time and one answer in
    each of the four configurations, geomeans that follow from those times,
    and one registry snapshot per configuration."""
    queries = doc.get("queries")
    expect(isinstance(queries, list) and
           [q.get("query") if isinstance(q, dict) else None
            for q in queries] == FIG11_QUERIES, filename,
           f"'queries' must list CH queries {FIG11_QUERIES} in order")
    for q in queries:
        for field in ("no_ebp_small_ms", "ebp_small_ms", "no_ebp_medium_ms",
                      "ebp_medium_ms"):
            v = q.get(field)
            expect(isinstance(v, (int, float)) and v > 0, filename,
                   f"Q{q['query']} {field} must be a positive number, "
                   f"got {v!r}")
    for key, bp in (("geomean_speedup_small", "small"),
                    ("geomean_speedup_medium", "medium")):
        got = doc.get(key)
        expect(isinstance(got, (int, float)) and got > 0, filename,
               f"missing positive number '{key}'")
        want = math.exp(sum(math.log(q[f"no_ebp_{bp}_ms"] / q[f"ebp_{bp}_ms"])
                            for q in queries) / len(queries))
        expect(math.isclose(got, want, rel_tol=1e-9), filename,
               f"{key} is {got} but the per-query times give {want}")
    check_answers(queries, ("no_ebp_small", "ebp_small", "no_ebp_medium",
                            "ebp_medium"), filename)
    labels = [c.get("run_label") for c in doc["configs"]]
    want_labels = ["fig11/small", "fig11/small_ebp", "fig11/medium",
                   "fig11/medium_ebp"]
    expect(labels == want_labels, filename,
           f"configs must be {want_labels}, got {labels}")


COSTBASED_QUERIES = [2, 16, 1, 6, 22]
COSTBASED_POLICIES = ("threshold", "always", "cost")


def check_costbased(doc, filename):
    """Bench-specific contract for bench_ablation_costbased_pq: a positive
    virtual ms per pass for each push-down policy, one answer per query and
    policy, and one registry snapshot per policy."""
    for policy in COSTBASED_POLICIES:
        v = doc.get(f"{policy}_ms")
        expect(isinstance(v, (int, float)) and v > 0, filename,
               f"{policy}_ms must be a positive number, got {v!r}")
    queries = doc.get("queries")
    expect(isinstance(queries, list) and
           [q.get("query") if isinstance(q, dict) else None
            for q in queries] == COSTBASED_QUERIES, filename,
           f"'queries' must list CH queries {COSTBASED_QUERIES} in order")
    check_answers(queries, COSTBASED_POLICIES, filename)
    labels = [c.get("run_label") for c in doc["configs"]]
    want_labels = [f"costbased/{p}" for p in COSTBASED_POLICIES]
    expect(labels == want_labels, filename,
           f"configs must be {want_labels}, got {labels}")


FIG12_SIZES_MIB = [0, 2, 4, 8, 32]


def fig12_shape_holds(avg):
    """The average never rises from one EBP size to the next, and each
    step's reduction is no larger than the previous step's."""
    for i in range(1, len(avg)):
        if avg[i] > avg[i - 1]:
            return False
        if i >= 2 and avg[i - 1] - avg[i] > avg[i - 2] - avg[i - 1]:
            return False
    return True


def check_fig12(doc, filename):
    """Bench-specific contract for bench_fig12_ebp_size: avg and P99 per
    EBP size (disabled first), one registry snapshot per size, and a shape
    verdict that follows from the averages."""
    sizes = doc.get("sizes")
    expect(isinstance(sizes, list) and
           [s.get("ebp_mib") if isinstance(s, dict) else None
            for s in sizes] == FIG12_SIZES_MIB, filename,
           f"'sizes' must list EBP sizes {FIG12_SIZES_MIB} MiB in order")
    for s in sizes:
        for field in ("avg_us", "p99_us"):
            v = s.get(field)
            expect(isinstance(v, (int, float)) and v > 0, filename,
                   f"{s['ebp_mib']} MiB {field} must be a positive number, "
                   f"got {v!r}")
    expect(isinstance(doc.get("shape_pass"), bool), filename,
           "missing boolean 'shape_pass'")
    want = fig12_shape_holds([s["avg_us"] for s in sizes])
    expect(doc["shape_pass"] == want, filename,
           f"shape_pass is {doc['shape_pass']} but the averages give {want}")
    labels = [c.get("run_label") for c in doc["configs"]]
    want_labels = ["fig12/disabled"] + [f"fig12/{m}MiB"
                                        for m in FIG12_SIZES_MIB[1:]]
    expect(labels == want_labels, filename,
           f"configs must be {want_labels}, got {labels}")


EBP_POLICY_LABELS = ["ebp_policy/flat", "ebp_policy/priority"] + [
    f"ebp_shards/{n}" for n in (1, 2, 8, 32)]


def check_ebp_policy(doc, filename):
    """Bench-specific contract for bench_ablation_ebp_policy: one registry
    snapshot per run, the flat and priority hot-table hit rates agreeing
    with their snapshots' ebp.hits/ebp.misses counters, and a shape verdict
    (priority beats flat) that follows from the two rates."""
    labels = [c.get("run_label") for c in doc["configs"]]
    expect(labels == EBP_POLICY_LABELS, filename,
           f"configs must be {EBP_POLICY_LABELS}, got {labels}")
    for key, snap in (("flat_hit_pct", doc["configs"][0]),
                      ("priority_hit_pct", doc["configs"][1])):
        v = doc.get(key)
        expect(isinstance(v, (int, float)) and 0 <= v <= 100, filename,
               f"'{key}' must be a percentage, got {v!r}")
        hits = find_sample(snap, "counters", "ebp.hits", {})
        misses = find_sample(snap, "counters", "ebp.misses", {})
        expect(hits is not None and misses is not None and
               hits["value"] + misses["value"] > 0, filename,
               f"{snap['run_label']} lacks ebp.hits/ebp.misses probes")
        want = 100.0 * hits["value"] / (hits["value"] + misses["value"])
        expect(math.isclose(v, want, rel_tol=1e-9), filename,
               f"'{key}' is {v} but the snapshot's counters give {want}")
    expect(isinstance(doc.get("shape_pass"), bool), filename,
           "missing boolean 'shape_pass'")
    want = doc["priority_hit_pct"] > doc["flat_hit_pct"]
    expect(doc["shape_pass"] == want, filename,
           f"shape_pass is {doc['shape_pass']} but the hit rates give {want}")


SEGMENTRING_RECORD_KIB = [2, 8, 32, 128, 256]
SEGMENTRING_CLIENTS = [1, 8, 64]


def check_segmentring(doc, filename):
    """Bench-specific contract for bench_ablation_segmentring: BlobGroup and
    SegmentRing append latency per record size, doorbells per append per
    client count with one registry snapshot per storm, and the ablation's
    shape: the ring beats the blob at every size, and doorbells per append
    fall as clients are added."""
    sizes = doc.get("record_sizes")
    expect(isinstance(sizes, list) and
           [s.get("record_kib") if isinstance(s, dict) else None
            for s in sizes] == SEGMENTRING_RECORD_KIB, filename,
           f"'record_sizes' must list {SEGMENTRING_RECORD_KIB} KiB in order")
    for s in sizes:
        for field in ("blob_avg_us", "ring_avg_us"):
            v = s.get(field)
            expect(isinstance(v, (int, float)) and v > 0, filename,
                   f"{s['record_kib']} KiB {field} must be a positive "
                   f"number, got {v!r}")
        expect(s["ring_avg_us"] < s["blob_avg_us"], filename,
               f"{s['record_kib']} KiB: SegmentRing {s['ring_avg_us']} us "
               f"does not beat BlobGroup {s['blob_avg_us']} us")
    storms = doc.get("storms")
    expect(isinstance(storms, list) and
           [s.get("clients") if isinstance(s, dict) else None
            for s in storms] == SEGMENTRING_CLIENTS, filename,
           f"'storms' must list client counts {SEGMENTRING_CLIENTS} in order")
    labels = [c.get("run_label") for c in doc["configs"]]
    want_labels = [f"storm/{c}" for c in SEGMENTRING_CLIENTS]
    expect(labels == want_labels, filename,
           f"configs must be {want_labels}, got {labels}")
    for s, snap in zip(storms, doc["configs"]):
        for field in ("appends", "doorbells"):
            expect(isinstance(s.get(field), int) and s[field] > 0, filename,
                   f"{s['clients']} clients {field} must be a positive "
                   f"integer, got {s.get(field)!r}")
        doorbells = find_sample(snap, "counters", "ring.doorbells", {})
        expect(doorbells is not None and
               doorbells["value"] == s["doorbells"], filename,
               f"{s['clients']} clients: doorbells disagree with the "
               "snapshot's ring.doorbells counter")
        want = s["doorbells"] / s["appends"]
        expect(math.isclose(s.get("doorbells_per_append", -1), want,
                            rel_tol=1e-9), filename,
               f"{s['clients']} clients doorbells_per_append is "
               f"{s.get('doorbells_per_append')!r} but the counts give {want}")
    per_append = [s["doorbells_per_append"] for s in storms]
    expect(all(b < a for a, b in zip(per_append, per_append[1:])), filename,
           f"doorbells per append {per_append} do not fall as clients are "
           "added")
    expect(doc.get("shape_pass") is True, filename,
           "shape_pass must be true when the shape holds")


def check_breakdown(bd, path):
    if bd is None:
        return
    expect(isinstance(bd, dict), path, "breakdown must be an object or null")
    parts = ["client_ns", "network_ns", "server_ns", "pmem_flush_ns"]
    for field in parts + ["total_ns"]:
        expect(isinstance(bd.get(field), int), path,
               f"missing integer '{field}'")
    total = bd["total_ns"]
    sum_parts = sum(bd[p] for p in parts)
    expect(abs(sum_parts - total) <= 1, path,
           f"breakdown stages sum to {sum_parts} but total_ns is {total} "
           "(must tile the end-to-end span within 1 virtual tick)")


def check_file(filename):
    with open(filename, "r", encoding="utf-8") as f:
        doc = json.load(f)
    expect(isinstance(doc, dict), filename, "top level must be an object")
    expect(isinstance(doc.get("bench"), str), filename,
           "missing string 'bench'")
    expect(doc.get("schema_version") == SCHEMA_VERSION, filename,
           f"schema_version must be {SCHEMA_VERSION}")
    configs = doc.get("configs")
    expect(isinstance(configs, list) and configs, filename,
           "missing non-empty array 'configs'")
    for i, snap in enumerate(configs):
        check_snapshot(snap, f"{filename}.configs[{i}]")
    if doc["bench"] == "cm_failover_chaos":
        check_cm_failover_chaos(doc, filename)
    if doc["bench"] == "scrub_chaos":
        check_scrub_chaos(doc, filename)
    if doc["bench"] == "bench_table2_log_micro":
        check_table2(doc, filename)
    if doc["bench"] == "bench_fig8_order_processing":
        check_fig8(doc, filename)
    if doc["bench"] == "bench_fig9_advertisement":
        check_fig9(doc, filename)
    if doc["bench"] == "bench_fig11_ebp_query_speedup":
        check_fig11(doc, filename)
    if doc["bench"] == "bench_fig12_ebp_size":
        check_fig12(doc, filename)
    if doc["bench"] == "bench_fig14_pushdown":
        check_fig14(doc, filename)
    if doc["bench"] == "bench_ablation_costbased_pq":
        check_costbased(doc, filename)
    if doc["bench"] == "bench_ablation_segmentring":
        check_segmentring(doc, filename)
    if doc["bench"] == "bench_ablation_ebp_policy":
        check_ebp_policy(doc, filename)
    if "breakdown" in doc:
        check_breakdown(doc["breakdown"], f"{filename}.breakdown")
    if "trace_spans" in doc:
        expect(isinstance(doc["trace_spans"], list), filename,
               "'trace_spans' must be an array")
    labels = [s.get("run_label") for s in configs]
    expect(len(set(labels)) == len(labels), filename,
           f"duplicate run_label among configs: {labels}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for filename in argv[1:]:
        try:
            check_file(filename)
        except Drift as e:
            print(f"SCHEMA DRIFT: {e}", file=sys.stderr)
            return 1
        except (OSError, json.JSONDecodeError) as e:
            print(f"ERROR reading {filename}: {e}", file=sys.stderr)
            return 1
        print(f"ok: {filename}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
