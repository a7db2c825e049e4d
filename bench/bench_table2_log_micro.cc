// Table II reproduction: single-threaded 4KB log-write micro-benchmark
// against the SSD-based LogStore (BlobGroup path) and the PMem-based AStore
// (SegmentRing path). Paper: 0.638ms vs 0.086ms average write latency
// (~7x), 1,527 vs 11,465 IOPS, 5.97 vs 44.79 MB/s.
//
// Latency numbers are reported from the metrics registry (the
// logstore.append_ns histogram the LogStore itself records), and the whole
// run is exported as results/bench_table2_log_micro.json: one registry
// snapshot per backend plus a traced single AStore write whose
// client/network/server/pmem-flush child spans reproduce the paper's
// Table 2 latency breakdown.
//
// Usage: bench_table2_log_micro [ops]   (default 2000; CI runs it short)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "logstore/logstore.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/clock.h"

namespace vedb {
namespace {

struct MicroResult {
  double avg_latency_ms = 0;
  double iops = 0;
  double bandwidth_mb_s = 0;
  double p99_ms = 0;
  obs::Snapshot snapshot;
  // Only set for the AStore run: JSON object with the per-stage ns of one
  // traced log write, and the full span dump.
  std::string breakdown_json;
  std::string trace_json;
  uint64_t client_ns = 0;
  uint64_t total_ns = 0;
  uint64_t ring_doorbells = 0;
  uint64_t coalesced_appends = 0;
};

/// Extracts the Table 2 breakdown from a finished trace: the
/// astore.client.write span and its four breakdown.* children.
std::string BreakdownJson(const std::vector<obs::Span>& spans,
                          uint64_t* client_ns, uint64_t* total_ns) {
  const obs::Span* root = nullptr;
  for (const auto& s : spans) {
    if (s.name == "astore.client.write") {
      root = &s;
      break;
    }
  }
  if (root == nullptr) return "null";
  unsigned long long comp[4] = {0, 0, 0, 0};
  const char* names[4] = {"breakdown.client", "breakdown.network",
                          "breakdown.server", "breakdown.pmem_flush"};
  for (const auto& s : spans) {
    if (s.trace_id != root->trace_id || s.parent_id != root->id) continue;
    for (int i = 0; i < 4; ++i) {
      if (s.name == names[i]) comp[i] = s.duration();
    }
  }
  char buf[256];
  snprintf(buf, sizeof(buf),
           "{\"client_ns\":%llu,\"network_ns\":%llu,\"server_ns\":%llu,"
           "\"pmem_flush_ns\":%llu,\"total_ns\":%llu}",
           comp[0], comp[1], comp[2], comp[3],
           static_cast<unsigned long long>(root->duration()));
  *client_ns = comp[0];
  *total_ns = root->duration();
  return buf;
}

MicroResult RunLogMicro(bool use_astore, int ops) {
  workload::ClusterOptions opts = bench::MakeClusterOptions(use_astore, 0);
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();

  const std::string payload(4 * kKiB, 'L');
  const Timestamp t0 = cluster.env()->clock()->Now();
  for (int i = 0; i < ops; ++i) {
    auto r = cluster.log()->AppendBatch({payload});
    if (!r.ok()) {
      fprintf(stderr, "append failed: %s\n", r.status().ToString().c_str());
      break;
    }
  }
  const Duration elapsed = cluster.env()->clock()->Now() - t0;

  MicroResult result;
  result.snapshot = bench::CollectRunSnapshot(
      cluster.env(), use_astore ? "table2/pmem" : "table2/ssd");
  const auto* lat = result.snapshot.FindHistogram(
      "logstore.append_ns", {{"backend", use_astore ? "pmem" : "ssd"}});
  result.avg_latency_ms = bench::AvgMs(lat);
  result.p99_ms = bench::P99Ms(lat);
  result.iops = ops / (static_cast<double>(elapsed) / kSecond);
  result.bandwidth_mb_s = result.iops * 4096 / 1e6;

  if (use_astore) {
    // One more write with tracing on: the span tree is the paper's Table 2
    // latency breakdown. Tracing never advances the virtual clock, so this
    // does not perturb the measured run above (whose metrics were already
    // snapshotted), and the traced write's own metrics are discarded.
    obs::Tracer tracer(cluster.env()->clock());
    obs::Tracer::SetGlobal(&tracer);
    auto r = cluster.log()->AppendBatch({payload});
    obs::Tracer::SetGlobal(nullptr);
    if (r.ok()) {
      result.breakdown_json = BreakdownJson(
          tracer.FinishedSpans(), &result.client_ns, &result.total_ns);
      result.trace_json = tracer.ToJson();
    }
    if (const auto* db = result.snapshot.FindCounter("ring.doorbells")) {
      result.ring_doorbells = db->value;
    }
    if (const auto* co =
            result.snapshot.FindCounter("astore.client.coalesced_appends")) {
      result.coalesced_appends = co->value;
    }
    obs::MetricsRegistry::Default().ResetValues();
  }

  cluster.Shutdown();
  return result;
}

}  // namespace
}  // namespace vedb

int main(int argc, char** argv) {
  using namespace vedb;
  const int ops = bench::ArgInt(argc, argv, 2000);
  MicroResult ssd = RunLogMicro(/*use_astore=*/false, ops);
  MicroResult pmem = RunLogMicro(/*use_astore=*/true, ops);

  bench::PrintHeader(
      "Table II: log writing micro-benchmark (4KB, single thread)");
  bench::PrintRow({"", "Avg Write Lat (ms)", "Avg IOPS", "Avg BW (MB/s)",
                   "P99 Lat (ms)"},
                  20);
  bench::PrintRow({"W/O PMem", bench::Fmt("%.3f", ssd.avg_latency_ms),
                   bench::Fmt("%.0f", ssd.iops),
                   bench::Fmt("%.2f", ssd.bandwidth_mb_s),
                   bench::Fmt("%.3f", ssd.p99_ms)},
                  20);
  bench::PrintRow({"W/ PMem", bench::Fmt("%.3f", pmem.avg_latency_ms),
                   bench::Fmt("%.0f", pmem.iops),
                   bench::Fmt("%.2f", pmem.bandwidth_mb_s),
                   bench::Fmt("%.3f", pmem.p99_ms)},
                  20);
  printf("\nPaper reference: 0.638 -> 0.086 ms, 1527 -> 11465 IOPS, "
         "5.97 -> 44.79 MB/s (~7x).\n");
  printf("Improvement here: %.1fx latency, %.1fx IOPS, %.1fx bandwidth\n",
         ssd.avg_latency_ms / pmem.avg_latency_ms, pmem.iops / ssd.iops,
         pmem.bandwidth_mb_s / ssd.bandwidth_mb_s);
  printf("Traced AStore write breakdown: %s\n", pmem.breakdown_json.c_str());

  // Hot-path gate: before the packed-frame/doorbell rework the client stage
  // dominated the traced write at 724 per-mille of total
  // ({"client_ns":55300,...,"total_ns":76371}); the async ring must keep it
  // at or below 350 per-mille or this bench fails the run.
  const uint64_t client_share_pm =
      pmem.total_ns == 0 ? 1000 : pmem.client_ns * 1000 / pmem.total_ns;
  const bool breakdown_pass = client_share_pm <= 350;
  printf("client share: %llu/1000 of traced write (baseline 724, gate 350) "
         "-> %s\n",
         static_cast<unsigned long long>(client_share_pm),
         breakdown_pass ? "PASS" : "FAIL");
  printf("doorbells: %llu (%llu appends coalesced into multi-record "
         "doorbells)\n",
         static_cast<unsigned long long>(pmem.ring_doorbells),
         static_cast<unsigned long long>(pmem.coalesced_appends));

  Status wrote = bench::WriteBenchResults(
      "bench_table2_log_micro", "bench_table2_log_micro.json",
      {ssd.snapshot, pmem.snapshot},
      {"\"ops\":" + std::to_string(ops),
       "\"breakdown\":" +
           (pmem.breakdown_json.empty() ? "null" : pmem.breakdown_json),
       "\"client_share_pm\":" + std::to_string(client_share_pm),
       "\"breakdown_pass\":" + std::string(breakdown_pass ? "true" : "false"),
       "\"ring_doorbells\":" + std::to_string(pmem.ring_doorbells),
       "\"coalesced_appends\":" + std::to_string(pmem.coalesced_appends),
       "\"trace_spans\":" +
           (pmem.trace_json.empty() ? "[]" : pmem.trace_json)});
  if (!wrote.ok()) {
    fprintf(stderr, "results export failed: %s\n", wrote.ToString().c_str());
    return 1;
  }
  printf("metrics snapshot: results/bench_table2_log_micro.json\n");
  return breakdown_pass ? 0 : 2;
}
