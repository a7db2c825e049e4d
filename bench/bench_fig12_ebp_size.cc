// Figure 12 reproduction: the effect of EBP size on the internal operations
// database (huge table, PK lookups, ~95% buffer-pool hit rate). Paper: a
// modest 256GB EBP cuts average response time 45% and P99 >50%; each
// doubling helps about half as much as the previous one (diminishing
// returns once everything cacheable is cached).
//
// Writes results/bench_fig12_ebp_size.json (avg and P99 per EBP size plus a
// registry snapshot per configuration) and exits nonzero unless the curve
// has the paper's shape: the average never rises from one size to the
// next, and each step's reduction is no larger than the previous step's.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/internal.h"

namespace vedb {
namespace {

struct OpsResult {
  double avg_us = 0;
  double p99_us = 0;
  bool ok = true;
};

OpsResult RunOps(uint64_t ebp_capacity, const std::string& run_label,
                 std::vector<obs::Snapshot>* snapshots) {
  workload::ClusterOptions opts =
      bench::MakeClusterOptions(true, ebp_capacity);
  // BP holds a few percent of the table: the paper's ~95% hit regime comes
  // from the skewed key distribution over a small resident hot set.
  opts.engine.buffer_pool.capacity_pages = 96;
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();

  workload::OperationsWorkload::Options wopts;
  wopts.rows = 50000;
  wopts.row_bytes = 220;
  workload::OperationsWorkload workload(cluster.engine(), wopts, 21);
  OpsResult out;
  Status s = workload.Load();
  if (!s.ok()) {
    fprintf(stderr, "load: %s\n", s.ToString().c_str());
    out.ok = false;
  }

  const int kClients = 16;
  std::vector<Random> rngs;
  for (int i = 0; i < kClients; ++i) rngs.emplace_back(300 + i);

  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), kClients, 200 * kMillisecond, 800 * kMillisecond,
      [&](int c) { return workload.RunLookup(&rngs[c]); });

  out.avg_us = result.latency.Average() / 1e3;
  out.p99_us = result.latency.P99() / 1e3;
  snapshots->push_back(bench::CollectRunSnapshot(cluster.env(), run_label));
  cluster.Shutdown();
  return out;
}

/// The paper's diminishing-returns shape over `avg` (ordered by size).
bool ShapeHolds(const std::vector<double>& avg) {
  for (size_t i = 1; i < avg.size(); ++i) {
    if (avg[i] > avg[i - 1]) return false;
    if (i >= 2 && avg[i - 1] - avg[i] > avg[i - 2] - avg[i - 1]) return false;
  }
  return true;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  bench::PrintHeader(
      "Figure 12: operations DB latency vs EBP size (PK lookups)");
  bench::PrintRow({"EBP size", "avg (us)", "P99 (us)", "avg reduction"});
  std::vector<obs::Snapshot> snapshots;
  std::vector<double> avgs;
  std::string sizes = "\"sizes\":[";
  bool ok = true;
  OpsResult base;
  for (uint64_t mb : {0, 2, 4, 8, 32}) {
    const std::string name = mb == 0 ? "disabled" : std::to_string(mb) + "MiB";
    const OpsResult r = RunOps(mb * kMiB, "fig12/" + name, &snapshots);
    if (mb == 0) base = r;
    ok = ok && r.ok;
    avgs.push_back(r.avg_us);
    const std::string reduction =
        mb == 0 ? "-"
                : bench::Fmt("%.0f%%", 100.0 * (1 - r.avg_us / base.avg_us));
    bench::PrintRow({name, bench::Fmt("%.1f", r.avg_us),
                     bench::Fmt("%.1f", r.p99_us), reduction});
    if (mb != 0) sizes += ",";
    sizes += "{\"ebp_mib\":" + std::to_string(mb) +
             bench::Fmt(",\"avg_us\":%.17g", r.avg_us) +
             bench::Fmt(",\"p99_us\":%.17g", r.p99_us) + "}";
  }
  sizes += "]";
  const bool shape_pass = ShapeHolds(avgs);
  printf("\npaper: 256GB EBP -> avg -45%%, P99 -50%%; diminishing returns "
         "with each doubling\n");
  printf("shape: %s (avg never rises; each step's reduction <= the "
         "previous one's)\n",
         shape_pass ? "PASS" : "FAIL");

  Status wrote = bench::WriteBenchResults(
      "bench_fig12_ebp_size", "bench_fig12_ebp_size.json", snapshots,
      {sizes, std::string("\"shape_pass\":") +
                  (shape_pass ? "true" : "false")});
  if (!wrote.ok()) {
    fprintf(stderr, "results: %s\n", wrote.ToString().c_str());
    return 1;
  }
  if (!ok) {
    fprintf(stderr, "fig12: a table load failed\n");
    return 1;
  }
  return shape_pass ? 0 : 1;
}
