// Figure 9 reproduction: the advertisement data library. The production
// workload is duplicated and driven against a stock veDB and a veDB with
// AStore; the paper reports ~20x lower average latency (most queries finish
// in ~5ms vs ~150ms P99 before) and worst case dropping from ~500ms to
// ~20ms.
//
// Writes results/bench_fig9_advertisement.json (avg/P99/max per log
// backend plus a registry snapshot per run) and exits nonzero unless
// AStore lowers the average, the P99 and the max.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/internal.h"

namespace vedb {
namespace {

struct AdResult {
  double avg_ms;
  double p99_ms;
  double max_ms;

  std::string ToJson() const {
    return bench::Fmt("{\"avg_ms\":%.17g", avg_ms) +
           bench::Fmt(",\"p99_ms\":%.17g", p99_ms) +
           bench::Fmt(",\"max_ms\":%.17g}", max_ms);
  }
};

AdResult RunAds(bool use_astore, std::vector<obs::Snapshot>* snapshots) {
  workload::ClusterOptions opts = bench::MakeClusterOptions(use_astore, 0);
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();

  workload::AdvertisementWorkload workload(
      cluster.engine(), workload::AdvertisementWorkload::Options{}, 31);
  Status s = workload.Load();
  if (!s.ok()) fprintf(stderr, "load: %s\n", s.ToString().c_str());

  const int kClients = 24;  // the latency-sensitive online path
  std::vector<Random> rngs;
  for (int i = 0; i < kClients; ++i) rngs.emplace_back(900 + i);

  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), kClients, 100 * kMillisecond, 800 * kMillisecond,
      [&](int c) { return workload.RunQuery(&rngs[c]); });

  AdResult out;
  out.avg_ms = result.latency.Average() / 1e6;
  out.p99_ms = result.latency.P99() / 1e6;
  out.max_ms = result.latency.max() / 1e6;
  snapshots->push_back(bench::CollectRunSnapshot(
      cluster.env(), use_astore ? "fig9/astore" : "fig9/stock"));
  cluster.Shutdown();
  return out;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  std::vector<obs::Snapshot> snapshots;
  AdResult stock = RunAds(false, &snapshots);
  AdResult astore = RunAds(true, &snapshots);

  bench::PrintHeader(
      "Figure 9: advertisement library latency (duplicated workload)");
  bench::PrintRow({"", "avg (ms)", "P99 (ms)", "max (ms)"});
  bench::PrintRow({"veDB (stock)", bench::Fmt("%.2f", stock.avg_ms),
                   bench::Fmt("%.2f", stock.p99_ms),
                   bench::Fmt("%.2f", stock.max_ms)});
  bench::PrintRow({"veDB+AStore", bench::Fmt("%.2f", astore.avg_ms),
                   bench::Fmt("%.2f", astore.p99_ms),
                   bench::Fmt("%.2f", astore.max_ms)});
  printf("\naverage speedup: %.1fx (paper: ~20x); worst case %.1fx "
         "(paper: ~500ms -> ~20ms)\n",
         stock.avg_ms / astore.avg_ms, stock.max_ms / astore.max_ms);

  const bool verdict_pass = astore.avg_ms < stock.avg_ms &&
                            astore.p99_ms < stock.p99_ms &&
                            astore.max_ms < stock.max_ms;
  printf("verdict: %s (AStore lowers avg, P99 and max)\n",
         verdict_pass ? "PASS" : "FAIL");
  Status wrote = bench::WriteBenchResults(
      "bench_fig9_advertisement", "bench_fig9_advertisement.json", snapshots,
      {"\"stock\":" + stock.ToJson(), "\"astore\":" + astore.ToJson(),
       std::string("\"verdict_pass\":") + (verdict_pass ? "true" : "false")});
  if (!wrote.ok()) {
    fprintf(stderr, "results: %s\n", wrote.ToString().c_str());
    return 1;
  }
  return verdict_pass ? 0 : 1;
}
