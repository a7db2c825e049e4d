// Figure 8 reproduction: the internal batched order-processing workload.
// Paper: single insert reaches 10k+ TPS with 8 clients on AStore vs 3,339
// TPS without (>3x); the full order transaction reaches 10k TPS at 64
// clients with AStore but needs >512 clients without.
//
// Writes results/bench_fig8_order_processing.json (TPS per client count and
// log backend for both transaction shapes, plus a registry snapshot per
// run) and exits nonzero unless the single insert gains at least 3x from
// AStore at 8 clients.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/internal.h"

namespace vedb {
namespace {

double RunOrders(bool use_astore, int clients, bool single_insert,
                 std::vector<obs::Snapshot>* snapshots) {
  workload::ClusterOptions opts = bench::MakeClusterOptions(use_astore, 0);
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();

  workload::OrderProcessingWorkload::Options wopts;
  wopts.merchants = 8;  // hot rows: many clients per merchant
  wopts.orders_per_txn = 4;
  wopts.order_bytes = 2048;
  workload::OrderProcessingWorkload workload(cluster.engine(), wopts, 11);
  Status s = workload.Load();
  if (!s.ok()) {
    fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 0;
  }
  std::vector<Random> rngs;
  for (int i = 0; i < clients; ++i) rngs.emplace_back(500 + i);

  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), clients, 60 * kMillisecond, 300 * kMillisecond,
      [&](int c) {
        return single_insert ? workload.RunSingleInsert(&rngs[c])
                             : workload.RunOrderTransaction(&rngs[c]);
      });
  const double tps = result.Throughput();
  snapshots->push_back(bench::CollectRunSnapshot(
      cluster.env(), std::string("fig8/") +
                         (single_insert ? "insert" : "order") + "/" +
                         (use_astore ? "astore" : "ssd") + "/" +
                         std::to_string(clients)));
  cluster.Shutdown();
  return tps;
}

/// Runs one figure panel, printing its table; returns its JSON rows and,
/// if `first_speedup` is set, the AStore speedup at the first client count.
std::string RunPanel(bool single_insert, const std::vector<int>& clients,
                     std::vector<obs::Snapshot>* snapshots,
                     double* first_speedup) {
  bench::PrintRow({"clients", "veDB (SSD log)", "veDB+AStore", "speedup"});
  std::string rows = "[";
  for (int c : clients) {
    const double ssd = RunOrders(false, c, single_insert, snapshots);
    const double pmem = RunOrders(true, c, single_insert, snapshots);
    const double speedup = ssd > 0 ? pmem / ssd : 0;
    if (first_speedup != nullptr && c == clients.front()) {
      *first_speedup = speedup;
    }
    bench::PrintRow({std::to_string(c), bench::Fmt("%.0f", ssd),
                     bench::Fmt("%.0f", pmem),
                     bench::Fmt("%.2fx", speedup)});
    if (rows.size() > 1) rows += ",";
    rows += "{\"clients\":" + std::to_string(c) +
            bench::Fmt(",\"ssd_tps\":%.17g", ssd) +
            bench::Fmt(",\"astore_tps\":%.17g", pmem) + "}";
  }
  return rows + "]";
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  const std::vector<int> clients = {8, 16, 64};
  std::vector<obs::Snapshot> snapshots;

  bench::PrintHeader("Figure 8a: single INSERT (2KB rows), TPS vs clients");
  double insert_speedup = 0;
  const std::string insert_rows =
      RunPanel(/*single_insert=*/true, clients, &snapshots, &insert_speedup);
  printf("paper: with 8 clients, 3,339 TPS -> 10,000+ TPS (>3x)\n");

  bench::PrintHeader(
      "Figure 8b: order-processing transaction (hot-row update + batch "
      "insert), TPS vs clients");
  const std::string order_rows =
      RunPanel(/*single_insert=*/false, clients, &snapshots, nullptr);
  printf(
      "paper: AStore reaches the 10k TPS target with 64 clients; stock veDB "
      "needs >512\n");

  const bool verdict_pass = insert_speedup >= 3.0;
  printf("verdict: %s (single insert at %d clients gains %.2fx; paper >3x)\n",
         verdict_pass ? "PASS" : "FAIL", clients.front(), insert_speedup);

  Status wrote = bench::WriteBenchResults(
      "bench_fig8_order_processing", "bench_fig8_order_processing.json",
      snapshots,
      {"\"single_insert\":" + insert_rows, "\"order_txn\":" + order_rows,
       bench::Fmt("\"insert_speedup_8\":%.17g", insert_speedup),
       std::string("\"verdict_pass\":") + (verdict_pass ? "true" : "false")});
  if (!wrote.ok()) {
    fprintf(stderr, "results: %s\n", wrote.ToString().c_str());
    return 1;
  }
  return verdict_pass ? 0 : 1;
}
