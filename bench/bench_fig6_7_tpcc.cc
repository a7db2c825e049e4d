// Figures 6 & 7 reproduction: TPC-C throughput and P95/P99 latency versus
// client count, with the SSD LogStore (stock veDB) and with AStore.
// Paper: peak 68,000 TPS without AStore (at 128 clients) vs ~90,000 TPS
// with AStore (at 64 clients), +30%; P95 latency reduced by up to 50%.
// Absolute numbers differ at simulation scale; who wins, the ~1.3x gap at
// the peak, and AStore peaking at a lower client count are the shape under
// test. (The sweep stops at 128 clients to keep single-core wall time
// reasonable; the paper's stock-veDB curve keeps growing to 512.)

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace vedb {
namespace {

struct Point {
  int clients;
  double tps;
  double p95_ms;
  double p99_ms;
};

std::vector<Point> RunSweep(bool use_astore,
                            const std::vector<int>& client_counts,
                            std::vector<obs::Snapshot>* snapshots) {
  std::vector<Point> points;
  for (int clients : client_counts) {
    workload::ClusterOptions opts =
        bench::MakeClusterOptions(use_astore, 0, /*seed=*/2023);
    workload::VedbCluster cluster(opts);
    cluster.StartBackground();

    workload::TpccScale scale;
    scale.warehouses = 24;  // enough warehouses that hot rows do not bind
    scale.customers_per_district = 30;
    scale.items = 300;
    scale.initial_orders_per_district = 10;
    workload::TpccDatabase db(cluster.engine(), scale, 7);
    Status load = db.Load();
    if (!load.ok()) {
      fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
      return points;
    }

    std::vector<std::unique_ptr<workload::TpccDriver>> drivers;
    for (int i = 0; i < clients; ++i) {
      drivers.push_back(
          std::make_unique<workload::TpccDriver>(&db, 1000 + i));
    }
    workload::LoadResult result = workload::RunClosedLoop(
        cluster.env(), clients, /*warmup=*/100 * kMillisecond,
        /*duration=*/600 * kMillisecond,
        [&](int c) { return drivers[c]->RunMixed(nullptr); });

    // Report latency from the registry (RunClosedLoop mirrors its run into
    // workload.txn_latency_ns), and keep the whole per-config snapshot for
    // the results/ export.
    obs::Snapshot snap = bench::CollectRunSnapshot(
        cluster.env(),
        std::string("tpcc/") + (use_astore ? "pmem" : "ssd") +
            "/clients=" + std::to_string(clients));
    const auto* lat = snap.FindHistogram("workload.txn_latency_ns");

    Point p;
    p.clients = clients;
    p.tps = result.Throughput();
    p.p95_ms = bench::P95Ms(lat);
    p.p99_ms = bench::P99Ms(lat);
    points.push_back(p);
    if (snapshots != nullptr) snapshots->push_back(std::move(snap));

    cluster.Shutdown();
  }
  return points;
}

}  // namespace
}  // namespace vedb

int main(int argc, char** argv) {
  using namespace vedb;
  // Optional CLI cap on the largest client count (CI smoke runs "8").
  const int max_clients = bench::ArgInt(argc, argv, 128);
  std::vector<int> clients;
  for (int c : {1, 4, 8, 16, 32, 64, 128}) {
    if (c <= max_clients) clients.push_back(c);
  }
  std::vector<obs::Snapshot> snapshots;
  auto stock = RunSweep(/*use_astore=*/false, clients, &snapshots);
  auto astore = RunSweep(/*use_astore=*/true, clients, &snapshots);

  bench::PrintHeader("Figure 6: TPC-C throughput (TPS) vs clients");
  bench::PrintRow({"clients", "veDB (SSD log)", "veDB+AStore", "speedup"});
  double peak_stock = 0, peak_astore = 0;
  for (size_t i = 0; i < stock.size(); ++i) {
    peak_stock = std::max(peak_stock, stock[i].tps);
    peak_astore = std::max(peak_astore, astore[i].tps);
    bench::PrintRow({std::to_string(stock[i].clients),
                     bench::Fmt("%.0f", stock[i].tps),
                     bench::Fmt("%.0f", astore[i].tps),
                     bench::Fmt("%.2fx", astore[i].tps / stock[i].tps)});
  }
  printf("peak: %.0f vs %.0f TPS (+%.0f%%; paper: 68k vs 90k, +30%%)\n",
         peak_stock, peak_astore, 100.0 * (peak_astore / peak_stock - 1));

  bench::PrintHeader("Figure 7: TPC-C P95/P99 latency (ms) vs clients");
  bench::PrintRow({"clients", "P95 SSD", "P95 AStore", "P99 SSD",
                   "P99 AStore"});
  for (size_t i = 0; i < stock.size(); ++i) {
    bench::PrintRow({std::to_string(stock[i].clients),
                     bench::Fmt("%.2f", stock[i].p95_ms),
                     bench::Fmt("%.2f", astore[i].p95_ms),
                     bench::Fmt("%.2f", stock[i].p99_ms),
                     bench::Fmt("%.2f", astore[i].p99_ms)});
  }
  printf("paper: P95 reduced by up to 50%% (most at 32 clients)\n");

  std::string sweep = "\"sweep\":[";
  for (size_t i = 0; i < stock.size(); ++i) {
    if (i > 0) sweep += ",";
    sweep += "{\"clients\":" + std::to_string(stock[i].clients) +
             ",\"tps_ssd\":" + bench::Fmt("%.0f", stock[i].tps) +
             ",\"tps_pmem\":" + bench::Fmt("%.0f", astore[i].tps) + "}";
  }
  sweep += "]";
  Status wrote = bench::WriteBenchResults("bench_fig6_7_tpcc",
                                          "bench_fig6_7_tpcc.json", snapshots,
                                          {sweep});
  if (!wrote.ok()) {
    fprintf(stderr, "results export failed: %s\n", wrote.ToString().c_str());
    return 1;
  }
  printf("metrics snapshot: results/bench_fig6_7_tpcc.json\n");
  return 0;
}
