// Order processing: the business scenario that motivated AStore (paper
// Section VII-A). A vendor's orders are batched into one transaction that
// updates the vendor's hot balance row and inserts ~2KB-wide order rows.
// The example runs the same workload against a stock veDB (SSD LogStore)
// and a veDB with AStore, and prints the latency/throughput difference.
//
//   $ ./order_processing

#include <cstdio>
#include <vector>

#include "workload/cluster.h"
#include "workload/driver.h"
#include "workload/internal.h"

using namespace vedb;

namespace {
workload::LoadResult RunDeployment(bool use_astore, int clients) {
  workload::ClusterOptions options;
  options.use_astore_log = use_astore;
  workload::VedbCluster cluster(options);
  cluster.StartBackground();

  workload::OrderProcessingWorkload::Options wopts;
  wopts.merchants = 8;
  wopts.orders_per_txn = 4;
  wopts.order_bytes = 2048;
  workload::OrderProcessingWorkload workload(cluster.engine(), wopts, 1);
  // discard-ok: demo setup; failures surface in the printed throughput.
  (void)workload.Load();

  std::vector<Random> rngs;
  for (int i = 0; i < clients; ++i) rngs.emplace_back(100 + i);
  auto result = workload::RunClosedLoop(
      cluster.env(), clients, 100 * kMillisecond, 400 * kMillisecond,
      [&](int c) { return workload.RunOrderTransaction(&rngs[c]); });
  cluster.Shutdown();
  return result;
}
}  // namespace

int main() {
  const int kClients = 32;
  printf("order processing, %d clients, hot vendor balances + 2KB order "
         "rows\n\n",
         kClients);
  auto stock = RunDeployment(/*use_astore=*/false, kClients);
  auto astore = RunDeployment(/*use_astore=*/true, kClients);

  printf("%-22s %12s %12s %12s\n", "", "TPS", "avg ms", "p99 ms");
  printf("%-22s %12.0f %12.2f %12.2f\n", "veDB (SSD log)", stock.Throughput(),
         stock.latency.Average() / 1e6, stock.latency.P99() / 1e6);
  printf("%-22s %12.0f %12.2f %12.2f\n", "veDB + AStore",
         astore.Throughput(), astore.latency.Average() / 1e6,
         astore.latency.P99() / 1e6);
  printf("\nthroughput gain: %.1fx  (the paper's customer needed 10k+ TPS; "
         "AStore reached it with 64 clients, stock veDB needed >512)\n",
         astore.Throughput() / stock.Throughput());
  return 0;
}
