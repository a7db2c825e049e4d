// Figure 10 reproduction: impact of analytical (AP) query streams on TPC-CH
// transaction throughput, with and without the extended buffer pool.
// Paper (1000 warehouses, 32 TP clients): one AP stream costs ~5% TP
// throughput, eight AP streams ~30%; enabling the EBP consistently recovers
// throughput.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/tpcch.h"

namespace vedb {
namespace {

double RunMixedLoad(bool enable_ebp, int ap_clients) {
  workload::ClusterOptions opts =
      bench::MakeClusterOptions(true, enable_ebp ? 96 * kMiB : 0);
  // A buffer pool small enough that AP scans evict the TP working set.
  opts.engine.buffer_pool.capacity_pages = 64;
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();

  workload::TpccScale scale;
  scale.warehouses = 4;
  scale.customers_per_district = 60;
  scale.items = 400;
  scale.initial_orders_per_district = 60;
  workload::TpccDatabase db(cluster.engine(), scale, 3, /*ch=*/true);
  Status s = db.Load();
  if (!s.ok()) fprintf(stderr, "load: %s\n", s.ToString().c_str());

  const int kTpClients = 16;
  std::vector<std::unique_ptr<workload::TpccDriver>> drivers;
  for (int i = 0; i < kTpClients; ++i) {
    drivers.push_back(std::make_unique<workload::TpccDriver>(&db, 70 + i));
  }
  std::vector<Random> ap_rngs;
  for (int i = 0; i < ap_clients; ++i) ap_rngs.emplace_back(7000 + i);

  // TP clients and AP streams run together; only TP operations count
  // toward throughput.
  std::atomic<uint64_t> ap_ops{0};
  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), kTpClients + ap_clients, 100 * kMillisecond,
      600 * kMillisecond, [&](int c) -> Status {
        if (c < kTpClients) {
          return drivers[c]->RunMixed(nullptr);
        }
        // An AP stream: CH queries back to back (no push-down here; Figure
        // 10 isolates the EBP effect).
        query::ExecContext ctx;
        ctx.engine = cluster.engine();
        const int q = 1 + static_cast<int>(
                              ap_rngs[c - kTpClients].Uniform(22));
        Status s = workload::RunChQuery(q, &db, &ctx, false).status();
        if (s.ok()) ap_ops.fetch_add(1);
        return s;
      });
  const double tps =
      static_cast<double>(result.operations - ap_ops.load()) /
      (static_cast<double>(result.elapsed) / kSecond);
  cluster.Shutdown();
  return tps;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  bench::PrintHeader(
      "Figure 10: TP throughput under AP streams (TPC-CH), EBP off/on");
  bench::PrintRow({"AP streams", "TP tps (no EBP)", "TP tps (EBP)",
                   "EBP gain"});
  double base_no_ebp = 0;
  for (int ap : {0, 1, 8}) {
    const double no_ebp = RunMixedLoad(false, ap);
    const double with_ebp = RunMixedLoad(true, ap);
    if (ap == 0) base_no_ebp = no_ebp;
    bench::PrintRow({std::to_string(ap), bench::Fmt("%.0f", no_ebp),
                     bench::Fmt("%.0f", with_ebp),
                     bench::Fmt("%+.0f%%", 100.0 * (with_ebp / no_ebp - 1))});
    if (ap > 0 && base_no_ebp > 0) {
      printf("  TP loss vs 0 AP streams (no EBP): %.0f%%  (paper: 1 AP ~5%%, "
             "8 AP ~30%%)\n",
             100.0 * (1 - no_ebp / base_no_ebp));
    }
  }
  return 0;
}
