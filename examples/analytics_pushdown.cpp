// Analytics with the extended buffer pool and query push-down (paper
// Sections V-C and VI). Loads a CH-benCHmark dataset, then runs a few
// analytical queries three ways:
//   1. plain veDB (pages pulled through the buffer pool from PageStore),
//   2. with the EBP caching evicted pages on remote PMem,
//   3. with query push-down executing plan fragments on the storage nodes.
//
//   $ ./analytics_pushdown

#include <cstdio>
#include <memory>

#include "query/pushdown.h"
#include "workload/cluster.h"
#include "workload/tpcc.h"
#include "workload/tpcch.h"

using namespace vedb;

int main() {
  workload::ClusterOptions options;
  options.use_astore_log = true;
  options.enable_ebp = true;
  options.ebp.capacity = 128 * kMiB;
  options.engine.buffer_pool.capacity_pages = 128;  // AP sets exceed the BP
  workload::VedbCluster cluster(options);

  std::vector<sim::SimNode*> ps_nodes;
  for (int i = 0; i < options.pagestore_nodes; ++i) {
    ps_nodes.push_back(cluster.env()->GetNode("ps-" + std::to_string(i)));
  }
  query::PushdownRuntime pushdown(cluster.env(), cluster.rpc(),
                                  cluster.pagestore(), ps_nodes,
                                  cluster.astore_servers(),
                                  query::PushdownRuntime::Options{});
  pushdown.AttachEbp(cluster.ebp());

  cluster.StartBackground();

  workload::TpccScale scale;
  scale.warehouses = 4;
  scale.customers_per_district = 60;
  scale.items = 400;
  scale.initial_orders_per_district = 30;
  workload::TpccDatabase db(cluster.engine(), scale, 42, /*ch=*/true);
  Status s = db.Load();
  printf("CH dataset loaded (%s): %llu order lines\n", s.ToString().c_str(),
         (unsigned long long)db.orderline()->approximate_row_count());

  auto time_query = [&](int q, bool friendly, bool pq) {
    query::ExecContext ctx;
    ctx.engine = cluster.engine();
    ctx.pushdown = &pushdown;
    ctx.enable_pushdown = pq;
    ctx.pushdown_row_threshold = 500;
    // discard-ok: warm-up run before the timed pass.
    (void)workload::RunChQuery(q, &db, &ctx, friendly);
    const Timestamp t0 = cluster.env()->clock()->Now();
    auto rows = workload::RunChQuery(q, &db, &ctx, friendly);
    const double ms = ToMillis(cluster.env()->clock()->Now() - t0);
    printf("    Q%-2d %-28s %8.1f ms  (%zu rows, %llu pages from EBP)\n", q,
           pq ? "push-down + EBP" : (friendly ? "hash-join plan" : "default"),
           ms, rows.ok() ? rows->size() : 0,
           (unsigned long long)ctx.pushdown_pages_from_ebp);
    return ms;
  };

  for (int q : {1, 6, 13, 22}) {
    printf("query %d:\n", q);
    const double base = time_query(q, false, false);
    const double pushed = time_query(q, true, true);
    printf("    speedup: %.1fx\n\n", base / pushed);
  }

  cluster.Shutdown();
  return 0;
}
