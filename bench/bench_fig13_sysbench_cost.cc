// Figure 13 / Table III reproduction: sysbench QPS improvement of
// veDB+AStore(+EBP) over stock veDB at roughly equal hardware cost. PMem
// costs about a third of DRAM per GB, so each configuration trades XGB of
// DRAM buffer pool for a 3XGB EBP. Paper: substantial gains below 64
// clients; the improvement shrinks as concurrency grows and vanishes by 256
// clients (EBP index lock contention + maintenance overheads).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "workload/driver.h"
#include "workload/internal.h"

namespace vedb {
namespace {

// Table III scaled: {stock BP pages, AStore BP pages, EBP bytes}. The
// DRAM reduction X (in pages) funds a 3X-page EBP.
struct Deployment {
  const char* name;
  size_t stock_bp_pages;
  size_t astore_bp_pages;
  uint64_t ebp_bytes;
};
const Deployment kDeployments[] = {
    {"32c/100G-like", 384, 160, 672ull * 16 * kKiB},
    {"16c/40G-like", 160, 80, 240ull * 16 * kKiB},
    {"8c/20G-like", 80, 40, 120ull * 16 * kKiB},
};

double RunSysbench(bool astore_with_ebp, const Deployment& dep,
                   int clients) {
  workload::ClusterOptions opts = bench::MakeClusterOptions(
      /*astore_log=*/astore_with_ebp, astore_with_ebp ? dep.ebp_bytes : 0);
  opts.engine.buffer_pool.capacity_pages =
      astore_with_ebp ? dep.astore_bp_pages : dep.stock_bp_pages;
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();

  workload::SysbenchWorkload::Options wopts;
  wopts.rows = 30000;
  workload::SysbenchWorkload workload(cluster.engine(), wopts, 13);
  Status s = workload.Load();
  if (!s.ok()) fprintf(stderr, "load: %s\n", s.ToString().c_str());

  std::vector<Random> rngs;
  for (int i = 0; i < clients; ++i) rngs.emplace_back(40 + i);
  std::atomic<uint64_t> queries{0};

  workload::LoadResult result = workload::RunClosedLoop(
      cluster.env(), clients, 100 * kMillisecond, 500 * kMillisecond,
      [&](int c) {
        int q = 0;
        Status st = workload.RunTransaction(&rngs[c], &q);
        if (st.ok()) queries.fetch_add(q);
        return st;
      });
  const double qps =
      static_cast<double>(queries.load()) /
      (static_cast<double>(result.elapsed) / kSecond);
  cluster.Shutdown();
  return qps;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  bench::PrintHeader(
      "Figure 13: sysbench QPS improvement at equal hardware cost "
      "(veDB+AStore+EBP vs stock veDB)");
  for (const auto& dep : kDeployments) {
    printf("\ndeployment %s (BP %zu -> %zu pages + EBP):\n", dep.name,
           dep.stock_bp_pages, dep.astore_bp_pages);
    bench::PrintRow({"clients", "stock QPS", "AStore+EBP QPS",
                     "improvement"});
    for (int clients : {8, 32, 96}) {
      const double stock = RunSysbench(false, dep, clients);
      const double astore = RunSysbench(true, dep, clients);
      bench::PrintRow(
          {std::to_string(clients), bench::Fmt("%.0f", stock),
           bench::Fmt("%.0f", astore),
           bench::Fmt("%+.0f%%", 100.0 * (astore / stock - 1))});
    }
  }
  printf("\npaper: large gains under 64 clients; improvement diminishes "
         "with concurrency (EBP index lock) and vanishes at 256\n");
  return 0;
}
