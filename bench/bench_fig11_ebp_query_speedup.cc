// Figure 11 reproduction: per-query speedup from the extended buffer pool
// on a subset of TPC-CH analytical queries, at two buffer-pool sizes.
// Paper (1000 warehouses; 16GB & 32GB BPs; 256GB EBP): query 7 gains >3x in
// both settings, query 16 barely changes (its working set fits the BP);
// others gain up to 3.5x. Each query runs once to warm up, then the average
// of three timed runs is reported.
//
// Writes results/bench_fig11_ebp_query_speedup.json: each query's virtual
// ms, row count and answer digest (bench::Answer) in the four
// configurations, both geomean speedups and one registry snapshot per
// configuration. Exits 1 if any query run, warm-up included, fails, or if
// two configurations return different answers to a query.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/tpcc.h"
#include "workload/tpcch.h"

namespace vedb {
namespace {

// Queries shown in the paper's Figure 11 selection (elapsed < 1000s there).
const int kQueries[] = {1, 4, 6, 7, 11, 12, 14, 16, 19, 22};

struct QueryTiming {
  double elapsed_ms[2];  // [bp_config] with EBP disabled
  double ebp_ms[2];      // [bp_config] with EBP enabled
};

/// Virtual ms of one query: the mean of three timed runs, whose answer is
/// stored in `*answer`. Clears `*ok` when any run fails.
double TimeQuery(workload::TpccDatabase* db, workload::VedbCluster* cluster,
                 int q, bench::Answer* answer, bool* ok) {
  query::ExecContext ctx;
  ctx.engine = cluster->engine();
  // Warm-up run, then three timed runs (paper's procedure).
  *ok &= bench::QueryOk(q, workload::RunChQuery(q, db, &ctx, false).status());
  Duration total = 0;
  for (int run = 0; run < 3; ++run) {
    const Timestamp t0 = cluster->env()->clock()->Now();
    auto rows = workload::RunChQuery(q, db, &ctx, false);
    total += cluster->env()->clock()->Now() - t0;
    *ok &= bench::QueryOk(q, rows.status());
    if (rows.ok()) *answer = bench::AnswerOf(*rows);
  }
  return ToMillis(total / 3);
}

void RunConfig(size_t bp_pages, bool enable_ebp, const std::string& label,
               double out_ms[], bench::Answer answers[],
               std::vector<obs::Snapshot>* snapshots, bool* ok) {
  workload::ClusterOptions opts =
      bench::MakeClusterOptions(true, enable_ebp ? 128 * kMiB : 0);
  opts.engine.buffer_pool.capacity_pages = bp_pages;
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();

  workload::TpccScale scale;
  scale.warehouses = 4;
  scale.customers_per_district = 80;
  scale.items = 500;
  scale.initial_orders_per_district = 60;
  workload::TpccDatabase db(cluster.engine(), scale, 9, /*ch=*/true);
  Status s = db.Load();
  if (!s.ok()) fprintf(stderr, "load: %s\n", s.ToString().c_str());

  int idx = 0;
  for (int q : kQueries) {
    out_ms[idx] = TimeQuery(&db, &cluster, q, &answers[idx], ok);
    idx++;
  }
  snapshots->push_back(bench::CollectRunSnapshot(cluster.env(), label));
  cluster.Shutdown();
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  const int kN = sizeof(kQueries) / sizeof(kQueries[0]);
  // Two BP sizes (the paper's 16GB and 32GB, scaled): small & medium.
  const size_t kBpSmall = 24, kBpMedium = 64;

  double base_small[kN], ebp_small[kN], base_medium[kN], ebp_medium[kN];
  // Answers by configuration, in the order above.
  bench::Answer answers[4][kN];
  bool ok = true;
  std::vector<obs::Snapshot> snapshots;
  RunConfig(kBpSmall, false, "fig11/small", base_small, answers[0],
            &snapshots, &ok);
  RunConfig(kBpSmall, true, "fig11/small_ebp", ebp_small, answers[1],
            &snapshots, &ok);
  RunConfig(kBpMedium, false, "fig11/medium", base_medium, answers[2],
            &snapshots, &ok);
  RunConfig(kBpMedium, true, "fig11/medium_ebp", ebp_medium, answers[3],
            &snapshots, &ok);
  if (!ok) {
    fprintf(stderr, "fig11: a query failed; no figure reported\n");
    return 1;
  }

  bench::PrintHeader(
      "Figure 11: EBP speedup on TPC-CH queries (elapsed no-EBP / EBP)");
  bench::PrintRow({"query", "BP=small", "BP=medium", "no-EBP ms (small)",
                   "EBP ms (small)"},
                  18);
  double geo_small = 1, geo_medium = 1;
  for (int i = 0; i < kN; ++i) {
    const double s_small = base_small[i] / ebp_small[i];
    const double s_medium = base_medium[i] / ebp_medium[i];
    geo_small *= s_small;
    geo_medium *= s_medium;
    bench::PrintRow({"Q" + std::to_string(kQueries[i]),
                     bench::Fmt("%.2fx", s_small),
                     bench::Fmt("%.2fx", s_medium),
                     bench::Fmt("%.1f", base_small[i]),
                     bench::Fmt("%.1f", ebp_small[i])},
                    18);
  }
  const double geomean_small = std::pow(geo_small, 1.0 / kN);
  const double geomean_medium = std::pow(geo_medium, 1.0 / kN);
  printf("\ngeomean speedup (small BP): %.2fx\n", geomean_small);
  printf("paper: Q7 >3x in both settings; Q16 ~1x (working set fits BP); "
         "up to 3.5x elsewhere\n");

  std::string queries = "\"queries\":[";
  for (int i = 0; i < kN; ++i) {
    if (i > 0) queries += ",";
    queries += "{\"query\":" + std::to_string(kQueries[i]) +
               bench::Fmt(",\"no_ebp_small_ms\":%.17g", base_small[i]) +
               bench::Fmt(",\"ebp_small_ms\":%.17g", ebp_small[i]) +
               bench::Fmt(",\"no_ebp_medium_ms\":%.17g", base_medium[i]) +
               bench::Fmt(",\"ebp_medium_ms\":%.17g", ebp_medium[i]) +
               answers[0][i].ToJson("no_ebp_small") +
               answers[1][i].ToJson("ebp_small") +
               answers[2][i].ToJson("no_ebp_medium") +
               answers[3][i].ToJson("ebp_medium") + "}";
  }
  queries += "]";
  Status wrote = bench::WriteBenchResults(
      "bench_fig11_ebp_query_speedup", "bench_fig11_ebp_query_speedup.json",
      snapshots,
      {queries,
       bench::Fmt("\"geomean_speedup_small\":%.17g", geomean_small),
       bench::Fmt("\"geomean_speedup_medium\":%.17g", geomean_medium)});
  if (!wrote.ok()) {
    fprintf(stderr, "results: %s\n", wrote.ToString().c_str());
    return 1;
  }
  bool agree = true;
  for (int i = 0; i < kN; ++i) {
    agree &= bench::AnswersAgree(
        "fig11", kQueries[i],
        {"small", "small_ebp", "medium", "medium_ebp"},
        {answers[0][i], answers[1][i], answers[2][i], answers[3][i]});
  }
  return agree ? 0 : 1;
}
