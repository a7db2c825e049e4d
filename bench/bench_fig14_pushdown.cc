// Figure 14 reproduction: query push-down on the 22 TPC-CH analytical
// queries. Three configurations:
//   baseline        — no EBP, no push-down, default plans;
//   plan-change     — push-down-friendly plans but still executed locally
//                     (the paper's blue bars: isolates the optimizer's plan
//                     switch, e.g. Q13 NL join -> hash join);
//   PQ + EBP        — push-down-friendly plans with fragments executed on
//                     EBP hosts / PageStore (the paper's orange bars).
// Paper: Q1,6,11,13,15,20,22 gain 4x-24x; geomean over all 22 queries
// ~2.8x; vs the plan-change baseline, still ~2x.
//
// Writes results/bench_fig14_pushdown.json: each query's virtual ms, row
// count and answer digest (bench::Answer) in the three configurations plus
// the three geomeans. Exits 1 if any query run, warm-up included, fails, or
// if two configurations return different answers to a query.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "query/pushdown.h"
#include "workload/tpcc.h"
#include "workload/tpcch.h"

namespace vedb {
namespace {

struct Setup {
  std::unique_ptr<workload::VedbCluster> cluster;
  std::unique_ptr<workload::TpccDatabase> db;
  std::unique_ptr<query::PushdownRuntime> pushdown;
};

Setup MakeSetup(bool enable_ebp) {
  Setup s;
  workload::ClusterOptions opts =
      bench::MakeClusterOptions(true, enable_ebp ? 160 * kMiB : 0);
  opts.engine.buffer_pool.capacity_pages = 128;  // AP working sets exceed BP
  s.cluster = std::make_unique<workload::VedbCluster>(opts);
  std::vector<sim::SimNode*> ps_nodes;
  for (int i = 0; i < opts.pagestore_nodes; ++i) {
    ps_nodes.push_back(s.cluster->env()->GetNode("ps-" + std::to_string(i)));
  }
  s.pushdown = std::make_unique<query::PushdownRuntime>(
      s.cluster->env(), s.cluster->rpc(), s.cluster->pagestore(), ps_nodes,
      s.cluster->astore_servers(), query::PushdownRuntime::Options{});
  s.pushdown->AttachEbp(s.cluster->ebp());
  s.cluster->StartBackground();

  workload::TpccScale scale;
  scale.warehouses = 4;
  scale.customers_per_district = 80;
  scale.items = 500;
  scale.initial_orders_per_district = 40;
  s.db = std::make_unique<workload::TpccDatabase>(s.cluster->engine(), scale,
                                                  5, /*ch=*/true);
  Status load = s.db->Load();
  if (!load.ok()) fprintf(stderr, "load: %s\n", load.ToString().c_str());
  return s;
}

/// Virtual ms of one query: the mean of runs two and three, whose answer
/// is stored in `*answer`. Clears `*ok` when any run fails.
double TimeQuery(Setup* s, int q, bool friendly_plan, bool pushdown,
                 bench::Answer* answer, bool* ok) {
  query::ExecContext ctx;
  ctx.engine = s->cluster->engine();
  ctx.pushdown = s->pushdown.get();
  ctx.enable_pushdown = pushdown;
  ctx.pushdown_row_threshold = 500;
  // All queries run three times; the average of runs two and three is used
  // (the paper's procedure, minimizing cold-cache effects).
  *ok &= bench::QueryOk(
      q, workload::RunChQuery(q, s->db.get(), &ctx, friendly_plan).status());
  Duration total = 0;
  for (int run = 0; run < 2; ++run) {
    const Timestamp t0 = s->cluster->env()->clock()->Now();
    auto rows = workload::RunChQuery(q, s->db.get(), &ctx, friendly_plan);
    total += s->cluster->env()->clock()->Now() - t0;
    *ok &= bench::QueryOk(q, rows.status());
    if (rows.ok()) *answer = bench::AnswerOf(*rows);
  }
  return ToMillis(total / 2);
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;

  bool ok = true;
  std::vector<obs::Snapshot> snapshots;

  // Baseline + plan-change run on a cluster without EBP/PQ.
  Setup plain = MakeSetup(/*enable_ebp=*/false);
  double baseline[23], plan_change[23];
  bench::Answer baseline_answer[23], plan_change_answer[23], pushed_answer[23];
  for (int q = 1; q <= 22; ++q) {
    baseline[q] = TimeQuery(&plain, q, /*friendly=*/false, /*pq=*/false,
                            &baseline_answer[q], &ok);
    plan_change[q] = TimeQuery(&plain, q, /*friendly=*/true, /*pq=*/false,
                               &plan_change_answer[q], &ok);
  }
  snapshots.push_back(
      bench::CollectRunSnapshot(plain.cluster->env(), "fig14/local"));
  plain.cluster->Shutdown();

  // PQ+EBP run.
  Setup pq = MakeSetup(/*enable_ebp=*/true);
  double pushed[23];
  for (int q = 1; q <= 22; ++q) {
    pushed[q] = TimeQuery(&pq, q, /*friendly=*/true, /*pq=*/true,
                          &pushed_answer[q], &ok);
  }
  snapshots.push_back(
      bench::CollectRunSnapshot(pq.cluster->env(), "fig14/pq_ebp"));
  pq.cluster->Shutdown();
  if (!ok) {
    fprintf(stderr, "fig14: a query failed; no figure reported\n");
    return 1;
  }

  bench::PrintHeader(
      "Figure 14: push-down speedups on the 22 TPC-CH queries");
  bench::PrintRow({"query", "baseline ms", "PQ+EBP ms", "PQ speedup",
                   "plan-change only"},
                  16);
  double geo_pq = 1, geo_plan = 1, geo_vs_plan = 1;
  for (int q = 1; q <= 22; ++q) {
    const double s_pq = baseline[q] / pushed[q];
    const double s_plan = baseline[q] / plan_change[q];
    geo_pq *= s_pq;
    geo_plan *= s_plan;
    geo_vs_plan *= plan_change[q] / pushed[q];
    bench::PrintRow({"Q" + std::to_string(q), bench::Fmt("%.1f", baseline[q]),
                     bench::Fmt("%.1f", pushed[q]),
                     bench::Fmt("%.2fx", s_pq),
                     bench::Fmt("%.2fx", s_plan)},
                    16);
  }
  const double geomean_pq = std::pow(geo_pq, 1.0 / 22);
  const double geomean_plan = std::pow(geo_plan, 1.0 / 22);
  const double geomean_vs_plan = std::pow(geo_vs_plan, 1.0 / 22);
  printf("\ngeomean: PQ+EBP %.2fx over baseline (paper ~2.8x); "
         "plan-change alone %.2fx; PQ+EBP vs plan-change %.2fx "
         "(paper ~2x)\n",
         geomean_pq, geomean_plan, geomean_vs_plan);

  std::string queries = "\"queries\":[";
  for (int q = 1; q <= 22; ++q) {
    if (q > 1) queries += ",";
    queries += "{\"query\":" + std::to_string(q) +
               bench::Fmt(",\"baseline_ms\":%.17g", baseline[q]) +
               bench::Fmt(",\"plan_change_ms\":%.17g", plan_change[q]) +
               bench::Fmt(",\"pq_ebp_ms\":%.17g", pushed[q]) +
               baseline_answer[q].ToJson("baseline") +
               plan_change_answer[q].ToJson("plan_change") +
               pushed_answer[q].ToJson("pq_ebp") + "}";
  }
  queries += "]";
  Status wrote = bench::WriteBenchResults(
      "bench_fig14_pushdown", "bench_fig14_pushdown.json", snapshots,
      {queries, bench::Fmt("\"geomean_pq_speedup\":%.17g", geomean_pq),
       bench::Fmt("\"geomean_plan_change_speedup\":%.17g", geomean_plan),
       bench::Fmt("\"geomean_pq_vs_plan_change\":%.17g", geomean_vs_plan)});
  if (!wrote.ok()) {
    fprintf(stderr, "results: %s\n", wrote.ToString().c_str());
    return 1;
  }
  bool agree = true;
  for (int q = 1; q <= 22; ++q) {
    agree &= bench::AnswersAgree(
        "fig14", q, {"baseline", "plan-change", "PQ+EBP"},
        {baseline_answer[q], plan_change_answer[q], pushed_answer[q]});
  }
  return agree ? 0 : 1;
}
