// Ablation: push-down decision policies (Section VI-A calls the shipped
// row-count threshold temporary, naming cost-based optimization as future
// work — implemented here). Three policies over a mixed query set:
//   threshold — push everything above the row threshold (shipped heuristic)
//   always    — push every eligible fragment
//   cost      — residency-aware cost model (keeps buffer-pool-resident
//               tables local, pushes storage-heavy scans)
//
// Writes results/bench_ablation_costbased_pq.json: each policy's virtual ms
// per pass, each query's row count and answer digest (bench::Answer) under
// every policy, and one registry snapshot per policy. Exits 1 if any query
// run fails or if two policies return different answers to a query.

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

struct Rig {
  std::unique_ptr<workload::VedbCluster> cluster;
  std::unique_ptr<workload::TpccDatabase> db;
  std::unique_ptr<query::PushdownRuntime> pushdown;
};

Rig MakeRig() {
  Rig rig;
  workload::ClusterOptions opts = bench::MakeClusterOptions(true, 128 * kMiB);
  opts.engine.buffer_pool.capacity_pages = 160;
  rig.cluster = std::make_unique<workload::VedbCluster>(opts);
  std::vector<sim::SimNode*> ps_nodes;
  for (int i = 0; i < opts.pagestore_nodes; ++i) {
    ps_nodes.push_back(rig.cluster->env()->GetNode("ps-" +
                                                   std::to_string(i)));
  }
  rig.pushdown = std::make_unique<query::PushdownRuntime>(
      rig.cluster->env(), rig.cluster->rpc(), rig.cluster->pagestore(),
      ps_nodes, rig.cluster->astore_servers(),
      query::PushdownRuntime::Options{});
  rig.pushdown->AttachEbp(rig.cluster->ebp());
  rig.cluster->StartBackground();

  workload::TpccScale scale;
  scale.warehouses = 4;
  scale.customers_per_district = 60;
  scale.items = 400;
  scale.initial_orders_per_district = 30;
  rig.db = std::make_unique<workload::TpccDatabase>(rig.cluster->engine(),
                                                    scale, 8, true);
  Status s = rig.db->Load();
  if (!s.ok()) fprintf(stderr, "load: %s\n", s.ToString().c_str());
  return rig;
}

enum class Policy { kThreshold, kAlways, kCost };

// A mix of small-table-heavy and scan-heavy queries: Q2/Q16 (stock x
// item/supplier, mostly resident after warm-up) and Q1/Q6/Q22 (large
// scans). A good policy keeps the former local and pushes the latter.
constexpr int kQueries[] = {2, 16, 1, 6, 22};
constexpr int kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

/// Virtual ms per timed pass; `answers[i]` gets the last pass's answer to
/// kQueries[i]. Clears `*ok` when any query run, warm-up included, fails.
double RunQuerySet(Rig* rig, Policy policy, bench::Answer answers[],
                   bool* ok) {
  auto ctx_for = [&]() {
    query::ExecContext ctx;
    ctx.engine = rig->cluster->engine();
    ctx.pushdown = rig->pushdown.get();
    ctx.enable_pushdown = true;
    switch (policy) {
      case Policy::kThreshold:
        ctx.pushdown_row_threshold = 2000;
        break;
      case Policy::kAlways:
        ctx.pushdown_row_threshold = 1;
        break;
      case Policy::kCost:
        ctx.cost_based_pushdown = true;
        break;
    }
    return ctx;
  };
  // Warm-up pass, then two timed passes.
  for (int q : kQueries) {
    query::ExecContext ctx = ctx_for();
    *ok &= bench::QueryOk(
        q, workload::RunChQuery(q, rig->db.get(), &ctx, true).status());
  }
  const Timestamp t0 = rig->cluster->env()->clock()->Now();
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kNumQueries; ++i) {
      query::ExecContext ctx = ctx_for();
      auto rows = workload::RunChQuery(kQueries[i], rig->db.get(), &ctx, true);
      *ok &= bench::QueryOk(kQueries[i], rows.status());
      if (rows.ok()) answers[i] = bench::AnswerOf(*rows);
    }
  }
  return ToMillis(rig->cluster->env()->clock()->Now() - t0) / 2;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  Rig rig = MakeRig();
  bool ok = true;
  // Answers by policy, in the order below; one snapshot per policy.
  bench::Answer answers[3][kNumQueries];
  std::vector<obs::Snapshot> snapshots;
  sim::SimEnvironment* env = rig.cluster->env();
  const double threshold =
      RunQuerySet(&rig, Policy::kThreshold, answers[0], &ok);
  snapshots.push_back(bench::CollectRunSnapshot(env, "costbased/threshold"));
  const double always = RunQuerySet(&rig, Policy::kAlways, answers[1], &ok);
  snapshots.push_back(bench::CollectRunSnapshot(env, "costbased/always"));
  const double cost = RunQuerySet(&rig, Policy::kCost, answers[2], &ok);
  snapshots.push_back(bench::CollectRunSnapshot(env, "costbased/cost"));
  rig.cluster->Shutdown();
  if (!ok) {
    fprintf(stderr, "ablation: a query failed; no table reported\n");
    return 1;
  }
  bench::PrintHeader(
      "Ablation: push-down decision policy (mixed CH query set, total ms "
      "per pass)");
  bench::PrintRow({"policy", "total (ms)"}, 22);
  bench::PrintRow({"row threshold", bench::Fmt("%.1f", threshold)}, 22);
  bench::PrintRow({"always push", bench::Fmt("%.1f", always)}, 22);
  bench::PrintRow({"cost based", bench::Fmt("%.1f", cost)}, 22);
  printf("\nthe cost model keeps resident small-table scans local and "
         "pushes storage-heavy fragments (paper future work, implemented)\n");

  const std::vector<std::string> policies = {"threshold", "always", "cost"};
  std::string queries = "\"queries\":[";
  for (int i = 0; i < kNumQueries; ++i) {
    if (i > 0) queries += ",";
    queries += "{\"query\":" + std::to_string(kQueries[i]);
    for (int p = 0; p < 3; ++p) queries += answers[p][i].ToJson(policies[p]);
    queries += "}";
  }
  queries += "]";
  Status wrote = bench::WriteBenchResults(
      "bench_ablation_costbased_pq", "bench_ablation_costbased_pq.json",
      snapshots,
      {queries, bench::Fmt("\"threshold_ms\":%.17g", threshold),
       bench::Fmt("\"always_ms\":%.17g", always),
       bench::Fmt("\"cost_ms\":%.17g", cost)});
  if (!wrote.ok()) {
    fprintf(stderr, "results: %s\n", wrote.ToString().c_str());
    return 1;
  }
  bool agree = true;
  for (int i = 0; i < kNumQueries; ++i) {
    agree &= bench::AnswersAgree(
        "ablation", kQueries[i], policies,
        {answers[0][i], answers[1][i], answers[2][i]});
  }
  return agree ? 0 : 1;
}
