// Ablation: EBP capacity policies (Sections V-C, VI-B). Under the flat
// policy every evicted page competes equally, so a churning workload evicts
// the pages consecutive push-down queries need; the priority policy
// reserves high-priority space for the push-down tables. Also sweeps the
// LRU shard count, whose lock the paper blames for high-concurrency
// degradation.
//
// Writes results/bench_ablation_ebp_policy.json (one registry snapshot per
// run, the flat and priority hot-table hit rates) and exits 1 unless the
// priority policy's hit rate beats the flat one's.

#include <cstdio>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "bench/bench_util.h"
#include "ebp/ebp.h"
#include "sim/clock.h"

namespace vedb {
namespace {

// Harness: an EBP over a 3-node AStore, driven directly (no engine), so the
// policy effect is isolated.
struct EbpRig {
  sim::SimEnvironment env{123};
  std::unique_ptr<net::RpcTransport> rpc;
  std::unique_ptr<net::RdmaFabric> fabric;
  sim::SimNode* cm_node;
  std::unique_ptr<astore::ClusterManager> cm;
  std::vector<std::unique_ptr<astore::AStoreServer>> servers;
  std::unique_ptr<astore::AStoreClient> client;
  std::unique_ptr<ebp::ExtendedBufferPool> pool;

  explicit EbpRig(const ebp::ExtendedBufferPool::Options& opts) {
    rpc = std::make_unique<net::RpcTransport>(&env);
    fabric = std::make_unique<net::RdmaFabric>(&env);
    sim::NodeConfig cm_cfg;
    cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    cm_node = env.AddNode("cm", cm_cfg);
    cm = std::make_unique<astore::ClusterManager>(
        &env, rpc.get(), cm_node, astore::ClusterManager::Options{});
    for (int i = 0; i < 3; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
      astore::AStoreServer::Options sopts;
      sopts.pmem_capacity = 128 * kMiB;
      servers.push_back(std::make_unique<astore::AStoreServer>(
          &env, rpc.get(), fabric.get(),
          env.AddNode("pmem-" + std::to_string(i), cfg), sopts));
      cm->RegisterServer(servers.back().get());
    }
    sim::NodeConfig dbe_cfg;
    dbe_cfg.cpu_cores = 20;
    dbe_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    client = std::make_unique<astore::AStoreClient>(
        &env, rpc.get(), fabric.get(), cm_node, env.AddNode("dbe", dbe_cfg),
        1, astore::AStoreClient::Options{});
    // discard-ok: the sim CM is always reachable during setup.
    (void)client->Connect();
    pool = std::make_unique<ebp::ExtendedBufferPool>(&env, client.get(),
                                                     opts);
  }
};

/// Simulates consecutive push-down queries over a hot table (pages 0..N)
/// while an OLTP churn keeps evicting pages of other tables into the EBP.
/// Returns the hit rate the "queries" see on the hot table, and appends the
/// run's registry snapshot, labelled `run_label`, to `snapshots`.
double RunPolicy(ebp::ExtendedBufferPool::Policy policy, int lru_shards,
                 const std::string& run_label,
                 std::vector<obs::Snapshot>* snapshots) {
  ebp::ExtendedBufferPool::Options opts;
  opts.capacity = 4 * kMiB;  // ~250 pages
  opts.policy = policy;
  opts.lru_shards = lru_shards;
  EbpRig rig(opts);

  const std::string hot_image(16 * kKiB, 'H');
  const std::string churn_image(16 * kKiB, 'c');
  const int kHotPages = 60;

  // The push-down table's pages are cached at high priority.
  for (int p = 0; p < kHotPages; ++p) {
    // discard-ok: cache warm-up; a failed put only skews the baseline.
    (void)rig.pool->PutPage(1000000 + p, 1, Slice(hot_image), /*priority=*/3);
  }
  uint64_t hits = 0, probes = 0;
  Random rng(9);
  for (int round = 0; round < 20; ++round) {
    // OLTP churn: low-priority evictions flood the EBP.
    for (int i = 0; i < 40; ++i) {
      // discard-ok: churn traffic; NoSpace is the expected steady state.
      (void)rig.pool->PutPage(rng.Uniform(100000), 1, Slice(churn_image),
                              /*priority=*/0);
    }
    // The next push-down query probes the hot table.
    for (int p = 0; p < kHotPages; ++p) {
      std::string image;
      probes++;
      if (rig.pool->GetPage(1000000 + p, &image, nullptr).ok()) hits++;
    }
  }
  snapshots->push_back(bench::CollectRunSnapshot(&rig.env, run_label));
  return 100.0 * hits / probes;
}

}  // namespace
}  // namespace vedb

int main() {
  using namespace vedb;
  bench::PrintHeader(
      "Ablation: EBP policy under OLTP churn + consecutive push-down "
      "queries");
  bench::PrintRow({"policy", "hot-table hit rate"}, 24);
  std::vector<obs::Snapshot> snapshots;
  const double flat = RunPolicy(ebp::ExtendedBufferPool::Policy::kFlat, 8,
                                "ebp_policy/flat", &snapshots);
  const double prio = RunPolicy(ebp::ExtendedBufferPool::Policy::kPriority,
                                8, "ebp_policy/priority", &snapshots);
  bench::PrintRow({"flat", bench::Fmt("%.1f%%", flat)}, 24);
  bench::PrintRow({"priority", bench::Fmt("%.1f%%", prio)}, 24);
  printf("\npaper: \"the priority strategy is better for supporting "
         "push-down queries\" — flat lets churn evict the warm pages\n");

  bench::PrintHeader("Ablation: EBP LRU shard count (index contention)");
  bench::PrintRow({"shards", "hot hit rate (sanity)"}, 24);
  for (int shards : {1, 2, 8, 32}) {
    bench::PrintRow(
        {std::to_string(shards),
         bench::Fmt("%.1f%%",
                    RunPolicy(ebp::ExtendedBufferPool::Policy::kPriority,
                              shards, "ebp_shards/" + std::to_string(shards),
                              &snapshots))},
        24);
  }

  const bool shape_pass = prio > flat;
  Status wrote = bench::WriteBenchResults(
      "bench_ablation_ebp_policy", "bench_ablation_ebp_policy.json",
      snapshots,
      {bench::Fmt("\"flat_hit_pct\":%.17g", flat),
       bench::Fmt("\"priority_hit_pct\":%.17g", prio),
       std::string("\"shape_pass\":") + (shape_pass ? "true" : "false")});
  if (!wrote.ok()) {
    fprintf(stderr, "results: %s\n", wrote.ToString().c_str());
    return 1;
  }
  if (!shape_pass) {
    fprintf(stderr, "ebp policy: priority %.1f%% does not beat flat %.1f%%\n",
            prio, flat);
    return 1;
  }
  return 0;
}
