#include "workload/chaos.h"

#include <memory>
#include <set>
#include <vector>

#include "astore/server.h"
#include "common/logging.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/env.h"
#include "workload/driver.h"

namespace vedb::workload {

namespace {

uint64_t SumCounter(const std::string& want) {
  uint64_t total = 0;
  obs::MetricsRegistry::Default().VisitCounters(
      [&](const std::string& name, const obs::LabelSet&, uint64_t value) {
        if (name == want) total += value;
      });
  return total;
}

}  // namespace

ChaosCampaignResult RunCmFailoverChaos(const ChaosCampaignOptions& options) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  ChaosCampaignResult out;

  sim::SimEnvironment env(options.seed);
  auto rpc = std::make_unique<net::RpcTransport>(&env);
  auto fabric = std::make_unique<net::RdmaFabric>(&env);

  // CM replication group on cm-0..cm-N-1 (cm-0 the initial primary).
  const int cm_count = options.cm_replicas < 2 ? 2 : options.cm_replicas;
  std::vector<sim::SimNode*> cm_nodes;
  std::vector<std::unique_ptr<astore::ClusterManager>> cms;
  for (int i = 0; i < cm_count; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = 8;
    cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    cm_nodes.push_back(env.AddNode("cm-" + std::to_string(i), cfg));
    astore::ClusterManager::Options cm_opts = options.cluster_manager;
    cm_opts.node_id = static_cast<uint32_t>(i);
    cms.push_back(std::make_unique<astore::ClusterManager>(
        &env, rpc.get(), cm_nodes.back(), cm_opts));
  }
  std::vector<astore::CmPeer> peers;
  for (int i = 0; i < cm_count; ++i) {
    peers.push_back(astore::CmPeer{static_cast<uint32_t>(i), cm_nodes[i]});
  }
  for (auto& cm : cms) cm->SetPeers(peers);

  // PMem data plane — untouched by the campaign script, so every surfaced
  // error would be a control-plane failure leaking through the SDK.
  std::vector<std::unique_ptr<astore::AStoreServer>> servers;
  std::vector<std::string> majority_side;  // everyone except the last CM
  for (int i = 0; i < options.astore_nodes; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = 32;
    cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
    sim::SimNode* node = env.AddNode("pmem-" + std::to_string(i), cfg);
    servers.push_back(std::make_unique<astore::AStoreServer>(
        &env, rpc.get(), fabric.get(), node, astore::AStoreServer::Options{}));
    for (auto& cm : cms) cm->RegisterServer(servers.back().get());
    majority_side.push_back(node->name());
  }

  sim::NodeConfig client_cfg;
  client_cfg.cpu_cores = 16;
  client_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  sim::SimNode* client_node = env.AddNode("dbe", client_cfg);
  majority_side.push_back(client_node->name());
  for (int i = 0; i + 1 < cm_count; ++i) {
    majority_side.push_back(cm_nodes[i]->name());
  }
  const std::vector<std::string> minority_side = {cm_nodes.back()->name()};

  auto client = std::make_unique<astore::AStoreClient>(
      &env, rpc.get(), fabric.get(), cm_nodes.front(), client_node,
      /*client_id=*/1, options.client);
  client->SetCmEndpoints(cm_nodes);

  VEDB_CHECK(client->Connect().ok(), "chaos campaign: connect failed");
  std::vector<astore::SegmentHandlePtr> segs;
  for (int i = 0; i < options.clients; ++i) {
    auto res = client->CreateSegment(options.segment_size,
                                     options.replication);
    VEDB_CHECK(res.ok(), "chaos campaign: create failed: %s",
               res.status().ToString().c_str());
    segs.push_back(res.value());
  }

  {
    sim::ActorGroup background(env.clock());
    for (auto& cm : cms) cm->StartBackground();
    client->StartBackground(&background);

    // The campaign script. Absolute virtual timestamps keep the fault
    // schedule independent of how long setup took.
    background.Spawn([&] {
      env.clock()->SleepUntil(options.kill_primary_at);
      cm_nodes.front()->SetAlive(false);
      env.clock()->SleepUntil(options.partition_at);
      env.faults()->Partition(minority_side, majority_side);
      env.clock()->SleepUntil(options.heal_at);
      env.faults()->HealPartition();
      env.clock()->SleepUntil(options.revive_primary_at);
      // The revived ex-primary still believes its old term; its first
      // peer ping must demote it before it can act on stale state.
      cm_nodes.front()->SetAlive(true);
    });
    // Stop every background loop at a FIXED virtual time past the
    // workload's end, from inside the actor schedule (see the crash
    // workload in astore_retry_test.cc for why shutting down from the
    // test thread would make the snapshot nondeterministic).
    background.Spawn([&] {
      env.clock()->SleepUntil(options.shutdown_at);
      // Flag EVERY loop first, then drain: each drain is a real-time wait,
      // and an unflagged health loop free-running through one would take a
      // wall-clock-dependent number of extra ticks.
      client->Shutdown();
      for (auto& cm : cms) cm->RequestShutdown();
      for (auto& cm : cms) cm->Shutdown();
    });

    const std::string payload(options.payload_bytes, 'w');
    LoadResult result = RunClosedLoop(
        &env, options.clients, options.warmup, options.duration,
        [&](int worker) {
          return client->Append(segs[worker], Slice(payload), nullptr);
        });
    out.operations = result.operations;
    out.errors = result.errors;
  }

  out.retries = SumCounter("astore.client.retries");
  out.failovers = SumCounter("cm.failovers");
  out.client_cm_failovers = SumCounter("astore.client.cm_failovers");
  out.lease_renew_failures = SumCounter("astore.client.lease_renew_failures");

  // Split-brain oracle: every term in which ANY member granted a lease must
  // belong to exactly one member.
  std::set<uint64_t> seen;
  for (auto& cm : cms) {
    for (uint64_t term : cm->GrantedTerms()) {
      if (!seen.insert(term).second) out.double_grant = true;
    }
  }
  for (auto& cm : cms) {
    if (cm->IsPrimary()) {
      out.final_primary = cm->node()->name();
      out.final_term = cm->Term();
    }
  }

  out.snapshot_json =
      obs::CollectSnapshot(obs::MetricsRegistry::Default(),
                           env.clock()->Now(), "cm_failover_chaos")
          .ToJson();
  return out;
}

}  // namespace vedb::workload
