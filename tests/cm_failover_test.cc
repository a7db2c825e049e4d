// Deterministic failover suite for the replicated Cluster Manager: record
// replication keeps every member's route table byte-identical, the
// deterministic election promotes the lowest-id live standby, a
// partitioned-then-healed minority member is fenced by the term scheme,
// and Shutdown is idempotent and drains the health actor. Runs in the
// fault ctest group.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/cm_record.h"
#include "astore/server.h"
#include "common/coding.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::astore {
namespace {

// Three-member CM replication group plus a small data plane and one SDK
// client that knows every CM endpoint. Elections are driven from the test
// thread via TickForTest, so each scenario controls exactly when detection
// and promotion happen.
struct CmGroup {
  explicit CmGroup(uint64_t seed, int cm_count = 3, int num_servers = 3)
      : env(seed) {
    rpc = std::make_unique<net::RpcTransport>(&env);
    fabric = std::make_unique<net::RdmaFabric>(&env);

    std::vector<CmPeer> peers;
    for (int i = 0; i < cm_count; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 8;
      cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
      cm_nodes.push_back(env.AddNode("cm-" + std::to_string(i), cfg));
      ClusterManager::Options opts;
      opts.node_id = static_cast<uint32_t>(i);
      cms.push_back(std::make_unique<ClusterManager>(&env, rpc.get(),
                                                     cm_nodes.back(), opts));
      peers.push_back(CmPeer{static_cast<uint32_t>(i), cm_nodes.back()});
    }
    for (auto& cm : cms) cm->SetPeers(peers);

    for (int i = 0; i < num_servers; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
      sim::SimNode* node = env.AddNode("pmem-" + std::to_string(i), cfg);
      AStoreServer::Options opts;
      opts.pmem_capacity = 64 * kMiB;
      servers.push_back(std::make_unique<AStoreServer>(
          &env, rpc.get(), fabric.get(), node, opts));
      for (auto& cm : cms) cm->RegisterServer(servers.back().get());
    }

    sim::NodeConfig client_cfg;
    client_cfg.cpu_cores = 16;
    client_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    client_node = env.AddNode("dbe", client_cfg);
    client = std::make_unique<AStoreClient>(&env, rpc.get(), fabric.get(),
                                            cm_nodes.front(), client_node,
                                            /*client_id=*/1,
                                            AStoreClient::Options{});
    client->SetCmEndpoints(cm_nodes);
  }

  // Detection + election on one standby: first tick notices the leader is
  // gone, the second (past failure_timeout) runs the election.
  void DriveElection(ClusterManager* standby) {
    standby->TickForTest();
    env.clock()->SleepFor(ClusterManager::Options{}.failure_timeout +
                          10 * kMillisecond);
    standby->TickForTest();
  }

  sim::SimEnvironment env;
  std::unique_ptr<net::RpcTransport> rpc;
  std::unique_ptr<net::RdmaFabric> fabric;
  std::vector<sim::SimNode*> cm_nodes;
  std::vector<std::unique_ptr<ClusterManager>> cms;
  std::vector<std::unique_ptr<AStoreServer>> servers;
  sim::SimNode* client_node = nullptr;
  std::unique_ptr<AStoreClient> client;
};

uint64_t SumCounter(const std::string& want) {
  uint64_t total = 0;
  obs::MetricsRegistry::Default().VisitCounters(
      [&](const std::string& name, const obs::LabelSet&, uint64_t value) {
        if (name == want) total += value;
      });
  return total;
}

TEST(CmFailoverTest, ReplicationKeepsRouteTablesByteIdentical) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  CmGroup g(21);
  ASSERT_TRUE(g.client->Connect().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(g.client->CreateSegment(1 * kMiB, 3).ok());
  }
  ASSERT_TRUE(g.client->Delete(g.client->OpenSegment(2).value()).ok());

  // Record shipping is synchronous: the instant the primary answered, every
  // standby already holds the same table, byte for byte.
  const std::string canonical = g.cms[0]->DebugEncodeRoutes();
  EXPECT_FALSE(canonical.empty());
  EXPECT_EQ(g.cms[1]->DebugEncodeRoutes(), canonical);
  EXPECT_EQ(g.cms[2]->DebugEncodeRoutes(), canonical);
}

TEST(CmFailoverTest, ElectionPromotesLowestLiveStandbyAndReplaysRoutes) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  CmGroup g(22);
  ASSERT_TRUE(g.client->Connect().ok());
  auto created = g.client->CreateSegment(2 * kMiB, 3);
  ASSERT_TRUE(created.ok());
  const SegmentId seg_id = created.value()->id();
  const std::string routes_before = g.cms[0]->DebugEncodeRoutes();
  std::string route_before;
  EncodeSegmentRoute(&route_before, g.cms[0]->GetRoute(seg_id).value());

  g.cm_nodes[0]->SetAlive(false);
  g.DriveElection(g.cms[1].get());

  EXPECT_TRUE(g.cms[1]->IsPrimary());
  EXPECT_EQ(g.cms[1]->Term(), MakeTerm(2, 1));
  EXPECT_EQ(SumCounter("cm.failovers"), 1u);

  // The promoted standby serves the EXACT pre-crash table from its replica
  // log — GetRoute and the canonical encoding both match byte-for-byte.
  EXPECT_EQ(g.cms[1]->DebugEncodeRoutes(), routes_before);
  std::string route_after;
  EncodeSegmentRoute(&route_after, g.cms[1]->GetRoute(seg_id).value());
  EXPECT_EQ(route_after, route_before);

  // The other standby learns the new term from the primary's next ping,
  // resyncs, and converges on the same bytes.
  g.cms[1]->TickForTest();
  EXPECT_EQ(g.cms[2]->LeaderId(), 1u);
  g.cms[2]->TickForTest();
  EXPECT_EQ(g.cms[2]->DebugEncodeRoutes(), routes_before);

  // The client follows the failover without surfacing an error.
  EXPECT_TRUE(g.client->RenewLease().ok());
  EXPECT_TRUE(g.client->OpenSegment(seg_id).ok());
  EXPECT_GT(SumCounter("astore.client.cm_failovers"), 0u);
}

TEST(CmFailoverTest, HealedMinorityMemberIsFencedByTerm) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  CmGroup g(23);
  ASSERT_TRUE(g.client->Connect().ok());

  // Cut the primary off from the whole world; the lowest-id standby can
  // still reach a majority (itself + cm-2) and takes over.
  g.env.faults()->Partition({"cm-0"}, {"cm-1", "cm-2", "pmem-0", "pmem-1",
                                       "pmem-2", "dbe"});
  g.DriveElection(g.cms[1].get());
  ASSERT_TRUE(g.cms[1]->IsPrimary());
  const uint64_t new_term = g.cms[1]->Term();

  // The client rides the partition: its preferred endpoint is unreachable,
  // so it rotates to the new primary and records the highest term it saw.
  ASSERT_TRUE(g.client->RenewLease().ok());
  EXPECT_GT(SumCounter("astore.client.cm_failovers"), 0u);

  g.env.faults()->HealPartition();

  // Until its next peer ping the healed minority member still believes its
  // old term — and stamps it on responses, which is precisely what lets a
  // client reject them as stale.
  EXPECT_TRUE(g.cms[0]->IsPrimary());
  std::string req, resp;
  PutFixed64(&req, /*client_id=*/1);
  ASSERT_TRUE(g.rpc->Call(g.client_node, g.cm_nodes[0], "cm.lease",
                          Slice(req), &resp).ok());
  ASSERT_GE(resp.size(), 8u);
  const uint64_t stamped = DecodeFixed64(resp.data());
  EXPECT_LT(stamped, new_term);

  // One tick later it has pinged a peer, adopted the new term, and stepped
  // down: stale-term control RPCs are now rejected outright.
  g.cms[0]->TickForTest();
  EXPECT_FALSE(g.cms[0]->IsPrimary());
  EXPECT_EQ(g.cms[0]->LeaderId(), 1u);
  resp.clear();
  Status s = g.rpc->Call(g.client_node, g.cm_nodes[0], "cm.lease",
                         Slice(req), &resp);
  EXPECT_TRUE(s.IsStale()) << s.ToString();

  // No split brain: the two leases were granted in different terms.
  std::set<uint64_t> seen;
  for (auto& cm : g.cms) {
    for (uint64_t term : cm->GrantedTerms()) {
      EXPECT_TRUE(seen.insert(term).second)
          << "two members granted a lease in term " << term;
    }
  }
}

TEST(CmFailoverTest, ShutdownIsIdempotentAndDrainsHealthActor) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  CmGroup g(24);
  // Shutdown before StartBackground: nothing to drain, returns at once.
  g.cms[0]->Shutdown();

  {
    sim::ActorGroup group(g.env.clock());
    for (auto& cm : g.cms) cm->StartBackground();
    group.Spawn([&] {
      g.env.clock()->SleepFor(120 * kMillisecond);
      for (auto& cm : g.cms) cm->RequestShutdown();
      for (auto& cm : g.cms) cm->Shutdown();
      // Second call after the drain already completed: must return
      // immediately instead of waiting on an actor that is gone.
      for (auto& cm : g.cms) cm->Shutdown();
    });
  }
  // And once more from the test thread after the group joined.
  for (auto& cm : g.cms) cm->Shutdown();
}

}  // namespace
}  // namespace vedb::astore
