// Deterministic fault-injection suite for the AStore client's transparent
// recovery layer (retry/backoff/deadline + the un-freeze protocol). Every
// scenario runs on the virtual clock with seeded randomness, so failures
// reproduce bit-for-bit.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/env.h"
#include "workload/driver.h"

namespace vedb::astore {
namespace {

// Self-contained cluster so a test (or one acceptance run) can build the
// exact same seeded world twice in one process.
struct MiniCluster {
  explicit MiniCluster(uint64_t seed, int num_servers = 4) : env(seed) {
    rpc = std::make_unique<net::RpcTransport>(&env);
    fabric = std::make_unique<net::RdmaFabric>(&env);

    sim::NodeConfig cm_cfg;
    cm_cfg.cpu_cores = 8;
    cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    cm_node = env.AddNode("cm", cm_cfg);
    cm = std::make_unique<ClusterManager>(&env, rpc.get(), cm_node,
                                          ClusterManager::Options{});

    for (int i = 0; i < num_servers; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
      sim::SimNode* node = env.AddNode("astore-" + std::to_string(i), cfg);
      AStoreServer::Options opts;
      opts.pmem_capacity = 64 * kMiB;
      servers.push_back(std::make_unique<AStoreServer>(
          &env, rpc.get(), fabric.get(), node, opts));
      cm->RegisterServer(servers.back().get());
    }

    sim::NodeConfig client_cfg;
    client_cfg.cpu_cores = 16;
    client_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    client_node = env.AddNode("dbe", client_cfg);
    client = std::make_unique<AStoreClient>(&env, rpc.get(), fabric.get(),
                                            cm_node, client_node,
                                            /*client_id=*/1,
                                            AStoreClient::Options{});
  }

  sim::SimEnvironment env;
  std::unique_ptr<net::RpcTransport> rpc;
  std::unique_ptr<net::RdmaFabric> fabric;
  sim::SimNode* cm_node = nullptr;
  sim::SimNode* client_node = nullptr;
  std::unique_ptr<ClusterManager> cm;
  std::vector<std::unique_ptr<AStoreServer>> servers;
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

TEST(AStoreRetryTest, InjectedWriteFaultIsRetriedAndUnfrozen) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(11);
  ASSERT_TRUE(c.client->Connect().ok());
  auto res = c.client->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();

  // The first fan-out fails (freezing the segment); the owning writer's
  // retry repairs its reserved range and lifts the freeze.
  c.env.faults()->Arm("astore.client.write", 1.0,
                      Status::IOError("injected fan-out fault"),
                      /*remaining=*/1);
  uint64_t off = 0;
  ASSERT_TRUE(c.client->Append(seg, Slice("healed"), &off).ok());
  EXPECT_FALSE(seg->frozen());
  EXPECT_GT(SumCounter("astore.client.retries"), 0u);
  EXPECT_GT(SumCounter("astore.client.unfreezes"), 0u);

  char buf[6];
  ASSERT_TRUE(c.client->Read(seg, off, 6, buf).ok());
  EXPECT_EQ(std::string(buf, 6), "healed");
}

TEST(AStoreRetryTest, StaleRouteAfterRebuildIsRefreshedAndUnfrozen) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(12);
  ASSERT_TRUE(c.client->Connect().ok());
  auto res = c.client->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(c.client->Append(seg, Slice("before"), nullptr).ok());

  // Kill a replica and let the CM rebuild BEFORE the client writes again:
  // the client's cached route still lists the dead node (stale route).
  const std::string victim = seg->route().replicas[0].node;
  c.env.GetNode(victim)->SetAlive(false);
  c.cm->CheckHealthNow();

  const uint64_t epoch_before = seg->route().epoch;
  uint64_t off = 0;
  ASSERT_TRUE(c.client->Append(seg, Slice("after"), &off).ok());
  EXPECT_FALSE(seg->frozen());
  EXPECT_GT(seg->route().epoch, epoch_before);
  for (const auto& loc : seg->route().replicas) {
    EXPECT_NE(loc.node, victim);
  }
  EXPECT_GT(SumCounter("astore.client.retries"), 0u);
  EXPECT_GT(SumCounter("astore.client.route_refreshes"), 0u);

  // Both the pre-failure and post-recovery bytes are readable.
  char buf[11];
  ASSERT_TRUE(c.client->Read(seg, 0, 11, buf).ok());
  EXPECT_EQ(std::string(buf, 11), "beforeafter");
}

TEST(AStoreRetryTest, CrashDuringAppendIsAbsorbedByHealthLoop) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(13);
  ASSERT_TRUE(c.client->Connect().ok());
  auto res = c.client->CreateSegment(2 * kMiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  const std::string victim = seg->route().replicas[0].node;

  // Appends keep succeeding across the crash: the write that hits the
  // dead replica freezes the segment, the health loop rebuilds it, and
  // the retry loop refreshes + repairs without surfacing an error.
  // (Shutdown must run even on a failed append or the group join would
  // hang on the health loop, so the assert lives outside the scope.)
  Status failed = Status::OK();
  {
    sim::ActorGroup group(c.env.clock());
    c.cm->StartBackground();
    group.Spawn([&] {
      c.env.clock()->SleepFor(5 * kMillisecond);
      c.env.GetNode(victim)->SetAlive(false);
    });

    for (int i = 0; i < 100 && failed.ok(); ++i) {
      failed = c.client->Append(seg, Slice("steady-payload"), nullptr);
      c.env.clock()->SleepFor(1 * kMillisecond);
    }
    c.cm->Shutdown();
  }
  ASSERT_TRUE(failed.ok()) << failed.ToString();

  EXPECT_GT(SumCounter("astore.client.retries"), 0u);
  EXPECT_GT(SumCounter("astore.client.route_refreshes"), 0u);
  EXPECT_FALSE(seg->frozen());
  for (const auto& loc : seg->route().replicas) {
    EXPECT_NE(loc.node, victim);
  }
}

TEST(AStoreRetryTest, CmUnreachableThenRecoveredOpenSucceeds) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(14);
  ASSERT_TRUE(c.client->Connect().ok());
  auto res = c.client->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok());
  const SegmentId id = res.value()->id();

  c.cm_node->SetAlive(false);
  {
    sim::ActorGroup group(c.env.clock());
    group.Spawn([&] {
      c.env.clock()->SleepFor(20 * kMillisecond);
      c.cm_node->SetAlive(true);
    });
    // Each attempt against the dead CM burns its bounded per-call wait;
    // the retry loop outlives the outage and the open lands after revival.
    auto reopened = c.client->OpenSegment(id);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->id(), id);
  }
  EXPECT_GT(SumCounter("astore.client.retries"), 0u);
}

TEST(AStoreRetryTest, CmCreateRetriesInjectedFaults) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(15);
  ASSERT_TRUE(c.client->Connect().ok());
  c.env.faults()->Arm("astore.client.cm", 1.0,
                      Status::Unavailable("injected cm fault"),
                      /*remaining=*/2);
  auto res = c.client->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GE(c.env.faults()->InjectedCount("astore.client.cm"), 2u);
  EXPECT_GT(SumCounter("astore.client.retries"), 0u);
}

TEST(AStoreRetryTest, ReadRetriesWhenEveryReplicaFails) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(16);
  ASSERT_TRUE(c.client->Connect().ok());
  auto res = c.client->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(c.client->Append(seg, Slice("persistent"), nullptr).ok());

  // All three replicas fail in the first sweep; the second attempt (after
  // backoff + route refresh) succeeds.
  c.env.faults()->Arm("astore.client.read.replica", 1.0,
                      Status::IOError("injected replica fault"),
                      /*remaining=*/3);
  char buf[10];
  ASSERT_TRUE(c.client->Read(seg, 0, 10, buf).ok());
  EXPECT_EQ(std::string(buf, 10), "persistent");
  EXPECT_GT(SumCounter("astore.client.retries"), 0u);
}

TEST(AStoreRetryTest, NonRetriableStatusesSurfaceImmediately) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(17);
  ASSERT_TRUE(c.client->Connect().ok());
  auto res = c.client->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();

  // A reclaimed segment is permanently stale: the retry loop must bail
  // out instead of burning its whole deadline.
  ASSERT_TRUE(c.cm->ReclaimSegment(seg->id(), /*new_owner=*/2).ok());
  c.client->RefreshRoutes();
  ASSERT_TRUE(seg->stale());
  const Timestamp before = c.env.clock()->Now();
  EXPECT_TRUE(c.client->Append(seg, Slice("x"), nullptr).IsStale());
  EXPECT_LT(c.env.clock()->Now() - before, 1 * kMillisecond);
  EXPECT_EQ(SumCounter("astore.client.retries"), 0u);
}

TEST(AStoreRetryTest, LeaseRenewFailureIsCountedWithCause) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(18);
  ASSERT_TRUE(c.client->Connect().ok());

  // Partition the client away from its only CM: renewal retries through
  // its whole budget, then surfaces — and the failure is attributable in
  // the exported counter by cause.
  c.env.faults()->Partition({"cm"}, {"dbe"});
  Status s = c.client->RenewLease();
  ASSERT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_GT(SumCounter("astore.client.lease_renew_failures"), 0u);
  EXPECT_GT(SumCounter("astore.client.retries"), 0u);

  // Healed: the next renewal goes straight through.
  c.env.faults()->HealPartition();
  EXPECT_TRUE(c.client->RenewLease().ok());
}

TEST(AStoreRetryTest, WritesFailFastWithLeaseExpiredWhenNoCmReachable) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(19);
  ASSERT_TRUE(c.client->Connect().ok());
  auto res = c.client->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();

  // Every CM endpoint is gone and the lease has lapsed. The write must
  // surface LeaseExpired immediately — not burn the full retry budget
  // probing dead CMs for a renewal that cannot happen.
  c.cm_node->SetAlive(false);
  c.client->ExpireLeaseForTest();
  const Timestamp before = c.env.clock()->Now();
  Status s = c.client->Append(seg, Slice("zombie"), nullptr);
  EXPECT_TRUE(s.IsLeaseExpired()) << s.ToString();
  EXPECT_LT(c.env.clock()->Now() - before, 1 * kMillisecond);
  EXPECT_EQ(SumCounter("astore.client.retries"), 0u);
}

// Acceptance scenario: a seeded closed-loop append workload with one
// AStore server crashing mid-run must finish with ZERO errors surfaced to
// the driver, a positive retry count in the exported snapshot, and a
// byte-identical snapshot across two runs.
struct CrashRunResult {
  uint64_t operations = 0;
  uint64_t errors = 0;
  uint64_t retries = 0;
  std::string snapshot_json;
};

CrashRunResult RunCrashWorkload(uint64_t seed) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  CrashRunResult out;
  MiniCluster c(seed);
  EXPECT_TRUE(c.client->Connect().ok());

  // One segment per driver client: each writer owns repair of its own
  // handle, so failures never leak across loops.
  constexpr int kClients = 2;
  std::vector<SegmentHandlePtr> segs;
  for (int i = 0; i < kClients; ++i) {
    auto res = c.client->CreateSegment(4 * kMiB, 3);
    EXPECT_TRUE(res.ok());
    segs.push_back(res.value());
  }
  const std::string victim = segs[0]->route().replicas[0].node;

  {
    sim::ActorGroup background(c.env.clock());
    c.cm->StartBackground();
    c.client->StartBackground(&background);
    background.Spawn([&] {
      c.env.clock()->SleepFor(60 * kMillisecond);
      c.env.GetNode(victim)->SetAlive(false);
    });
    // Stop the background loops at a FIXED virtual time past the workload's
    // end, from inside the actor schedule, so the number of background
    // refresh cycles in the snapshot is fixed by the seed.
    background.Spawn([&] {
      c.env.clock()->SleepUntil(500 * kMillisecond);
      c.client->Shutdown();
      c.cm->Shutdown();
    });

    const std::string payload(256, 'w');
    workload::LoadResult result = workload::RunClosedLoop(
        &c.env, kClients, /*warmup=*/10 * kMillisecond,
        /*duration=*/400 * kMillisecond, [&](int client) {
          return c.client->Append(segs[client], Slice(payload), nullptr);
        });
    out.operations = result.operations;
    out.errors = result.errors;
  }

  out.retries = SumCounter("astore.client.retries");
  out.snapshot_json =
      obs::CollectSnapshot(obs::MetricsRegistry::Default(),
                           c.env.clock()->Now(), "crash_workload")
          .ToJson();
  return out;
}

TEST(AStoreRetryTest, CrashMidWorkloadAbsorbedAndDeterministic) {
  CrashRunResult first = RunCrashWorkload(/*seed=*/20260806);
  EXPECT_GT(first.operations, 0u);
  EXPECT_EQ(first.errors, 0u);
  EXPECT_GT(first.retries, 0u);

  CrashRunResult second = RunCrashWorkload(/*seed=*/20260806);
  EXPECT_EQ(first.operations, second.operations);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.snapshot_json, second.snapshot_json);
}

}  // namespace
}  // namespace vedb::astore
