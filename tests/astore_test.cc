#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/frame.h"
#include "astore/segment_ring.h"
#include "astore/server.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::astore {
namespace {

class AStoreTest : public ::testing::Test {
 protected:
  static constexpr int kServers = 4;

  void SetUp() override {
    rpc_ = std::make_unique<net::RpcTransport>(&env_);
    fabric_ = std::make_unique<net::RdmaFabric>(&env_);

    sim::NodeConfig cm_cfg;
    cm_cfg.cpu_cores = 8;
    cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    cm_node_ = env_.AddNode("cm", cm_cfg);
    cm_ = std::make_unique<ClusterManager>(&env_, rpc_.get(), cm_node_,
                                           ClusterManager::Options{});

    for (int i = 0; i < kServers; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::OptanePmem(env_.NextSeed());
      sim::SimNode* node = env_.AddNode("astore-" + std::to_string(i), cfg);
      AStoreServer::Options opts;
      opts.pmem_capacity = 16 * kMiB;
      servers_.push_back(std::make_unique<AStoreServer>(
          &env_, rpc_.get(), fabric_.get(), node, opts));
      cm_->RegisterServer(servers_.back().get());
    }

    sim::NodeConfig client_cfg;
    client_cfg.cpu_cores = 16;
    client_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    client_node_ = env_.AddNode("dbe", client_cfg);
    client_ = std::make_unique<AStoreClient>(&env_, rpc_.get(), fabric_.get(),
                                             cm_node_, client_node_,
                                             /*client_id=*/1,
                                             AStoreClient::Options{});

    ASSERT_TRUE(client_->Connect().ok());
  }

  std::unique_ptr<AStoreClient> MakeClient(ClientId id) {
    auto c = std::make_unique<AStoreClient>(&env_, rpc_.get(), fabric_.get(),
                                            cm_node_, client_node_, id,
                                            AStoreClient::Options{});
    EXPECT_TRUE(c->Connect().ok());
    return c;
  }

  sim::SimEnvironment env_;
  std::unique_ptr<net::RpcTransport> rpc_;
  std::unique_ptr<net::RdmaFabric> fabric_;
  sim::SimNode* cm_node_ = nullptr;
  sim::SimNode* client_node_ = nullptr;
  std::unique_ptr<ClusterManager> cm_;
  std::vector<std::unique_ptr<AStoreServer>> servers_;
  std::unique_ptr<AStoreClient> client_;
};

TEST_F(AStoreTest, CreateWriteRead) {
  auto res = client_->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  SegmentHandlePtr seg = res.value();
  EXPECT_EQ(seg->route().replicas.size(), 3u);
  std::string first_node;
  ASSERT_TRUE(seg->FirstReplicaNode(&first_node));
  EXPECT_EQ(first_node, seg->route().replicas[0].node);

  uint64_t off = 0;
  ASSERT_TRUE(client_->Append(seg, Slice("hello astore"), &off).ok());
  EXPECT_EQ(off, 0u);
  ASSERT_TRUE(client_->Append(seg, Slice("!"), &off).ok());
  EXPECT_EQ(off, 12u);

  char buf[13];
  ASSERT_TRUE(client_->Read(seg, 0, 13, buf).ok());
  EXPECT_EQ(std::string(buf, 13), "hello astore!");
}

TEST_F(AStoreTest, CreateTakesMillisecondsWriteTakesMicroseconds) {
  // Section IV-B: Create is RPC-based and takes ~milliseconds; Write is
  // one-sided and takes ~tens of microseconds.
  Timestamp t0 = env_.clock()->Now();
  auto res = client_->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(res.ok());
  Duration create_lat = env_.clock()->Now() - t0;
  EXPECT_GT(create_lat, 300 * kMicrosecond);

  std::string payload(4 * kKiB, 'x');
  t0 = env_.clock()->Now();
  ASSERT_TRUE(client_->Append(res.value(), Slice(payload), nullptr).ok());
  Duration write_lat = env_.clock()->Now() - t0;
  EXPECT_LT(write_lat, 200 * kMicrosecond);
  EXPECT_LT(write_lat * 5, create_lat);
}

TEST_F(AStoreTest, WritesAreCrashDurable) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(client_->Append(seg, Slice("durable-bytes"), nullptr).ok());

  // Power-fail every server: flushed data must survive because the write
  // chain ends with the RDMA READ flush.
  for (auto& server : servers_) server->pmem()->Crash();

  char buf[13];
  ASSERT_TRUE(client_->Read(seg, 0, 13, buf).ok());
  EXPECT_EQ(std::string(buf, 13), "durable-bytes");
}

TEST_F(AStoreTest, SegmentFullReturnsNoSpace) {
  auto res = client_->CreateSegment(128 * kKiB, 1);
  ASSERT_TRUE(res.ok());
  std::string big(100 * kKiB, 'a');
  ASSERT_TRUE(client_->Append(res.value(), Slice(big), nullptr).ok());
  EXPECT_TRUE(client_->Append(res.value(), Slice(big), nullptr).IsNoSpace());
}

TEST_F(AStoreTest, ReplicaFailureFreezesSegment) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(client_->Append(seg, Slice("first"), nullptr).ok());

  // Kill one of the segment's replicas.
  const std::string victim = seg->route().replicas[0].node;
  env_.GetNode(victim)->SetAlive(false);

  Status s = client_->Append(seg, Slice("second"), nullptr);
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_TRUE(seg->frozen());
  // Frozen segments reject further writes but still serve reads from the
  // surviving replicas.
  EXPECT_TRUE(client_->Append(seg, Slice("third"), nullptr).IsUnavailable());
  char buf[5];
  ASSERT_TRUE(client_->Read(seg, 0, 5, buf).ok());
  EXPECT_EQ(std::string(buf, 5), "first");
}

TEST_F(AStoreTest, OversizedAppendIsInvalidArgumentNotNoSpace) {
  // Payload-granularity size gate: a record that could NEVER fit the
  // segment is a typed InvalidArgument (caller bug), while one that merely
  // doesn't fit the remaining space is NoSpace (roll to the next segment).
  auto res = client_->CreateSegment(4 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();

  const std::string too_big(4 * kKiB + 1, 'x');
  Status s = client_->Append(seg, Slice(too_big), nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  const std::string most(3 * kKiB, 'y');
  ASSERT_TRUE(client_->Append(seg, Slice(most), nullptr).ok());
  const std::string rest(2 * kKiB, 'z');
  s = client_->Append(seg, Slice(rest), nullptr);
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();

  // The async path applies the same gates at submission time.
  s = client_->AppendAsync(seg, Slice(too_big), nullptr).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = client_->AppendAsync(seg, Slice(rest), nullptr).status();
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
}

TEST_F(AStoreTest, AppendAsyncRoundTrip) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();

  uint64_t off1 = 0;
  uint64_t off2 = 0;
  auto t1 = client_->AppendAsync(seg, Slice("async-one"), &off1);
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  auto t2 = client_->AppendAsync(seg, Slice("async-two"), &off2);
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_EQ(off1, 0u);
  EXPECT_EQ(off2, 9u);  // offsets assigned at submission, in order
  ASSERT_TRUE(client_->WaitAppend(t1.value()).ok());
  ASSERT_TRUE(client_->WaitAppend(t2.value()).ok());

  char buf[18];
  ASSERT_TRUE(client_->Read(seg, 0, sizeof(buf), buf).ok());
  EXPECT_EQ(std::string(buf, sizeof(buf)), "async-oneasync-two");
}

// The virtual latency of one 512-byte write at offset 0 of a fresh segment,
// in a freshly built world seeded with `seed`: one CM, four servers, one
// idle client. `ring` picks AppendAsync+WaitAppend over WriteAt.
Duration OneWriteLatency(uint64_t seed, bool ring) {
  sim::SimEnvironment env(seed);
  net::RpcTransport rpc(&env);
  net::RdmaFabric fabric(&env);
  sim::NodeConfig cm_cfg;
  cm_cfg.cpu_cores = 8;
  cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  sim::SimNode* cm_node = env.AddNode("cm", cm_cfg);
  ClusterManager cm(&env, &rpc, cm_node, ClusterManager::Options{});
  std::vector<std::unique_ptr<AStoreServer>> servers;
  for (int i = 0; i < 4; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = 32;
    cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
    AStoreServer::Options opts;
    opts.pmem_capacity = 16 * kMiB;
    servers.push_back(std::make_unique<AStoreServer>(
        &env, &rpc, &fabric, env.AddNode("astore-" + std::to_string(i), cfg),
        opts));
    cm.RegisterServer(servers.back().get());
  }
  sim::NodeConfig client_cfg;
  client_cfg.cpu_cores = 16;
  client_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  AStoreClient client(&env, &rpc, &fabric, cm_node,
                      env.AddNode("dbe", client_cfg), /*client_id=*/1,
                      AStoreClient::Options{});

  Status s = client.Connect();
  SegmentHandlePtr seg;
  if (s.ok()) {
    auto created = client.CreateSegment(256 * kKiB, 3);
    s = created.status();
    if (s.ok()) seg = created.value();
  }
  const std::string payload(512, 'c');
  const Timestamp t0 = env.clock()->Now();
  if (s.ok() && ring) {
    auto token = client.AppendAsync(seg, Slice(payload));
    s = token.ok() ? client.WaitAppend(token.value()) : token.status();
  } else if (s.ok()) {
    s = client.WriteAt(seg, 0, Slice(payload));
  }
  const Duration latency = s.ok() ? env.clock()->Now() - t0 : 0;
  EXPECT_TRUE(s.ok()) << s.ToString();
  return latency;
}

TEST(AStoreWriteCostTest, SingleWriteAndRingAppendDifferOnlyInSdkCost) {
  // Append/WriteAt and the ring post the same chain; the only difference
  // is the software cost each charges first. Two identically seeded worlds
  // draw the same device jitter, so the latency gap is exactly the cost gap.
  const Duration write_at = OneWriteLatency(/*seed=*/7, /*ring=*/false);
  const Duration ring = OneWriteLatency(/*seed=*/7, /*ring=*/true);
  ASSERT_GT(ring, 0);
  const AStoreClient::Options o;
  EXPECT_EQ(write_at - ring,
            o.write_sdk_overhead - (o.append_ring.submit_overhead +
                                    o.append_ring.completion_overhead));
}

TEST_F(AStoreTest, SingleWritesAreNotCountedAsDoorbells) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* doorbells = reg.GetCounter("ring.doorbells");
  obs::Counter* coalesced = reg.GetCounter("astore.client.coalesced_appends");
  obs::HistogramMetric* batch = reg.GetHistogram("ring.doorbell_batch");
  const uint64_t doorbells0 = doorbells->value();
  const uint64_t coalesced0 = coalesced->value();
  const uint64_t batch0 = batch->Snapshot().count();

  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(client_->Append(res.value(), Slice("single"), nullptr).ok());
  ASSERT_TRUE(client_->WriteAt(res.value(), 64, Slice("write-at")).ok());
  EXPECT_EQ(doorbells->value(), doorbells0);
  EXPECT_EQ(coalesced->value(), coalesced0);
  EXPECT_EQ(batch->Snapshot().count(), batch0);

  // A ring append is one doorbell.
  auto token = client_->AppendAsync(res.value(), Slice("ring"));
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(client_->WaitAppend(token.value()).ok());
  EXPECT_EQ(doorbells->value(), doorbells0 + 1);
  EXPECT_EQ(batch->Snapshot().count(), batch0 + 1);
}

TEST_F(AStoreTest, InjectedWriteAtFailureRetriesAndUnfreezes) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* retries = reg.GetCounter(
      "astore.client.retries", {{"op", "write_at"}, {"cause", "io_error"}});
  obs::Counter* unfreezes = reg.GetCounter("astore.client.unfreezes");
  const uint64_t retries0 = retries->value();
  const uint64_t unfreezes0 = unfreezes->value();

  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  // The first attempt fails and freezes the handle; the writer owns the
  // repair, re-posts the same bytes, and lifts its own freeze.
  env_.faults()->Arm("astore.client.write", 1.0,
                     Status::IOError("injected write fault"),
                     /*remaining=*/1);
  ASSERT_TRUE(client_->WriteAt(seg, 128, Slice("repaired")).ok());
  EXPECT_EQ(env_.faults()->InjectedCount("astore.client.write"), 1u);
  env_.faults()->Disarm("astore.client.write");
  EXPECT_FALSE(seg->frozen());
  EXPECT_EQ(retries->value(), retries0 + 1);
  EXPECT_EQ(unfreezes->value(), unfreezes0 + 1);

  char buf[8];
  ASSERT_TRUE(client_->Read(seg, 128, sizeof(buf), buf).ok());
  EXPECT_EQ(std::string(buf, sizeof(buf)), "repaired");
}

TEST_F(AStoreTest, ReadFailsOverToLiveReplica) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(client_->Append(seg, Slice("replicated"), nullptr).ok());
  env_.GetNode(seg->route().replicas[0].node)->SetAlive(false);
  env_.GetNode(seg->route().replicas[1].node)->SetAlive(false);
  char buf[10];
  for (int i = 0; i < 4; ++i) {  // every round-robin position must work
    ASSERT_TRUE(client_->Read(seg, 0, 10, buf).ok());
    EXPECT_EQ(std::string(buf, 10), "replicated");
  }
}

TEST_F(AStoreTest, ReadFailsOverPastFaultedReplica) {
  // Regression: a fabric-read failure on a live replica used to surface to
  // the caller instead of failing over to the next copy. Retry is disabled
  // so the fix is exercised within a single attempt.
  AStoreClient::Options opts;
  opts.retry.max_attempts = 1;
  auto client = std::make_unique<AStoreClient>(&env_, rpc_.get(),
                                               fabric_.get(), cm_node_,
                                               client_node_, /*client_id=*/1,
                                               opts);
  ASSERT_TRUE(client->Connect().ok());
  auto res = client->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(client->Append(seg, Slice("failover"), nullptr).ok());

  env_.faults()->Arm("astore.client.read.replica", 1.0,
                     Status::IOError("injected replica fault"),
                     /*remaining=*/1);
  char buf[8];
  ASSERT_TRUE(client->Read(seg, 0, 8, buf).ok());
  EXPECT_EQ(std::string(buf, 8), "failover");
  EXPECT_EQ(env_.faults()->InjectedCount("astore.client.read.replica"), 1u);
  env_.faults()->Disarm("astore.client.read.replica");
}

TEST_F(AStoreTest, CorruptedReplicaReadFailsOverAndRepairs) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  const std::string payload = "bit rot hits committed bytes";
  ASSERT_TRUE(client_->Append(seg, Slice(payload), nullptr).ok());

  // Silently flip one bit in replica 0's committed copy — no lengths or
  // acks change, only the served bytes.
  const SegmentRoute route = seg->route();
  AStoreServer* victim = nullptr;
  for (auto& s : servers_) {
    if (s->node()->name() == route.replicas[0].node) victim = s.get();
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(victim->pmem()
                  ->CorruptBitFlip(route.replicas[0].base_offset + 7, 4)
                  .ok());

  // One verified read per round-robin position: whichever read lands on
  // the corrupt copy must detect it, fail over to a healthy replica, and
  // return the acked bytes — never the corrupt ones, never an error.
  ReadOptions ro;
  ro.verify = [&](Slice got) {
    return got == Slice(payload) ? Status::OK()
                                 : Status::DataLoss("not the acked bytes");
  };
  std::string buf(payload.size(), '\0');
  for (size_t i = 0; i < route.replicas.size(); ++i) {
    ASSERT_TRUE(
        client_->ReadVerified(seg, 0, payload.size(), buf.data(), ro).ok());
    EXPECT_EQ(buf, payload);
  }

  // Read-repair rewrote the good bytes over the bad copy: a direct read of
  // replica 0 — no failover, no verification — serves the acked bytes.
  std::string direct(payload.size(), '\0');
  ASSERT_TRUE(
      client_->ReadReplica(seg, 0, 0, payload.size(), direct.data()).ok());
  EXPECT_EQ(direct, payload);
}

TEST_F(AStoreTest, ShortReadCompletionIsDataLossNotSlicedBuffer) {
  // Regression: the completion length must be validated against the request
  // BEFORE any checksum runs — a replica NIC aborting mid-transfer is
  // corruption of that copy, not a shorter read.
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  const std::string payload = "short completions are corruption";
  ASSERT_TRUE(client_->Append(seg, Slice(payload), nullptr).ok());

  // One torn completion: the read fails over past it within the attempt.
  env_.faults()->Arm("astore.client.read.short", 1.0,
                     Status::IOError("torn dma"), /*remaining=*/1);
  std::string buf(payload.size(), '\0');
  ASSERT_TRUE(client_
                  ->ReadVerified(seg, 0, payload.size(), buf.data(),
                                 ReadOptions{})
                  .ok());
  EXPECT_EQ(buf, payload);
  EXPECT_EQ(env_.faults()->InjectedCount("astore.client.read.short"), 1u);

  // Every replica torn: DataLoss surfaces immediately — exactly one pass
  // over the replicas, no retry loop (DataLoss is not transient).
  env_.faults()->Arm("astore.client.read.short", 1.0,
                     Status::IOError("torn dma"));
  Status s =
      client_->ReadVerified(seg, 0, payload.size(), buf.data(), ReadOptions{});
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_EQ(env_.faults()->InjectedCount("astore.client.read.short"), 4u);
  env_.faults()->Disarm("astore.client.read.short");
}

TEST_F(AStoreTest, BoundsChecksRejectU64Overflow) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(client_->Append(seg, Slice("base"), nullptr).ok());

  // `offset + len` wraps to a tiny value here; the additive form of the
  // bounds check accepted these and handed a wild offset to the fabric.
  const uint64_t wrap_offset = UINT64_MAX - 2;
  char buf[8];
  EXPECT_TRUE(client_->Read(seg, wrap_offset, 8, buf).IsInvalidArgument());
  EXPECT_TRUE(client_->Read(seg, 0, UINT64_MAX, buf).IsInvalidArgument());
  EXPECT_TRUE(
      client_->WriteAt(seg, wrap_offset, Slice("overflow"))
          .IsInvalidArgument());
  // In-range operations still work after the rejections.
  ASSERT_TRUE(client_->Read(seg, 0, 4, buf).ok());
  EXPECT_EQ(std::string(buf, 4), "base");
}

TEST_F(AStoreTest, CreateSegmentReleasesPartialAllocationsOnFailure) {
  std::vector<uint64_t> free_before;
  for (auto& s : servers_) free_before.push_back(s->FreeCapacity());

  // Let the first astore.alloc succeed, fail the second: the create must
  // hand back the first replica's space instead of leaking it (no route
  // ever exists for the segment, so nothing else would ever release it).
  env_.faults()->Arm("rpc.call", 1.0, Status::IOError("injected alloc fault"),
                     /*remaining=*/1, /*skip=*/1);
  auto res = cm_->CreateSegment(client_node_, /*client=*/1, 1 * kMiB, 3);
  EXPECT_FALSE(res.ok());
  env_.faults()->Disarm("rpc.call");

  for (auto& s : servers_) s->ForceClean();  // releases are deferred
  for (size_t i = 0; i < servers_.size(); ++i) {
    EXPECT_EQ(servers_[i]->FreeCapacity(), free_before[i]);
  }
}

TEST_F(AStoreTest, ExpiredLeasesArePrunedByHealthSweep) {
  // One lease per client id would otherwise accumulate forever.
  for (ClientId id = 100; id < 140; ++id) {
    (void)cm_->AcquireLease(id);  // discard-ok: expiry value unused
  }
  const size_t before = cm_->LeaseCount();
  ASSERT_GE(before, 40u);
  cm_->CheckHealthNow();
  EXPECT_EQ(cm_->LeaseCount(), before);  // nothing expired yet

  env_.clock()->SleepFor(3 * kSecond);  // past lease_duration (2s)
  cm_->CheckHealthNow();
  EXPECT_EQ(cm_->LeaseCount(), 0u);
}

TEST_F(AStoreTest, ExpiredLeaseFencesWrites) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  client_->ExpireLeaseForTest();
  EXPECT_TRUE(
      client_->Append(res.value(), Slice("zombie"), nullptr).IsLeaseExpired());
  // Renewing restores service.
  ASSERT_TRUE(client_->RenewLease().ok());
  EXPECT_TRUE(client_->Append(res.value(), Slice("alive"), nullptr).ok());
}

TEST_F(AStoreTest, ReclaimedSegmentDetectedByRouteRefresh) {
  // Section IV-C's zombie scenario: client A's segment is reclaimed by
  // client B; A's next route refresh must mark the handle stale.
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(cm_->ReclaimSegment(seg->id(), /*new_owner=*/2).ok());
  client_->RefreshRoutes();
  EXPECT_TRUE(seg->stale());
  EXPECT_TRUE(client_->Append(seg, Slice("x"), nullptr).IsStale());
}

TEST_F(AStoreTest, DeletedSegmentSpaceIsReusedOnlyAfterCleaningInterval) {
  AStoreServer* server = servers_[0].get();
  const uint64_t free_before = server->FreeCapacity();

  auto res = client_->CreateSegment(1 * kMiB, static_cast<int>(kServers));
  ASSERT_TRUE(res.ok());
  EXPECT_LT(server->FreeCapacity(), free_before);

  ASSERT_TRUE(client_->Delete(res.value()).ok());
  // Space is NOT back yet: deferred cleaning protects stale readers.
  EXPECT_LT(server->FreeCapacity(), free_before);
  server->ForceClean();
  EXPECT_EQ(server->FreeCapacity(), free_before);
}

TEST_F(AStoreTest, RouteRefreshDetectsDeletionBeforeCleaning) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();

  // Another client (e.g. an operator tool) deletes the segment directly at
  // the CM. Our cached route is now dangling.
  ASSERT_TRUE(cm_->ReclaimSegment(seg->id(), 2).ok());
  auto other = MakeClient(2);
  auto reopened = other->OpenSegment(seg->id());
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(other->Delete(reopened.value()).ok());

  // Client refresh runs before any server reuses the space.
  client_->RefreshRoutes();
  EXPECT_TRUE(seg->stale());
  EXPECT_TRUE(client_->Append(seg, Slice("late write"), nullptr).IsStale());
}

TEST_F(AStoreTest, CmRebuildsReplicaAfterNodeDeath) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(client_->Append(seg, Slice("keep me safe"), nullptr).ok());

  const std::string victim = seg->route().replicas[1].node;
  env_.GetNode(victim)->SetAlive(false);
  cm_->CheckHealthNow();

  auto route = cm_->GetRoute(seg->id());
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->replicas.size(), 3u);  // rebuilt on a spare node
  for (const auto& loc : route->replicas) {
    EXPECT_NE(loc.node, victim);
  }
  EXPECT_GT(route->epoch, 1u);

  // The client picks up the new route and can read from the rebuilt copy.
  client_->RefreshRoutes();
  char buf[12];
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client_->Read(seg, 0, 12, buf).ok());
    EXPECT_EQ(std::string(buf, 12), "keep me safe");
  }
}

TEST_F(AStoreTest, ReturnedNodeStaleSegmentsAreCleaned) {
  auto res = client_->CreateSegment(256 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  ASSERT_TRUE(client_->Append(seg, Slice("x"), nullptr).ok());

  const std::string victim = seg->route().replicas[0].node;
  AStoreServer* victim_server = nullptr;
  for (auto& s : servers_) {
    if (s->node()->name() == victim) victim_server = s.get();
  }
  ASSERT_NE(victim_server, nullptr);
  EXPECT_TRUE(victim_server->HasSegment(seg->id()));

  env_.GetNode(victim)->SetAlive(false);
  cm_->CheckHealthNow();  // rebuild elsewhere; victim now off the route
  env_.GetNode(victim)->SetAlive(true);
  cm_->CheckHealthNow();  // CM notices the return and releases stale copy
  victim_server->ForceClean();
  EXPECT_FALSE(victim_server->HasSegment(seg->id()));
}

TEST_F(AStoreTest, PlacementPrefersEmptiestServers) {
  // Fill one server heavily, then check new single-replica segments avoid it.
  auto big = client_->CreateSegment(4 * kMiB, 1);
  ASSERT_TRUE(big.ok());
  const std::string loaded = big.value()->route().replicas[0].node;
  for (int i = 0; i < 3; ++i) {
    auto res = client_->CreateSegment(1 * kMiB, 1);
    ASSERT_TRUE(res.ok());
    EXPECT_NE(res.value()->route().replicas[0].node, loaded);
  }
}

TEST_F(AStoreTest, ListSegmentsReturnsOwned) {
  auto a = client_->CreateSegment(128 * kKiB, 1);
  auto b = client_->CreateSegment(128 * kKiB, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto other = MakeClient(2);
  auto c = other->CreateSegment(128 * kKiB, 1);
  ASSERT_TRUE(c.ok());

  auto mine = cm_->ListSegments(1);
  EXPECT_EQ(mine.size(), 2u);
  auto theirs = cm_->ListSegments(2);
  EXPECT_EQ(theirs.size(), 1u);
}

// ---------------- SegmentRing ----------------

class SegmentRingTest : public AStoreTest {
 protected:
  SegmentRing::Options RingOptions() {
    SegmentRing::Options o;
    o.segment_size = 64 * kKiB;
    o.ring_size = 4;
    o.replication = 3;
    return o;
  }
};

TEST_F(SegmentRingTest, AppendAndRecoverRecords) {
  auto ring = SegmentRing::Create(client_.get(), RingOptions());
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();

  for (uint64_t lsn = 1; lsn <= 50; ++lsn) {
    std::string payload = "record-" + std::to_string(lsn);
    ASSERT_TRUE(ring.value()->AppendRecord(lsn, Slice(payload)).ok());
  }

  // Crash the DBEngine: recover from the CM's segment list alone.
  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        /*from_lsn=*/1);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->next_lsn, 51u);
  ASSERT_EQ(recovered->records.size(), 50u);
  EXPECT_EQ(recovered->records[0].payload, "record-1");
  EXPECT_EQ(recovered->records[49].payload, "record-50");
}

TEST_F(SegmentRingTest, RecoverFromLsnSkipsOlderRecords) {
  auto ring = SegmentRing::Create(client_.get(), RingOptions());
  ASSERT_TRUE(ring.ok());
  for (uint64_t lsn = 1; lsn <= 30; ++lsn) {
    ASSERT_TRUE(ring.value()->AppendRecord(lsn, Slice("p")).ok());
  }
  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        /*from_lsn=*/21);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 10u);
  EXPECT_EQ(recovered->records.front().lsn, 21u);
}

TEST_F(SegmentRingTest, RecordsSurvivePowerFailure) {
  auto ring = SegmentRing::Create(client_.get(), RingOptions());
  ASSERT_TRUE(ring.ok());
  for (uint64_t lsn = 1; lsn <= 10; ++lsn) {
    ASSERT_TRUE(ring.value()->AppendRecord(lsn, Slice("important")).ok());
  }
  for (auto& server : servers_) server->pmem()->Crash();
  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        1);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 10u);
}

TEST_F(SegmentRingTest, RingWrapsAndRecoversLatestLap) {
  SegmentRing::Options opts = RingOptions();
  auto ring = SegmentRing::Create(client_.get(), opts);
  ASSERT_TRUE(ring.ok());

  // Each record ~1KiB; 64KiB segments hold ~63 records; 4 segments wrap
  // after ~252. Write 400 records so the ring laps.
  std::string payload(1000, 'r');
  for (uint64_t lsn = 1; lsn <= 400; ++lsn) {
    ASSERT_TRUE(ring.value()->AppendRecord(lsn, Slice(payload)).ok());
  }
  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        /*from_lsn=*/395);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->next_lsn, 401u);
  ASSERT_FALSE(recovered->records.empty());
  EXPECT_EQ(recovered->records.back().lsn, 400u);
  // Records older than the surviving window were overwritten; from_lsn=395
  // must be fully present.
  EXPECT_EQ(recovered->records.front().lsn, 395u);
}

TEST_F(SegmentRingTest, BrokenReplicaTriggersSegmentReplacement) {
  SegmentRing::Options opts = RingOptions();
  auto ring = SegmentRing::Create(client_.get(), opts);
  ASSERT_TRUE(ring.ok());
  ASSERT_TRUE(ring.value()->AppendRecord(1, Slice("before")).ok());

  // Kill a node hosting the current segment, then keep appending: the ring
  // must freeze the broken segment, open a fresh one, and carry on.
  SegmentId cur = ring.value()->segment_ids()[0];
  auto route = cm_->GetRoute(cur);
  ASSERT_TRUE(route.ok());
  env_.GetNode(route->replicas[0].node)->SetAlive(false);

  ASSERT_TRUE(ring.value()->AppendRecord(2, Slice("after")).ok());
  EXPECT_GE(ring.value()->replaced_count(), 1u);
}

TEST_F(SegmentRingTest, ZeroLengthAndOversizedAppendsAreRejected) {
  auto ring = SegmentRing::Create(client_.get(), RingOptions());
  ASSERT_TRUE(ring.ok());
  // A zero-length frame is indistinguishable from the end-of-log sentinel
  // during the recovery scan; the API boundary refuses it outright.
  Status s = ring.value()->AppendRecord(1, Slice(""));
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // Larger than a segment can ever hold (64 KiB segment minus header and
  // frame overhead): also a typed error, not a wedged ring.
  const std::string big(64 * kKiB, 'x');
  s = ring.value()->AppendRecord(1, Slice(big));
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // Neither rejection consumed ring state: LSN 1 still lands normally.
  ASSERT_TRUE(ring.value()->AppendRecord(1, Slice("ok")).ok());
  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        1);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->next_lsn, 2u);
  ASSERT_EQ(recovered->records.size(), 1u);
  EXPECT_EQ(recovered->records[0].payload, "ok");
}

TEST_F(SegmentRingTest, ExactFitReserveIsRejectedAtTheBoundary) {
  // A frame that fills a segment EXACTLY (payload == segment_size -
  // kHeaderSize - frame header) used to be accepted, wrapping the ring on
  // every such append; the boundary is now a typed rejection (>=, not >).
  auto ring = SegmentRing::Create(client_.get(), RingOptions());
  ASSERT_TRUE(ring.ok());
  const size_t exact_fit =
      64 * kKiB - SegmentRing::kHeaderSize - PackedFrame::kHeaderSize;
  Status s = ring.value()->Reserve(1, exact_fit).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // One byte under the boundary reserves and commits normally.
  auto r = ring.value()->Reserve(1, exact_fit - 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string payload(exact_fit - 1, 'm');
  ASSERT_TRUE(ring.value()->CommitReserved(r.value(), 1, Slice(payload)).ok());
  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        1);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->records.size(), 1u);
  EXPECT_EQ(recovered->records[0].payload.size(), exact_fit - 1);
}

// Recovery reads every copy of a segment and keeps the first longest valid
// frame prefix. One copy has a bit flipped mid-log, one has lost its tail,
// the last is intact: recovery returns the intact copy's records and
// rewrites each damaged copy from where its own valid prefix ends.
TEST_F(SegmentRingTest, CrossReplicaScanKeepsTheIntactCopyAndRepairsTheRest) {
  auto ring = SegmentRing::Create(client_.get(), RingOptions());
  ASSERT_TRUE(ring.ok());
  constexpr uint64_t kRecords = 20;
  constexpr size_t kPayload = 100;
  auto payload_of = [](uint64_t lsn) {
    std::string p = "record-" + std::to_string(lsn);
    p.resize(kPayload, '.');
    return p;
  };
  for (uint64_t lsn = 1; lsn <= kRecords; ++lsn) {
    ASSERT_TRUE(ring.value()->AppendRecord(lsn, Slice(payload_of(lsn))).ok());
  }
  // Segment offset of record `lsn`'s frame (all land in the first segment).
  auto frame_at = [](uint64_t lsn) {
    return SegmentRing::kHeaderSize +
           (lsn - 1) * (PackedFrame::kHeaderSize + kPayload);
  };
  const uint64_t end = frame_at(kRecords + 1);

  auto opened = client_->OpenSegment(ring.value()->segment_ids()[0]);
  ASSERT_TRUE(opened.ok());
  SegmentHandlePtr seg = opened.value();
  const SegmentRoute route = seg->route();
  ASSERT_EQ(route.replicas.size(), 3u);
  // Copy 0: one bit flipped in record 8's payload.
  AStoreServer* flipped = nullptr;
  for (auto& s : servers_) {
    if (s->node()->name() == route.replicas[0].node) flipped = s.get();
  }
  ASSERT_NE(flipped, nullptr);
  ASSERT_TRUE(flipped->pmem()
                  ->CorruptBitFlip(route.replicas[0].base_offset +
                                       frame_at(8) +
                                       PackedFrame::kPayloadOffset + 5,
                                   3)
                  .ok());
  // Copy 1: its last three frames never landed.
  const std::string lost(end - frame_at(18), '\0');
  ASSERT_TRUE(
      client_->WriteReplica(seg, 1, frame_at(18), Slice(lost), route.epoch)
          .ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Counter* repairs = reg.GetCounter("astore.repair.scan_repairs");
  const obs::Counter* written =
      reg.GetCounter("pmem.write_bytes", {{"source", "remote"}});
  const uint64_t repairs0 = repairs->value();
  const uint64_t written0 = written->value();

  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        /*from_lsn=*/1);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->next_lsn, kRecords + 1);
  ASSERT_EQ(recovered->records.size(), kRecords);
  for (uint64_t lsn = 1; lsn <= kRecords; ++lsn) {
    EXPECT_EQ(recovered->records[lsn - 1].lsn, lsn);
    EXPECT_EQ(recovered->records[lsn - 1].payload, payload_of(lsn));
  }

  // Each damaged copy is rewritten from its own prefix end to the intact
  // copy's, and nothing else is written.
  EXPECT_EQ(repairs->value() - repairs0, 2u);
  EXPECT_EQ(written->value() - written0,
            (end - frame_at(8)) + (end - frame_at(18)));
  std::string intact(end, '\0');
  ASSERT_TRUE(client_->ReadReplica(seg, 2, 0, end, intact.data()).ok());
  for (size_t i = 0; i < 2; ++i) {
    std::string copy(end, '\0');
    ASSERT_TRUE(client_->ReadReplica(seg, i, 0, end, copy.data()).ok());
    EXPECT_EQ(copy, intact) << "copy " << i;
  }
}

TEST_F(SegmentRingTest, EmptyRingRecoversToZero) {
  auto ring = SegmentRing::Create(client_.get(), RingOptions());
  ASSERT_TRUE(ring.ok());
  auto recovered = SegmentRing::Recover(client_.get(), cm_->ListSegments(1),
                                        1);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->next_lsn, 0u);
  EXPECT_TRUE(recovered->records.empty());
}

}  // namespace
}  // namespace vedb::astore

namespace vedb::astore {
namespace {

class AllocatorPropertyTest : public AStoreTest,
                              public ::testing::WithParamInterface<uint64_t> {
};

TEST_F(AStoreTest, ExtentAllocationsNeverOverlap) {
  // Random create/delete churn; live segments' [base, base+size) ranges on
  // each server must stay pairwise disjoint (the bitmap allocator's core
  // invariant), verified via the data plane: distinct segments must never
  // read each other's bytes.
  Random rng(1234);
  std::vector<SegmentHandlePtr> live;
  for (int op = 0; op < 60; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      auto res = client_->CreateSegment(
          (1 + rng.Uniform(4)) * 256 * kKiB, 1);
      if (res.ok()) {
        // Stamp the segment with its own id.
        std::string stamp = "seg-" + std::to_string((*res)->id());
        stamp.resize(16, '.');
        ASSERT_TRUE(client_->Append(*res, Slice(stamp), nullptr).ok());
        live.push_back(*res);
      }
    } else {
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(client_->Delete(live[victim]).ok());
      live.erase(live.begin() + victim);
    }
  }
  // Every live segment still reads back its own stamp.
  for (const auto& seg : live) {
    char buf[16];
    ASSERT_TRUE(client_->Read(seg, 0, sizeof(buf), buf).ok());
    std::string expect = "seg-" + std::to_string(seg->id());
    expect.resize(16, '.');
    EXPECT_EQ(std::string(buf, 16), expect) << "segment " << seg->id();
  }
}

TEST_F(AStoreTest, ConcurrentClientsCreateWriteReadIndependently) {
  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  {
    sim::ActorGroup group(env_.clock());
    for (int c = 0; c < kClients; ++c) {
      group.Spawn([&, c] {
        AStoreClient client(&env_, rpc_.get(), fabric_.get(), cm_node_,
                            client_node_, 100 + c,
                            AStoreClient::Options{});
        if (!client.Connect().ok()) {
          failures++;
          return;
        }
        auto seg = client.CreateSegment(512 * kKiB, 3);
        if (!seg.ok()) {
          failures++;
          return;
        }
        for (int i = 0; i < 20; ++i) {
          const std::string data =
              "c" + std::to_string(c) + "-" + std::to_string(i);
          if (!client.Append(*seg, Slice(data), nullptr).ok()) {
            failures++;
            return;
          }
        }
        // Read back the first record.
        char buf[4];
        if (!client.Read(*seg, 0, 4, buf).ok() ||
            std::string(buf, 2) != "c" + std::to_string(c)) {
          failures++;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace vedb::astore
