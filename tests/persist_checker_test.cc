// Tests for the persistence-ordering validator (programmatic pmemcheck).
//
// Unit level: epoch/range bookkeeping of PersistChecker itself. Device
// level: PmemDevice wiring (remote writes volatile, RDMA-READ flush, local
// CLWB writes, crash). End to end: the AStore client ack path must trip the
// checker when the platform is misconfigured with DDIO enabled — the exact
// acked-before-persistent bug class the paper's DDIO-off deployment exists
// to prevent. If the VerifyPersisted calls are removed from the ack path,
// the DdioEnabled test fails loudly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "pmem/persist_checker.h"
#include "pmem/pmem_device.h"
#include "sim/env.h"

namespace vedb::pmem {
namespace {

TEST(PersistCheckerTest, VolatileWriteFailsDurabilityClaim) {
  PersistChecker checker;
  checker.OnWrite(0, 64, /*persistent=*/false);
  Status s = checker.CheckPersisted(0, 64, "test.ack");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(checker.violations(), 1u);
  ASSERT_EQ(checker.violation_log().size(), 1u);
  EXPECT_EQ(checker.violation_log()[0].context, "test.ack");
}

TEST(PersistCheckerTest, FlushMakesWriteDurable) {
  PersistChecker checker;
  checker.OnWrite(0, 64, /*persistent=*/false);
  checker.OnFlush();
  EXPECT_TRUE(checker.CheckPersisted(0, 64, "test.ack").ok());
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(PersistCheckerTest, PersistentWriteIsImmediatelyDurable) {
  PersistChecker checker;
  checker.OnWrite(128, 32, /*persistent=*/true);
  EXPECT_TRUE(checker.CheckPersisted(128, 32, "test.ack").ok());
}

TEST(PersistCheckerTest, PersistentWriteCarvesVolatileOverlap) {
  PersistChecker checker;
  checker.OnWrite(0, 100, /*persistent=*/false);
  // A local CLWB write re-persists the middle of the volatile range.
  checker.OnWrite(20, 10, /*persistent=*/true);
  EXPECT_TRUE(checker.CheckPersisted(20, 10, "mid").ok());
  EXPECT_TRUE(checker.CheckPersisted(0, 100, "whole").IsCorruption());
  EXPECT_TRUE(checker.CheckPersisted(0, 20, "head").IsCorruption());
  EXPECT_TRUE(checker.CheckPersisted(30, 70, "tail").IsCorruption());
}

TEST(PersistCheckerTest, DisjointClaimUnaffectedByVolatileWrite) {
  PersistChecker checker;
  checker.OnWrite(4096, 512, /*persistent=*/false);
  EXPECT_TRUE(checker.CheckPersisted(0, 4096, "elsewhere").ok());
  EXPECT_TRUE(checker.CheckPersisted(4608, 128, "after").ok());
}

TEST(PersistCheckerTest, CrashClearsVolatileStateWithoutPersisting) {
  PersistChecker checker;
  checker.OnWrite(0, 64, /*persistent=*/false);
  checker.OnCrash();
  // The bytes are gone, but nobody acked them: no violation, and a claim
  // over the range now refers to whatever the post-crash recovery rewrote.
  EXPECT_TRUE(checker.CheckPersisted(0, 64, "post-crash").ok());
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(PersistCheckerTest, EpochsAdvanceMonotonically) {
  PersistChecker checker;
  const uint64_t e0 = checker.write_epoch();
  checker.OnWrite(0, 8, false);
  checker.OnWrite(8, 8, false);
  EXPECT_GT(checker.write_epoch(), e0);
  const uint64_t before_flush = checker.flush_epoch();
  checker.OnFlush();
  EXPECT_GE(checker.flush_epoch(), before_flush);
  EXPECT_LE(checker.flush_epoch(), checker.write_epoch());
}

// ---------------------------------------------------------------------------
// Device level.

TEST(PmemDeviceCheckerTest, DdioOffFlushSatisfiesAck) {
  PmemDevice dev(1 * kMiB, /*ddio_enabled=*/false);
  const std::string payload(256, 'p');
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice(payload)).ok());
  // Acking before the flush READ is the bug.
  EXPECT_TRUE(dev.CheckPersisted(0, payload.size(), "early-ack").IsCorruption());
  dev.FlushViaRdmaRead();
  EXPECT_TRUE(dev.CheckPersisted(0, payload.size(), "post-flush").ok());
}

TEST(PmemDeviceCheckerTest, DdioOnFlushReadIsANoOp) {
  PmemDevice dev(1 * kMiB, /*ddio_enabled=*/true);
  const std::string payload(256, 'p');
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice(payload)).ok());
  dev.FlushViaRdmaRead();  // hits the LLC; drains nothing
  EXPECT_TRUE(dev.CheckPersisted(0, payload.size(), "ddio-ack").IsCorruption());
  EXPECT_GT(dev.persist_checker().violations(), 0u);
  dev.PersistAll();  // explicit barrier is the only way out with DDIO on
  EXPECT_TRUE(dev.CheckPersisted(0, payload.size(), "barrier-ack").ok());
}

TEST(PmemDeviceCheckerTest, LocalWriteIsImmediatelyDurable) {
  PmemDevice dev(1 * kMiB, /*ddio_enabled=*/false);
  const std::string meta(64, 'm');
  ASSERT_TRUE(dev.WriteLocal(4096, Slice(meta)).ok());
  EXPECT_TRUE(dev.CheckPersisted(4096, meta.size(), "local-ack").ok());
}

// ---------------------------------------------------------------------------
// End to end: the AStore write path acks only after the flush READ chain.

class AStoreAckPathTest : public ::testing::Test {
 protected:
  void Build(bool ddio_enabled) {
    rpc_ = std::make_unique<net::RpcTransport>(&env_);
    fabric_ = std::make_unique<net::RdmaFabric>(&env_);
    sim::NodeConfig cm_cfg;
    cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    cm_node_ = env_.AddNode("cm", cm_cfg);
    cm_ = std::make_unique<astore::ClusterManager>(
        &env_, rpc_.get(), cm_node_, astore::ClusterManager::Options{});
    for (int i = 0; i < 3; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::OptanePmem(env_.NextSeed());
      sim::SimNode* node = env_.AddNode("pmem-" + std::to_string(i), cfg);
      astore::AStoreServer::Options opts;
      opts.pmem_capacity = 16 * kMiB;
      opts.ddio_enabled = ddio_enabled;
      servers_.push_back(std::make_unique<astore::AStoreServer>(
          &env_, rpc_.get(), fabric_.get(), node, opts));
      cm_->RegisterServer(servers_.back().get());
    }
    sim::NodeConfig dbe_cfg;
    dbe_cfg.cpu_cores = 20;
    dbe_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    dbe_ = env_.AddNode("dbe", dbe_cfg);
    client_ = std::make_unique<astore::AStoreClient>(
        &env_, rpc_.get(), fabric_.get(), cm_node_, dbe_, 1,
        astore::AStoreClient::Options{});
    ASSERT_TRUE(client_->Connect().ok());
  }

  sim::SimEnvironment env_;
  std::unique_ptr<net::RpcTransport> rpc_;
  std::unique_ptr<net::RdmaFabric> fabric_;
  sim::SimNode* cm_node_ = nullptr;
  sim::SimNode* dbe_ = nullptr;
  std::unique_ptr<astore::ClusterManager> cm_;
  std::vector<std::unique_ptr<astore::AStoreServer>> servers_;
  std::unique_ptr<astore::AStoreClient> client_;
};

TEST_F(AStoreAckPathTest, DdioOffAppendAcksClean) {
  Build(/*ddio_enabled=*/false);
  auto seg = client_->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  const std::string payload(512, 'x');
  uint64_t offset = 0;
  ASSERT_TRUE(client_->Append(*seg, Slice(payload), &offset).ok());
  EXPECT_TRUE(
      client_->VerifyPersisted(*seg, offset, payload.size(), "test").ok());
  for (auto& server : servers_) {
    EXPECT_EQ(server->pmem()->persist_checker().violations(), 0u);
  }
}

TEST_F(AStoreAckPathTest, DdioEnabledAppendTripsCheckerAtAck) {
  // The deliberate acked-before-flush configuration: with DDIO enabled the
  // chained RDMA READ flushes nothing, so the client-side durability claim
  // at ack time must fail — this is the checker doing its job. Reverting
  // the VerifyPersisted guard in AStoreClient::PostRecordGroup makes this
  // Append succeed and the test fail.
  Build(/*ddio_enabled=*/true);
  auto seg = client_->CreateSegment(1 * kMiB, 3);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  const std::string payload(512, 'x');
  Status s = client_->Append(*seg, Slice(payload), nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  uint64_t total_violations = 0;
  for (auto& server : servers_) {
    total_violations += server->pmem()->persist_checker().violations();
  }
  EXPECT_GT(total_violations, 0u);
}

}  // namespace
}  // namespace vedb::pmem
