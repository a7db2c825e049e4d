#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "blob/blob_store.h"
#include "logstore/logstore.h"
#include "sim/env.h"

namespace vedb::logstore {
namespace {

// Shared cluster with both an SSD blob service and an AStore deployment, so
// both LogStore backends can be exercised side by side.
class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rpc_ = std::make_unique<net::RpcTransport>(&env_);
    fabric_ = std::make_unique<net::RdmaFabric>(&env_);

    // SSD blob boxes.
    std::vector<sim::SimNode*> blob_nodes;
    for (int i = 0; i < 3; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
      blob_nodes.push_back(env_.AddNode("ssd-" + std::to_string(i), cfg));
    }
    blob_ = std::make_unique<blob::BlobStoreCluster>(
        &env_, rpc_.get(), blob_nodes, blob::BlobStoreCluster::Options{});

    // AStore.
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
      opts.pmem_capacity = 32 * kMiB;
      servers_.push_back(std::make_unique<astore::AStoreServer>(
          &env_, rpc_.get(), fabric_.get(), node, opts));
      cm_->RegisterServer(servers_.back().get());
    }

    sim::NodeConfig dbe_cfg;
    dbe_cfg.cpu_cores = 20;
    dbe_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    dbe_ = env_.AddNode("dbe", dbe_cfg);
    aclient_ = std::make_unique<astore::AStoreClient>(
        &env_, rpc_.get(), fabric_.get(), cm_node_, dbe_, 1,
        astore::AStoreClient::Options{});
    env_.clock()->RegisterActor();
    ASSERT_TRUE(aclient_->Connect().ok());
  }
  void TearDown() override { env_.clock()->UnregisterActor(); }

  std::unique_ptr<BlobLogStore> MakeBlobLog() {
    BlobLogStore::Options opts;
    auto res = BlobLogStore::Create(&env_, blob_.get(), dbe_, opts);
    EXPECT_TRUE(res.ok());
    return std::move(res).value();
  }

  std::unique_ptr<AStoreLogStore> MakeAStoreLog() {
    AStoreLogStore::Options opts;
    opts.ring.segment_size = 128 * kKiB;
    opts.ring.ring_size = 4;
    auto res = AStoreLogStore::Create(&env_, aclient_.get(), opts);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return std::move(res).value();
  }

  sim::SimEnvironment env_;
  std::unique_ptr<net::RpcTransport> rpc_;
  std::unique_ptr<net::RdmaFabric> fabric_;
  std::unique_ptr<blob::BlobStoreCluster> blob_;
  sim::SimNode* cm_node_ = nullptr;
  sim::SimNode* dbe_ = nullptr;
  std::unique_ptr<astore::ClusterManager> cm_;
  std::vector<std::unique_ptr<astore::AStoreServer>> servers_;
  std::unique_ptr<astore::AStoreClient> aclient_;
};

TEST_F(LogStoreTest, BlobBackendAppendAssignsDenseLsns) {
  auto log = MakeBlobLog();
  auto r1 = log->AppendBatch({"a", "b", "c"});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->first_lsn, 1u);
  EXPECT_EQ(r1->last_lsn, 3u);
  auto r2 = log->AppendBatch({"d"});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->first_lsn, 4u);
  EXPECT_EQ(log->NextLsn(), 5u);
}

TEST_F(LogStoreTest, BlobBackendReadBack) {
  auto log = MakeBlobLog();
  ASSERT_TRUE(log->AppendBatch({"alpha", "beta"}).ok());
  ASSERT_TRUE(log->AppendBatch({"gamma"}).ok());
  auto records = log->ReadFrom(1);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].payload, "alpha");
  EXPECT_EQ((*records)[2].payload, "gamma");
  auto tail = log->ReadFrom(3);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].payload, "gamma");
}

TEST_F(LogStoreTest, AStoreBackendAppendAndReadBack) {
  auto log = MakeAStoreLog();
  ASSERT_TRUE(log->AppendBatch({"alpha", "beta"}).ok());
  ASSERT_TRUE(log->AppendBatch({"gamma"}).ok());
  auto records = log->ReadFrom(2);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].payload, "beta");
  EXPECT_EQ((*records)[1].payload, "gamma");
}

TEST_F(LogStoreTest, AStoreBackendRecoversAfterCrash) {
  std::vector<astore::SegmentId> segments;
  {
    auto log = MakeAStoreLog();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          log->AppendBatch({"txn-" + std::to_string(i), "extra"}).ok());
    }
    segments = log->ring()->segment_ids();
  }
  // Power-fail the PMem boxes, then recover what was acknowledged.
  for (auto& s : servers_) s->pmem()->Crash();

  std::vector<astore::LogRecord> recovered;
  AStoreLogStore::Options opts;
  opts.ring.segment_size = 128 * kKiB;
  opts.ring.ring_size = 4;
  auto log2 = AStoreLogStore::Recover(&env_, aclient_.get(), segments, 1,
                                      opts, &recovered);
  ASSERT_TRUE(log2.ok()) << log2.status().ToString();
  EXPECT_EQ(recovered.size(), 40u);  // 20 batches x 2 records
  EXPECT_EQ((*log2)->NextLsn(), 41u);

  // The recovered store keeps appending with fresh LSNs.
  auto r = (*log2)->AppendBatch({"after-crash"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first_lsn, 41u);
}

TEST_F(LogStoreTest, AStoreAppendLatencyBeatsBlobBackend) {
  // Table II's core claim, end to end through the two SDK paths.
  auto blob_log = MakeBlobLog();
  auto astore_log = MakeAStoreLog();
  const std::string payload(4 * kKiB, 'L');

  Timestamp t0 = env_.clock()->Now();
  const int kOps = 50;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(blob_log->AppendBatch({payload}).ok());
  }
  const Duration blob_lat = (env_.clock()->Now() - t0) / kOps;

  t0 = env_.clock()->Now();
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(astore_log->AppendBatch({payload}).ok());
  }
  const Duration astore_lat = (env_.clock()->Now() - t0) / kOps;

  EXPECT_LT(astore_lat * 4, blob_lat);  // paper: ~7x
}

TEST_F(LogStoreTest, ConcurrentAppendsKeepDenseMonotonicLsns) {
  auto log = MakeAStoreLog();
  constexpr int kThreads = 8, kPerThread = 25;
  std::atomic<int> failures{0};
  {
    sim::ActorGroup group(env_.clock());
    for (int t = 0; t < kThreads; ++t) {
      group.Spawn([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto r = log->AppendBatch(
              {"t" + std::to_string(t) + "-" + std::to_string(i)});
          if (!r.ok()) failures++;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(log->NextLsn(), 1u + kThreads * kPerThread);

  auto records = log->ReadFrom(1);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(),
            static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].lsn, i + 1);  // dense, sorted, no gaps
  }
}

TEST_F(LogStoreTest, RingWrapKeepsRecentRecordsReadable) {
  AStoreLogStore::Options opts;
  opts.ring.segment_size = 32 * kKiB;
  opts.ring.ring_size = 3;
  auto res = AStoreLogStore::Create(&env_, aclient_.get(), opts);
  ASSERT_TRUE(res.ok());
  auto& log = *res;
  const std::string payload(2 * kKiB, 'w');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(log->AppendBatch({payload}).ok());
  }
  // Old records were overwritten by the ring; the newest survive.
  auto records = log->ReadFrom(95);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 6u);
  EXPECT_EQ(records->back().lsn, 100u);
}

}  // namespace
}  // namespace vedb::logstore

namespace vedb::logstore {
namespace {

TEST_F(LogStoreTest, GroupCommitCoalescesConcurrentAppends) {
  // N concurrent committers must complete in far less than N sequential
  // flush latencies: followers ride the leader's flush.
  auto log = MakeAStoreLog();
  // Establish the single-append latency.
  Timestamp t0 = env_.clock()->Now();
  ASSERT_TRUE(log->AppendBatch({"solo"}).ok());
  const Duration single = env_.clock()->Now() - t0;

  constexpr int kThreads = 32;
  t0 = env_.clock()->Now();
  {
    sim::ActorGroup group(env_.clock());
    for (int i = 0; i < kThreads; ++i) {
      group.Spawn([&, i] {
        auto r = log->AppendBatch({"t" + std::to_string(i)});
        EXPECT_TRUE(r.ok());
      });
    }
  }
  const Duration all = env_.clock()->Now() - t0;
  // Coalesced: well under half of 32 sequential flushes.
  EXPECT_LT(all, single * kThreads / 2);

  // Every record still recovered, densely numbered.
  auto records = log->ReadFrom(1);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u + kThreads);
}

TEST_F(LogStoreTest, GroupCommitFailurePropagatesToWholeGroup) {
  auto log = MakeAStoreLog();
  ASSERT_TRUE(log->AppendBatch({"warm"}).ok());
  // Kill every PMem node: the next flush cannot succeed anywhere.
  for (auto& s : servers_) s->node()->SetAlive(false);
  std::atomic<int> failures{0};
  {
    sim::ActorGroup group(env_.clock());
    for (int i = 0; i < 4; ++i) {
      group.Spawn([&] {
        if (!log->AppendBatch({"doomed"}).ok()) failures++;
      });
    }
  }
  EXPECT_EQ(failures.load(), 4);
  // The watermark still resolved the failed ranges: DurableLsn advances so
  // later bookkeeping (e.g. the redo shipper) is not wedged.
  EXPECT_EQ(log->DurableLsn(), log->NextLsn() - 1);
}

TEST_F(LogStoreTest, BlobBackendGroupCommitAlsoCoalesces) {
  auto log = MakeBlobLog();
  Timestamp t0 = env_.clock()->Now();
  ASSERT_TRUE(log->AppendBatch({"solo"}).ok());
  const Duration single = env_.clock()->Now() - t0;

  constexpr int kThreads = 16;
  t0 = env_.clock()->Now();
  {
    sim::ActorGroup group(env_.clock());
    for (int i = 0; i < kThreads; ++i) {
      group.Spawn([&, i] {
        EXPECT_TRUE(log->AppendBatch({"c" + std::to_string(i)}).ok());
      });
    }
  }
  EXPECT_LT(env_.clock()->Now() - t0, single * kThreads / 2);
  auto records = log->ReadFrom(1);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u + kThreads);
}

// ---------------------------------------------------------------------------
// Crash-with-loss round trips: acked log records must survive a power
// failure that destroys everything not yet acknowledged. On both backends
// the persist checker / ack protocol guarantees acked == persisted, so the
// recovered log is exactly the acked prefix.

TEST_F(LogStoreTest, BlobBackendCrashWithLossKeepsAckedPrefix) {
  auto log = MakeBlobLog();
  ASSERT_TRUE(log->AppendBatch({"a1", "a2"}).ok());
  ASSERT_TRUE(log->AppendBatch({"b1"}).ok());

  // Tear the next append: one replica rejects its chunk, so the frame lands
  // on only two of three copies and the batch is never acknowledged.
  env_.faults()->Arm("blob.append.ssd-0", 1.0,
                     Status::IOError("power dip"), /*remaining=*/-1);
  auto torn = log->AppendBatch({"c1", "c2"});
  EXPECT_FALSE(torn.ok());
  env_.faults()->Disarm("blob.append.ssd-0");

  // Power failure: the torn, partially replicated tail comes back garbage.
  blob_->Crash();

  auto records = log->ReadFrom(1);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].payload, "a1");
  EXPECT_EQ((*records)[1].payload, "a2");
  EXPECT_EQ((*records)[2].payload, "b1");
  // The torn batch's LSN range resolved as failed, never as durable data.
  for (const auto& rec : *records) EXPECT_LT(rec.lsn, 4u);
}

TEST_F(LogStoreTest, AStoreBackendCrashWithLossKeepsAckedPrefix) {
  AStoreLogStore::Options opts;
  opts.ring.segment_size = 128 * kKiB;
  opts.ring.ring_size = 4;
  auto created = AStoreLogStore::Create(&env_, aclient_.get(), opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto log = std::move(created).value();
  ASSERT_TRUE(log->AppendBatch({"alpha", "beta"}).ok());
  ASSERT_TRUE(log->AppendBatch({"gamma"}).ok());
  const std::vector<astore::SegmentId> segments = log->ring()->segment_ids();

  // In-flight bytes at crash time: a raw RDMA WRITE that never got its
  // flush READ sits outside the persistence domain on every replica.
  const std::string inflight(1024, 'z');
  for (auto& server : servers_) {
    ASSERT_TRUE(server->pmem()
                    ->WriteFromRemote(server->pmem()->capacity() - 8 * kKiB,
                                      Slice(inflight))
                    .ok());
    EXPECT_GT(server->pmem()->PendingRangeCount(), 0u);
  }

  // Power failure on every PMem box: the pending ranges are scrambled.
  for (auto& server : servers_) server->pmem()->Crash();
  for (auto& server : servers_) {
    EXPECT_EQ(server->pmem()->PendingRangeCount(), 0u);
  }

  // Recover from the surviving segments: exactly the acked records return.
  std::vector<astore::LogRecord> recovered;
  auto reopened = AStoreLogStore::Recover(&env_, aclient_.get(), segments,
                                          /*from_lsn=*/1, opts, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), 3u);
  EXPECT_EQ(recovered[0].payload, "alpha");
  EXPECT_EQ(recovered[1].payload, "beta");
  EXPECT_EQ(recovered[2].payload, "gamma");
  EXPECT_EQ((*reopened)->NextLsn(), 4u);

  // The ordering held throughout: nothing was ever acked while volatile.
  for (auto& server : servers_) {
    EXPECT_EQ(server->pmem()->persist_checker().violations(), 0u);
  }
}

TEST_F(LogStoreTest, TimedOutWaiterPayloadStaysPinnedThroughLaterFlush) {
  // A waiter that times out mid-flight abandons its item in the queue; a
  // LATER leader flushes it. The flush reads the item's payload Slices, so
  // Item::pin must keep the bytes alive after the waiter freed every copy
  // it owned — under ASan (the fault CI job) a missing pin is a hard
  // use-after-free here, not a flaky read.
  DurabilityWatermark wm(env_.clock());
  std::vector<std::string> flushed;
  vedb::Mutex mu{"test.flushed"};
  GroupCommitter gc(
      env_.clock(), &wm,
      [&](const std::vector<GroupCommitter::Item>& items) {
        // Slow device: long enough for the follower to give up mid-flush.
        env_.clock()->SleepFor(10 * kMillisecond);
        vedb::MutexLock lk(&mu);
        for (const auto& item : items) {
          for (const Slice& p : item.payloads) flushed.push_back(p.ToString());
        }
        return Status::OK();
      });

  const std::string b_payload(2048, 'b');
  {
    sim::ActorGroup group(env_.clock());
    group.Spawn([&] {
      // Leader: starts the 10ms flush immediately.
      GroupCommitter::Item item;
      item.first_lsn = 1;
      item.last_lsn = 1;
      auto pin = std::make_shared<const std::vector<std::string>>(
          std::vector<std::string>{"a-record"});
      item.payloads.emplace_back((*pin)[0]);
      item.pin = std::move(pin);
      EXPECT_TRUE(gc.Submit(std::move(item)).ok());
    });
    group.Spawn([&] {
      // Impatient follower: queues behind the in-flight flush, gives up
      // after 2ms, and drops its only reference to the payload bytes.
      env_.clock()->SleepFor(1 * kMillisecond);
      GroupCommitter::Item item;
      item.first_lsn = 2;
      item.last_lsn = 2;
      {
        auto pin = std::make_shared<const std::vector<std::string>>(
            std::vector<std::string>{b_payload});
        item.payloads.emplace_back((*pin)[0]);
        item.pin = std::move(pin);
      }
      Status s = gc.Submit(std::move(item), /*wait_timeout=*/2 * kMillisecond);
      EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
    });
    group.Spawn([&] {
      // Patient committer: wakes when the first flush resolves, leads the
      // second, and drags the abandoned item through with it.
      env_.clock()->SleepFor(5 * kMillisecond);
      GroupCommitter::Item item;
      item.first_lsn = 3;
      item.last_lsn = 3;
      auto pin = std::make_shared<const std::vector<std::string>>(
          std::vector<std::string>{"c-record"});
      item.payloads.emplace_back((*pin)[0]);
      item.pin = std::move(pin);
      EXPECT_TRUE(gc.Submit(std::move(item)).ok());
    });
  }

  // The abandoned item was flushed intact, bytes unchanged.
  vedb::MutexLock lk(&mu);
  ASSERT_EQ(flushed.size(), 3u);
  EXPECT_EQ(flushed[0], "a-record");
  EXPECT_EQ(flushed[1], b_payload);
  EXPECT_EQ(flushed[2], "c-record");
  EXPECT_EQ(wm.durable_lsn(), 3u);
}

}  // namespace
}  // namespace vedb::logstore
