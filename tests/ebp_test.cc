#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "common/random.h"
#include "ebp/ebp.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::ebp {
namespace {

class EbpTest : public ::testing::Test {
 protected:
  void SetUp() override {
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
      opts.pmem_capacity = 32 * kMiB;
      servers_.push_back(std::make_unique<astore::AStoreServer>(
          &env_, rpc_.get(), fabric_.get(), node, opts));
      cm_->RegisterServer(servers_.back().get());
      agents_.push_back(std::make_unique<EbpServerAgent>(
          &env_, rpc_.get(), servers_.back().get()));
    }
    sim::NodeConfig dbe_cfg;
    dbe_cfg.cpu_cores = 20;
    dbe_cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    dbe_ = env_.AddNode("dbe", dbe_cfg);
    client_ = std::make_unique<astore::AStoreClient>(
        &env_, rpc_.get(), fabric_.get(), cm_node_, dbe_, /*client_id=*/77,
        astore::AStoreClient::Options{});
    ASSERT_TRUE(client_->Connect().ok());
  }

  ExtendedBufferPool::Options SmallOptions() {
    ExtendedBufferPool::Options o;
    o.capacity = 2 * kMiB;
    o.page_size = 16 * kKiB;
    o.segment_size = 512 * kKiB;
    return o;
  }

  std::string Image(char fill) { return std::string(16 * kKiB, fill); }

  sim::SimEnvironment env_;
  std::unique_ptr<net::RpcTransport> rpc_;
  std::unique_ptr<net::RdmaFabric> fabric_;
  sim::SimNode* cm_node_ = nullptr;
  sim::SimNode* dbe_ = nullptr;
  std::unique_ptr<astore::ClusterManager> cm_;
  std::vector<std::unique_ptr<astore::AStoreServer>> servers_;
  std::vector<std::unique_ptr<EbpServerAgent>> agents_;
  std::unique_ptr<astore::AStoreClient> client_;
};

TEST_F(EbpTest, PutThenGetHits) {
  ExtendedBufferPool ebp(&env_, client_.get(), SmallOptions());
  ASSERT_TRUE(ebp.PutPage(42, 10, Slice(Image('a'))).ok());
  std::string image;
  uint64_t lsn = 0;
  ASSERT_TRUE(ebp.GetPage(42, &image, &lsn).ok());
  EXPECT_EQ(image, Image('a'));
  EXPECT_EQ(lsn, 10u);
  EXPECT_EQ(ebp.stats().hits, 1u);
}

TEST_F(EbpTest, MissReturnsNotFound) {
  ExtendedBufferPool ebp(&env_, client_.get(), SmallOptions());
  std::string image;
  EXPECT_TRUE(ebp.GetPage(1, &image, nullptr).IsNotFound());
  EXPECT_EQ(ebp.stats().misses, 1u);
}

TEST_F(EbpTest, NewerVersionReplacesOlder) {
  ExtendedBufferPool ebp(&env_, client_.get(), SmallOptions());
  ASSERT_TRUE(ebp.PutPage(7, 1, Slice(Image('x'))).ok());
  ASSERT_TRUE(ebp.PutPage(7, 2, Slice(Image('y'))).ok());
  std::string image;
  uint64_t lsn = 0;
  ASSERT_TRUE(ebp.GetPage(7, &image, &lsn).ok());
  EXPECT_EQ(image, Image('y'));
  EXPECT_EQ(lsn, 2u);
}

TEST_F(EbpTest, CapacityEvictsLeastRecentlyUsed) {
  auto opts = SmallOptions();  // 2MiB capacity = ~127 16KiB pages
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  const int kPages = 200;
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 1, Slice(Image('p'))).ok());
  }
  EXPECT_GT(ebp.stats().evicted_pages, 0u);
  EXPECT_LE(ebp.stats().live_bytes, opts.capacity);
  // The most recently inserted page must still be cached; the earliest one
  // must be gone.
  EXPECT_TRUE(ebp.Contains(kPages - 1));
  EXPECT_FALSE(ebp.Contains(0));
}

TEST_F(EbpTest, GetRefreshesRecency) {
  auto opts = SmallOptions();
  opts.lru_shards = 1;  // deterministic single list
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  ASSERT_TRUE(ebp.PutPage(0, 1, Slice(Image('a'))).ok());
  const int kPages = 120;  // fills most of the 2MiB capacity
  for (int i = 1; i < kPages; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 1, Slice(Image('b'))).ok());
    std::string image;
    // discard-ok: touch traffic to keep page 0 hot; a miss is fine.
    (void)ebp.GetPage(0, &image, nullptr);
  }
  for (int i = kPages; i < kPages + 40; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 1, Slice(Image('c'))).ok());
    std::string image;
    // discard-ok: touch traffic; only recency matters here.
    (void)ebp.GetPage(0, &image, nullptr);
  }
  EXPECT_TRUE(ebp.Contains(0));  // survived several eviction rounds
}

TEST_F(EbpTest, PriorityPolicyProtectsHighClassPages) {
  auto opts = SmallOptions();
  opts.policy = ExtendedBufferPool::Policy::kPriority;
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  // Fill with high-priority pages, then low-priority churn.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(ebp.PutPage(1000 + i, 1, Slice(Image('h')), 3).ok());
  }
  for (int i = 0; i < 200; ++i) {
    // discard-ok: may fail NoSpace once the placement class fills up.
    (void)ebp.PutPage(i, 1, Slice(Image('l')), 0);
  }
  int high_survivors = 0;
  for (int i = 0; i < 60; ++i) {
    if (ebp.Contains(1000 + i)) high_survivors++;
  }
  EXPECT_EQ(high_survivors, 60);  // churn evicted only the low class
}

TEST_F(EbpTest, LowPriorityCannotStarveCapacity) {
  auto opts = SmallOptions();
  opts.policy = ExtendedBufferPool::Policy::kPriority;
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  int cached = 0;
  for (int i = 0; i < 200; ++i) {
    if (ebp.PutPage(i, 1, Slice(Image('l')), 0).ok()) cached++;
  }
  // Class 0 is capped at 25% of capacity (~31 pages of 16KiB+hdr).
  EXPECT_LE(ebp.stats().live_bytes, opts.capacity / 4 + 32 * kKiB);
}

TEST_F(EbpTest, DeadServerDegradesToMissNotError) {
  ExtendedBufferPool ebp(&env_, client_.get(), SmallOptions());
  ASSERT_TRUE(ebp.PutPage(5, 1, Slice(Image('d'))).ok());
  for (auto& s : servers_) s->node()->SetAlive(false);
  std::string image;
  EXPECT_TRUE(ebp.GetPage(5, &image, nullptr).IsNotFound());
  EXPECT_GE(ebp.stats().misses, 1u);
}

TEST_F(EbpTest, CompactionReclaimsGarbageWithoutLosingLivePages) {
  auto opts = SmallOptions();
  opts.segment_size = 256 * kKiB;  // ~15 pages per segment
  opts.garbage_threshold = 0.4;
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  // Two generations of the same keys: v1 becomes garbage.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 1, Slice(Image('1'))).ok());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 2, Slice(Image('2'))).ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ebp.CompactOnce().ok());
  }
  EXPECT_GT(ebp.stats().compactions, 0u);
  EXPECT_EQ(ebp.stats().dropped_live_pages, 0u);
  for (int i = 0; i < 30; ++i) {
    std::string image;
    uint64_t lsn = 0;
    ASSERT_TRUE(ebp.GetPage(i, &image, &lsn).ok()) << "page " << i;
    EXPECT_EQ(lsn, 2u);
  }
}

TEST_F(EbpTest, NoCompactionDropsLivePagesFromGarbageSegments) {
  auto opts = SmallOptions();
  opts.segment_size = 256 * kKiB;
  opts.enable_compaction = false;
  opts.garbage_threshold = 0.4;
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 1, Slice(Image('1'))).ok());
  }
  // Overwrite only every second key so garbage-heavy segments still hold
  // live pages.
  for (int i = 0; i < 30; i += 2) {
    ASSERT_TRUE(ebp.PutPage(i, 2, Slice(Image('2'))).ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ebp.CompactOnce().ok());
  }
  EXPECT_GT(ebp.stats().dropped_live_pages, 0u);
}

TEST_F(EbpTest, CompactionPassKeepsFootprintBounded) {
  // 8 MiB of live pages over 3 x 32 MiB of PMem, rewritten for 20x the
  // capacity. A pass must reclaim every garbage-heavy segment, or the pool
  // leaks segments until CreateSegment runs out of PMem and puts fail.
  ExtendedBufferPool::Options opts;
  opts.capacity = 8 * kMiB;
  opts.segment_size = 2 * kMiB;
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Gauge* segments = reg.GetGauge("ebp.segments");
  const obs::Counter* failures = reg.GetCounter("ebp.put_failures");
  const uint64_t failures0 = failures->value();
  const int64_t bound =
      static_cast<int64_t>(std::ceil(
          static_cast<double>(opts.capacity) /
          ((1 - opts.garbage_threshold) * opts.segment_size))) +
      2;

  const int kKeys = 600;  // ~9.4 MiB: evictions add garbage too
  const int kPutsPerPass = 256;  // 4 MiB of frames between passes
  const uint64_t puts = 20 * opts.capacity / Image('k').size();
  Random rng(15);
  for (uint64_t i = 1; i <= puts; ++i) {
    ASSERT_TRUE(ebp.PutPage(rng.Uniform(kKeys), i, Slice(Image('k'))).ok())
        << "put " << i;
    if (i % kPutsPerPass != 0) continue;
    ASSERT_TRUE(ebp.CompactOnce().ok());
    ASSERT_LT(ebp.WorstSealedGarbageRatio(), opts.garbage_threshold)
        << "after put " << i;
    ASSERT_LE(segments->value(), bound) << "after put " << i;
  }
  EXPECT_EQ(failures->value(), failures0);
  EXPECT_GT(ebp.stats().compactions, 0u);
}

TEST_F(EbpTest, BackgroundCompactionWaitsForSpacePressure) {
  // Garbage-heavy segments are left alone while the sealed segments hold
  // less than capacity / (1 - threshold) (4 MiB here): moving their live
  // pages would only spend PMem writes. Past that, a pass reclaims them.
  auto opts = SmallOptions();  // 2 MiB capacity, 512 KiB segments
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  const int kKeys = 30;  // ~0.5 MiB of frames per generation
  uint64_t lsn = 0;
  auto put_generation = [&] {
    lsn++;
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(ebp.PutPage(i, lsn, Slice(Image('0' + lsn % 10))).ok());
    }
  };
  {
    sim::ActorGroup background(env_.clock());
    ebp.StartBackground(&background);
    put_generation();
    put_generation();  // the first generation's segment is now garbage
    env_.clock()->SleepFor(5 * opts.compaction_period);
    EXPECT_EQ(ebp.stats().compactions, 0u);

    for (int g = 0; g < 8; ++g) put_generation();  // ~5 MiB appended
    env_.clock()->SleepFor(2 * opts.compaction_period);
    EXPECT_GT(ebp.stats().compactions, 0u);
    EXPECT_LT(ebp.WorstSealedGarbageRatio(), opts.garbage_threshold);
    ebp.Shutdown();
  }
  EXPECT_EQ(ebp.stats().dropped_live_pages, 0u);
  for (int i = 0; i < kKeys; ++i) {
    std::string image;
    uint64_t got = 0;
    ASSERT_TRUE(ebp.GetPage(i, &image, &got).ok()) << "page " << i;
    EXPECT_EQ(got, lsn);
  }
}

TEST_F(EbpTest, ConcurrentPutsOfOneKeyKeepTheNewestVersion) {
  // Both puts pass the pre-write index check before either installs; the
  // older LSN installs last and must not replace the newer one or leave a
  // second LRU node behind.
  auto opts = SmallOptions();
  opts.lru_shards = 1;  // eviction walks one list in strict LRU order
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  {
    sim::ActorGroup group(env_.clock());
    group.Spawn(
        [&] { ASSERT_TRUE(ebp.PutPage(9, 2, Slice(Image('2'))).ok()); });
    group.Spawn([&] {
      env_.clock()->SleepFor(100);  // after the LSN-2 put has started
      ASSERT_TRUE(ebp.PutPage(9, 1, Slice(Image('1'))).ok());
    });
  }
  std::string image;
  uint64_t lsn = 0;
  ASSERT_TRUE(ebp.GetPage(9, &image, &lsn).ok());
  ASSERT_EQ(lsn, 2u);
  EXPECT_TRUE(image == Image('2'));
  // An older put that starts after the install is dropped before it writes.
  ASSERT_TRUE(ebp.PutPage(9, 1, Slice(Image('1'))).ok());
  ASSERT_TRUE(ebp.GetPage(9, &image, &lsn).ok());
  ASSERT_EQ(lsn, 2u);
  ASSERT_EQ(ebp.stats().live_bytes, PageFrame::kHeaderSize + Image('2').size());

  // Three capacities of other pages evict every old LRU node, key 9's
  // included; an orphaned second node for it would abort the eviction.
  for (int i = 100; i < 500; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 1, Slice(Image('f'))).ok());
  }
  EXPECT_FALSE(ebp.Contains(9));
  EXPECT_LE(ebp.stats().live_bytes, opts.capacity);
}

TEST_F(EbpTest, RecoverySurvivesDbeCrash) {
  auto opts = SmallOptions();
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 5, Slice(Image('r'))).ok());
  }
  // Engine modified page 3 after it was cached (EBP copy is stale) and told
  // the server agents about it before crashing.
  ebp.NoteLatestLsn(3, 9);
  ASSERT_TRUE(ebp.FlushLsnReports().ok());

  // "DBEngine crashes": build a brand-new pool and rebuild from servers.
  ExtendedBufferPool recovered(&env_, client_.get(), opts);
  ASSERT_TRUE(recovered.RecoverFromServers(cm_->ListSegments(77)).ok());

  std::string image;
  uint64_t lsn = 0;
  int present = 0;
  for (int i = 0; i < 20; ++i) {
    if (recovered.GetPage(i, &image, &lsn).ok()) {
      present++;
      EXPECT_EQ(image, Image('r'));
    }
  }
  EXPECT_EQ(present, 19);                  // page 3 pruned as stale
  EXPECT_FALSE(recovered.Contains(3));
}

TEST_F(EbpTest, RecoveryKeepsNewestVersion) {
  auto opts = SmallOptions();
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  ASSERT_TRUE(ebp.PutPage(1, 4, Slice(Image('o'))).ok());
  ASSERT_TRUE(ebp.PutPage(1, 8, Slice(Image('n'))).ok());

  ExtendedBufferPool recovered(&env_, client_.get(), opts);
  ASSERT_TRUE(recovered.RecoverFromServers(cm_->ListSegments(77)).ok());
  std::string image;
  uint64_t lsn = 0;
  ASSERT_TRUE(recovered.GetPage(1, &image, &lsn).ok());
  EXPECT_EQ(lsn, 8u);
  EXPECT_EQ(image, Image('n'));
}

TEST_F(EbpTest, IndexLockSerializesConcurrentAccess) {
  // Section VII-B: EBP index contention degrades under high concurrency.
  // With a serial index lock, average op latency must grow with clients.
  auto opts = SmallOptions();
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  ASSERT_TRUE(ebp.PutPage(0, 1, Slice(Image('z'))).ok());

  auto run = [&](int clients) -> double {
    const int kOpsPer = 30;
    std::atomic<uint64_t> total_latency{0};
    {
      sim::ActorGroup group(env_.clock());
      for (int c = 0; c < clients; ++c) {
        group.Spawn([&] {
          std::string image;
          uint64_t mine = 0;
          for (int i = 0; i < kOpsPer; ++i) {
            Timestamp t0 = env_.clock()->Now();
            // discard-ok: timed traffic; latency is what is measured.
            (void)ebp.GetPage(0, &image, nullptr);
            mine += env_.clock()->Now() - t0;
          }
          total_latency += mine;
        });
      }
    }
    return static_cast<double>(total_latency.load()) / (clients * kOpsPer);
  };
  double lat1 = run(1);
  double lat16 = run(16);
  EXPECT_GT(lat16, lat1 * 1.5);
}

}  // namespace
}  // namespace vedb::ebp

namespace vedb::ebp {
namespace {

TEST_F(EbpTest, ServerRestartRecoversPagesFromLocalPmem) {
  // The paper's last future-work item, end to end: an AStore server process
  // dies (node down, in-memory state lost, PMem intact), restarts, rebuilds
  // its segment table from the persisted segment-meta, the CM re-attaches
  // the single-replica EBP segments, and the EBP re-admits the surviving
  // pages without touching PageStore.
  auto opts = SmallOptions();
  ExtendedBufferPool ebp(&env_, client_.get(), opts);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(ebp.PutPage(i, 3, Slice(Image('r'))).ok());
  }

  // Find the server hosting page 7's segment and crash its process.
  ExtendedBufferPool::Placement placement;
  ASSERT_TRUE(ebp.LookupPlacement(7, &placement));
  astore::AStoreServer* victim = nullptr;
  for (auto& s : servers_) {
    if (s->node()->name() == placement.node) victim = s.get();
  }
  ASSERT_NE(victim, nullptr);
  victim->node()->SetAlive(false);
  victim->CrashProcess();
  cm_->CheckHealthNow();  // marks dead; single-replica segments lose routes

  // Reads of its pages now miss (and are dropped from the index).
  std::string image;
  EXPECT_TRUE(ebp.GetPage(7, &image, nullptr).IsNotFound());

  // Restart: recover the segment table from PMem, rejoin the cluster.
  auto recovered = victim->RestartFromPmem();
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(*recovered, 0u);
  victim->node()->SetAlive(true);
  cm_->CheckHealthNow();  // CM re-attaches the surviving replica locations

  // Re-admit the surviving pages into the EBP index.
  ASSERT_TRUE(ebp.ReattachSegments(cm_->ListSegments(77)).ok());
  ASSERT_TRUE(ebp.GetPage(7, &image, nullptr).ok());
  EXPECT_EQ(image, Image('r'));
}

}  // namespace
}  // namespace vedb::ebp
