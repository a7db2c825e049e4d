#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "net/rpc.h"
#include "pagestore/pagestore.h"
#include "sim/env.h"

namespace vedb::pagestore {
namespace {

// Toy REDO format for tests: the payload is simply appended to the image.
void AppendApply(PageKey, Slice payload, uint64_t, std::string* image) {
  image->append(payload.data(), payload.size());
}

class PageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rpc_ = std::make_unique<net::RpcTransport>(&env_);
    for (int i = 0; i < 3; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
      nodes_.push_back(env_.AddNode("ps-" + std::to_string(i), cfg));
    }
    sim::NodeConfig ccfg;
    ccfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    client_ = env_.AddNode("dbe", ccfg);

    PageStoreCluster::Options opts;
    opts.num_shards = 4;
    opts.replication = 3;
    opts.write_quorum = 2;
    store_ = std::make_unique<PageStoreCluster>(&env_, rpc_.get(), nodes_,
                                                AppendApply, opts);
  }

  RedoShipRecord Rec(PageKey key, uint64_t lsn, const std::string& payload) {
    return RedoShipRecord{key, lsn, payload};
  }

  /// A page key that lands in `shard`.
  PageKey KeyInShard(int shard) {
    PageKey key = 0;
    while (store_->ShardOf(key) != shard) key++;
    return key;
  }

  /// One record of a hand-built ship request: {seq, lsn, payload}.
  struct Wire {
    uint64_t seq;
    uint64_t lsn;
    std::string payload;
  };

  /// Sends `records` for `key`, in the given order, straight to one
  /// replica's ship service (bypassing ShipRecords' sequence stamping).
  void ShipRaw(int shard, int replica, PageKey key,
               const std::vector<Wire>& records) {
    std::string req;
    PutFixed32(&req, static_cast<uint32_t>(records.size()));
    for (const Wire& w : records) {
      PutFixed64(&req, w.seq);
      PutFixed64(&req, w.lsn);
      PutFixed64(&req, key);
      PutLengthPrefixedSlice(&req, Slice(w.payload));
    }
    auto statuses = rpc_->CallParallel(
        client_, {store_->ReplicaNodes(shard)[replica]},
        "ps.ship." + std::to_string(shard) + "." + std::to_string(replica),
        Slice(req), nullptr);
    ASSERT_TRUE(statuses[0].ok());
  }

  /// Applies what replica `replica` of `shard` can and returns its image.
  std::string LocalImage(int shard, int replica, PageKey key) {
    std::string image;
    Status s = store_->ReadLocalPage(store_->ReplicaNodes(shard)[replica],
                                     key, &image);
    return s.ok() ? image : "<" + s.ToString() + ">";
  }

  /// Runs the background apply/gossip actors for `d` of virtual time.
  void RunBackground(Duration d) {
    sim::ActorGroup group(env_.clock());
    store_->StartBackground(&group);
    env_.clock()->SleepFor(d);
    store_->Shutdown();
  }

  sim::SimEnvironment env_;
  std::unique_ptr<net::RpcTransport> rpc_;
  std::vector<sim::SimNode*> nodes_;
  sim::SimNode* client_ = nullptr;
  std::unique_ptr<PageStoreCluster> store_;
};

TEST_F(PageStoreTest, ShipThenReadMaterializesPage) {
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(7, 1, "hello "),
                                            Rec(7, 2, "world")})
                  .ok());
  std::string image;
  uint64_t lsn = 0;
  ASSERT_TRUE(store_->ReadPage(client_, 7, &image, &lsn).ok());
  EXPECT_EQ(image, "hello world");
  EXPECT_EQ(lsn, 2u);
}

TEST_F(PageStoreTest, ReadUnknownPageIsNotFound) {
  std::string image;
  EXPECT_TRUE(store_->ReadPage(client_, 999, &image, nullptr).IsNotFound());
}

TEST_F(PageStoreTest, RecordsForDifferentPagesStayIndependent) {
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(1, 1, "a"), Rec(2, 2, "b"),
                                            Rec(1, 3, "c")})
                  .ok());
  std::string image;
  ASSERT_TRUE(store_->ReadPage(client_, 1, &image, nullptr).ok());
  EXPECT_EQ(image, "ac");
  ASSERT_TRUE(store_->ReadPage(client_, 2, &image, nullptr).ok());
  EXPECT_EQ(image, "b");
}

TEST_F(PageStoreTest, QuorumSurvivesOneDeadReplica) {
  nodes_[2]->SetAlive(false);
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(5, 1, "x")}).ok());
  std::string image;
  ASSERT_TRUE(store_->ReadPage(client_, 5, &image, nullptr).ok());
  EXPECT_EQ(image, "x");
}

TEST_F(PageStoreTest, LosingQuorumFailsShip) {
  nodes_[0]->SetAlive(false);
  nodes_[1]->SetAlive(false);
  // Every shard places replicas on all 3 nodes (3 nodes, repl 3), so any
  // shard write now has at most 1 ack < quorum 2.
  EXPECT_TRUE(store_->ShipRecords(client_, {Rec(5, 1, "x")}).IsUnavailable());
}

TEST_F(PageStoreTest, GossipFillsHoles) {
  // Take one node down during a ship (it misses records), bring it back,
  // and let a synchronous catch-up serve a consistent read from it.
  nodes_[1]->SetAlive(false);
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(11, 1, "first ")}).ok());
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(11, 2, "second")}).ok());
  nodes_[1]->SetAlive(true);

  // Force reads to hit every replica (round-robin inside ReadPage tries
  // replicas in order; read several times so the lagging one serves too).
  for (int i = 0; i < 3; ++i) {
    std::string image;
    uint64_t lsn = 0;
    ASSERT_TRUE(store_->ReadPage(client_, 11, &image, &lsn).ok());
    EXPECT_EQ(image, "first second");
    EXPECT_EQ(lsn, 2u);
  }
}

TEST_F(PageStoreTest, BackgroundGossipRepairsLaggards) {
  nodes_[2]->SetAlive(false);
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(21, 1, "data")}).ok());
  nodes_[2]->SetAlive(true);

  {
    sim::ActorGroup group(env_.clock());
    store_->StartBackground(&group);
    env_.clock()->SleepFor(200 * kMillisecond);
    store_->Shutdown();
  }
  EXPECT_GT(store_->GossipFillCount(), 0u);
}

TEST_F(PageStoreTest, DurableLsnTracksQuorumAcks) {
  EXPECT_EQ(store_->DurableLsn(), 0u);
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(1, 1, "a"), Rec(2, 2, "b"),
                                            Rec(3, 3, "c")})
                  .ok());
  EXPECT_EQ(store_->DurableLsn(), 3u);
}

TEST_F(PageStoreTest, InstallPageDirectServesReads) {
  ASSERT_TRUE(store_->InstallPageDirect(42, 5, Slice("bulk-loaded")).ok());
  std::string image;
  uint64_t lsn = 0;
  ASSERT_TRUE(store_->ReadPage(client_, 42, &image, &lsn).ok());
  EXPECT_EQ(image, "bulk-loaded");
  EXPECT_EQ(lsn, 5u);
}

TEST_F(PageStoreTest, TruncateDropsOnlyAppliedRecords) {
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(9, 1, "a"), Rec(9, 2, "b")})
                  .ok());
  std::string image;
  ASSERT_TRUE(store_->ReadPage(client_, 9, &image, nullptr).ok());  // applies
  store_->TruncateBelow(100);
  // The page image must remain readable after record GC.
  ASSERT_TRUE(store_->ReadPage(client_, 9, &image, nullptr).ok());
  EXPECT_EQ(image, "ab");
}

TEST_F(PageStoreTest, OutOfOrderBatchStopsAtTheHoleUntilGossipFillsIt) {
  const PageKey key = KeyInShard(1);
  // Replica 0 receives seqs 3 and 1 (out of order); seq 2 is missing.
  ShipRaw(1, 0, key, {{3, 30, "c"}, {1, 10, "a"}});
  EXPECT_EQ(store_->ContiguousSeq(1, 0), 1u);
  EXPECT_EQ(store_->RetainedRecords(1, 0), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(LocalImage(1, 0, key), "a");  // apply stops at the hole

  // A peer holds the whole chain; gossip fills the hole and apply catches
  // up past it.
  ShipRaw(1, 1, key, {{1, 10, "a"}, {2, 20, "b"}, {3, 30, "c"}});
  RunBackground(100 * kMillisecond);
  EXPECT_EQ(store_->ContiguousSeq(1, 0), 3u);
  EXPECT_GT(store_->GossipFillCount(), 0u);
  EXPECT_EQ(LocalImage(1, 0, key), "abc");
}

TEST_F(PageStoreTest, TruncateReleasesTheAppliedPrefixOnly) {
  const PageKey key = KeyInShard(2);
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(key, 1, "a"), Rec(key, 2, "b"),
                                            Rec(key, 3, "c")})
                  .ok());
  // Only replica 0 applies; replicas 1 and 2 keep their records unapplied.
  EXPECT_EQ(LocalImage(2, 0, key), "abc");
  store_->TruncateBelow(3);
  EXPECT_EQ(store_->RetainedRecords(2, 0), (std::vector<uint64_t>{3}));
  EXPECT_EQ(store_->RetainedRecords(2, 1), (std::vector<uint64_t>{1, 2, 3}));
  store_->TruncateBelow(100);
  EXPECT_TRUE(store_->RetainedRecords(2, 0).empty());
  EXPECT_EQ(store_->RetainedRecords(2, 2), (std::vector<uint64_t>{1, 2, 3}));
  // Truncation never loses state: every replica still serves the page.
  for (int r = 0; r < 3; ++r) EXPECT_EQ(LocalImage(2, r, key), "abc");
  store_->TruncateBelow(100);
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(store_->RetainedRecords(2, r).empty());
  }
}

TEST_F(PageStoreTest, LaggardFetchingAfterPeerTruncationGetsOnlyRetained) {
  const int shard = 3;
  const PageKey key = KeyInShard(shard);
  const int lagging = (2 - shard % 3 + 3) % 3;  // the replica on nodes_[2]
  ASSERT_EQ(store_->ReplicaNodes(shard)[lagging], nodes_[2]);
  nodes_[2]->SetAlive(false);
  ASSERT_TRUE(store_->ShipRecords(client_, {Rec(key, 1, "a"), Rec(key, 2, "b"),
                                            Rec(key, 3, "c")})
                  .ok());
  for (int r = 0; r < 3; ++r) {
    if (r == lagging) continue;
    EXPECT_EQ(LocalImage(shard, r, key), "abc");
  }
  store_->TruncateBelow(3);  // peers keep only seq 3
  nodes_[2]->SetAlive(true);
  RunBackground(100 * kMillisecond);
  EXPECT_EQ(store_->RetainedRecords(shard, lagging),
            (std::vector<uint64_t>{3}));
  EXPECT_EQ(store_->ContiguousSeq(shard, lagging), 0u);
  EXPECT_EQ(LocalImage(shard, lagging, key),
            "<NotFound: no such page on this replica>");
}

TEST_F(PageStoreTest, ApplySkipsTruncatedSequenceNumbers) {
  const PageKey key = KeyInShard(0);
  ShipRaw(0, 0, key, {{1, 1, "a"}, {2, 2, "b"}, {3, 3, "c"}});
  EXPECT_EQ(LocalImage(0, 0, key), "abc");
  store_->TruncateBelow(100);
  EXPECT_TRUE(store_->RetainedRecords(0, 0).empty());
  // A late duplicate of truncated seq 2 arrives with the next record; apply
  // resumes after seq 3 and never replays the duplicate.
  ShipRaw(0, 0, key, {{2, 2, "b"}, {4, 4, "d"}});
  EXPECT_EQ(store_->RetainedRecords(0, 0), (std::vector<uint64_t>{2, 4}));
  EXPECT_EQ(store_->ContiguousSeq(0, 0), 4u);
  EXPECT_EQ(LocalImage(0, 0, key), "abcd");
  store_->TruncateBelow(100);
  EXPECT_TRUE(store_->RetainedRecords(0, 0).empty());
  ShipRaw(0, 0, key, {{5, 5, "e"}});
  EXPECT_EQ(LocalImage(0, 0, key), "abcde");
}

TEST_F(PageStoreTest, ShardingSpreadsPages) {
  std::set<int> shards;
  for (PageKey k = 0; k < 64; ++k) shards.insert(store_->ShardOf(k));
  EXPECT_GT(shards.size(), 2u);
}

}  // namespace
}  // namespace vedb::pagestore
