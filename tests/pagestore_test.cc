#include <gtest/gtest.h>

#include <memory>
#include <string>

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
    env_.clock()->RegisterActor();
  }
  void TearDown() override { env_.clock()->UnregisterActor(); }

  RedoShipRecord Rec(PageKey key, uint64_t lsn, const std::string& payload) {
    return RedoShipRecord{key, lsn, payload};
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

TEST_F(PageStoreTest, ShardingSpreadsPages) {
  std::set<int> shards;
  for (PageKey k = 0; k < 64; ++k) shards.insert(store_->ShardOf(k));
  EXPECT_GT(shards.size(), 2u);
}

}  // namespace
}  // namespace vedb::pagestore
