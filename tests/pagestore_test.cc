#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "obs/metrics.h"
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

  /// A chain record with its page.
  struct Chained {
    uint64_t seq;
    uint64_t lsn;
    PageKey key;
    std::string payload;
  };

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

  /// Sends `records` ({seq, lsn, key, payload}) to one replica's ship
  /// service; false if the call failed (its node is down).
  bool ShipTo(int shard, int replica, const std::vector<Chained>& records) {
    std::string req;
    PutFixed32(&req, static_cast<uint32_t>(records.size()));
    for (const Chained& c : records) {
      PutFixed64(&req, c.seq);
      PutFixed64(&req, c.lsn);
      PutFixed64(&req, c.key);
      PutLengthPrefixedSlice(&req, Slice(c.payload));
    }
    return rpc_
        ->CallParallel(client_, {store_->ReplicaNodes(shard)[replica]},
                       "ps.ship." + std::to_string(shard) + "." +
                           std::to_string(replica),
                       Slice(req), nullptr)[0]
        .ok();
  }

  /// Reads `key` from one replica's read service, which first applies what
  /// the replica can (and gossips when it cannot reach `min_lsn`).
  Status ReadFrom(int shard, int replica, PageKey key, uint64_t min_lsn,
                  std::string* image, uint64_t* lsn) {
    std::string req, resp;
    PutFixed64(&req, key);
    PutFixed64(&req, min_lsn);
    Status s = rpc_->Call(client_, store_->ReplicaNodes(shard)[replica],
                          "ps.read_page." + std::to_string(shard) + "." +
                              std::to_string(replica),
                          Slice(req), &resp);
    if (!s.ok()) return s;
    *lsn = DecodeFixed64(resp.data());
    image->assign(resp.data() + 8, resp.size() - 8);
    return Status::OK();
  }

  /// Asks one replica's fetch service for every record it holds above
  /// `after`; false if the call failed (its node is down).
  bool FetchFrom(int shard, int replica, uint64_t after,
                 std::vector<Chained>* out) {
    std::string req, resp;
    PutFixed64(&req, after);
    if (!rpc_->Call(client_, store_->ReplicaNodes(shard)[replica],
                    "ps.fetch." + std::to_string(shard) + "." +
                        std::to_string(replica),
                    Slice(req), &resp)
             .ok()) {
      return false;
    }
    Slice in(resp);
    Slice raw;
    EXPECT_TRUE(GetFixedBytes(&in, 4, &raw));
    const uint32_t count = DecodeFixed32(raw.data());
    out->clear();
    for (uint32_t i = 0; i < count; ++i) {
      Chained c;
      Slice payload;
      EXPECT_TRUE(GetFixedBytes(&in, 8, &raw));
      c.seq = DecodeFixed64(raw.data());
      EXPECT_TRUE(GetFixedBytes(&in, 8, &raw));
      c.lsn = DecodeFixed64(raw.data());
      EXPECT_TRUE(GetFixedBytes(&in, 8, &raw));
      c.key = DecodeFixed64(raw.data());
      EXPECT_TRUE(GetLengthPrefixedSlice(&in, &payload));
      c.payload = payload.ToString();
      out->push_back(std::move(c));
    }
    EXPECT_TRUE(in.empty());
    return true;
  }

  /// Applies what replica `replica` of `shard` can and returns its image.
  std::string LocalImage(int shard, int replica, PageKey key) {
    std::string image;
    uint64_t applied = 0;
    Status s = store_->PeekLocalPage(store_->ReplicaNodes(shard)[replica],
                                     key, &image, &applied);
    return s.ok() ? image : "<" + s.ToString() + ">";
  }

  /// Runs the background apply/gossip actors for `d` of virtual time.
  void RunBackground(Duration d) {
    sim::ActorGroup group(env_.clock());
    store_->StartBackground(&group);
    env_.clock()->SleepFor(d);
    store_->Shutdown();
  }

  /// The seeded shared-version property run (below).
  void CheckVersionsAgainstChainPrefixes(uint64_t seed);
  /// The seeded shared-chain property run (below).
  void CheckChainAgainstReplicaReferences(uint64_t seed);

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

// Replicas share page versions. A seeded run of raw ships with per-replica
// drops, gossip catch-up, truncation, installs placed mid-run and a replica
// down for a stretch; every read, from every replica, must return exactly
// the page's last install image with the records of that replica's applied
// chain prefix stamped after the install applied through the ApplyFn.
void PageStoreTest::CheckVersionsAgainstChainPrefixes(uint64_t seed) {
  constexpr int kShards = 4;
  constexpr size_t kPagesPerShard = 6;
  {
    Random rng(seed);
    auto one_in = [&rng](uint64_t n) { return rng.Uniform(n) == 0; };
    struct Base {
      std::string image;
      uint64_t lsn = 0;
      bool exists = false;
      uint64_t seq = 0;  // the chain head the install replaced the page at
    };
    std::vector<std::vector<PageKey>> keys(kShards);
    std::map<PageKey, Base> base;
    for (PageKey k = 0; keys[0].size() < kPagesPerShard ||
                        keys[1].size() < kPagesPerShard ||
                        keys[2].size() < kPagesPerShard ||
                        keys[3].size() < kPagesPerShard;
         ++k) {
      const int s = store_->ShardOf(k);
      if (keys[s].size() >= kPagesPerShard) continue;
      keys[s].push_back(k);
      if (one_in(2)) {  // installed; the rest start from nothing
        Base& b = base[k];
        b.image = "i" + std::to_string(k) + ":";
        b.lsn = rng.Uniform(3);
        b.exists = true;
        ASSERT_TRUE(store_->InstallPageDirect(k, b.lsn, Slice(b.image)).ok());
      }
    }
    std::vector<std::vector<Chained>> chain(kShards);  // chain[s][seq - 1]
    uint64_t lsn = 10;
    int down = -1;  // node down for a stretch
    int down_until = 0;
    int reads = 0;
    int installs = 0;
    for (int step = 0; step < 600; ++step) {
      if (down >= 0 && step >= down_until) {
        nodes_[down]->SetAlive(true);
        down = -1;
      } else if (down < 0 && one_in(60)) {
        down = static_cast<int>(rng.Uniform(3));
        down_until = step + 20 + static_cast<int>(rng.Uniform(60));
        nodes_[down]->SetAlive(false);
      }
      const int s = static_cast<int>(rng.Uniform(kShards));
      const uint32_t action = rng.Uniform(100);
      if (action < 50) {
        // Ship a batch; each replica misses it with probability 1/4, but
        // at least one copy lands so gossip can fill every hole.
        std::vector<Chained> batch;
        const int n = 1 + static_cast<int>(rng.Uniform(6));
        for (int i = 0; i < n; ++i) {
          const PageKey key = keys[s][rng.Uniform(kPagesPerShard)];
          batch.push_back({chain[s].size() + 1, lsn++, key,
                           std::string(1, static_cast<char>('a' + rng.Uniform(26)))});
          chain[s].push_back(batch.back());
        }
        bool landed = false;
        for (int r = 0; r < 3; ++r) {
          if (one_in(4) && (landed || r < 2)) continue;
          landed |= ShipTo(s, r, batch);
        }
        if (!landed) {
          for (int r = 0; r < 3 && !landed; ++r) landed = ShipTo(s, r, batch);
        }
        ASSERT_TRUE(landed);
      } else if (action < 93) {
        // Read one page from one replica, sometimes demanding the shard's
        // newest LSN so a lagging replica gossips first.
        const int r = static_cast<int>(rng.Uniform(3));
        const PageKey key = keys[s][rng.Uniform(kPagesPerShard)];
        const uint64_t min_lsn =
            one_in(3) && !chain[s].empty() ? chain[s].back().lsn : 0;
        std::string image;
        uint64_t got_lsn = 0;
        Status st = ReadFrom(s, r, key, min_lsn, &image, &got_lsn);
        if (!store_->ReplicaNodes(s)[r]->alive()) {
          EXPECT_FALSE(st.ok());
          continue;
        }
        // Nothing else runs, so the replica's prefix is where the read's
        // apply left it.
        const uint64_t prefix = store_->ContiguousSeq(s, r);
        auto reference = [&](PageKey k, std::string* want, uint64_t* lsn) {
          const Base& b = base[k];
          *want = b.image;
          *lsn = b.lsn;
          bool exists = b.exists;
          for (uint64_t seq = b.seq + 1; seq <= prefix; ++seq) {
            const Chained& c = chain[s][seq - 1];
            if (c.key != k) continue;
            AppendApply(k, Slice(c.payload), c.lsn, want);
            *lsn = std::max(*lsn, c.lsn);
            exists = true;
          }
          return exists;
        };
        std::string want;
        uint64_t want_lsn;
        const bool exists = reference(key, &want, &want_lsn);
        if (st.IsStale()) continue;  // behind min_lsn even after gossip
        reads++;
        if (!exists) {
          EXPECT_TRUE(st.IsNotFound()) << st.ToString();
        } else {
          ASSERT_TRUE(st.ok()) << st.ToString();
          EXPECT_EQ(image, want) << "seed " << seed << " step " << step
                                 << " shard " << s << " replica " << r;
          EXPECT_EQ(got_lsn, want_lsn) << "seed " << seed << " step " << step;
        }
        // Every other page of the replica stands at the same prefix.
        for (PageKey k : keys[s]) {
          uint64_t applied = 0;
          Status peek = store_->PeekLocalPage(store_->ReplicaNodes(s)[r], k,
                                              &image, &applied);
          EXPECT_EQ(applied, 0u);
          if (!reference(k, &want, &want_lsn)) {
            EXPECT_TRUE(peek.IsNotFound()) << peek.ToString();
            continue;
          }
          ASSERT_TRUE(peek.ok()) << peek.ToString();
          EXPECT_EQ(image, want) << "seed " << seed << " step " << step
                                 << " shard " << s << " replica " << r
                                 << " page " << k;
        }
      } else if (action < 96) {
        // Install a page mid-run: it replaces the page as of the shard's
        // chain head, which some replicas have applied and others not.
        const PageKey key = keys[s][rng.Uniform(kPagesPerShard)];
        Base& b = base[key];
        b.image = "j" + std::to_string(step) + ":";
        b.lsn = lsn++;
        b.exists = true;
        b.seq = chain[s].size();
        ASSERT_TRUE(store_->InstallPageDirect(key, b.lsn, Slice(b.image)).ok());
        installs++;
      } else {
        // Truncate below what every replica of every shard has received,
        // so a replica that is behind can still catch up from its peers.
        uint64_t bound = UINT64_MAX;
        for (int t = 0; t < kShards; ++t) {
          uint64_t low = UINT64_MAX;
          for (int r = 0; r < 3; ++r) {
            low = std::min(low, store_->ContiguousSeq(t, r));
          }
          if (low < chain[t].size()) bound = std::min(bound, chain[t][low].lsn);
        }
        store_->TruncateBelow(bound);
      }
    }
    if (down >= 0) nodes_[down]->SetAlive(true);
    EXPECT_GT(reads, 200);
    EXPECT_GT(installs, 5);
    // A replica pins at most its own one buffer per page.
    for (int s = 0; s < kShards; ++s) {
      EXPECT_LE(store_->DistinctImages(s), 3 * kPagesPerShard);
    }
  }
}

TEST_F(PageStoreTest, SharedVersionsMatchEachReplicasChainPrefixSeed1) {
  CheckVersionsAgainstChainPrefixes(1);
}
TEST_F(PageStoreTest, SharedVersionsMatchEachReplicasChainPrefixSeed2) {
  CheckVersionsAgainstChainPrefixes(2);
}
TEST_F(PageStoreTest, SharedVersionsMatchEachReplicasChainPrefixSeed3) {
  CheckVersionsAgainstChainPrefixes(3);
}

// Replicas share one REDO chain per shard. A seeded run of raw ships with
// per-replica drops, late duplicates, gossip catch-up, truncation (some of
// it past what a laggard has received) and a replica down for a stretch,
// checked against a reference of which records each replica holds: every
// replica's retained records, fetch responses and page reads, and the
// chain's record count and bytes, must match it.
void PageStoreTest::CheckChainAgainstReplicaReferences(uint64_t seed) {
  constexpr int kShards = 4;
  constexpr size_t kPagesPerShard = 5;
  const obs::Gauge* chain_bytes =
      obs::MetricsRegistry::Default().GetGauge("pagestore.chain_bytes");
  const int64_t bytes0 = chain_bytes->value();
  Random rng(seed);
  auto one_in = [&rng](uint64_t n) { return rng.Uniform(n) == 0; };
  std::vector<std::vector<PageKey>> keys(kShards);
  for (PageKey k = 0;; ++k) {
    const int s = store_->ShardOf(k);
    if (keys[s].size() < kPagesPerShard) keys[s].push_back(k);
    bool full = true;
    for (const auto& in_shard : keys) full &= in_shard.size() == kPagesPerShard;
    if (full) break;
  }
  // The reference: what each replica holds and its watermarks.
  struct Ref {
    std::set<uint64_t> held;
    uint64_t contiguous = 0;
    uint64_t max_seen = 0;
    uint64_t applied = 0;
  };
  std::vector<std::vector<Chained>> chain(kShards);  // chain[s][seq - 1]
  std::vector<std::vector<Ref>> ref(kShards, std::vector<Ref>(3));
  auto lsn_of = [&](int s, uint64_t seq) {
    return seq == 0 ? 0 : chain[s][seq - 1].lsn;
  };
  auto insert = [&](int s, int r, const std::vector<uint64_t>& seqs) {
    Ref& x = ref[s][r];
    for (uint64_t seq : seqs) {
      x.held.insert(seq);
      x.max_seen = std::max(x.max_seen, seq);
    }
    while (x.held.count(x.contiguous + 1) != 0) x.contiguous++;
  };
  auto gossip = [&](int s, int r) {
    const uint64_t after = ref[s][r].contiguous;
    for (int p = 0; p < 3; ++p) {
      if (p == r || !store_->ReplicaNodes(s)[p]->alive()) continue;
      const std::set<uint64_t>& peer = ref[s][p].held;
      insert(s, r, std::vector<uint64_t>(peer.upper_bound(after), peer.end()));
      if (ref[s][r].contiguous >= ref[s][r].max_seen) break;
    }
  };
  auto check_shard = [&](int s, const std::string& where) {
    std::set<uint64_t> distinct;
    for (int r = 0; r < 3; ++r) {
      const Ref& x = ref[s][r];
      EXPECT_EQ(store_->RetainedRecords(s, r),
                std::vector<uint64_t>(x.held.begin(), x.held.end()))
          << where << " replica " << r;
      EXPECT_EQ(store_->ContiguousSeq(s, r), x.contiguous)
          << where << " replica " << r;
      distinct.insert(x.held.begin(), x.held.end());
    }
    EXPECT_EQ(store_->ChainRecords(s), distinct.size()) << where;
  };
  auto expected_bytes = [&] {
    int64_t bytes = 0;
    for (int s = 0; s < kShards; ++s) {
      std::set<uint64_t> distinct;
      for (const Ref& x : ref[s]) distinct.insert(x.held.begin(), x.held.end());
      for (uint64_t seq : distinct) {
        bytes += static_cast<int64_t>(chain[s][seq - 1].payload.size());
      }
    }
    return bytes;
  };

  uint64_t lsn = 10;
  int down = -1;
  int down_until = 0;
  int reads = 0;
  int fetches = 0;
  for (int step = 0; step < 800; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    if (down >= 0 && step >= down_until) {
      nodes_[down]->SetAlive(true);
      down = -1;
    } else if (down < 0 && one_in(60)) {
      down = static_cast<int>(rng.Uniform(3));
      down_until = step + 20 + static_cast<int>(rng.Uniform(60));
      nodes_[down]->SetAlive(false);
    }
    const int s = static_cast<int>(rng.Uniform(kShards));
    const uint32_t action = rng.Uniform(100);
    if (action < 45) {
      // A new batch; each replica misses it with probability 1/4, but at
      // least one copy lands.
      std::vector<Chained> batch;
      std::vector<uint64_t> seqs;
      const int n = 1 + static_cast<int>(rng.Uniform(6));
      for (int i = 0; i < n; ++i) {
        const PageKey key = keys[s][rng.Uniform(kPagesPerShard)];
        std::string payload(1 + rng.Uniform(40),
                            static_cast<char>('a' + rng.Uniform(26)));
        batch.push_back({chain[s].size() + 1, lsn++, key, std::move(payload)});
        chain[s].push_back(batch.back());
        seqs.push_back(batch.back().seq);
      }
      bool landed = false;
      for (int r = 0; r < 3; ++r) {
        if (one_in(4) && (landed || r < 2)) continue;
        if (ShipTo(s, r, batch)) {
          insert(s, r, seqs);
          landed = true;
        }
      }
      for (int r = 0; r < 3 && !landed; ++r) {
        if (ShipTo(s, r, batch)) {
          insert(s, r, seqs);
          landed = true;
        }
      }
      ASSERT_TRUE(landed);
    } else if (action < 52) {
      // A late duplicate of an older run of the chain, truncated or not.
      if (chain[s].empty()) continue;
      const uint64_t from = 1 + rng.Uniform(chain[s].size());
      const uint64_t to =
          std::min<uint64_t>(chain[s].size(), from + rng.Uniform(3));
      std::vector<Chained> batch(chain[s].begin() + (from - 1),
                                 chain[s].begin() + to);
      std::vector<uint64_t> seqs;
      for (const Chained& c : batch) seqs.push_back(c.seq);
      const int r = static_cast<int>(rng.Uniform(3));
      if (ShipTo(s, r, batch)) insert(s, r, seqs);
    } else if (action < 87) {
      // Read one page; sometimes demand the shard's newest LSN so a replica
      // that cannot reach it gossips first.
      const int r = static_cast<int>(rng.Uniform(3));
      const PageKey key = keys[s][rng.Uniform(kPagesPerShard)];
      const uint64_t min_lsn =
          one_in(3) && !chain[s].empty() ? chain[s].back().lsn : 0;
      std::string image;
      uint64_t got_lsn = 0;
      Status st = ReadFrom(s, r, key, min_lsn, &image, &got_lsn);
      if (!store_->ReplicaNodes(s)[r]->alive()) {
        EXPECT_FALSE(st.ok()) << where;
        continue;
      }
      Ref& x = ref[s][r];
      if (lsn_of(s, x.contiguous) < min_lsn) gossip(s, r);
      x.applied = x.contiguous;
      if (lsn_of(s, x.applied) < min_lsn) {
        EXPECT_TRUE(st.IsStale()) << where << " " << st.ToString();
        check_shard(s, where);
        continue;
      }
      reads++;
      for (PageKey k : keys[s]) {
        std::string want;
        uint64_t want_lsn = 0;
        for (uint64_t seq = 1; seq <= x.applied; ++seq) {
          const Chained& c = chain[s][seq - 1];
          if (c.key != k) continue;
          AppendApply(k, Slice(c.payload), c.lsn, &want);
          want_lsn = c.lsn;
        }
        // The read page came back over RPC; every other page of the
        // replica stands at the same prefix.
        Status got = st;
        std::string got_image = image;
        if (k != key) {
          uint64_t applied = 0;
          got = store_->PeekLocalPage(store_->ReplicaNodes(s)[r], k,
                                      &got_image, &applied);
          EXPECT_EQ(applied, 0u) << where;
        }
        if (want_lsn == 0) {
          EXPECT_TRUE(got.IsNotFound()) << where << " " << got.ToString();
          continue;
        }
        ASSERT_TRUE(got.ok()) << where << " " << got.ToString();
        EXPECT_EQ(got_image, want) << where << " replica " << r << " page "
                                   << k;
        if (k == key) {
          EXPECT_EQ(got_lsn, want_lsn) << where;
        }
      }
    } else if (action < 95) {
      // Fetch what one replica holds above a random point of the chain.
      const int r = static_cast<int>(rng.Uniform(3));
      const uint64_t after = rng.Uniform(chain[s].size() + 1);
      std::vector<Chained> got;
      if (!FetchFrom(s, r, after, &got)) {
        EXPECT_FALSE(store_->ReplicaNodes(s)[r]->alive()) << where;
        continue;
      }
      fetches++;
      const std::set<uint64_t>& held = ref[s][r].held;
      std::vector<uint64_t> want(held.upper_bound(after), held.end());
      ASSERT_EQ(got.size(), want.size()) << where;
      for (size_t i = 0; i < got.size(); ++i) {
        const Chained& c = chain[s][want[i] - 1];
        EXPECT_EQ(got[i].seq, c.seq) << where;
        EXPECT_EQ(got[i].lsn, c.lsn) << where;
        EXPECT_EQ(got[i].key, c.key) << where;
        EXPECT_EQ(got[i].payload, c.payload) << where;
      }
    } else {
      // Truncate: usually below what every replica of every shard has
      // received, sometimes everything applied (a laggard then can no
      // longer fill its hole from its peers).
      uint64_t bound = lsn;
      if (!one_in(4)) {
        for (int t = 0; t < kShards; ++t) {
          uint64_t low = UINT64_MAX;
          for (const Ref& x : ref[t]) low = std::min(low, x.contiguous);
          if (low < chain[t].size()) {
            bound = std::min(bound, chain[t][low].lsn);
          }
        }
      }
      store_->TruncateBelow(bound);
      for (int t = 0; t < kShards; ++t) {
        for (Ref& x : ref[t]) {
          for (auto it = x.held.begin();
               it != x.held.end() && *it <= x.applied;) {
            it = lsn_of(t, *it) < bound ? x.held.erase(it) : std::next(it);
          }
        }
      }
      for (int t = 0; t < kShards; ++t) check_shard(t, where);
    }
    check_shard(s, where);
    EXPECT_EQ(chain_bytes->value() - bytes0, expected_bytes()) << where;
  }
  if (down >= 0) nodes_[down]->SetAlive(true);
  EXPECT_GT(reads, 150);
  EXPECT_GT(fetches, 30);
}

TEST_F(PageStoreTest, SharedChainMatchesEachReplicasReferenceSeed1) {
  CheckChainAgainstReplicaReferences(1);
}
TEST_F(PageStoreTest, SharedChainMatchesEachReplicasReferenceSeed2) {
  CheckChainAgainstReplicaReferences(2);
}
TEST_F(PageStoreTest, SharedChainMatchesEachReplicasReferenceSeed3) {
  CheckChainAgainstReplicaReferences(3);
}

// Three replicas that receive the same records keep one copy of each. A
// replica that dies pins only the records it held: however much is shipped
// while it is down, the chain shrinks back to them once the live replicas
// truncate, and to nothing once it is back, applies and truncates.
TEST_F(PageStoreTest, DeadReplicaPinsOnlyTheRecordsItHeld) {
  const obs::Gauge* chain_bytes =
      obs::MetricsRegistry::Default().GetGauge("pagestore.chain_bytes");
  const int64_t bytes0 = chain_bytes->value();
  const int shard = 0;
  std::vector<PageKey> keys;
  for (PageKey k = 0; keys.size() < 20; ++k) {
    if (store_->ShardOf(k) == shard) keys.push_back(k);
  }
  const std::string payload(32, 'r');
  uint64_t lsn = 1;
  auto ship = [&](uint64_t n) {
    std::vector<RedoShipRecord> batch;
    for (uint64_t i = 0; i < n; ++i, ++lsn) {
      batch.push_back(Rec(keys[lsn % keys.size()], lsn, payload));
    }
    ASSERT_TRUE(store_->ShipRecords(client_, batch).ok());
  };
  const int dead = 1;
  constexpr uint64_t kHeld = 50;
  ship(kHeld);
  EXPECT_EQ(store_->ChainRecords(shard), kHeld);  // once, not three times
  EXPECT_EQ(chain_bytes->value() - bytes0,
            static_cast<int64_t>(kHeld * payload.size()));

  // The replica dies holding kHeld records it never applied.
  store_->ReplicaNodes(shard)[dead]->SetAlive(false);
  for (int round = 0; round < 300; ++round) {
    ship(10);
    for (int r = 0; r < 3; ++r) {
      if (r != dead) LocalImage(shard, r, keys[0]);
    }
    EXPECT_LE(store_->ChainRecords(shard), kHeld + 10 * (round % 10 + 1));
    if (round % 10 == 9) {
      store_->TruncateBelow(lsn);
      EXPECT_EQ(store_->ChainRecords(shard), kHeld) << "round " << round;
      EXPECT_EQ(chain_bytes->value() - bytes0,
                static_cast<int64_t>(kHeld * payload.size()));
    }
  }
  std::vector<uint64_t> first_held(kHeld);
  for (uint64_t i = 0; i < kHeld; ++i) first_held[i] = i + 1;
  EXPECT_EQ(store_->RetainedRecords(shard, dead), first_held);

  // Back up, it applies what it holds; then nothing pins the chain.
  store_->ReplicaNodes(shard)[dead]->SetAlive(true);
  LocalImage(shard, dead, keys[0]);
  store_->TruncateBelow(lsn);
  EXPECT_EQ(store_->ChainRecords(shard), 0u);
  EXPECT_EQ(chain_bytes->value(), bytes0);
}

// Three replicas that apply the same records hold one buffer per page.
TEST_F(PageStoreTest, LockstepReplicasShareOneBufferPerPage) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Counter* built = reg.GetCounter("pagestore.versions_built");
  const obs::Counter* adopted = reg.GetCounter("pagestore.versions_adopted");
  const obs::Gauge* bytes = reg.GetGauge("pagestore.image_bytes");
  const uint64_t built0 = built->value();
  const uint64_t adopted0 = adopted->value();
  const int64_t bytes0 = bytes->value();

  const int shard = 1;
  const PageKey a = KeyInShard(shard);
  PageKey b = a + 1;
  while (store_->ShardOf(b) != shard) b++;
  ASSERT_TRUE(store_->InstallPageDirect(a, 1, Slice("A:")).ok());
  EXPECT_EQ(store_->DistinctImages(shard), 1u);  // one install, shared
  for (int round = 0; round < 5; ++round) {
    const uint64_t lsn = 10 + 3 * round;
    ASSERT_TRUE(store_->ShipRecords(client_, {Rec(a, lsn, "x"),
                                              Rec(b, lsn + 1, "y"),
                                              Rec(a, lsn + 2, "z")})
                    .ok());
    for (int r = 0; r < 3; ++r) LocalImage(shard, r, a);
    EXPECT_EQ(store_->DistinctImages(shard), 2u) << "round " << round;
  }
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(LocalImage(shard, r, a), "A:xzxzxzxzxz");
    EXPECT_EQ(LocalImage(shard, r, b), "yyyyy");
  }
  // Per round replica 0 builds both pages and the other two adopt them.
  EXPECT_EQ(built->value() - built0, 10u);
  EXPECT_EQ(adopted->value() - adopted0, 20u);
  EXPECT_EQ(bytes->value() - bytes0,
            static_cast<int64_t>(std::string("A:xzxzxzxzxz").size() + 5));
}

// A replica adopts a page version only from a peer whose current image
// stands exactly at it. Replica 0 applies the page through two runs before
// replica 1 applies anything; replica 1 then builds the first version
// itself, since no peer holds it any more, and adopts the second.
TEST_F(PageStoreTest, ReplicaAdoptsOnlyAVersionAPeerStillHolds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Counter* built = reg.GetCounter("pagestore.versions_built");
  const obs::Counter* adopted = reg.GetCounter("pagestore.versions_adopted");
  const int shard = 2;
  const PageKey key = KeyInShard(shard);
  ASSERT_TRUE(store_->InstallPageDirect(key, 1, Slice("I:")).ok());
  const uint64_t built0 = built->value();
  const uint64_t adopted0 = adopted->value();
  auto expect_counts = [&](uint64_t b, uint64_t a) {
    EXPECT_EQ(built->value() - built0, b);
    EXPECT_EQ(adopted->value() - adopted0, a);
  };

  ShipRaw(shard, 0, key, {{1, 10, "a"}});
  EXPECT_EQ(LocalImage(shard, 0, key), "I:a");  // t1 = 1
  ShipRaw(shard, 0, key, {{2, 11, "b"}});
  EXPECT_EQ(LocalImage(shard, 0, key), "I:ab");  // t2 = 2
  expect_counts(2, 0);

  ShipRaw(shard, 1, key, {{1, 10, "a"}});
  EXPECT_EQ(LocalImage(shard, 1, key), "I:a");  // built: replica 0 is at t2
  expect_counts(3, 0);
  ShipRaw(shard, 1, key, {{2, 11, "b"}});
  EXPECT_EQ(LocalImage(shard, 1, key), "I:ab");  // adopted from replica 0
  expect_counts(3, 1);
  EXPECT_EQ(store_->DistinctImages(shard), 2u);  // replica 2: the install

  ShipRaw(shard, 2, key, {{1, 10, "a"}, {2, 11, "b"}});
  EXPECT_EQ(LocalImage(shard, 2, key), "I:ab");  // one run, to t2: adopted
  expect_counts(3, 2);
  EXPECT_EQ(store_->DistinctImages(shard), 1u);
}

// An install replaces its page as of the chain head it is stamped with. A
// record shipped before the install is skipped by every replica, both the
// one that applied it before the install and the one that applies it
// after, so the replicas serve the same bytes and share one buffer. A
// replica that keeps the install neither builds nor adopts.
TEST_F(PageStoreTest, ReplicasConvergeAndShareAcrossAMidRunInstall) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Counter* built = reg.GetCounter("pagestore.versions_built");
  const obs::Counter* adopted = reg.GetCounter("pagestore.versions_adopted");
  const uint64_t built0 = built->value();
  const uint64_t adopted0 = adopted->value();
  auto expect_counts = [&](uint64_t b, uint64_t a) {
    EXPECT_EQ(built->value() - built0, b);
    EXPECT_EQ(adopted->value() - adopted0, a);
  };
  const int shard = 2;
  const PageKey key = KeyInShard(shard);
  auto ship_all = [&](uint64_t seq, uint64_t lsn, const std::string& p) {
    for (int r = 0; r < 3; ++r) ShipRaw(shard, r, key, {{seq, lsn, p}});
  };
  auto expect_all = [&](const std::string& want) {
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(LocalImage(shard, r, key), want) << "replica " << r;
    }
    EXPECT_EQ(store_->DistinctImages(shard), 1u) << want;
  };
  ship_all(1, 1, "a");
  EXPECT_EQ(LocalImage(shard, 1, key), "a");  // replica 1 applies first
  expect_counts(1, 0);
  ASSERT_TRUE(store_->InstallPageDirect(key, 5, Slice("I")).ok());
  expect_all("I");  // replicas 0 and 2 apply "a" after the install
  expect_counts(1, 0);
  ship_all(2, 6, "b");
  expect_all("Ib");  // replica 0 builds seq 2, the others adopt it
  expect_counts(2, 2);
  ship_all(3, 7, "c");
  expect_all("Ibc");
  expect_counts(3, 4);
}

// A dead replica pins at most its own one buffer per page: while it is
// down the shard holds at most two buffers per page, and no bytes beyond
// them, and once it is back it catches up by adopting its peers' versions.
TEST_F(PageStoreTest, DeadReplicaPinsAtMostOneBufferPerPage) {
  const obs::Gauge* bytes =
      obs::MetricsRegistry::Default().GetGauge("pagestore.image_bytes");
  const int64_t bytes0 = bytes->value();
  int64_t pinned = 0;  // the bytes of the dead replica's images
  const int shard = 0;
  std::vector<PageKey> keys;
  for (PageKey k = 0; keys.size() < 50; ++k) {
    if (store_->ShardOf(k) == shard) keys.push_back(k);
  }
  const int dead = 1;
  sim::SimNode* dead_node = store_->ReplicaNodes(shard)[dead];
  uint64_t lsn = 1;
  std::vector<std::string> want(keys.size());
  auto ship = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; i += 10) {
      std::vector<RedoShipRecord> batch;
      for (int j = 0; j < 10; ++j, ++lsn) {
        const size_t page = (lsn * 7) % keys.size();
        const std::string payload(1, static_cast<char>('a' + lsn % 26));
        batch.push_back(Rec(keys[page], lsn, payload));
        want[page] += payload;
      }
      ASSERT_TRUE(store_->ShipRecords(client_, batch).ok());
      for (int r = 0; r < 3; ++r) {
        if (store_->ReplicaNodes(shard)[r]->alive()) {
          LocalImage(shard, r, keys[0]);
        }
      }
      EXPECT_LE(store_->DistinctImages(shard), 2 * keys.size());
      int64_t live = 0;  // the bytes of the live replicas' images
      for (const std::string& page : want) {
        live += static_cast<int64_t>(page.size());
      }
      EXPECT_LE(bytes->value() - bytes0, pinned + live) << "lsn " << lsn;
    }
  };
  ship(500);  // every replica holds every page
  EXPECT_EQ(store_->DistinctImages(shard), keys.size());
  for (const std::string& page : want) {
    pinned += static_cast<int64_t>(page.size());
  }
  dead_node->SetAlive(false);
  const uint64_t records = 3600;
  ship(records - 500);
  EXPECT_EQ(store_->ContiguousSeq(shard, dead), 500u);
  dead_node->SetAlive(true);
  RunBackground(100 * kMillisecond);  // gossip brings the replica back
  EXPECT_EQ(store_->ContiguousSeq(shard, dead), records);
  for (size_t p = 0; p < keys.size(); ++p) {
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(LocalImage(shard, r, keys[p]), want[p]) << p << " " << r;
    }
  }
  EXPECT_EQ(store_->DistinctImages(shard), keys.size());
}

TEST_F(PageStoreTest, ShardingSpreadsPages) {
  std::set<int> shards;
  for (PageKey k = 0; k < 64; ++k) shards.insert(store_->ShardOf(k));
  EXPECT_GT(shards.size(), 2u);
}

}  // namespace
}  // namespace vedb::pagestore
