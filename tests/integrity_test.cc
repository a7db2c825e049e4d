// End-to-end data integrity: silent-corruption primitives on the simulated
// PMem device, deterministic corruption planning in the fault injector,
// verified reads with read-repair on the blob store (including the
// crash-torn-append interplay), and the AStore scrubber's repair/quarantine
// escalation ladder.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/scrubber.h"
#include "astore/server.h"
#include "blob/blob_store.h"
#include "common/crc32.h"
#include "common/coding.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "pmem/pmem_device.h"
#include "sim/env.h"
#include "sim/fault.h"

namespace vedb {
namespace {

// ---------------- PmemDevice corruption primitives ----------------

TEST(PmemCorruptionTest, BitFlipChangesExactlyOneServedBit) {
  pmem::PmemDevice dev(1 * kMiB, /*ddio_enabled=*/false);
  ASSERT_TRUE(dev.WriteLocal(0, Slice("abc")).ok());
  ASSERT_TRUE(dev.CorruptBitFlip(1, /*bit=*/2).ok());

  char buf[3];
  ASSERT_TRUE(dev.Read(0, 3, buf).ok());
  EXPECT_EQ(buf[0], 'a');
  EXPECT_EQ(buf[1], static_cast<char>('b' ^ (1 << 2)));
  EXPECT_EQ(buf[2], 'c');
  EXPECT_EQ(dev.CorruptionCount(), 1u);
}

TEST(PmemCorruptionTest, ZeroCachelineZeroesTheAlignedLine) {
  pmem::PmemDevice dev(1 * kMiB, false);
  const std::string data(128, 'x');
  ASSERT_TRUE(dev.WriteLocal(0, Slice(data)).ok());
  // Any offset inside the line zeroes the whole 64-byte aligned line.
  ASSERT_TRUE(dev.CorruptZeroCacheline(70).ok());

  std::string buf(128, '\0');
  ASSERT_TRUE(dev.Read(0, 128, buf.data()).ok());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(buf[static_cast<size_t>(i)], 'x');
  for (int i = 64; i < 128; ++i) EXPECT_EQ(buf[static_cast<size_t>(i)], '\0');
}

TEST(PmemCorruptionTest, LatentBadRegionCorruptsReadsAndHealsOnRewrite) {
  pmem::PmemDevice dev(1 * kMiB, false);
  ASSERT_TRUE(dev.WriteLocal(0, Slice("sixteen byte row")).ok());
  ASSERT_TRUE(dev.MarkBadRegion(4, 4, /*sticky=*/false).ok());
  EXPECT_TRUE(dev.HasBadRegionOverlap(0, 16));

  // Reads inside the region serve XOR-damaged bytes; outside is intact.
  std::string buf(16, '\0');
  ASSERT_TRUE(dev.Read(0, 16, buf.data()).ok());
  EXPECT_EQ(buf.substr(0, 4), "sixt");
  EXPECT_EQ(buf[4], static_cast<char>('e' ^ 0xA5));
  EXPECT_EQ(buf.substr(8), "byte row");

  // A rewrite of the range heals latent rot: this is what makes read-repair
  // and scrub rewrites genuinely fix the copy.
  ASSERT_TRUE(dev.WriteLocal(4, Slice("EENX")).ok());
  ASSERT_TRUE(dev.Read(0, 16, buf.data()).ok());
  EXPECT_EQ(buf, "sixtEENX" + std::string("byte row"));
  EXPECT_FALSE(dev.HasBadRegionOverlap(0, 16));
}

TEST(PmemCorruptionTest, StickyBadRegionSurvivesRewrite) {
  pmem::PmemDevice dev(1 * kMiB, false);
  ASSERT_TRUE(dev.WriteLocal(0, Slice("dddd")).ok());
  ASSERT_TRUE(dev.MarkBadRegion(0, 4, /*sticky=*/true).ok());

  // Failed cells: rewriting does not help, every read stays damaged. The
  // only cure is quarantining the replica.
  ASSERT_TRUE(dev.WriteLocal(0, Slice("gggg")).ok());
  char buf[4];
  ASSERT_TRUE(dev.Read(0, 4, buf).ok());
  for (char c : buf) EXPECT_EQ(c, static_cast<char>('g' ^ 0xA5));
  EXPECT_TRUE(dev.HasBadRegionOverlap(0, 4));
}

TEST(PmemCorruptionTest, CorruptionSitesAreBoundsChecked) {
  pmem::PmemDevice dev(64 * kKiB, false);
  EXPECT_FALSE(dev.CorruptBitFlip(64 * kKiB).ok());
  EXPECT_FALSE(dev.CorruptZeroCacheline(64 * kKiB).ok());
  EXPECT_FALSE(dev.MarkBadRegion(64 * kKiB - 2, 4, false).ok());
  EXPECT_EQ(dev.CorruptionCount(), 0u);
}

// ---------------- FaultInjector corruption planning ----------------

TEST(FaultInjectorCorruptionTest, ArmedSiteHonoursBudgetAndSkip) {
  sim::SimEnvironment env(42);
  env.faults()->ArmCorruption("it.site", 1.0,
                              sim::CorruptionKind::kZeroCacheline,
                              /*remaining=*/2, /*skip=*/1);
  sim::FaultInjector::CorruptionPlan plan;
  EXPECT_FALSE(env.faults()->MaybeCorrupt("it.site", &plan));  // skipped
  EXPECT_TRUE(env.faults()->MaybeCorrupt("it.site", &plan));
  EXPECT_EQ(plan.kind, sim::CorruptionKind::kZeroCacheline);
  EXPECT_TRUE(env.faults()->MaybeCorrupt("it.site", &plan));
  EXPECT_FALSE(env.faults()->MaybeCorrupt("it.site", &plan));  // exhausted
  EXPECT_EQ(env.faults()->CorruptionCount("it.site"), 2u);
}

TEST(FaultInjectorCorruptionTest, PlansAreSeedDeterministic) {
  auto draws = [](uint64_t seed) {
    sim::SimEnvironment env(seed);
    env.faults()->ArmCorruption("it.site", 1.0,
                                sim::CorruptionKind::kBitFlip);
    std::vector<uint64_t> out;
    for (int i = 0; i < 8; ++i) {
      sim::FaultInjector::CorruptionPlan plan;
      EXPECT_TRUE(env.faults()->MaybeCorrupt("it.site", &plan));
      out.push_back(plan.draw);
    }
    return out;
  };
  EXPECT_EQ(draws(1234), draws(1234));
}

TEST(FaultInjectorCorruptionTest, CorruptionStreamDoesNotShiftFaultDraws) {
  // The corruption planner has its own RNG: arming corruption sites and
  // drawing plans must not change what MaybeFail decides, or every seeded
  // campaign would diverge the moment corruption is enabled.
  auto fail_pattern = [](bool with_corruption) {
    sim::SimEnvironment env(99);
    env.faults()->Arm("it.flaky", 0.5, Status::IOError("x"));
    if (with_corruption) {
      env.faults()->ArmCorruption("it.rot", 1.0,
                                  sim::CorruptionKind::kBadRegion);
    }
    std::vector<bool> out;
    for (int i = 0; i < 32; ++i) {
      if (with_corruption) {
        sim::FaultInjector::CorruptionPlan plan;
        (void)env.faults()->MaybeCorrupt("it.rot", &plan);  // discard-ok: draw only
      }
      out.push_back(env.faults()->MaybeFail("it.flaky").ok());
    }
    return out;
  };
  EXPECT_EQ(fail_pattern(false), fail_pattern(true));
}

}  // namespace
}  // namespace vedb

// ---------------- BlobStore: verified reads under crash + bit rot --------

namespace vedb::blob {
namespace {

std::string FramedRecord(int i) {
  std::string body = "record-" + std::to_string(i) + "-payload";
  PutFixed32(&body, MaskCrc(Crc32c(0, body.data(), body.size())));
  return body;
}

Status VerifyFramedCrc(Slice data) {
  if (data.size() < 4) return Status::Corruption("short record");
  const uint32_t stored =
      UnmaskCrc(DecodeFixed32(data.data() + data.size() - 4));
  if (stored != Crc32c(0, data.data(), data.size() - 4)) {
    return Status::Corruption("crc mismatch");
  }
  return Status::OK();
}

class BlobIntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rpc_ = std::make_unique<net::RpcTransport>(&env_);
    for (int i = 0; i < 3; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
      nodes_.push_back(env_.AddNode("ssd-" + std::to_string(i), cfg));
    }
    cluster_ = std::make_unique<BlobStoreCluster>(
        &env_, rpc_.get(), nodes_, BlobStoreCluster::Options{});
    sim::NodeConfig cfg;
    cfg.cpu_cores = 16;
    cfg.storage = sim::HardwareProfile::NvmeSsd(env_.NextSeed());
    client_ = env_.AddNode("dbe", cfg);
  }

  sim::SimEnvironment env_{2026};
  std::unique_ptr<net::RpcTransport> rpc_;
  std::vector<sim::SimNode*> nodes_;
  std::unique_ptr<BlobStoreCluster> cluster_;
  sim::SimNode* client_ = nullptr;
};

TEST_F(BlobIntegrityTest, CrashTornTailPlusBitRotRepairedFromHealthyReplica) {
  auto id = cluster_->CreateBlob(client_);
  ASSERT_TRUE(id.ok());

  // Commit a run of CRC-framed records, remembering each one's offset.
  std::vector<uint64_t> offsets;
  std::vector<std::string> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(FramedRecord(i));
    uint64_t off = 0;
    ASSERT_TRUE(
        cluster_->Append(client_, *id, Slice(records.back()), &off).ok());
    offsets.push_back(off);
  }

  // Power-fail the whole cluster: every acked record survives, the torn
  // tail beyond the agreed prefix comes back as garbage.
  cluster_->Crash(/*seed=*/17);

  // Then bit rot lands on one replica's copy of a committed record.
  const std::string victim = nodes_[0]->name();
  ASSERT_TRUE(
      cluster_->CorruptReplicaBitFlip(*id, victim, offsets[3] + 2, 6).ok());

  // Verified reads return the acked bytes for every record: the corrupt
  // copy is detected by its CRC, served from a healthy replica, and the
  // bad copy is rewritten (read-repair).
  for (int i = 0; i < 8; ++i) {
    std::string out;
    Status s = cluster_->ReadVerified(client_, *id, offsets[static_cast<size_t>(i)],
                                      records[static_cast<size_t>(i)].size(),
                                      &out, VerifyFramedCrc);
    ASSERT_TRUE(s.ok()) << "record " << i << ": " << s.ToString();
    EXPECT_EQ(out, records[static_cast<size_t>(i)]);
  }

  // The victim's copy was repaired in place: a direct replica read — no
  // failover, no verification — now serves the acked bytes.
  std::string direct;
  ASSERT_TRUE(cluster_
                  ->ReadReplica(client_, *id, victim, offsets[3],
                                records[3].size(), &direct)
                  .ok());
  EXPECT_EQ(direct, records[3]);
}

TEST_F(BlobIntegrityTest, AllReplicasCorruptSurfacesDataLoss) {
  auto id = cluster_->CreateBlob(client_);
  ASSERT_TRUE(id.ok());
  const std::string rec = FramedRecord(0);
  uint64_t off = 0;
  ASSERT_TRUE(cluster_->Append(client_, *id, Slice(rec), &off).ok());
  for (sim::SimNode* n : nodes_) {
    ASSERT_TRUE(
        cluster_->CorruptReplicaBitFlip(*id, n->name(), off + 1, 3).ok());
  }
  std::string out;
  Status s = cluster_->ReadVerified(client_, *id, off, rec.size(), &out,
                                    VerifyFramedCrc);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(BlobIntegrityDeterminismTest, SeededCrashAndRepairRunsAreByteIdentical) {
  // The whole scenario — torn crash tail, bit rot, verified reads, repair —
  // must replay byte-identically under one seed: the chaos campaigns gate
  // on snapshot equality, and a nondeterministic crash scramble or repair
  // order would show up there as flakiness.
  auto transcript = [] {
    sim::SimEnvironment env(777);
    auto rpc = std::make_unique<net::RpcTransport>(&env);
    std::vector<sim::SimNode*> nodes;
    for (int i = 0; i < 3; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
      nodes.push_back(env.AddNode("ssd-" + std::to_string(i), cfg));
    }
    BlobStoreCluster cluster(&env, rpc.get(), nodes,
                             BlobStoreCluster::Options{});
    sim::NodeConfig cfg;
    cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    sim::SimNode* client = env.AddNode("dbe", cfg);

    std::string log;
    auto id = cluster.CreateBlob(client);
    std::vector<uint64_t> offsets;
    for (int i = 0; i < 6; ++i) {
      uint64_t off = 0;
      (void)cluster.Append(client, *id, Slice(FramedRecord(i)), &off);  // discard-ok: transcript captures reads
      offsets.push_back(off);
    }
    cluster.Crash(/*seed=*/29);
    (void)cluster.CorruptReplicaBitFlip(*id, nodes[1]->name(),  // discard-ok: transcript captures reads
                                        offsets[2] + 5, 1);
    for (int i = 0; i < 6; ++i) {
      std::string out;
      Status s = cluster.ReadVerified(client, *id, offsets[static_cast<size_t>(i)],
                                      FramedRecord(i).size(), &out,
                                      VerifyFramedCrc);
      log += s.ToString() + "|" + out + "\n";
      std::string raw;
      s = cluster.ReadReplica(client, *id, nodes[1]->name(),
                              offsets[static_cast<size_t>(i)],
                              FramedRecord(i).size(), &raw);
      log += s.ToString() + "|" + raw + "\n";
    }
    return log;
  };
  EXPECT_EQ(transcript(), transcript());
}

}  // namespace
}  // namespace vedb::blob

// ---------------- Scrubber: in-place repair and quarantine ----------------

namespace vedb::astore {
namespace {

class ScrubberTest : public ::testing::Test {
 protected:
  static constexpr int kServers = 5;

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
      sim::SimNode* node = env_.AddNode("pmem-" + std::to_string(i), cfg);
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
                                             cm_node_, client_node_, 1,
                                             AStoreClient::Options{});
    ASSERT_TRUE(client_->Connect().ok());
  }

  AStoreServer* ServerNamed(const std::string& name) {
    for (auto& s : servers_) {
      if (s->node()->name() == name) return s.get();
    }
    return nullptr;
  }

  // A scrubber for `server`, with its own cluster view on that node.
  std::unique_ptr<Scrubber> MakeScrubber(AStoreServer* server) {
    scrub_clients_.push_back(std::make_unique<AStoreClient>(
        &env_, rpc_.get(), fabric_.get(), cm_node_, server->node(),
        /*client_id=*/static_cast<ClientId>(90 + scrub_clients_.size()),
        AStoreClient::Options{}));
    return std::make_unique<Scrubber>(&env_, scrub_clients_.back().get(),
                                      server, Scrubber::Options{});
  }

  sim::SimEnvironment env_{314159};
  std::unique_ptr<net::RpcTransport> rpc_;
  std::unique_ptr<net::RdmaFabric> fabric_;
  sim::SimNode* cm_node_ = nullptr;
  sim::SimNode* client_node_ = nullptr;
  std::unique_ptr<ClusterManager> cm_;
  std::vector<std::unique_ptr<AStoreServer>> servers_;
  std::unique_ptr<AStoreClient> client_;
  std::vector<std::unique_ptr<AStoreClient>> scrub_clients_;
};

TEST_F(ScrubberTest, ScrubPassRepairsSilentBitRotInPlace) {
  auto res = client_->CreateSegment(128 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  const std::string payload = "scrub me back to health";
  ASSERT_TRUE(client_->Append(seg, Slice(payload), nullptr).ok());

  const SegmentRoute route = seg->route();
  AStoreServer* victim = ServerNamed(route.replicas[1].node);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(victim->pmem()
                  ->CorruptBitFlip(route.replicas[1].base_offset + 5, 7)
                  .ok());

  // No client ever reads the record; the background scrubber alone must
  // find the divergent copy (majority vote across replicas) and rewrite it.
  auto scrubber = MakeScrubber(victim);
  scrubber->ScrubPassForTest();

  std::string direct(payload.size(), '\0');
  ASSERT_TRUE(
      client_->ReadReplica(seg, 1, 0, payload.size(), direct.data()).ok());
  EXPECT_EQ(direct, payload);
}

TEST_F(ScrubberTest, StickyBadRegionIsQuarantinedAndRebuilt) {
  auto res = client_->CreateSegment(128 * kKiB, 3);
  ASSERT_TRUE(res.ok());
  SegmentHandlePtr seg = res.value();
  const std::string payload = "these cells have failed for good";
  ASSERT_TRUE(client_->Append(seg, Slice(payload), nullptr).ok());

  const SegmentRoute route = seg->route();
  const std::string victim_name = route.replicas[0].node;
  AStoreServer* victim = ServerNamed(victim_name);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(victim->pmem()
                  ->MarkBadRegion(route.replicas[0].base_offset, 8,
                                  /*sticky=*/true)
                  .ok());

  // The scrub pass tries an in-place rewrite, re-reads still-bad bytes,
  // and escalates: the CM quarantines the replica and re-replicates the
  // segment onto a healthy spare.
  auto scrubber = MakeScrubber(victim);
  scrubber->ScrubPassForTest();

  auto new_route = cm_->GetRoute(seg->id());
  ASSERT_TRUE(new_route.ok());
  EXPECT_EQ(new_route->replicas.size(), 3u);
  for (const auto& loc : new_route->replicas) {
    EXPECT_NE(loc.node, victim_name);
  }
  EXPECT_GT(new_route->epoch, route.epoch);
  // The quarantined copy is released immediately (deferred clean pending).
  EXPECT_FALSE(victim->HasSegment(seg->id()));

  // The client folds in the new route and every replica serves the record.
  client_->RefreshRoutes();
  std::string buf(payload.size(), '\0');
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(
        client_->ReadReplica(seg, r, 0, payload.size(), buf.data()).ok());
    EXPECT_EQ(buf, payload);
  }
}

}  // namespace
}  // namespace vedb::astore
