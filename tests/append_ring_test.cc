// Tests for the client-dominated log hot path rework: the async append
// ring (cross-client doorbell coalescing), torn-doorbell crash recovery,
// and the kFull-stamp ordering fix. Everything runs on the virtual clock
// with seeded randomness, so each scenario reproduces bit-for-bit.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/segment_ring.h"
#include "astore/server.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/env.h"
#include "workload/append_storm.h"

namespace vedb::astore {
namespace {

// Self-contained cluster so a test can build the exact same seeded world
// twice in one process (the determinism storm does exactly that).
struct MiniCluster {
  explicit MiniCluster(uint64_t seed, int num_servers = 4,
                       AStoreClient::Options client_opts = {})
      : env(seed) {
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
                                            /*client_id=*/1, client_opts);
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

struct StormRun {
  std::string metrics_json;
  std::vector<workload::RecordLocation> locations;
  uint64_t appended = 0;
  uint64_t errors = 0;
  uint64_t doorbells = 0;
  uint64_t coalesced = 0;
};

// Builds a seeded cluster, runs a 64-client append storm over one ring,
// and returns everything observable: the full metric snapshot plus every
// record's physical location.
StormRun RunSeededStorm(uint64_t seed) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(seed);
  EXPECT_TRUE(c.client->Connect().ok());
  SegmentRing::Options ropts;
  ropts.segment_size = 64 * kKiB;
  ropts.ring_size = 4;
  ropts.replication = 3;
  auto ring = SegmentRing::Create(c.client.get(), ropts);
  EXPECT_TRUE(ring.ok()) << ring.status().ToString();

  workload::AppendStormOptions sopts;
  sopts.clients = 64;
  sopts.appends_per_client = 4;
  sopts.payload_bytes = 512;
  auto storm = workload::RunAppendStorm(&c.env, ring.value().get(), sopts);
  EXPECT_TRUE(storm.ok()) << storm.status().ToString();

  StormRun run;
  run.appended = storm->appended;
  run.errors = storm->errors;
  run.locations = storm->locations;
  obs::Snapshot snap = obs::CollectSnapshot(obs::MetricsRegistry::Default(),
                                            c.env.clock()->Now(), "storm");
  run.metrics_json = snap.ToJson();
  if (const auto* db = snap.FindCounter("ring.doorbells")) {
    run.doorbells = db->value;
  }
  if (const auto* co = snap.FindCounter("astore.client.coalesced_appends")) {
    run.coalesced = co->value;
  }
  return run;
}

TEST(AppendRingTest, SixtyFourClientStormIsDeterministicAndCoalesces) {
  const StormRun a = RunSeededStorm(2023);
  const StormRun b = RunSeededStorm(2023);

  ASSERT_EQ(a.appended, 256u);
  ASSERT_EQ(a.errors, 0u);
  ASSERT_EQ(a.locations.size(), 256u);
  // No Busy retries in a fault-free storm: LSNs are dense from 1.
  for (size_t i = 0; i < a.locations.size(); ++i) {
    EXPECT_EQ(a.locations[i].lsn, i + 1);
  }

  // The whole point of the coalescer: 256 independent appends take far
  // fewer doorbells, and most records ride a multi-record doorbell.
  EXPECT_LT(a.doorbells, 256u);
  EXPECT_GT(a.coalesced, 0u);

  // Byte-identical double run: every metric sample and every record's
  // physical placement.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  ASSERT_EQ(a.locations.size(), b.locations.size());
  for (size_t i = 0; i < a.locations.size(); ++i) {
    EXPECT_EQ(a.locations[i].lsn, b.locations[i].lsn);
    EXPECT_EQ(a.locations[i].segment, b.locations[i].segment);
    EXPECT_EQ(a.locations[i].offset, b.locations[i].offset);
    EXPECT_EQ(a.locations[i].payload_size, b.locations[i].payload_size);
  }
  EXPECT_EQ(a.appended, b.appended);
  EXPECT_EQ(a.doorbells, b.doorbells);
  EXPECT_EQ(a.coalesced, b.coalesced);
}

TEST(AppendRingTest, TornDoorbellRecoversExactlyTheCrcValidPrefix) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  AStoreClient::Options copts;
  copts.retry.max_attempts = 1;  // surface the torn chain, don't repair it
  MiniCluster c(31, /*num_servers=*/4, copts);
  ASSERT_TRUE(c.client->Connect().ok());

  SegmentRing::Options ropts;
  ropts.segment_size = 64 * kKiB;
  ropts.ring_size = 4;
  ropts.replication = 1;  // one chain per doorbell: the WR order is exact
  auto ring = SegmentRing::Create(c.client.get(), ropts);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();

  // Three records land normally.
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    std::string payload = "durable-" + std::to_string(lsn);
    ASSERT_TRUE(ring.value()->AppendRecord(lsn, Slice(payload)).ok());
  }

  // Submit records 4..6 as ONE coalesced doorbell: the chain is
  //   [hdr4, pay4, hdr5, pay5, hdr6, pay6, io_meta, flush-read]
  // and the fault (skip=2) kills it after hdr4+pay4 applied — the NIC
  // executes chained WRs in order, so exactly that prefix is durable.
  std::vector<std::string> payloads = {"torn-4", "torn-5", "torn-6"};
  std::vector<SegmentRing::PendingCommitPtr> pendings;
  std::vector<SegmentRing::Reservation> reservations;
  for (uint64_t lsn = 4; lsn <= 6; ++lsn) {
    auto r = ring.value()->Reserve(lsn, payloads[lsn - 4].size());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reservations.push_back(r.value());
  }
  c.env.faults()->Arm("rdma.apply", 1.0,
                      Status::IOError("initiator crash mid-doorbell"),
                      /*remaining=*/1, /*skip=*/2);
  for (uint64_t lsn = 4; lsn <= 6; ++lsn) {
    auto p = ring.value()->SubmitReserved(reservations[lsn - 4], lsn,
                                          Slice(payloads[lsn - 4]));
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    pendings.push_back(std::move(p).value());
  }
  int failures = 0;
  for (auto& p : pendings) {
    if (!ring.value()->WaitCommit(std::move(p)).ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);
  c.env.faults()->Disarm("rdma.apply");

  // "Reboot": recover from the CM's segment list alone. Record 4's frame
  // header AND payload applied before the crash, so it is CRC-valid and
  // recovered; record 5's header never hit PMem, ending the scan there.
  auto recovered = SegmentRing::Recover(c.client.get(), c.cm->ListSegments(1),
                                        /*from_lsn=*/1);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->records.size(), 4u);
  EXPECT_EQ(recovered->records[3].lsn, 4u);
  EXPECT_EQ(recovered->records[3].payload, "torn-4");
  EXPECT_EQ(recovered->next_lsn, 5u);
}

TEST(AppendRingTest, FullStampFailureAfterDurableRecordLosesNothing) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  AStoreClient::Options copts;
  copts.retry.max_attempts = 1;
  MiniCluster c(32, /*num_servers=*/4, copts);
  ASSERT_TRUE(c.client->Connect().ok());

  // 8 KiB segments hold three 2 KiB records (2048+16 byte frames after the
  // 64-byte segment header); the fourth append rolls to the next slot and
  // stamps the previous segment kFull.
  SegmentRing::Options ropts;
  ropts.segment_size = 8 * kKiB;
  ropts.ring_size = 4;
  ropts.replication = 1;
  auto ring = SegmentRing::Create(c.client.get(), ropts);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();

  const std::string payload(2048, 'r');
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    ASSERT_TRUE(ring.value()->AppendRecord(lsn, Slice(payload)).ok());
  }

  // The rolling append hits "astore.client.write" twice: first the record
  // doorbell, then the best-effort kFull stamp of the filled segment.
  // skip=1 lets the record through and kills only the stamp — i.e. a crash
  // exactly between record durability and the stamp. The old code wrote
  // the stamp FIRST, so this same crash point left a kFull segment whose
  // successor held nothing: a premature end-of-log at recovery.
  c.env.faults()->Arm("astore.client.write", 1.0,
                      Status::IOError("crash before kFull stamp"),
                      /*remaining=*/1, /*skip=*/1);
  ASSERT_TRUE(ring.value()->AppendRecord(4, Slice(payload)).ok());
  c.env.faults()->Disarm("astore.client.write");

  // The filled segment's header must still read kInUse: the stamp never
  // made it, and that is the safe side of the ordering.
  const SegmentId first_seg = ring.value()->segment_ids()[0];
  auto seg0 = c.client->OpenSegment(first_seg);
  ASSERT_TRUE(seg0.ok());
  char hdr[20];
  ASSERT_TRUE(c.client->Read(seg0.value(), 0, sizeof(hdr), hdr).ok());
  ASSERT_EQ(DecodeFixed32(hdr), SegmentRing::kHeaderMagic);
  EXPECT_EQ(DecodeFixed32(hdr + 4),
            static_cast<uint32_t>(SegmentStatus::kInUse));

  // Recovery treats kInUse and kFull identically, so all four records
  // survive the lingering stamp.
  auto recovered = SegmentRing::Recover(c.client.get(), c.cm->ListSegments(1),
                                        /*from_lsn=*/1);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->records.size(), 4u);
  EXPECT_EQ(recovered->records[3].lsn, 4u);
  EXPECT_EQ(recovered->next_lsn, 5u);
}

}  // namespace
}  // namespace vedb::astore
