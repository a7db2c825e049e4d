#include "workload/scrub_chaos.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "astore/server.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pmem/pmem_device.h"
#include "sim/env.h"
#include "sim/fault.h"
#include "workload/driver.h"

namespace vedb::workload {

namespace {

uint64_t SumCounter(const std::string& want) {
  uint64_t total = 0;
  obs::MetricsRegistry::Default().VisitCounters(
      [&](const std::string& name, const obs::LabelSet&, uint64_t value) {
        if (name == want) total += value;
      });
  return total;
}

// A record is its body plus a trailing masked CRC32C of the body, so any
// reader — including one with no access to the oracle — can verify it.
std::string MakePayload(int writer, uint64_t seq, size_t bytes) {
  std::string body(bytes - 4, '\0');
  for (size_t j = 0; j < body.size(); ++j) {
    body[j] = static_cast<char>(
        (static_cast<uint64_t>(writer) * 131 + seq * 7 + j * 13) & 0xff);
  }
  PutFixed32(&body, MaskCrc(Crc32c(0, body.data(), body.size())));
  return body;
}

Status VerifyPayloadCrc(Slice data) {
  if (data.size() < 4) return Status::Corruption("record shorter than its crc");
  const uint32_t stored =
      UnmaskCrc(DecodeFixed32(data.data() + data.size() - 4));
  const uint32_t actual = Crc32c(0, data.data(), data.size() - 4);
  if (stored != actual) return Status::Corruption("record crc mismatch");
  return Status::OK();
}

struct AckedRecord {
  int seg = 0;          // index into the writer's segment list
  uint64_t offset = 0;  // start offset within the segment
  std::string bytes;    // exactly what was acked
};

constexpr sim::CorruptionKind kInjectKinds[] = {
    sim::CorruptionKind::kBitFlip,
    sim::CorruptionKind::kZeroCacheline,
    sim::CorruptionKind::kBadRegion,
    sim::CorruptionKind::kStickyBadRegion,
};

}  // namespace

ScrubChaosResult RunScrubChaos(const ScrubChaosOptions& options) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  ScrubChaosResult out;

  sim::SimEnvironment env(options.seed);
  auto rpc = std::make_unique<net::RpcTransport>(&env);
  auto fabric = std::make_unique<net::RdmaFabric>(&env);

  sim::NodeConfig cm_cfg;
  cm_cfg.cpu_cores = 8;
  cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  sim::SimNode* cm_node = env.AddNode("cm-0", cm_cfg);
  auto cm = std::make_unique<astore::ClusterManager>(
      &env, rpc.get(), cm_node, options.cluster_manager);

  std::vector<std::unique_ptr<astore::AStoreServer>> servers;
  std::map<std::string, astore::AStoreServer*> server_by_name;
  for (int i = 0; i < options.astore_nodes; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = 32;
    cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
    sim::SimNode* node = env.AddNode("pmem-" + std::to_string(i), cfg);
    astore::AStoreServer::Options srv_opts;
    // Shorter deferred-clean window than the 400ms default (still far above
    // the clients' 50ms route refresh): quarantines and crash-era moves
    // leave stale copies behind, and a rebuild retry needs those extents
    // back within the campaign, not after it.
    srv_opts.cleaning_interval = 100 * kMillisecond;
    servers.push_back(std::make_unique<astore::AStoreServer>(
        &env, rpc.get(), fabric.get(), node, srv_opts));
    cm->RegisterServer(servers.back().get());
    server_by_name[node->name()] = servers.back().get();
  }

  sim::NodeConfig client_cfg;
  client_cfg.cpu_cores = 16;
  client_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  sim::SimNode* client_node = env.AddNode("dbe", client_cfg);
  auto client = std::make_unique<astore::AStoreClient>(
      &env, rpc.get(), fabric.get(), cm_node, client_node,
      /*client_id=*/1, options.client);

  // One scrubber per server, each with its own cluster view living on the
  // server's node (scrub reads and repair writes originate there).
  std::vector<std::unique_ptr<astore::AStoreClient>> scrub_clients;
  std::vector<std::unique_ptr<astore::Scrubber>> scrubbers;
  for (int i = 0; i < options.astore_nodes; ++i) {
    scrub_clients.push_back(std::make_unique<astore::AStoreClient>(
        &env, rpc.get(), fabric.get(), cm_node, servers[i]->node(),
        /*client_id=*/100 + static_cast<uint64_t>(i),
        astore::AStoreClient::Options{}));
    scrubbers.push_back(std::make_unique<astore::Scrubber>(
        &env, scrub_clients.back().get(), servers[i].get(), options.scrubber));
  }

  // Arm one corruption site per kind; the injector rotates through them.
  for (sim::CorruptionKind kind : kInjectKinds) {
    env.faults()->ArmCorruption(
        std::string("scrub_chaos.") + sim::CorruptionKindName(kind),
        /*probability=*/1.0, kind);
  }

  VEDB_CHECK(client->Connect().ok(), "scrub chaos: connect failed");
  std::vector<astore::SegmentHandlePtr> segs;
  for (int i = 0; i < options.writers; ++i) {
    auto res =
        client->CreateSegment(options.segment_size, options.replication);
    VEDB_CHECK(res.ok(), "scrub chaos: create failed: %s",
               res.status().ToString().c_str());
    segs.push_back(res.value());
  }

  // The oracle: every acked record, appended under this lock by the
  // writers, sampled by the readers and the injector.
  vedb::Mutex oracle_mu{"workload.oracle"};
  std::vector<AckedRecord> acked;        // GUARDED_BY(oracle_mu)
  std::vector<AckedRecord> injected_at;  // records hit by the injector
  std::vector<uint64_t> write_seq(static_cast<size_t>(options.writers), 0);
  std::atomic<uint64_t> read_seq{0};
  std::atomic<uint64_t> injected{0};
  std::atomic<bool> durability_violation{false};

  {
    sim::ActorGroup background(env.clock());
    cm->StartBackground();
    client->StartBackground(&background);
    for (auto& sc : scrubbers) sc->StartBackground();

    // Crash script: one storage node dies and returns, entirely before the
    // corruption era (see the header note on rebuild sources).
    background.Spawn([&] {
      env.clock()->SleepUntil(options.crash_node_at);
      servers[options.crash_node_index]->node()->SetAlive(false);
      env.clock()->SleepUntil(options.revive_node_at);
      servers[options.crash_node_index]->node()->SetAlive(true);
    });

    // Injector: at fixed virtual times, plant one corruption of the
    // rotating kind into a committed record on ONE replica. Per segment at
    // most one distinct replica node is ever bad at a time (the `victims`
    // map), so the scrubber's majority vote always has a quorum — matching
    // the single-fault model scrubbing defends against.
    background.Spawn([&] {
      std::map<astore::SegmentId, std::string> victims;
      const Timestamp inject_end = options.warmup + options.duration;
      int i = 0;
      for (Timestamp t = options.inject_start; t < inject_end;
           t += options.inject_every, ++i) {
        env.clock()->SleepUntil(t);
        const sim::CorruptionKind kind =
            kInjectKinds[static_cast<size_t>(i) % 4];
        sim::FaultInjector::CorruptionPlan plan;
        if (!env.faults()->MaybeCorrupt(
                std::string("scrub_chaos.") + sim::CorruptionKindName(kind),
                &plan)) {
          continue;
        }
        AckedRecord rec;
        {
          vedb::MutexLock lk(&oracle_mu);
          if (acked.empty()) continue;
          rec = acked[plan.draw % acked.size()];
        }
        auto route_r = cm->GetRoute(segs[rec.seg]->id());
        if (!route_r.ok()) continue;
        const astore::SegmentRoute route = route_r.value();
        if (route.replicas.size() < 2) continue;
        // Victim selection: stick with this segment's current bad node if
        // the route still lists it, else pick (seeded) a fresh one.
        size_t vidx = route.replicas.size();
        auto vit = victims.find(route.id);
        if (vit != victims.end()) {
          for (size_t r = 0; r < route.replicas.size(); ++r) {
            if (route.replicas[r].node == vit->second) vidx = r;
          }
        }
        if (vidx == route.replicas.size()) {
          vidx = (plan.draw >> 8) % route.replicas.size();
          victims[route.id] = route.replicas[vidx].node;
        }
        astore::AStoreServer* srv =
            server_by_name[route.replicas[vidx].node];
        if (srv == nullptr || !srv->node()->alive()) continue;
        const uint64_t base =
            route.replicas[vidx].base_offset + rec.offset;
        const uint64_t len = rec.bytes.size();
        Status planted;
        switch (kind) {
          case sim::CorruptionKind::kBitFlip:
            planted = srv->pmem()->CorruptBitFlip(
                base + (plan.draw >> 16) % len,
                static_cast<int>((plan.draw >> 40) & 7));
            break;
          case sim::CorruptionKind::kZeroCacheline:
            planted = srv->pmem()->CorruptZeroCacheline(
                base + (plan.draw >> 16) % len);
            break;
          case sim::CorruptionKind::kBadRegion:
            planted = srv->pmem()->MarkBadRegion(
                base, std::min<uint64_t>(64, len), /*sticky=*/false);
            break;
          case sim::CorruptionKind::kStickyBadRegion:
            planted = srv->pmem()->MarkBadRegion(
                base, std::min<uint64_t>(64, len), /*sticky=*/true);
            break;
        }
        if (planted.ok()) {
          injected.fetch_add(1);
          vedb::MutexLock lk(&oracle_mu);
          injected_at.push_back(rec);
        }
      }
    });

    // Teardown at a FIXED virtual time: flag every loop first, then drain
    // (a drain is a real-time wait; an unflagged loop free-running through
    // one would take a wall-clock-dependent number of extra ticks).
    background.Spawn([&] {
      env.clock()->SleepUntil(options.shutdown_at);
      client->Shutdown();
      for (auto& sc : scrubbers) sc->RequestShutdown();
      cm->RequestShutdown();
      for (auto& sc : scrubbers) sc->Shutdown();
      cm->Shutdown();
    });

    const int clients = options.writers + options.readers;
    LoadResult result = RunClosedLoop(
        &env, clients, options.warmup, options.duration, [&](int worker) {
          env.clock()->SleepFor(options.think_time);
          if (worker < options.writers) {
            uint64_t seq;
            {
              vedb::MutexLock lk(&oracle_mu);
              seq = write_seq[static_cast<size_t>(worker)]++;
            }
            const std::string payload =
                MakePayload(worker, seq, options.payload_bytes);
            uint64_t off = 0;
            Status s = client->Append(segs[worker], Slice(payload), &off);
            if (s.ok()) {
              vedb::MutexLock lk(&oracle_mu);
              acked.push_back(AckedRecord{worker, off, payload});
            }
            return s;
          }
          // Reader: verified read of a (seeded-deterministic) acked record.
          AckedRecord rec;
          {
            vedb::MutexLock lk(&oracle_mu);
            if (acked.empty()) return Status::OK();
            rec = acked[(read_seq.fetch_add(1) * 7919) % acked.size()];
          }
          std::string buf(rec.bytes.size(), '\0');
          astore::ReadOptions ro;
          ro.verify = VerifyPayloadCrc;
          Status s = client->ReadVerified(segs[rec.seg], rec.offset,
                                          rec.bytes.size(), buf.data(), ro);
          if (s.ok() && buf != rec.bytes) {
            // A CRC-clean read that is not what was acked would be a framing
            // bug, not rot; surface it as an error AND flag the oracle.
            durability_violation.store(true);
            return Status::DataLoss("verified read returned wrong bytes");
          }
          return s;
        });
    out.operations = result.operations;
    out.errors = result.errors;
  }

  // ---- End-state oracles (all background actors have drained). ----
  client->RefreshRoutes();  // fold in post-quarantine/rebuild epochs

  // Durability: every acked record still reads back exactly as acked.
  bool durability_ok = !durability_violation.load();
  std::vector<AckedRecord> acked_copy, injected_copy;
  {
    vedb::MutexLock lk(&oracle_mu);
    acked_copy = acked;
    injected_copy = injected_at;
  }
  for (const AckedRecord& rec : acked_copy) {
    std::string buf(rec.bytes.size(), '\0');
    astore::ReadOptions ro;
    ro.verify = VerifyPayloadCrc;
    Status s = client->ReadVerified(segs[rec.seg], rec.offset,
                                    rec.bytes.size(), buf.data(), ro);
    if (!s.ok() || buf != rec.bytes) {
      durability_ok = false;
      break;
    }
  }

  // Integrity: for every injected record (plus a deterministic sample of
  // the rest, to catch collateral like a zeroed cacheline clipping the
  // neighbour record), EVERY replica the final route lists must serve the
  // acked bytes — each corruption was repaired in place, or its replica is
  // gone from the route (quarantined and rebuilt elsewhere).
  bool replicas_clean = true;
  std::vector<AckedRecord> to_check = injected_copy;
  for (size_t i = 0; i < acked_copy.size(); i += 37) {
    to_check.push_back(acked_copy[i]);
  }
  for (const AckedRecord& rec : to_check) {
    const astore::SegmentRoute route = segs[rec.seg]->route();
    for (size_t r = 0; r < route.replicas.size(); ++r) {
      std::string buf(rec.bytes.size(), '\0');
      Status s = client->ReadReplica(segs[rec.seg], r, rec.offset,
                                     rec.bytes.size(), buf.data());
      if (!s.ok() || buf != rec.bytes) {
        replicas_clean = false;
        VEDB_LOG(kWarn,
                 "scrub chaos: replica %zu of segment %llu still bad at "
                 "offset %llu (%s)",
                 r, static_cast<unsigned long long>(route.id),
                 static_cast<unsigned long long>(rec.offset),
                 s.ok() ? "wrong bytes" : s.ToString().c_str());
      }
    }
  }
  out.durability_ok = durability_ok;
  out.replicas_clean = replicas_clean;

  out.injected = injected.load();
  out.retries = SumCounter("astore.client.retries");
  out.corrupt_reads = SumCounter("astore.client.corrupt_reads");
  out.read_repairs = SumCounter("astore.repair.read_repairs");
  out.scrub_repairs = SumCounter("astore.scrub.repairs");
  out.scrub_reports = SumCounter("astore.scrub.reports");
  out.quarantines = SumCounter("astore.repair.quarantines");
  out.rebuilds = SumCounter("astore.repair.rebuilds");

  out.snapshot_json =
      obs::CollectSnapshot(obs::MetricsRegistry::Default(),
                           env.clock()->Now(), "scrub_chaos")
          .ToJson();
  return out;
}

}  // namespace vedb::workload
