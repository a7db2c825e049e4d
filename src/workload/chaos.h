// CM-failover chaos campaign: a seeded closed-loop append workload over a
// 3-member CM replication group while the campaign script crashes the
// primary, partitions a standby away from the world, heals the cut, and
// revives the old primary — all mid-run. The acceptance bar (Passed()):
// zero errors surface to the workload driver, the client retried at least
// once, at least one failover happened, no two CMs ever granted a lease in
// the same term, and (checked by the caller running the campaign twice)
// the exported metrics snapshot is byte-identical across runs.

#ifndef VEDB_WORKLOAD_CHAOS_H_
#define VEDB_WORKLOAD_CHAOS_H_

#include <cstdint>
#include <string>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "common/units.h"

namespace vedb::workload {

struct ChaosCampaignOptions {
  ChaosCampaignOptions() {
    // Renew well inside the campaign window so the lease path is exercised
    // while no CM is reachable (failures + retries), yet the 2s lease
    // itself never expires — renewal failure must stay invisible.
    client.lease_renew_interval = 100 * kMillisecond;
  }

  uint64_t seed = 20260808;

  // Topology: cm-0..cm-N-1 (cm-0 the initial primary), pmem-0..pmem-M-1.
  int cm_replicas = 3;
  int astore_nodes = 4;

  // Closed-loop driver shape (mirrors the crash-workload acceptance test).
  int clients = 2;
  Duration warmup = 10 * kMillisecond;
  Duration duration = 400 * kMillisecond;
  uint64_t segment_size = 4 * kMiB;
  int replication = 3;
  size_t payload_bytes = 256;

  // Campaign script, in absolute virtual time from cluster birth. The
  // defaults are tuned to the CM failure_timeout (200ms): the primary dies
  // at 60ms, detection lands on the ~100ms standby tick, and the election
  // fires at ~300ms — after the partition around the high-id standby has
  // healed, so the low-id standby sees a majority and wins.
  Timestamp kill_primary_at = 60 * kMillisecond;
  Timestamp partition_at = 150 * kMillisecond;   // isolate the last standby
  Timestamp heal_at = 250 * kMillisecond;
  Timestamp revive_primary_at = 320 * kMillisecond;
  Timestamp shutdown_at = 500 * kMillisecond;

  astore::ClusterManager::Options cluster_manager;
  astore::AStoreClient::Options client;
};

struct ChaosCampaignResult {
  uint64_t operations = 0;
  uint64_t errors = 0;            // surfaced to the closed-loop driver
  uint64_t retries = 0;           // astore.client.retries
  uint64_t failovers = 0;         // cm.failovers
  uint64_t client_cm_failovers = 0;
  uint64_t lease_renew_failures = 0;
  // True if any term appears in two members' granted-lease term sets —
  // the split-brain signal. Must stay false.
  bool double_grant = false;
  std::string final_primary;      // node name of the post-campaign primary
  uint64_t final_term = 0;
  std::string snapshot_json;      // full metrics export at campaign end

  bool Passed() const {
    return operations > 0 && errors == 0 && retries > 0 && failovers >= 1 &&
           !double_grant;
  }
};

/// Runs one full campaign in a fresh seeded world (the global metrics
/// registry is reset first).
ChaosCampaignResult RunCmFailoverChaos(const ChaosCampaignOptions& options);

}  // namespace vedb::workload

#endif  // VEDB_WORKLOAD_CHAOS_H_
