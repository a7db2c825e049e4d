// Data-integrity chaos campaign: a seeded closed-loop append+verified-read
// workload over a replicated AStore cluster while the campaign script
// crashes (and revives) a storage node and silently corrupts committed
// bytes on individual replicas — bit flips, zeroed cachelines, latent bad
// regions, sticky bad regions — all mid-run. Per-server scrubbers run
// throughout. The acceptance bar (Passed()): zero errors surface to the
// workload driver, corruption was actually injected, at least one repair
// happened (read-repair, scrub repair, or quarantine), the durability
// oracle holds (no acked write is ever served wrong), every injected
// corruption ended repaired or quarantined, and (checked by the caller
// running the campaign twice) the metrics snapshot is byte-identical.

#ifndef VEDB_WORKLOAD_SCRUB_CHAOS_H_
#define VEDB_WORKLOAD_SCRUB_CHAOS_H_

#include <cstdint>
#include <string>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/scrubber.h"
#include "common/units.h"

namespace vedb::workload {

struct ScrubChaosOptions {
  uint64_t seed = 20260808;

  // Topology: one standalone CM ("cm-0"), pmem-0..pmem-N-1 servers, each
  // with a co-located scrubber, and the workload client on "dbe".
  int astore_nodes = 5;

  // Closed-loop driver shape: `writers` append self-checksummed records to
  // one segment each; `readers` issue verified reads over acked records.
  int writers = 2;
  int readers = 1;
  Duration warmup = 10 * kMillisecond;
  Duration duration = 500 * kMillisecond;
  /// Per-op pacing so the fixed-size segments never fill mid-campaign.
  Duration think_time = 150 * kMicrosecond;
  uint64_t segment_size = 2 * kMiB;
  int replication = 3;
  /// Record size including its trailing 4-byte masked CRC.
  size_t payload_bytes = 256;

  // Campaign script, absolute virtual time. The crash window closes before
  // injections start so a rebuild never copies from a corrupt source (the
  // pull path copies raw bytes; scrub-verified rebuild sources are future
  // work and the campaign should not depend on racing it).
  Timestamp crash_node_at = 60 * kMillisecond;
  Timestamp revive_node_at = 160 * kMillisecond;
  int crash_node_index = 2;
  Timestamp inject_start = 200 * kMillisecond;
  Duration inject_every = 15 * kMillisecond;
  /// Fixed teardown instant; leave room after the workload ends for the
  /// scrubbers to finish repairing the tail of injected corruption.
  Timestamp shutdown_at = 900 * kMillisecond;

  astore::ClusterManager::Options cluster_manager;
  astore::AStoreClient::Options client;
  astore::Scrubber::Options scrubber = DefaultScrubberOptions();

  static astore::Scrubber::Options DefaultScrubberOptions() {
    astore::Scrubber::Options o;
    // Aggressive campaign pacing: every local segment gets re-walked a few
    // times between the last injection and teardown.
    o.scrub_period = 40 * kMillisecond;
    o.chunk_bytes = 32 * kKiB;
    o.rate_bytes_per_sec = 256 * kMiB;
    o.burst_bytes = 512 * kKiB;
    return o;
  }
};

struct ScrubChaosResult {
  uint64_t operations = 0;
  uint64_t errors = 0;         // surfaced to the closed-loop driver
  uint64_t retries = 0;        // astore.client.retries
  uint64_t injected = 0;       // corruption events actually planted
  uint64_t corrupt_reads = 0;  // astore.client.corrupt_reads
  uint64_t read_repairs = 0;   // astore.repair.read_repairs
  uint64_t scrub_repairs = 0;  // astore.scrub.repairs
  uint64_t scrub_reports = 0;  // astore.scrub.reports
  uint64_t quarantines = 0;    // astore.repair.quarantines
  uint64_t rebuilds = 0;       // astore.repair.rebuilds
  // Durability oracle: every acked record, re-read with failover at the
  // end, returned exactly the acked bytes.
  bool durability_ok = false;
  // Integrity oracle: at campaign end, every replica the route still lists
  // serves the acked bytes for every injected (and sampled) record — i.e.
  // each corruption was repaired in place or its replica quarantined.
  bool replicas_clean = false;
  std::string snapshot_json;  // full metrics export at campaign end

  bool Passed() const {
    return operations > 0 && errors == 0 && injected > 0 &&
           read_repairs + scrub_repairs + quarantines > 0 && durability_ok &&
           replicas_clean;
  }
};

/// Runs one full campaign in a fresh seeded world (the global metrics
/// registry is reset first).
ScrubChaosResult RunScrubChaos(const ScrubChaosOptions& options);

}  // namespace vedb::workload

#endif  // VEDB_WORKLOAD_SCRUB_CHAOS_H_
