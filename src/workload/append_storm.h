// Multi-client log append storm over one SegmentRing: N actors contend for
// LSNs and ring space, then ride the client's doorbell coalescer
// (SubmitReserved/WaitCommit) concurrently — the workload that makes
// cross-client doorbell batching visible. Reservations are taken under one
// storm-wide lock so ring placement matches LSN order; the I/O itself runs
// outside it and coalesces freely.
//
// Deterministic: identical env seed + options produce byte-identical
// results (locations, counters, and the metrics the run bumps).

#ifndef VEDB_WORKLOAD_APPEND_STORM_H_
#define VEDB_WORKLOAD_APPEND_STORM_H_

#include <cstdint>
#include <vector>

#include "astore/segment_ring.h"
#include "common/result.h"
#include "sim/env.h"

namespace vedb::workload {

struct AppendStormOptions {
  /// Concurrent appender actors.
  int clients = 8;
  /// Appends each actor performs (Busy-retried appends count once).
  int appends_per_client = 16;
  size_t payload_bytes = 512;
  /// First LSN the storm assigns; LSNs are dense from here.
  uint64_t first_lsn = 1;
  /// Optional per-append pause (0 = append back-to-back).
  Duration think_time = 0;
};

/// Where one appended record physically lives.
struct RecordLocation {
  uint64_t lsn = 0;
  astore::SegmentId segment = 0;
  uint64_t offset = 0;  // of the frame, not the payload
  uint32_t payload_size = 0;
};

struct AppendStormResult {
  uint64_t appended = 0;
  uint64_t errors = 0;
  /// Appends that had to re-reserve after a segment replacement.
  uint64_t busy_retries = 0;
  /// Where every successful record landed, sorted by LSN.
  std::vector<RecordLocation> locations;
};

/// Runs the storm to completion in virtual time (the storm spawns its own
/// ActorGroup and blocks the caller until it joins).
Result<AppendStormResult> RunAppendStorm(sim::SimEnvironment* env,
                                         astore::SegmentRing* ring,
                                         const AppendStormOptions& options);

}  // namespace vedb::workload

#endif  // VEDB_WORKLOAD_APPEND_STORM_H_
