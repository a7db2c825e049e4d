// Multi-tenant pub/sub workload over src/topic: per tenant, a set of
// producer actors appending fixed-size messages at a configured pace, a set
// of consumer actors polling their partitions and durably committing
// offsets, and one retention actor trimming each partition to its consumed
// watermark. Every tenant gets its own AStore client identity, optionally
// wired through a shared qos::AdmissionController — which is exactly the
// noisy-neighbor experiment: flood tenant A, watch tenant B's tail.

#ifndef VEDB_WORKLOAD_TOPIC_WORKLOAD_H_
#define VEDB_WORKLOAD_TOPIC_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/units.h"
#include "qos/admission.h"

namespace vedb::workload {

struct TopicTenantSpec {
  std::string name;
  /// QoS limits enforced when TopicWorkloadOptions::enable_qos is set.
  qos::TenantConfig limits;
  int partitions = 1;
  int producers = 1;
  int consumers = 1;
  size_t message_bytes = 1 * kKiB;
  /// Pause between appends per producer; 0 = produce back-to-back.
  Duration produce_interval = 1 * kMillisecond;
  /// Poll period per consumer.
  Duration consume_interval = 2 * kMillisecond;
  /// Max messages per Fetch.
  size_t fetch_batch = 32;
};

struct TopicWorkloadOptions {
  uint64_t seed = 2023;
  int astore_nodes = 3;
  Duration warmup = 100 * kMillisecond;
  Duration duration = 1 * kSecond;
  /// Attach every tenant's client to a shared AdmissionController.
  bool enable_qos = true;
  /// Shared in-flight pool handed to the AdmissionController.
  uint64_t total_inflight_bytes = 8 * kMiB;
  /// Period of each tenant's retention actor.
  Duration retention_interval = 100 * kMillisecond;
  std::vector<TopicTenantSpec> tenants;
};

/// Per-tenant outcome, measured in virtual time inside the post-warmup
/// window (latency histograms are nanoseconds).
struct TenantStats {
  std::string tenant;
  uint64_t produced = 0;
  uint64_t produce_errors = 0;
  uint64_t consumed = 0;
  uint64_t offset_commits = 0;
  uint64_t throttle_events = 0;  // qos.throttle, 0 when QoS is off
  Histogram produce_latency;
  Histogram consume_latency;  // one sample per fetch+commit round

  double ProduceThroughputMBps(Duration elapsed, size_t message_bytes) const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(produced) * message_bytes /
                              (static_cast<double>(elapsed) / kSecond) /
                              (1024.0 * 1024.0);
  }
};

struct TopicWorkloadResult {
  std::vector<TenantStats> tenants;
  Duration elapsed = 0;
};

/// Builds a seeded mini cluster (CM + AStore servers + one client node per
/// tenant), runs all tenant actors for warmup+duration of virtual time, and
/// returns per-tenant stats. Identical options+seed produce byte-identical
/// results.
Result<TopicWorkloadResult> RunTopicWorkload(
    const TopicWorkloadOptions& options);

}  // namespace vedb::workload

#endif  // VEDB_WORKLOAD_TOPIC_WORKLOAD_H_
