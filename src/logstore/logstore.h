// LogStore: the REDO-log half of veDB's storage layer, behind one interface
// with two backends:
//  * BlobLogStore — the original design (Section III): BlobGroups over the
//    SSD blob service, with the async submission path whose scheduling
//    overhead causes the latency and jitter the paper complains about.
//  * AStoreLogStore — the PMem design (Section V): a SegmentRing over
//    AStore written with chained one-sided RDMA, run-to-completion.
//
// A commit appends a batch of REDO payloads; the batch is assigned a dense
// range of LSNs and the call returns only when the whole prefix of the log
// up to the batch's last LSN is durable (group-commit watermark).

#ifndef VEDB_LOGSTORE_LOGSTORE_H_
#define VEDB_LOGSTORE_LOGSTORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "astore/segment_ring.h"
#include "blob/blob_store.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::logstore {

/// LSN range assigned to an appended batch (dense, inclusive).
struct AppendResult {
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;
};

/// Callbacks letting callers observe LSN assignment synchronously.
struct AppendHooks {
  /// Invoked under the LSN-assignment lock, so invocations across batches
  /// happen in LSN order. Must be cheap and must not block on the clock.
  /// The redo shipper uses this to enqueue records in LSN order.
  std::function<void(uint64_t first, uint64_t last)> on_assigned;
  /// Invoked when the batch's log write failed, before its LSN range is
  /// resolved in the durability watermark (so the caller can cancel any
  /// downstream work keyed on those LSNs). May run on another committer's
  /// fiber: the group's leader calls it for every item of the group.
  std::function<void(uint64_t first, uint64_t last)> on_failed;
};

/// The REDO log front end, shared by both backends: LSN assignment,
/// leader/follower group commit and the durability watermark. Concurrent
/// AppendBatch calls coalesce into one physical log write (veDB's global log
/// buffer behaviour). At most one flush is in flight; the first committer to
/// find the pipeline idle becomes the leader and flushes everything queued,
/// so log-device stragglers never convoy independent commits and throughput
/// scales with batch size rather than 1/latency.
///
/// A backend supplies only what differs: how one group is framed and
/// written (Flush) and how records are read back (ReadFrom).
class LogStore {
 public:
  virtual ~LogStore() = default;

  /// Appends `payloads` as part of one physical log write. Returns when
  /// every record with lsn <= result.last_lsn has resolved and this batch's
  /// records are durable, or the write's error if its group failed. The
  /// flush reads `payloads` in place, never a copy. Thread safe.
  Result<AppendResult> AppendBatch(const std::vector<std::string>& payloads,
                                   const AppendHooks* hooks = nullptr);

  /// Every record with lsn <= this value has resolved (durable or failed).
  uint64_t DurableLsn() const;

  /// The LSN the next record will receive.
  uint64_t NextLsn() const;

  /// All durable records with lsn >= `from_lsn`, in order (recovery path).
  virtual Result<std::vector<astore::LogRecord>> ReadFrom(
      uint64_t from_lsn) = 0;

 protected:
  /// `backend` labels the metrics and the append span ("ssd", "pmem").
  /// `next_lsn` is the first LSN to assign: a recovered log resumes after
  /// its last record, and everything before it counts as resolved.
  LogStore(sim::VirtualClock* clock, const char* backend, uint64_t next_lsn);

  /// Writes one group as one physical record. `payloads` hold the records
  /// with LSNs first_lsn, first_lsn + 1, ...; they are views into the
  /// committers' own `payloads` vectors, valid until Flush returns. Runs on
  /// the leader's fiber outside every LogStore lock, one call at a time.
  virtual Status Flush(uint64_t first_lsn,
                       const std::vector<Slice>& payloads) = 0;

  /// Counts one physical log write of `bytes` (backend framing included).
  void CountFlush(uint64_t bytes);

 private:
  /// One AppendBatch call's place in the group-commit queue. Lives on the
  /// committer's stack: the call returns only once the item's group has
  /// resolved, so the leader may read it until then.
  struct Item {
    uint64_t first_lsn = 0;
    uint64_t last_lsn = 0;
    const std::vector<std::string>* payloads = nullptr;
    const AppendHooks* hooks = nullptr;
    Status status;  // set by the leader when the item's group fails
  };

  /// Enqueues `item` and blocks until its group has resolved, leading a
  /// flush if the pipeline is idle. Returns the flush error if the group
  /// failed.
  Status Submit(Item* item);

  sim::VirtualClock* clock_;
  const char* backend_;

  mutable vedb::Mutex lsn_mu_{"logstore.lsn"};
  uint64_t next_lsn_ GUARDED_BY(lsn_mu_);

  mutable vedb::Mutex mu_{"logstore.committer"};
  sim::VirtualCondition cond_;
  bool flushing_ GUARDED_BY(mu_) = false;
  std::vector<Item*> pending_ GUARDED_BY(mu_);  // in LSN order
  // Every lsn <= durable_ has resolved. Groups resolve in LSN order, so
  // this one number is the whole watermark.
  uint64_t durable_ GUARDED_BY(mu_);

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* appends_;
  obs::HistogramMetric* append_ns_;
  obs::Counter* flushes_;
  obs::Counter* flush_bytes_;
};

/// SSD/BlobGroup-backed baseline.
class BlobLogStore : public LogStore {
 public:
  struct Options {
    blob::BlobGroup::Options group;
    /// Mean of the exponential submission-scheduling delay the async I/O
    /// path adds per append (thread hand-off, queueing) — the cost AStore
    /// eliminates with run-to-completion.
    Duration sched_delay_mean = 330 * kMicrosecond;
    /// Fixed client software cost per append.
    Duration submit_overhead = 25 * kMicrosecond;
  };

  static Result<std::unique_ptr<BlobLogStore>> Create(
      sim::SimEnvironment* env, blob::BlobStoreCluster* cluster,
      sim::SimNode* client, const Options& options);

  Result<std::vector<astore::LogRecord>> ReadFrom(uint64_t from_lsn) override;

 protected:
  Status Flush(uint64_t first_lsn, const std::vector<Slice>& payloads) override;

 private:
  BlobLogStore(sim::SimEnvironment* env, sim::SimNode* client,
               Options options, std::unique_ptr<blob::BlobGroup> group)
      : LogStore(env->clock(), "ssd", /*next_lsn=*/1),
        env_(env),
        client_(client),
        options_(options),
        group_(std::move(group)),
        rng_(env->NextSeed()) {}

  sim::SimEnvironment* env_;
  sim::SimNode* client_;
  Options options_;
  std::unique_ptr<blob::BlobGroup> group_;
  // Waiver(thread-annotations): only Flush draws from it, and the group
  // commit runs one Flush at a time.
  Random rng_;
};

/// AStore/SegmentRing-backed store (the paper's design).
class AStoreLogStore : public LogStore {
 public:
  struct Options {
    astore::SegmentRing::Options ring;
  };

  static Result<std::unique_ptr<AStoreLogStore>> Create(
      sim::SimEnvironment* env, astore::AStoreClient* client,
      const Options& options);

  /// Re-attaches to an existing log after a DBEngine crash: recovers the
  /// ring contents owned by `client`, returns the records via
  /// `recovered_out`, and resumes appending after the last durable LSN on a
  /// fresh ring.
  static Result<std::unique_ptr<AStoreLogStore>> Recover(
      sim::SimEnvironment* env, astore::AStoreClient* client,
      const std::vector<astore::SegmentId>& segments, uint64_t from_lsn,
      const Options& options,
      std::vector<astore::LogRecord>* recovered_out);

  Result<std::vector<astore::LogRecord>> ReadFrom(uint64_t from_lsn) override;

  astore::SegmentRing* ring() { return ring_.get(); }

 protected:
  Status Flush(uint64_t first_lsn, const std::vector<Slice>& payloads) override;

 private:
  AStoreLogStore(sim::SimEnvironment* env, astore::AStoreClient* client,
                 Options options, std::unique_ptr<astore::SegmentRing> ring,
                 uint64_t next_lsn)
      : LogStore(env->clock(), "pmem", next_lsn),
        client_(client),
        options_(options),
        ring_(std::move(ring)) {}

  astore::AStoreClient* client_;
  Options options_;
  std::unique_ptr<astore::SegmentRing> ring_;
};

/// Shared batch framing: several REDO payloads packed into one physical log
/// record. Exposed for the recovery paths of both backends.
std::string EncodeBatchPayload(const std::vector<Slice>& payloads);
bool DecodeBatchPayload(Slice in, uint64_t first_lsn,
                        std::vector<astore::LogRecord>* out);

}  // namespace vedb::logstore

#endif  // VEDB_LOGSTORE_LOGSTORE_H_
