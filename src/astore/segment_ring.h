// SegmentRing (Section V-A): the storage SDK's logical log container over
// AStore — a fixed set of append-only segments arranged in a ring. Unlike
// the BlobGroup it replaces, large writes are NOT split into small fixed
// I/Os; a record goes to PMem in one chained RDMA write.
//
// Each segment starts with a small header carrying a status and the LSN of
// the first record stored in it. On DBEngine crash, a binary search over
// the headers locates the segment with the largest start LSN, and a forward
// scan (CRC-validated) inside it finds the durable end of the log.

#ifndef VEDB_ASTORE_SEGMENT_RING_H_
#define VEDB_ASTORE_SEGMENT_RING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/frame.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace vedb::astore {

/// One REDO record as recovered from the ring.
struct LogRecord {
  uint64_t lsn = 0;
  std::string payload;
};

/// Segment header status values (Section V-A).
enum class SegmentStatus : uint32_t {
  kEmpty = 0,
  kInUse = 1,
  kFull = 2,
  kError = 3,
};

class SegmentRing {
 public:
  struct Options {
    /// Size of each segment (paper default 1GB; scaled for simulation).
    uint64_t segment_size = 1 * kMiB;
    /// Segments in the ring (paper typical: 50).
    int ring_size = 8;
    /// Replication factor for log segments (paper default: 3).
    int replication = 3;
  };

  /// Header layout within each segment.
  static constexpr uint64_t kHeaderSize = 64;
  static constexpr uint32_t kHeaderMagic = 0x5245444F;  // "REDO"

  /// Pre-creates all ring segments ("all segments ... are pre-created by
  /// the storage SDK" upon DBEngine initialization).
  static Result<std::unique_ptr<SegmentRing>> Create(AStoreClient* client,
                                                     const Options& options);

  /// A placement decision made under the ring lock; the I/O is performed
  /// later by CommitReserved so reservations can be taken in LSN order
  /// without serializing the writes.
  struct Reservation {
    SegmentHandlePtr seg;
    uint64_t offset = 0;
    size_t slot_idx = 0;
    bool init_header = false;         // first record of a (re)used segment
    SegmentHandlePtr to_mark_full;    // previous segment to stamp kFull
    uint64_t full_start_lsn = 0;
    size_t frame_size = 0;
  };

  /// Reserves ring space for a record of `payload_size` bytes carrying
  /// `lsn`. Cheap (no I/O); call under the caller's LSN-assignment lock so
  /// ring order matches LSN order. Zero-length and larger-than-a-segment
  /// payloads are rejected with InvalidArgument at this boundary (a
  /// zero-length frame is indistinguishable from the end-of-log sentinel
  /// during the recovery scan). A wrap recycles the oldest slot.
  Result<Reservation> Reserve(uint64_t lsn, size_t payload_size);

  /// In-flight state of one submitted record between SubmitReserved and
  /// WaitCommit. Heap-held (unique_ptr): the submitted pieces reference
  /// `init_header` and `frame_header` by address, so the object must not
  /// move until the token resolves.
  struct PendingCommit {
    Reservation reservation;
    uint64_t lsn = 0;
    Timestamp begin = 0;
    AppendRing::Token token = 0;
    std::string init_header;
    char frame_header[PackedFrame::kHeaderSize];
  };
  using PendingCommitPtr = std::unique_ptr<PendingCommit>;

  /// Frames the record in place (PackedFrame: 16-byte header encoded into
  /// the pending object, payload never copied) and submits it to the
  /// client's doorbell coalescer: the segment's kInUse header (when this is
  /// the slot's first record), the frame header, and the payload become
  /// chained WRs, in that crash-safe order. `payload` must stay alive
  /// until WaitCommit returns.
  Result<PendingCommitPtr> SubmitReserved(const Reservation& reservation,
                                          uint64_t lsn, Slice payload);

  /// Parks on the record's completion token. OK means durable on all
  /// replicas (persist-checked); only then is the predecessor segment
  /// stamped kFull — never before the record exists, so a crash between
  /// the two leaves a lingering kInUse, not a premature kFull. On replica
  /// failure the broken slot is replaced and Busy tells the caller to
  /// re-reserve.
  Status WaitCommit(PendingCommitPtr pending);

  /// SubmitReserved + WaitCommit in one call. With concurrent committers
  /// the records still coalesce: every caller parked in WaitCommit is a
  /// candidate flush leader for the whole queue.
  Status CommitReserved(const Reservation& reservation, uint64_t lsn,
                        Slice payload);

  /// Reserve + CommitReserved in one call (single-writer convenience).
  Status AppendRecord(uint64_t lsn, Slice payload);

  /// Result of crash recovery over a ring.
  struct Recovered {
    /// LSN to resume from (one past the last durable record); 0 if empty.
    uint64_t next_lsn = 0;
    /// All durable records at or after the requested LSN, in order.
    std::vector<LogRecord> records;
  };

  /// Recovers ring state from the segments owned by `client_id` in the CM:
  /// re-opens them, binary-searches headers for the largest start LSN, and
  /// scans records with LSN >= `from_lsn`. A fresh SegmentRing positioned
  /// for further appends can then be constructed with Create (new ring) or
  /// Attach.
  static Result<Recovered> Recover(AStoreClient* client,
                                   const std::vector<SegmentId>& segment_ids,
                                   uint64_t from_lsn);

  /// Recover, one segment at a time, for callers that need not hold the
  /// whole log: calls `visit` once per used segment, in start-LSN order,
  /// with that segment's records at or after `from_lsn` (ascending), and
  /// releases them after the call. Returns the LSN to resume from (0 if the
  /// log is empty). Reads exactly what Recover reads.
  using SegmentVisitor = std::function<Status(std::vector<LogRecord>* records)>;
  static Result<uint64_t> RecoverEach(AStoreClient* client,
                                      const std::vector<SegmentId>& segment_ids,
                                      uint64_t from_lsn,
                                      const SegmentVisitor& visit);

  /// Segment ids currently in the ring, ring order.
  std::vector<SegmentId> segment_ids() const;

  /// Number of segment-replacement events (frozen segments swapped out).
  uint64_t replaced_count() const {
    vedb::MutexLock lk(&mu_);
    return replaced_;
  }

 private:
  SegmentRing(AStoreClient* client, Options options,
              std::vector<SegmentHandlePtr> segments);

  static std::string EncodeHeader(SegmentStatus status, uint64_t start_lsn);
  static bool DecodeHeader(Slice in, SegmentStatus* status,
                           uint64_t* start_lsn);

  /// Scans one segment's records, appending those with lsn >= from_lsn.
  /// Returns the LSN one past the last valid record (0 if none).
  static Result<uint64_t> ScanSegment(AStoreClient* client,
                                      const SegmentHandlePtr& seg,
                                      uint64_t from_lsn, uint64_t start_lsn,
                                      std::vector<LogRecord>* out);

  Status ReplaceSegmentSlot(size_t idx, const SegmentHandlePtr& broken);

  AStoreClient* client_;
  Options options_;

  mutable vedb::Mutex mu_{"astore.ring"};
  std::vector<SegmentHandlePtr> segments_ GUARDED_BY(mu_);
  std::vector<uint64_t> slot_start_lsn_ GUARDED_BY(mu_);
  size_t cur_idx_ GUARDED_BY(mu_) = 0;
  uint64_t cur_offset_ GUARDED_BY(mu_) = kHeaderSize;
  // Header written for current segment.
  bool cur_initialized_ GUARDED_BY(mu_) = false;
  uint64_t replaced_ GUARDED_BY(mu_) = 0;

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* appends_ = nullptr;
  obs::HistogramMetric* append_ns_ = nullptr;
  obs::Counter* replacements_ = nullptr;
};

}  // namespace vedb::astore

#endif  // VEDB_ASTORE_SEGMENT_RING_H_
