// Async submission/completion ring with cross-client doorbell coalescing.
//
// The Table-2 breakdown showed the client SDK — not the simulated PMem —
// dominating per-append cost: every append paid its own WR construction,
// its own doorbell, and its own CQ poll. The AppendRing amortizes all
// three. Producers Submit() fully-framed record pieces (offsets already
// reserved, e.g. by SegmentRing::Reserve) and get back a completion token;
// a leader drains the queue and posts the records of each segment as ONE
// chained-WR doorbell (net::RdmaFabric::PostChainMulti), so N independent
// appends share a single `doorbell_cost` and a single flush READ per
// replica.
//
// Leader/follower, no dedicated actor: the first Wait()er whose token is
// unresolved becomes the flush leader (the same shape as the log's group
// commit in logstore::LogStore).
//
// Ordering: the queue drains strictly in submission (seq) order and the
// leader resolves a whole drained run before any later submission, so
// completions are delivered in LSN order whenever producers submit in LSN
// order (SegmentRing reserves under its ring lock, so they do).
//
// Coalescing is safe under the PersistChecker's ack-ordering rule because
// the per-doorbell flush READ is ordered after every record WR in the
// chain: no token resolves OK before its record's bytes are in the
// persistence domain on every replica (WriteRecordGroup re-verifies via
// VerifyPersisted before returning).

#ifndef VEDB_ASTORE_APPEND_RING_H_
#define VEDB_ASTORE_APPEND_RING_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/clock.h"

namespace vedb::astore {

class AStoreClient;
class SegmentHandle;
using SegmentHandlePtr = std::shared_ptr<SegmentHandle>;

/// One WR's worth of a record: `data` lands at segment-relative `offset`.
/// A packed record is two pieces — the 16-byte frame header and the
/// caller's payload — both referencing caller-owned memory that must stay
/// alive until the submission's token resolves. No byte is ever copied
/// into the ring.
struct RecordPiece {
  uint64_t offset = 0;
  Slice data;
};

struct AppendRingOptions {
  /// How long a flush leader lingers (virtual time) for more submissions
  /// to join its doorbell before draining. 0 = drain immediately; the
  /// leader still coalesces everything already queued, so concurrent
  /// producers batch even with no window.
  Duration nagle_window = 0;
  /// A drained run is split into doorbells of at most this many payload
  /// bytes. Also the queue depth at which a lingering leader drains early.
  uint64_t batch_byte_cap = 256 * kKiB;
  /// ... and at most this many records per doorbell.
  size_t max_batch_records = 64;
  /// Client software cost per record in a batched post (WR assembly for
  /// header+payload). Replaces the monolithic per-op write_sdk_overhead.
  Duration submit_overhead = 2 * kMicrosecond;
  /// Client software cost per doorbell (ring the NIC, reap one CQ entry
  /// for the whole chain).
  Duration completion_overhead = 1 * kMicrosecond;
};

/// See file comment. Owned by AStoreClient (one ring per client SDK
/// instance); thread safe.
class AppendRing {
 public:
  using Token = uint64_t;

  AppendRing(AStoreClient* client, const AppendRingOptions& options);

  /// Enqueues one record (as pieces) against `handle` and returns its
  /// completion token. Validates every piece against the segment bounds;
  /// the pieces' bytes must stay alive until Wait(token) returns.
  Result<Token> Submit(SegmentHandlePtr handle,
                       std::vector<RecordPiece> pieces);

  /// Blocks until `token`'s doorbell resolves and returns the record's
  /// status. Each token resolves exactly once; waiting twice on the same
  /// token is a caller bug. The calling thread may be drafted as the
  /// flush leader for its own and other producers' submissions.
  Status Wait(Token token);

  /// Submissions currently queued (for tests).
  size_t QueuedForTest() const {
    vedb::MutexLock lk(&mu_);
    return pending_.size();
  }

 private:
  struct Entry {
    uint64_t seq = 0;
    SegmentHandlePtr handle;
    std::vector<RecordPiece> pieces;
    uint64_t bytes = 0;
  };

  AStoreClient* client_;
  AppendRingOptions options_;

  mutable vedb::Mutex mu_{"astore.append_ring"};
  sim::VirtualCondition cond_;
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::deque<Entry> pending_ GUARDED_BY(mu_);
  uint64_t pending_bytes_ GUARDED_BY(mu_) = 0;
  bool flushing_ GUARDED_BY(mu_) = false;
  std::map<Token, Status> done_ GUARDED_BY(mu_);
};

}  // namespace vedb::astore

#endif  // VEDB_ASTORE_APPEND_RING_H_
