// AStore Client (Section IV). The access module embedded in DBEngine's
// storage SDK: create/open/write/read/delete over append-only segments,
// replica fan-out with chained one-sided RDMA (WRITE payload + WRITE io-meta
// + READ flush), cached routes refreshed from the CM, and a client lease
// that fences zombie writers.
//
// Thread safety: all public methods are safe to call concurrently. No lock
// is ever held across a virtual-time wait.

#ifndef VEDB_ASTORE_CLIENT_H_
#define VEDB_ASTORE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "astore/append_ring.h"
#include "astore/segment.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::astore {

/// Transparent failure recovery (Section IV-C's client duty). On a
/// retriable status — Unavailable, Stale, TimedOut, IOError, Busy — the
/// client re-fetches the route from the CM, un-freezes the handle once the
/// route epoch has advanced past the failure, and retries with bounded
/// exponential backoff plus deterministic jitter on the virtual clock.
/// Permanent conditions (lease expiry, reclaimed/deleted segments, bad
/// arguments, NoSpace) surface immediately.
struct RetryPolicy {
  /// Upper bound on attempts per operation, first try included. 1 = every
  /// transient failure surfaces to the caller.
  int max_attempts = 64;
  /// First backoff; doubles per attempt up to `max_backoff`.
  Duration initial_backoff = 200 * kMicrosecond;
  Duration max_backoff = 10 * kMillisecond;
  /// Per-operation recovery budget (0 = unbounded). Must stay well under
  /// the CM lease duration or a retrying writer can outlive its own lease
  /// mid-loop and surface LeaseExpired instead of the original cause.
  Duration op_deadline = 800 * kMillisecond;
  /// Per-attempt RPC deadline for idempotent CM calls (cm.get_route).
  /// Non-idempotent calls (cm.create_segment) never get one: a slow but
  /// successful create reported TimedOut and then retried would orphan
  /// the first segment.
  Duration cm_deadline = 2 * kMillisecond;
};

/// Client-side state of one open segment. Obtained from AStoreClient;
/// shareable across threads.
class SegmentHandle {
 public:
  explicit SegmentHandle(SegmentRoute route) : route_(std::move(route)) {}

  SegmentId id() const { return route_.id; }
  uint64_t size() const { return route_.size; }

  /// Bytes appended so far (the write cursor).
  uint64_t write_offset() const {
    vedb::MutexLock lk(&mu_);
    return write_offset_;
  }

  /// A frozen segment rejects writes; reads still work. Set after a replica
  /// write failure (the paper freezes the segment with its effective
  /// length) or when the route disappears.
  bool frozen() const {
    vedb::MutexLock lk(&mu_);
    return frozen_;
  }

  /// True when the CM no longer routes this segment (deleted/reclaimed).
  bool stale() const {
    vedb::MutexLock lk(&mu_);
    return stale_;
  }

  SegmentRoute route() const {
    vedb::MutexLock lk(&mu_);
    return route_;
  }

  /// The first replica's node, without copying the whole route; false when
  /// the route has no replicas.
  bool FirstReplicaNode(std::string* node) const {
    vedb::MutexLock lk(&mu_);
    if (route_.replicas.empty()) return false;
    *node = route_.replicas[0].node;
    return true;
  }

 private:
  friend class AStoreClient;

  mutable vedb::Mutex mu_{"astore.handle"};
  SegmentRoute route_ GUARDED_BY(mu_);
  uint64_t write_offset_ GUARDED_BY(mu_) = 0;
  bool frozen_ GUARDED_BY(mu_) = false;
  bool stale_ GUARDED_BY(mu_) = false;
  // Route epoch at the moment the handle was frozen. A refreshed route
  // whose epoch is beyond this means the CM rebuilt the replica set past
  // the failure, so the freeze no longer protects anything.
  uint64_t frozen_epoch_ GUARDED_BY(mu_) = 0;
};

using SegmentHandlePtr = std::shared_ptr<SegmentHandle>;

/// Integrity options for verified reads. `verify` inspects the returned
/// bytes (typically the caller's CRC framing); a non-OK result means THIS
/// replica's copy is bad, and the client fails over to the next replica
/// within the same attempt. Distinct from transport errors: a corrupt copy
/// is surfaced as Status::DataLoss and is never retried against the replica
/// that served it. Once a later replica serves a good copy, the client
/// rewrites it over every replica that served bad bytes (read repair;
/// epoch-guarded: a concurrent route change/writer wins and the repair is
/// dropped).
struct ReadOptions {
  /// Checks the returned bytes; null = length validation only.
  std::function<Status(Slice)> verify;
};

class AStoreClient {
 public:
  struct Options {
    /// Default replication for new segments (log: 3, EBP pages: 1).
    int default_replication = 3;
    /// How often cached routes are re-validated against the CM. Must be
    /// much shorter than the servers' cleaning interval (Section IV-C).
    Duration route_refresh_interval = 50 * kMillisecond;
    /// How often the client lease is renewed.
    Duration lease_renew_interval = 500 * kMillisecond;
    /// Client software cost per write (WR construction, CQ polling,
    /// segment-meta update). Calibrated against Table II.
    Duration write_sdk_overhead = 55 * kMicrosecond;
    /// Client software cost per read.
    Duration read_sdk_overhead = 4 * kMicrosecond;
    /// Transparent retry/backoff/deadline behaviour (see RetryPolicy).
    RetryPolicy retry;
    /// Doorbell coalescing + batched-post costs for the async append path
    /// (see astore/append_ring.h).
    AppendRingOptions append_ring;
  };

  AStoreClient(sim::SimEnvironment* env, net::RpcTransport* rpc,
               net::RdmaFabric* fabric, sim::SimNode* cm_node,
               sim::SimNode* client_node, ClientId client_id,
               const Options& options);

  /// Replaces the CM endpoint list for control-plane failover (the
  /// constructor's `cm_node` is the single endpoint by default). The client
  /// prefers one endpoint and rotates to the next on Unavailable / TimedOut
  /// / Stale — a standby answering "not primary" counts as a miss — so every
  /// CM call converges on the current primary within a few attempts.
  /// Successful responses carry the primary's term; the client tracks the
  /// highest term it has seen and rejects responses from older terms as
  /// Stale, which both fences a demoted-but-revived primary and redirects
  /// the call to the real one. Call before any concurrent use.
  void SetCmEndpoints(std::vector<sim::SimNode*> endpoints);

  /// Acquires the initial lease from the CM.
  Status Connect();

  /// Creates a new segment (RPC to the CM; "takes a few milliseconds").
  Result<SegmentHandlePtr> CreateSegment(uint64_t size, int replication = 0);

  /// Opens an existing segment by id (fetches the route).
  Result<SegmentHandlePtr> OpenSegment(SegmentId id);

  /// Appends `data` at the handle's write cursor; all replicas must ack.
  /// A replica failure freezes the segment, then (unless
  /// retry.max_attempts is 1) the failed writer owns repair: it re-fetches
  /// the route, re-posts the same bytes at its reserved offset, and
  /// un-freezes on success. Only after
  /// the retry budget is exhausted does the error surface — at which point
  /// the caller opens a new segment and retries there (Section IV-B).
  /// Returns the start offset via `offset_out`.
  Status Append(const SegmentHandlePtr& handle, Slice data,
                uint64_t* offset_out);

  using AppendToken = AppendRing::Token;

  /// Async append: reserves the cursor immediately (the record's offset is
  /// returned via `offset_out` at submission, not completion) and enqueues
  /// the record on the doorbell coalescer. The caller keeps `data` alive
  /// until WaitAppend(token) returns; completions resolve in submission
  /// order. Independent callers' records that land on the same segment are
  /// posted as one chained-WR doorbell.
  Result<AppendToken> AppendAsync(const SegmentHandlePtr& handle, Slice data,
                                  uint64_t* offset_out = nullptr);

  /// Blocks until the async append's doorbell resolves; returns the
  /// record's durability status. Same recovery semantics as Append.
  Status WaitAppend(AppendToken token);

  /// The client's submission/completion ring. Callers that frame their own
  /// records (SegmentRing) submit pieces directly.
  AppendRing* append_ring() { return append_ring_.get(); }

  /// Posts a group of framed records against one segment as a single
  /// chained-WR doorbell per replica (one doorbell_cost + one flush READ
  /// amortized over the group), with the same transparent recovery as
  /// Append. Called by the AppendRing's flush leader; `records` are borrowed
  /// piece lists that must stay alive for the call. A successful group
  /// counts one `ring.doorbells`; Append and WriteAt never do.
  Status WriteRecordGroup(
      const SegmentHandlePtr& handle,
      const std::vector<const std::vector<RecordPiece>*>& records);

  /// Writes `data` at an explicit offset (used for SegmentRing headers and
  /// EBP slot placement). Subject to the same lease/freeze checks and the
  /// same transparent recovery as Append.
  Status WriteAt(const SegmentHandlePtr& handle, uint64_t offset, Slice data);

  /// Reads `len` bytes at `offset` via one-sided RDMA READ. Fails over
  /// across replicas within one attempt; within the retry budget, refreshes
  /// the route and retries when no replica could serve the read.
  Status Read(const SegmentHandlePtr& handle, uint64_t offset, uint64_t len,
              char* out);

  /// Read with integrity verification and read-repair (see ReadOptions).
  /// Every replica's returned completion length is validated against the
  /// request *before* `verify` runs — a short completion is corruption,
  /// never a silently sliced buffer. Returns Status::DataLoss when every
  /// live replica served a bad copy.
  Status ReadVerified(const SegmentHandlePtr& handle, uint64_t offset,
                      uint64_t len, char* out, const ReadOptions& read_opts);

  /// Direct read of one replica's copy (no failover, no verification, no
  /// repair). Lets tests and the scrubber address a specific copy — e.g.
  /// to confirm a previously-bad replica was actually rewritten.
  Status ReadReplica(const SegmentHandlePtr& handle, size_t replica_idx,
                     uint64_t offset, uint64_t len, char* out);

  /// Rewrites [offset, offset+data.size()) on ONE replica and flushes it —
  /// the repair primitive behind read-repair and scan-repair. Epoch-guarded:
  /// returns Stale without writing when the handle's current route epoch is
  /// not `route_epoch` anymore (a concurrent writer or CM rebuild wins).
  Status WriteReplica(const SegmentHandlePtr& handle, size_t replica_idx,
                      uint64_t offset, Slice data, uint64_t route_epoch);

  /// Reports `node_name`'s copy of the handle's segment to the CM as
  /// irreparably corrupt (the scrubber's escalation path after a failed
  /// in-place repair). The primary CM quarantines that replica — drops it
  /// from the route, bumps the epoch — and re-replicates the segment onto a
  /// healthy server. Idempotent: a report against a replica the route no
  /// longer lists is acknowledged without action.
  Status ReportCorruptReplica(const SegmentHandlePtr& handle,
                              const std::string& node_name);

  /// Deletes the segment cluster-wide and marks the handle stale.
  Status Delete(const SegmentHandlePtr& handle);

  /// Persistence-ordering check: validates that segment bytes
  /// [offset, offset+len) are in the persistence domain on every replica.
  /// Commit paths (e.g. SegmentRing) call this before exposing an LSN as
  /// durable; Corruption means the commit would be premature.
  Status VerifyPersisted(const SegmentHandlePtr& handle, uint64_t offset,
                         uint64_t len, std::string_view context);

  /// One route-refresh pass over all open segments (also run by the
  /// background task): picks up epoch changes, deletions, and ownership
  /// changes.
  void RefreshRoutes();

  /// Renews the lease once (also run by the background task).
  Status RenewLease();

  /// Local lease validity check.
  bool LeaseValid() const {
    return lease_expiry_.load() > env_->clock()->Now();
  }

  /// Expires the local lease immediately (test hook for the zombie-writer
  /// scenario).
  void ExpireLeaseForTest() { lease_expiry_.store(0); }

  /// Starts route-refresh and lease-renewal actors.
  void StartBackground(sim::ActorGroup* group);
  void Shutdown() { shutdown_.store(true); }

  ClientId client_id() const { return client_id_; }
  const Options& options() const { return options_; }
  sim::SimNode* node() { return client_node_; }
  net::RpcTransport* rpc() { return rpc_; }
  sim::SimEnvironment* env() { return env_; }

 private:
  /// Shared preamble of Append, AppendAsync and WriteAt: under the handle
  /// lock, the stale/frozen gate and the bounds check. With `reserve` it takes `data.size()` bytes at the
  /// write cursor and returns their offset in `*offset`; otherwise it
  /// checks the caller's `*offset`.
  Status BeginWrite(const SegmentHandlePtr& handle, Slice data, bool reserve,
                    uint64_t* offset);
  /// Append/WriteAt's post: a one-record group at `offset`, with recovery.
  Status WriteSingle(const SegmentHandlePtr& handle, uint64_t offset,
                     Slice data, const char* op);
  /// The one write attempt every write path makes: lease fence, then per
  /// replica a chain of all record WRs + one io-meta WR + one flush READ,
  /// then the persist check before the ack. `sdk_cost` is the client
  /// software time charged first.
  Status PostRecordGroup(
      const SegmentHandlePtr& handle,
      const std::vector<const std::vector<RecordPiece>*>& records,
      Duration sdk_cost);
  /// Runs `attempt`, and on a retriable failure refreshes the route and
  /// retries with backoff within the RetryPolicy budget; `op` labels the
  /// retry counter. A `writer` whose retry succeeds lifts the handle's
  /// freeze. A template, not std::function: it wraps every write and read,
  /// and a type-erased capture would heap-allocate on each one.
  template <typename F>
  Status RetryOnHandle(const SegmentHandlePtr& handle, const char* op,
                       bool writer, F&& attempt);
  Status ReadWithRecovery(const SegmentHandlePtr& handle, uint64_t offset,
                          uint64_t len, char* out,
                          const ReadOptions& read_opts);
  Status ReadInternal(const SegmentHandlePtr& handle, uint64_t offset,
                      uint64_t len, char* out, const ReadOptions& read_opts);
  /// Rewrites the verified bytes over the replicas that served bad copies.
  /// Epoch-guarded: skipped entirely when the route moved past `route`.
  void RepairReplicas(const SegmentHandlePtr& handle,
                      const SegmentRoute& route,
                      const std::vector<size_t>& bad, uint64_t offset,
                      Slice good);
  /// One CM round trip with retry/backoff on transient failures.
  /// `idempotent` gates the per-attempt RPC deadline (see RetryPolicy).
  Status CmCall(const char* op, const std::string& service, Slice request,
                std::string* response, bool idempotent);
  /// A single attempt against the currently preferred CM endpoint: strips
  /// and validates the term prefix on success, rotates the preference on
  /// endpoint failure. `rpc_deadline` of 0 means no per-attempt deadline.
  Status CmCallOnce(const std::string& service, Slice request,
                    std::string* response, Duration rpc_deadline);
  /// Re-fetches one handle's route from the CM and folds it in: installs
  /// epoch changes, marks reclaimed/deleted segments stale, and un-freezes
  /// the handle when the epoch advanced past the freeze.
  Status RefreshRoute(const SegmentHandlePtr& handle);
  bool Retriable(const Status& s) const;
  /// Exponential backoff for `attempt` (1-based) with deterministic jitter.
  Duration BackoffDelay(int attempt);
  void CountRetry(const char* op, const Status& cause);
  void BackgroundLoop();

  sim::SimEnvironment* env_;
  net::RpcTransport* rpc_;
  net::RdmaFabric* fabric_;
  sim::SimNode* client_node_;
  ClientId client_id_;
  Options options_;

  // CM endpoint list (fixed by SetCmEndpoints before concurrent use) plus
  // the rotating preference and the highest primary term seen. Lock-free:
  // concurrent callers CAS the preference so a burst of failures against
  // one dead CM rotates once, not once per caller.
  std::vector<sim::SimNode*> cm_endpoints_;
  std::atomic<size_t> cm_index_{0};
  std::atomic<uint64_t> cm_term_{0};

  std::atomic<Timestamp> lease_expiry_{0};
  std::atomic<bool> shutdown_{false};

  vedb::Mutex mu_{"astore.client"};
  // Open handles tracked for the background refresh, keyed by segment id.
  std::map<SegmentId, std::weak_ptr<SegmentHandle>> open_ GUARDED_BY(mu_);
  std::atomic<uint64_t> read_rr_{0};  // round-robin replica cursor for reads

  // Retry jitter. Seeded from the client id, NOT the environment's seed
  // stream: arming retries must never shift unrelated downstream draws.
  vedb::Mutex retry_mu_{"astore.client.retry"};
  Random retry_rng_ GUARDED_BY(retry_mu_);

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* writes_ = nullptr;
  obs::Counter* write_bytes_ = nullptr;
  obs::HistogramMetric* write_ns_ = nullptr;
  obs::Counter* reads_ = nullptr;
  obs::HistogramMetric* read_ns_ = nullptr;
  obs::Counter* route_refreshes_ = nullptr;
  obs::Counter* unfreezes_ = nullptr;
  obs::Counter* cm_failovers_ = nullptr;
  obs::Counter* corrupt_reads_ = nullptr;
  obs::Counter* read_repairs_ = nullptr;
  obs::Counter* ring_doorbells_ = nullptr;
  obs::HistogramMetric* doorbell_batch_ = nullptr;
  obs::Counter* coalesced_appends_ = nullptr;

  // Declared last: the ring's constructor reads env_ through this client.
  std::unique_ptr<AppendRing> append_ring_;
};

}  // namespace vedb::astore

#endif  // VEDB_ASTORE_CLIENT_H_
