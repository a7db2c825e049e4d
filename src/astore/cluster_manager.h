// AStore Cluster Manager (CM, Section IV-A). The central control-plane node:
// storage-node registry and health tracking, segment routing, capacity/load
// aware placement, client leases, and replica rebuild after node failure.
// All interactions are RPC; the CM never touches the data plane.
//
// The control plane itself is highly available: a CM can run as one member
// of a replication group. The member whose term says so is the primary; it
// serves every control RPC and ships each state change to the standbys as a
// checksummed CmRecord (see cm_record.h). Standbys reject control RPCs with
// Stale("not primary") and watch the primary's health; when it dies, the
// lowest-node-id live standby that can reach a majority of the group
// promotes itself under the next term. Terms are `(round << 16) | node_id`,
// so a term names exactly one possible leader and two CMs can never both be
// primary for the same term — which is the no-split-brain argument: a lease
// granted in term T was granted by the one CM that can ever lead T.

#ifndef VEDB_ASTORE_CLUSTER_MANAGER_H_
#define VEDB_ASTORE_CLUSTER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "astore/cm_record.h"
#include "astore/segment.h"
#include "astore/server.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::astore {

/// One member of a CM replication group: its election/tiebreak id and the
/// node it runs on. Every member gets the same list (self included).
struct CmPeer {
  uint32_t node_id = 0;
  sim::SimNode* node = nullptr;
};

class ClusterManager {
 public:
  struct Options {
    /// Lease granted to clients; writes from a client whose lease expired
    /// are rejected locally (Section IV-C's client-failure scenario).
    Duration lease_duration = 2 * kSecond;
    /// Heartbeat polling period of the CM's background task.
    Duration heartbeat_period = 50 * kMillisecond;
    /// A node missing heartbeats for this long is declared dead. Also the
    /// time a standby waits on an unreachable primary before electing.
    Duration failure_timeout = 200 * kMillisecond;
    /// Rebuild lost replicas automatically when a node dies.
    bool auto_rebuild = true;
    /// CPU cost of processing one control request on the CM.
    Duration control_op_cost = 200 * kMicrosecond;
    /// This member's identity within its replication group (< 65536); the
    /// election tiebreak — the lowest live id wins. 0 with no peers is the
    /// classic standalone CM.
    uint32_t node_id = 0;
    /// Per-peer RPC deadline when shipping replication records or pinging.
    Duration replication_deadline = 2 * kMillisecond;
    /// Segment-id gap a fresh primary skips on promotion, so an id whose
    /// kCreateBegin record died with the old primary can never be handed
    /// out twice.
    uint64_t failover_id_gap = 64;
  };

  /// The CM runs on `node` and registers its services there.
  ClusterManager(sim::SimEnvironment* env, net::RpcTransport* rpc,
                 sim::SimNode* node, const Options& options);

  /// Wires the replication group. Call once on every member, with the same
  /// list (self included), before StartBackground. The lowest node id is
  /// the initial primary of term (1, lowest_id).
  void SetPeers(const std::vector<CmPeer>& peers);

  /// Adds a storage server to the cluster (registration). Registration is
  /// wiring, not replicated state: every group member is registered with
  /// the same servers by the deployment.
  void RegisterServer(AStoreServer* server);

  /// Starts the health-check/election/rebuild background actor.
  void StartBackground();

  /// Flags the background actor to stop without waiting for it. When
  /// tearing down several CMs (or a CM plus other periodic actors) at a
  /// fixed virtual time, request ALL shutdowns first and only then drain:
  /// a still-unflagged loop would keep running through the drain.
  void RequestShutdown() { shutdown_.store(true); }

  /// Stops the background actor and drains it: on return (in virtual time)
  /// the heartbeat actor has observed shutdown and exited its loop, so a
  /// demoted primary can never issue a late rebuild after its owner tore
  /// it down. Idempotent.
  void Shutdown();

  sim::SimNode* node() { return node_; }

  // ---- Replication/role introspection. ----

  /// True when this member currently believes it is the primary.
  bool IsPrimary() const;

  /// The term this member is operating under.
  uint64_t Term() const;

  uint32_t NodeId() const { return options_.node_id; }

  /// Node id of the member this one believes leads the current term.
  uint32_t LeaderId() const;

  /// Terms in which THIS member granted at least one lease. The chaos
  /// campaign asserts these sets are pairwise disjoint across members — two
  /// CMs never both grant leases in the same term.
  std::vector<uint64_t> GrantedTerms() const;

  /// Canonical byte encoding of the whole route table (ascending id).
  /// Byte-equality across members — or across a crash/replay — is the
  /// replication test oracle.
  std::string DebugEncodeRoutes() const;

  /// Runs one background tick (health sweep or standby monitor) right now.
  /// Test hook: the caller blocks on the clock, since elections, snapshot
  /// pulls, and rebuilds issue RPCs that advance virtual time.
  void TickForTest() { Tick(); }

  // ---- Direct (in-process) control API. The RPC services wrap these. ----

  /// Grants or renews a client lease; returns the new expiry.
  Timestamp AcquireLease(ClientId client);

  /// True if `client` holds an unexpired lease.
  bool LeaseValid(ClientId client) const;

  /// Creates a segment of `size` bytes replicated `replication` times,
  /// owned by `client`. Placement favours nodes with most free capacity.
  /// `rpc_client` is the node issuing the allocation RPCs to the chosen
  /// servers (the calling actor's node).
  Result<SegmentRoute> CreateSegment(sim::SimNode* rpc_client,
                                     ClientId client, uint64_t size,
                                     int replication);

  /// Returns the current route, or NotFound for deleted/unknown segments.
  Result<SegmentRoute> GetRoute(SegmentId id) const;

  /// Reassigns segment ownership (the "client B reclaims" scenario).
  Status ReclaimSegment(SegmentId id, ClientId new_owner);

  /// Deletes a segment: drops the route and asks replicas to release the
  /// space (deferred on the servers).
  Status DeleteSegment(sim::SimNode* rpc_client, ClientId client,
                       SegmentId id);

  /// Segment ids owned by `client`, ascending (creation order). Used by a
  /// recovering DBEngine to rediscover its SegmentRing.
  std::vector<SegmentId> ListSegments(ClientId client) const;

  /// Number of live storage nodes.
  size_t AliveServerCount() const;

  /// Number of tracked (not yet pruned) client leases, expired included.
  size_t LeaseCount() const {
    vedb::MutexLock lk(&mu_);
    return leases_.size();
  }

  /// Runs one health-check sweep immediately (test hook; primary only —
  /// a standby sweep would race the primary's replicated decisions).
  void CheckHealthNow();

  /// Quarantines one replica reported irreparably corrupt (scrubber
  /// escalation, also reachable via the "cm.report_corrupt" RPC): drops
  /// `node_name` from the segment's route, bumps the epoch so every cached
  /// copy of the old route dies, and — with auto_rebuild — re-replicates
  /// just this segment onto a healthy server, excluding the reporter.
  /// Refuses (Unavailable) to quarantine the last replica: a corrupt copy
  /// still beats no copy, and the caller keeps serving what it can.
  /// A report against a replica the route no longer lists is OK/no-op.
  Status QuarantineReplica(const std::string& node_name, SegmentId id);

 private:
  struct ServerInfo {
    AStoreServer* server = nullptr;
    bool marked_dead = false;
  };

  // What a cm.ping response carries.
  struct PeerStatus {
    uint64_t term = 0;
    uint32_t leader_id = 0;
    uint64_t last_seq = 0;
  };

  void RegisterRpcServices();
  void HealthLoop();
  void Tick();
  void PrimaryTick();
  void StandbyTick();
  void TryElect();
  void Promote();
  void RebuildSegmentsOf(const std::string& dead_node);
  // Re-replicates one segment onto a freshly picked healthy server (never
  // one in `extra_exclude` or already carrying a replica), pulling the
  // bytes from `source`. Call with NO locks held; best-effort — on failure
  // the segment stays degraded until the next sweep or report.
  void RebuildOneReplica(SegmentId id, uint64_t size,
                         const ReplicaLocation& source,
                         const std::vector<std::string>& extra_exclude);
  Result<std::vector<AStoreServer*>> PickServersLocked(
      int count, const std::vector<std::string>& exclude) const REQUIRES(mu_);

  // ---- Replication internals. ----
  bool IsPrimaryLocked() const REQUIRES(mu_) {
    return leader_id_ == options_.node_id;
  }
  // Stamps term+seq on a new record; the caller mutates state under the
  // same critical section so the record and the change are atomic.
  CmRecord MakeRecordLocked(CmRecordType type) REQUIRES(mu_);
  // Ships records to every peer synchronously. Call with NO locks held.
  void ShipRecords(const std::vector<CmRecord>& records);
  // Applies one replicated record to local state (standby side).
  void ApplyRecordLocked(const CmRecord& rec) REQUIRES(mu_);
  // Adopts `term` if it is newer than ours: updates leadership belief and
  // flags a snapshot resync. How a demoted/partitioned member steps down.
  void AdoptTermIfNewer(uint64_t term);
  // Gate for client-facing services: Stale unless primary; on success the
  // current term is prefixed to `resp` for the client's staleness check.
  Status RequirePrimaryAndStamp(std::string* resp);
  Status PingPeer(const CmPeer& peer, PeerStatus* out);
  Status PullSnapshotFromLeader();
  void InstallSnapshot(const CmSnapshot& snap);
  CmSnapshot BuildSnapshotLocked() const REQUIRES(mu_);
  uint64_t LastSeq() const;

  sim::SimEnvironment* env_;
  net::RpcTransport* rpc_;
  sim::SimNode* node_;
  Options options_;

  // The replication group, fixed by SetPeers before background start and
  // never mutated after (read without a lock). Empty => standalone.
  std::vector<CmPeer> peers_;

  // Lock order: cm.repl before cm.state (the replicate handler applies a
  // consecutive record run under the stream lock); cm.state before
  // astore.server and sim.node (the health sweep and placement read
  // server/node state under the CM lock). Nothing may call back into the
  // CM while holding those, and no lock is ever held across an RPC.
  mutable vedb::Mutex mu_{"cm.state"};
  std::map<std::string, ServerInfo> servers_ GUARDED_BY(mu_);
  std::map<SegmentId, SegmentRoute> routes_ GUARDED_BY(mu_);
  std::map<ClientId, Timestamp> leases_ GUARDED_BY(mu_);
  std::set<SegmentId> pending_creates_ GUARDED_BY(mu_);
  // Segments whose last rebuild attempt found no usable target (e.g. every
  // spare node still held a stale pending-clean copy). Retried on each
  // health sweep, so a momentary placement dead-end self-heals instead of
  // leaving the segment under-replicated forever. Primary-local.
  std::set<SegmentId> pending_rebuilds_ GUARDED_BY(mu_);
  // Nodes whose copy of a segment was quarantined as irreparably corrupt
  // (latent bad cells). Never picked again as a rebuild target for that
  // segment: re-hosting it on the same PMem region would re-corrupt.
  std::map<SegmentId, std::set<std::string>> quarantined_nodes_
      GUARDED_BY(mu_);
  SegmentId next_segment_id_ GUARDED_BY(mu_) = 1;
  uint64_t term_ GUARDED_BY(mu_) = 0;
  uint32_t leader_id_ GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;  // primary's record stream position
  std::set<uint64_t> granted_terms_ GUARDED_BY(mu_);

  // Replication stream state (standby ingest + monitor bookkeeping).
  mutable vedb::Mutex repl_mu_{"cm.repl"};
  uint64_t last_applied_ GUARDED_BY(repl_mu_) = 0;
  std::map<uint64_t, CmRecord> reorder_ GUARDED_BY(repl_mu_);
  bool need_snapshot_ GUARDED_BY(repl_mu_) = false;
  Timestamp leader_down_since_ GUARDED_BY(repl_mu_) = 0;
  uint64_t prev_applied_seen_ GUARDED_BY(repl_mu_) = 0;

  obs::Gauge* term_gauge_ = nullptr;
  obs::Counter* failovers_ = nullptr;
  obs::Counter* quarantines_ = nullptr;
  obs::Counter* rebuilds_ = nullptr;
  std::map<uint32_t, obs::Gauge*> lag_gauges_;  // fixed at SetPeers

  std::atomic<bool> shutdown_{false};
  sim::ActorGroup background_;  // the health actor; Shutdown joins it
};

}  // namespace vedb::astore

#endif  // VEDB_ASTORE_CLUSTER_MANAGER_H_
