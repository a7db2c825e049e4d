// PageStore (Section III): the page half of veDB's storage layer. Shards
// the page space into segments, receives REDO records shipped from the
// DBEngine over RPC, replicates them with a quorum, detects holes via
// per-record back-links and fills them by gossiping with peer replicas, and
// continuously (or on demand) applies REDO to materialize page images —
// checkpointing in the compute layer is never required.
//
// Each shard's records form a chain in ship order (the back-link of record
// n is the sequence number n-1). The storage SDK ships strictly in LSN
// order per shard, so applying in chain order is applying in LSN order;
// re-shipped duplicates after a DBEngine recovery are absorbed by the
// page-level LSN idempotence check.
//
// PageStore is engine-agnostic: page contents are opaque and REDO is
// applied through an injected ApplyFn, so the same service can back any
// engine.

#ifndef VEDB_PAGESTORE_PAGESTORE_H_
#define VEDB_PAGESTORE_PAGESTORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::pagestore {

/// Opaque page key (the engine packs space_no/page_no into it).
using PageKey = uint64_t;

/// One REDO record shipped to the PageStore.
struct RedoShipRecord {
  PageKey page_key = 0;
  uint64_t lsn = 0;
  std::string payload;
};

/// Applies one REDO payload to a page image at `lsn`. An empty `image`
/// means the page does not exist yet; the function must initialize it. The
/// function must be idempotent against re-application (check the image's
/// own LSN).
///
/// It must also be deterministic: the resulting bytes may depend only on
/// (key, payload, lsn, *image), never on which replica applies the record,
/// on time or on any other state. A page's bytes are then a function of its
/// install image and the shard's chain up to a sequence number, which is
/// what lets replicas share one copy of each page version (see
/// PageStoreCluster's version table).
using ApplyFn = std::function<void(PageKey key, Slice payload, uint64_t lsn,
                                   std::string* image)>;

class PageStoreCluster {
 public:
  struct Options {
    /// Page-space shards ("segments" in the paper's PageStore terms).
    int num_shards = 8;
    /// Copies of each shard.
    int replication = 3;
    /// Acks required before a ship is considered durable (quorum).
    int write_quorum = 2;
    /// Background apply/gossip cadence.
    Duration background_period = 10 * kMillisecond;
    /// CPU cost of applying one REDO record on a storage node.
    Duration apply_cpu_per_record = 2 * kMicrosecond;
    /// Page size used to charge read I/O.
    uint64_t page_size = 16 * kKiB;
    /// Per-replica attempt deadline for ReadPage RPCs (0 = none). Bounds
    /// how long a slow replica can hold up the read before the failover
    /// loop moves to the next copy; the reads are idempotent, so the
    /// give-up-and-drop-response semantics of RpcCallOptions are safe.
    Duration read_attempt_deadline = 0;
  };

  /// A shard's version table keeps a version only while a replica within
  /// this many sequence numbers of the most advanced one may still adopt
  /// it, so a dead or lagging replica bounds the table at this many
  /// versions; a replica further behind builds its versions itself.
  static constexpr uint64_t kMaxVersionLag = 1024;

  PageStoreCluster(sim::SimEnvironment* env, net::RpcTransport* rpc,
                   std::vector<sim::SimNode*> nodes, ApplyFn apply,
                   const Options& options);
  ~PageStoreCluster();

  /// Ships a batch of REDO records from `client`. Records must arrive here
  /// in per-shard LSN order (the storage SDK's shipper guarantees this);
  /// they are grouped by shard, stamped with chain sequence numbers, and
  /// sent to all replicas in parallel. Returns once every shard involved
  /// has a quorum of acks; laggards catch up via gossip.
  Status ShipRecords(sim::SimNode* client,
                     const std::vector<RedoShipRecord>& records);

  /// Reads the newest materialized image of a page, requiring the serving
  /// replica to have applied this shard's records up to the cluster's acked
  /// LSN. Fails over across replicas; a behind replica first tries a
  /// synchronous gossip catch-up.
  Status ReadPage(sim::SimNode* client, PageKey key, std::string* image,
                  uint64_t* image_lsn);

  /// Directly installs a page image on every replica (bulk load path, e.g.
  /// physical import of benchmark datasets). Bypasses REDO. The image
  /// replaces the page as of the shard's chain head, so no replica applies
  /// a record shipped before the install to it.
  Status InstallPageDirect(PageKey key, uint64_t lsn, Slice image);

  /// Largest LSN L such that every shard has quorum-acked all its records
  /// with lsn <= L (safe checkpoint bound for log truncation).
  uint64_t DurableLsn() const;

  /// Drops applied REDO records with lsn < `lsn` on all replicas (the
  /// engine's checkpoint GC).
  void TruncateBelow(uint64_t lsn);

  /// Starts per-node background apply/gossip actors.
  void StartBackground(sim::ActorGroup* group);
  void Shutdown() { shutdown_.store(true); }

  int ShardOf(PageKey key) const;
  const std::vector<sim::SimNode*>& ReplicaNodes(int shard) const;

  /// Reads a page from the replica hosted on `node` without any network
  /// hop, charging local media I/O — the storage-side path of push-down
  /// execution ("the PageServer reads the local disk", Section VI-B).
  Status ReadLocalPage(sim::SimNode* node, PageKey key, std::string* image);

  /// The node currently preferred for serving `key` locally (first alive
  /// replica), or null.
  sim::SimNode* LocalNodeFor(PageKey key) const;

  /// State-only local page read for non-blocking (timed) handlers: no
  /// device time is charged; `*applied` reports how many records had to be
  /// applied so the caller can charge CPU itself.
  Status PeekLocalPage(sim::SimNode* node, PageKey key, std::string* image,
                       uint64_t* applied);

  const Options& options() const { return options_; }

  /// Test/metrics hooks.
  uint64_t GossipFillCount() const { return gossip_fills_.load(); }
  uint64_t AppliedRecordCount() const { return applied_records_.load(); }
  /// Page versions `shard`'s version table currently holds.
  size_t VersionCount(int shard) const;
  /// Distinct page buffers the replicas of `shard` hold (a buffer several
  /// replicas share counts once).
  size_t DistinctImages(int shard) const;
  /// Records `shard`'s chain holds (each once, however many replicas hold
  /// it).
  size_t ChainRecords(int shard) const;
  /// Chain sequence numbers of the records replica `replica` of `shard`
  /// still holds, ascending.
  std::vector<uint64_t> RetainedRecords(int shard, int replica) const;
  /// Replica `replica` of `shard`: every record up to this sequence number
  /// has arrived (the contiguity watermark).
  uint64_t ContiguousSeq(int shard, int replica) const;

 private:
  /// One page version. A buffer is written only while a single replica
  /// holds it; once published to the version table or shared by an
  /// install it is immutable, and a replica that applies to it copies it
  /// first.
  struct PageImage {
    uint64_t lsn = 0;
    /// Chain seq of the last record applied, or an install's chain head:
    /// the image is the page as of that seq, and records at or below it
    /// are never applied to it.
    uint64_t seq = 0;
    std::string bytes;
  };
  using ImageRef = std::shared_ptr<PageImage>;
  static constexpr uint32_t kNotInRun = UINT32_MAX;
  /// A fresh unshared buffer; the pagestore.image_bytes gauge counts it
  /// until its last reference drops.
  ImageRef NewImage(PageImage image);
  void AddImageBytes(int64_t delta);
  void AddChainBytes(int64_t delta);

  /// A record as decoded from a ship request or fetch response; `payload`
  /// points into the RPC body.
  struct WireRecord {
    uint64_t seq = 0;
    uint64_t lsn = 0;
    PageKey page_key = 0;
    Slice payload;
  };

  /// One record of a shard's shared REDO chain.
  struct ChainRecord {
    uint64_t lsn = 0;
    PageKey page_key = 0;
    /// Replicas that hold this record; 0: no record here.
    uint32_t holders = 0;
    std::string payload;
  };
  /// The chain is stored in chunks of 2^kChainChunkBits sequence numbers.
  /// A chunk is freed with its last record, so a replica that stops
  /// dropping records pins only the chunks of the records it holds.
  static constexpr int kChainChunkBits = 6;
  static constexpr uint64_t kChainChunkMask = (1u << kChainChunkBits) - 1;
  struct ChainChunk {
    uint32_t live = 0;  // records with holders > 0
    ChainRecord records[1u << kChainChunkBits];
  };

  /// One replica of one shard, resident on a node. The replica's records
  /// live in the shard's chain; the replica keeps which sequence numbers it
  /// holds, densely: held[i] is sequence number first_seq + i.
  struct ShardReplica {
    vedb::Mutex mu{"pagestore.replica"};
    sim::SimNode* node = nullptr;
    int index = 0;  // position in its shard's replica list
    // False for a hole (not yet received) or a truncated record.
    std::deque<bool> held GUARDED_BY(mu);
    // chain seq (1-based) of held.front()
    uint64_t first_seq GUARDED_BY(mu) = 1;
    // all seqs <= this are held
    uint64_t contiguous_seq GUARDED_BY(mu) = 0;
    // largest seq ever received
    uint64_t max_seen_seq GUARDED_BY(mu) = 0;
    // records <= this are in page images
    uint64_t applied_seq GUARDED_BY(mu) = 0;
    // lsn of the last applied record
    uint64_t applied_lsn GUARDED_BY(mu) = 0;
    struct Page {
      ImageRef image;
      // Index in run_pages while an apply run touches this page.
      uint32_t run = kNotInRun;
    };
    std::unordered_map<PageKey, Page> pages GUARDED_BY(mu);
    // ApplyContiguousLocked's per-run scratch, kept to reuse its memory.
    struct RunPage {
      Page* page;
      uint64_t first;    // seq of the run's first record on this page
      uint64_t target;   // seq of the run's last record on this page
      PageImage* build;  // image the run's records apply to; null: adopted
      size_t size_before;
    };
    std::vector<RunPage> run_pages GUARDED_BY(mu);
    struct RunRecord {
      const ChainRecord* rec;
      uint32_t page;  // index in run_pages
    };
    std::vector<RunRecord> run_records GUARDED_BY(mu);
  };

  struct Shard {
    std::vector<sim::SimNode*> nodes;
    std::vector<std::unique_ptr<ShardReplica>> replicas;
    // Per-replica RPC service names ("ps.ship.<shard>.<replica>" ...).
    std::vector<std::string> ship_service;
    std::vector<std::string> read_service;
    std::vector<std::string> fetch_service;
    // Storage-SDK-side bookkeeping: chain sequence allocation and the
    // quorum-acked high-water mark.
    mutable vedb::Mutex ship_mu{"pagestore.ship"};
    uint64_t next_seq GUARDED_BY(ship_mu) = 1;
    uint64_t last_shipped_lsn GUARDED_BY(ship_mu) = 0;
    std::atomic<uint64_t> acked_lsn{0};
    // Version table: every replica applies the same chain, so a page as of
    // a record has one image, built by the first replica to get there and
    // adopted by the others. Keyed by the record's seq (the record names
    // the page). Lock order: a replica's mu, then versions_mu.
    mutable vedb::Mutex versions_mu{"pagestore.versions"};
    std::map<uint64_t, ImageRef> versions GUARDED_BY(versions_mu);
    // Each replica's applied_seq, mirrored for the drop rule.
    std::vector<uint64_t> applied GUARDED_BY(versions_mu);
    // The REDO chain: every replica receives the same records, so the
    // shard keeps each once, keyed by seq >> kChainChunkBits, and a record
    // stays while a replica holds it. Lock order: a replica's mu, then
    // chain_mu (never together with versions_mu).
    mutable vedb::Mutex chain_mu{"pagestore.chain"};
    std::map<uint64_t, std::unique_ptr<ChainChunk>> chain GUARDED_BY(chain_mu);
  };

  Status HandleShip(int shard, int replica_idx, Slice request,
                    std::string* response, Timestamp start, Timestamp* done);
  Status HandleReadPage(int shard, int replica_idx, Slice request,
                        std::string* response);
  Status HandleFetch(int shard, int replica_idx, Slice request,
                     std::string* response);

  /// Decodes a count-prefixed run of {seq, lsn, page_key, payload}
  /// records (the ship request and fetch response body). Returns false on
  /// a malformed buffer; `out` then holds the records before the fault.
  static bool DecodeRecords(Slice in, std::vector<WireRecord>* out);

  /// Whether `rep` holds the record with chain sequence number `seq`.
  static bool HeldLocked(const ShardReplica* rep, uint64_t seq)
      REQUIRES(rep->mu);

  /// The chain's record `seq`, or null if no replica holds it.
  static const ChainRecord* ChainAtLocked(const Shard* shard, uint64_t seq)
      REQUIRES(shard->chain_mu);

  /// Marks `records` held by `rep`, adopting the chain's copy of each or
  /// publishing it there, and advances the contiguity watermark.
  void InsertRecordsLocked(Shard* shard, ShardReplica* rep,
                           const std::vector<WireRecord>& records)
      REQUIRES(rep->mu);

  /// Applies contiguous unapplied records; returns how many were applied.
  /// Each page the run touches ends at the version of the run's last record
  /// on it: adopted from the shard's version table when present, else
  /// built and published. The caller must charge the CPU cost (applied *
  /// apply_cpu_per_record) after unlocking — never block under the lock.
  uint64_t ApplyContiguousLocked(Shard* shard, ShardReplica* rep)
      REQUIRES(rep->mu);

  /// Pulls missing records from peer replicas. Must be called WITHOUT the
  /// replica lock (does RPC). Returns true if progress was made.
  bool GossipCatchUp(int shard, int replica_idx);

  void BackgroundLoop(sim::SimNode* node);

  sim::SimEnvironment* env_;
  net::RpcTransport* rpc_;
  std::vector<sim::SimNode*> nodes_;
  ApplyFn apply_;
  Options options_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> gossip_fills_{0};
  std::atomic<uint64_t> applied_records_{0};

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* ship_batches_ = nullptr;
  obs::Counter* ship_records_ = nullptr;
  obs::Counter* applied_metric_ = nullptr;
  obs::Counter* gossip_metric_ = nullptr;
  obs::Counter* page_reads_ = nullptr;
  obs::HistogramMetric* read_ns_ = nullptr;
  obs::Counter* versions_built_ = nullptr;
  obs::Counter* versions_adopted_ = nullptr;
  obs::Gauge* image_bytes_ = nullptr;
  obs::Gauge* chain_bytes_ = nullptr;
};

}  // namespace vedb::pagestore

#endif  // VEDB_PAGESTORE_PAGESTORE_H_
