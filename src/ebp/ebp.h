// Extended Buffer Pool (Sections V-C/V-D): a second-level page cache for
// DBEngine, backed by single-replica AStore segments on remote PMem and
// read/written with one-sided RDMA.
//
//  * The EBP Index — {page key -> lsn + segment + offset} — lives in the
//    client (storage SDK). Its lock is modelled as a single-channel
//    queueing device so that index contention degrades throughput under
//    high concurrency exactly as Section VII-B reports.
//  * Page recency is tracked in multiple hash-sharded LRU lists.
//  * Space is managed append-only: overwritten/evicted pages become garbage
//    and, once the sealed segments hold capacity / (1 - garbage threshold), a
//    background compaction pass moves live pages out of every
//    garbage-heavy segment (or, with compaction disabled, drops such
//    segments whole), so the segments held stay bounded by the live bytes.
//  * Capacity policy is flat or priority-based (Section V-C).
//  * Recovery of DBEngine failures: servers keep an in-memory page->latest
//    LSN map fed by periodic batched reports; a restarting engine asks each
//    server to scan its PMem-resident pages, prune stale ones, and return
//    the survivors (Section V-E).

#ifndef VEDB_EBP_EBP_H_
#define VEDB_EBP_EBP_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "astore/client.h"
#include "astore/server.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::ebp {

/// Engine page identifier packed into 64 bits (space_no << 32 | page_no).
using PageKey = uint64_t;

/// One page discovered by a server-side EBP scan (recovery/reattach).
struct ScannedEntry {
  PageKey key = 0;
  uint64_t lsn = 0;
  astore::SegmentId seg = 0;
  uint64_t offset = 0;
  uint32_t len = 0;
};

/// Runs on each AStore server: holds the page->latest-LSN map used to prune
/// stale cached pages during DBEngine recovery, and serves the recovery
/// scan of locally resident EBP pages.
class EbpServerAgent {
 public:
  EbpServerAgent(sim::SimEnvironment* env, net::RpcTransport* rpc,
                 astore::AStoreServer* server);

  astore::AStoreServer* server() { return server_; }

  /// Test hook: latest LSN known for a page (0 if unreported).
  uint64_t ReportedLsn(PageKey key) const;

 private:
  Status HandleReport(Slice request, std::string* response);
  Status HandleScan(Slice request, std::string* response);

  sim::SimEnvironment* env_;
  astore::AStoreServer* server_;
  mutable vedb::Mutex mu_{"ebp.agent"};
  std::unordered_map<PageKey, uint64_t> latest_lsn_ GUARDED_BY(mu_);
};

class ExtendedBufferPool {
 public:
  enum class Policy { kFlat, kPriority };

  struct Options {
    /// Total bytes of live page images the EBP may hold.
    uint64_t capacity = 64 * kMiB;
    uint64_t page_size = 16 * kKiB;
    /// Size of each AStore segment backing the EBP.
    uint64_t segment_size = 2 * kMiB;
    /// EBP pages are cache-only; losing them never breaks correctness, so
    /// the paper uses replication factor one.
    int replication = 1;
    /// Number of LRU lists ("we use multiple LRU lists to manage these
    /// pages").
    int lru_shards = 8;
    /// Capacity policy.
    Policy policy = Policy::kFlat;
    /// Priority policy: fraction of capacity that priority class p (0..2)
    /// may occupy; class 3 (highest) may use 100%.
    double priority_caps[3] = {0.25, 0.5, 0.75};
    /// Fraction of capacity evicted per eviction round.
    double evict_fraction = 0.05;
    /// Compaction: move live data out of segments whose garbage ratio
    /// exceeds the threshold. With compaction disabled such segments are
    /// released whole, dropping their live pages (Section V-D).
    bool enable_compaction = true;
    double garbage_threshold = 0.5;
    Duration compaction_period = 100 * kMillisecond;
    /// CPU cost of one EBP-index operation (serialized through the index
    /// lock; the contention source called out in Section VII-B).
    Duration index_op_cost = 1500;  // 1.5us
    /// Period of batched (page, lsn) reports to the server agents.
    Duration report_period = 50 * kMillisecond;
  };

  /// `client` must be a dedicated AStore client identity for this EBP (its
  /// CM-owned segment list is how a recovering engine finds its pages).
  ExtendedBufferPool(sim::SimEnvironment* env, astore::AStoreClient* client,
                     const Options& options);

  /// Caches a page image (called when DBEngine's buffer pool evicts).
  /// `priority` is only meaningful under the priority policy (0..3, 3 is
  /// highest). May trigger an eviction round. The index never moves a key
  /// to an older LSN: a put that finds (or, after its write, meets) a
  /// version at least as new keeps that version and turns its own frame
  /// into garbage.
  Status PutPage(PageKey key, uint64_t lsn, Slice image, int priority = 3);

  /// Fetches a cached page via one-sided RDMA READ. NotFound on miss.
  Status GetPage(PageKey key, std::string* image, uint64_t* lsn);

  /// Drops a page from the index (e.g. its table was truncated).
  void Erase(PageKey key);

  bool Contains(PageKey key) const;

  /// Physical location of a cached page (for storage-side push-down
  /// execution on the hosting AStore server). False on miss.
  struct Placement {
    astore::SegmentId segment = 0;
    std::string node;
    uint64_t offset = 0;  // of the page frame within the segment
    uint32_t len = 0;     // page image length
  };
  bool LookupPlacement(PageKey key, Placement* out) const;

  /// The most recently used cached pages, hottest first (at most `limit`).
  /// Drives the EBP-accelerated buffer-pool warm-up after a DBEngine
  /// restart (one of the paper's future-work items, implemented here).
  std::vector<PageKey> HottestKeys(size_t limit) const;

  /// Records the newest LSN of a page modified in the engine's local
  /// buffer pool; flushed to the server agents in batches (recovery
  /// pruning input).
  void NoteLatestLsn(PageKey key, uint64_t lsn);

  /// Sends the pending (page, lsn) notes to every server agent now.
  Status FlushLsnReports();

  /// Rebuilds the index after a DBEngine restart: asks every AStore server
  /// to scan the EBP segments it hosts, prune stale pages, and return the
  /// valid ones. Existing index state is replaced.
  Status RecoverFromServers(const std::vector<astore::SegmentId>& segments);

  /// Re-attaches pages that survived an AStore server restart in its local
  /// PMem (the paper's local-recovery future-work item): scans `segments`
  /// on their (restarted) hosts and merges missing pages back into the
  /// index. Existing entries are kept.
  Status ReattachSegments(const std::vector<astore::SegmentId>& segments);

  /// One compaction pass (the background actor runs one per period while
  /// UnderSpacePressure()): reclaims every sealed segment whose garbage
  /// ratio reached the threshold, worst first. Afterwards (absent
  /// concurrent puts) every sealed segment keeps live bytes of at least
  /// (1 - threshold) of its appended bytes.
  Status CompactOnce();

  /// Test hook: the highest garbage ratio among sealed segments (0 if none).
  double WorstSealedGarbageRatio() const;

  void StartBackground(sim::ActorGroup* group);
  void Shutdown() { shutdown_.store(true); }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t puts = 0;
    uint64_t evicted_pages = 0;
    uint64_t compactions = 0;
    uint64_t dropped_live_pages = 0;  // released by no-compaction path
    uint64_t live_bytes = 0;
  };
  Stats stats() const;

  uint64_t capacity() const { return options_.capacity; }

 private:
  struct IndexEntry {
    uint64_t lsn = 0;
    astore::SegmentHandlePtr seg;
    uint64_t offset = 0;
    uint32_t len = 0;
    int priority = 3;
    int lru_shard = 0;
    std::list<PageKey>::iterator lru_it;
  };

  struct SegmentState {
    astore::SegmentHandlePtr handle;
    uint64_t used = 0;     // appended bytes
    uint64_t garbage = 0;  // bytes belonging to dead page versions
    uint64_t live_pages = 0;

    double garbage_ratio() const {
      return static_cast<double>(garbage) / static_cast<double>(used);
    }
  };

  int ShardOf(PageKey key) const {
    return static_cast<int>((key * 0x9E3779B97F4A7C15ULL) >> 56) %
           options_.lru_shards;
  }

  /// Serializes an index operation through the index-lock device.
  void ChargeIndexOp() { index_lock_->Access(0); }

  /// Ensures the active segment can hold `bytes`; creates a new one if not.
  Result<astore::SegmentHandlePtr> ActiveSegmentFor(uint64_t bytes,
                                                    uint64_t* offset);

  /// Writes an admitted frame to the active segment and installs it.
  Status WriteAndInstall(PageKey key, uint64_t lsn, const std::string& frame,
                         int priority, int shard);

  /// The held segment `handle`, or null once it was released.
  SegmentState* FindSegmentLocked(const astore::SegmentHandlePtr& handle)
      REQUIRES(mu_);

  /// Removes an index entry: its frame becomes garbage in its segment and
  /// leaves the live bytes and the LRU.
  void RetireLocked(std::unordered_map<PageKey, IndexEntry>::iterator it)
      REQUIRES(mu_);

  /// True once the sealed segments hold capacity / (1 - threshold) bytes:
  /// the background actor runs a compaction pass only then.
  bool UnderSpacePressure() const;

  /// The sealed (non-active) non-empty segment with the highest garbage
  /// ratio, or null when there is none.
  const SegmentState* WorstSealedLocked() const REQUIRES(mu_);

  /// Moves (or, with compaction disabled, drops) the live pages of
  /// `victim`, then releases it cluster-wide.
  void ReclaimSegment(const astore::SegmentHandlePtr& victim);

  void SetSegmentsGaugeLocked() REQUIRES(mu_) {
    segments_metric_->Set(static_cast<int64_t>(segments_.size()));
  }

  /// Scans `segment_ids` on their hosting servers; fills handles/entries.
  Status ScanServers(
      const std::vector<astore::SegmentId>& segment_ids,
      std::map<astore::SegmentId, astore::SegmentHandlePtr>* handles,
      std::vector<ScannedEntry>* entries);

  /// Evicts from LRU tails until at least `needed` bytes of headroom exist.
  /// Under the priority policy, lower classes are drained first.
  void EvictLocked(uint64_t needed) REQUIRES(mu_);

  /// Per-priority accounting check for the priority policy.
  bool PriorityHasRoomLocked(int priority, uint64_t bytes) const
      REQUIRES(mu_);

  void BackgroundLoop();

  static std::string FramePage(PageKey key, uint64_t lsn, Slice image);

  sim::SimEnvironment* env_;
  astore::AStoreClient* client_;
  Options options_;

  std::unique_ptr<sim::QueueingDevice> index_lock_;
  std::vector<std::unique_ptr<sim::QueueingDevice>> lru_locks_;

  // Lock order: ebp.pool is taken before astore.handle (route()/placement
  // reads under the pool lock); no AStore RPC or wait runs under it.
  mutable vedb::Mutex mu_{"ebp.pool"};
  std::unordered_map<PageKey, IndexEntry> index_ GUARDED_BY(mu_);
  // front = most recent
  std::vector<std::list<PageKey>> lru_ GUARDED_BY(mu_);
  std::vector<SegmentState> segments_ GUARDED_BY(mu_);
  uint64_t live_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t priority_bytes_[4] GUARDED_BY(mu_) = {0, 0, 0, 0};
  Stats stats_ GUARDED_BY(mu_);

  vedb::Mutex report_mu_{"ebp.reports"};
  std::unordered_map<PageKey, uint64_t> pending_reports_
      GUARDED_BY(report_mu_);

  std::atomic<bool> shutdown_{false};

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* puts_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
  obs::Counter* compactions_metric_ = nullptr;
  obs::Counter* put_failures_metric_ = nullptr;
  obs::Gauge* live_bytes_metric_ = nullptr;
  obs::Gauge* segments_metric_ = nullptr;

  friend class EbpServerAgent;
};

/// On-segment page frame header (also parsed by the server-side scan).
struct PageFrame {
  static constexpr uint32_t kMagic = 0x45425047;  // "EBPG"
  static constexpr uint64_t kHeaderSize = 24;     // magic+key+lsn+len
  static bool Parse(Slice in, PageKey* key, uint64_t* lsn, uint32_t* len);
};

}  // namespace vedb::ebp

#endif  // VEDB_EBP_EBP_H_
