// DBEngine: veDB's compute layer (Section III). Query processing and
// transaction management on top of the disaggregated storage services:
// REDO goes to a LogStore (SSD blob or AStore SegmentRing), pages come from
// the buffer pool -> EBP -> PageStore hierarchy, and committed REDO is
// shipped asynchronously to the PageStore shards (log-is-database: pages
// are never written back).
//
// Transaction model: strict 2PL on primary keys with redo-only, commit-time
// logging. Statements buffer their effects in a per-transaction overlay;
// commit materializes page placements, writes one log batch, applies the
// records to buffer-pool pages, and updates the in-memory indexes. This
// deferred-apply scheme needs no UNDO and preserves the measured paths
// (commit = one log write; reads = BP/EBP/PageStore), which is what the
// paper's evaluation exercises. Divergences from InnoDB are documented in
// DESIGN.md.

#ifndef VEDB_ENGINE_ENGINE_H_
#define VEDB_ENGINE_ENGINE_H_

#include <atomic>
#include <functional>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "ebp/ebp.h"
#include "engine/buffer_pool.h"
#include "engine/lock_manager.h"
#include "engine/ordered_index.h"
#include "engine/page.h"
#include "engine/redo.h"
#include "engine/types.h"
#include "logstore/logstore.h"
#include "pagestore/pagestore.h"
#include "sim/env.h"

namespace vedb::engine {

class DBEngine;
class Table;

/// One transaction. Obtained from DBEngine::Begin; not thread safe (one
/// connection = one transaction at a time, matching veDB's single-threaded
/// query processing model).
class Txn {
 public:
  TxnId id() const { return id_; }

 private:
  friend class DBEngine;
  friend class Table;

  struct OverlayEntry {
    /// Current in-transaction value; nullopt = deleted/absent.
    std::optional<Row> current;
    /// Committed base state captured on first touch.
    bool has_committed = false;
    Rid committed_rid;
    /// Read only by secondary-index maintenance, so it is captured only
    /// when the table has a secondary index.
    Row committed_row;
    bool modified = false;
  };

  using Overlay = std::unordered_map<std::pair<Table*, std::string>,
                                     OverlayEntry, TaggedKeyHash, TaggedKeyEq>;

  explicit Txn(TxnId id) : id_(id) {}

  TxnId id_;
  // Only found, inserted and erased: commit order comes from touch_order_.
  Overlay overlay_;
  // Touch order, so commit logs in statement order. Points at overlay_'s
  // nodes, which stay put until the overlay is cleared.
  std::vector<Overlay::value_type*> touch_order_;
};

using TxnPtr = std::unique_ptr<Txn>;

/// A heap table with an in-memory primary-key index and optional secondary
/// indexes, each an OrderedIndex. Row data lives in 16KB slotted pages
/// served by the buffer pool.
class Table {
 public:
  Table(DBEngine* engine, std::string name, SpaceId space, Schema schema);

  const std::string& name() const { return name_; }
  SpaceId space() const { return space_; }
  const Schema& schema() const { return schema_; }

  /// Adds a secondary index over `columns` (by position). Call before any
  /// data is loaded. Declaring an existing index again with the same
  /// columns keeps it and its entries; with other columns it aborts.
  void CreateIndex(const std::string& index_name, std::vector<int> columns);

  // ---- DML (page effects deferred to commit) ----

  /// Inserts a row; fails with AlreadyExists on duplicate PK.
  Status Insert(Txn* txn, const Row& row);

  /// Reads, mutates, and stages the row with the given PK.
  Status Update(Txn* txn, const std::vector<Value>& pk,
                const std::function<void(Row*)>& mutator);

  /// Stages deletion of the row with the given PK.
  Status Delete(Txn* txn, const std::vector<Value>& pk);

  /// Point read. Sees the transaction's own writes; otherwise reads
  /// committed state. `txn` may be null for auto-committed reads.
  Result<Row> Get(Txn* txn, const std::vector<Value>& pk);

  // ---- Reads for query processing (committed data) ----

  /// Scans rows whose PK encoding lies in [lo, hi) in PK order; `fn`
  /// returns false to stop early. Empty `hi` = unbounded.
  Status ScanPkRange(const std::string& lo, const std::string& hi,
                     const std::function<bool(const Row&)>& fn);

  /// Full scan in PK order.
  Status ScanAll(const std::function<bool(const Row&)>& fn);

  /// Exact-match secondary index lookup: `values` gives every index
  /// column, and the matching rows come back in PK order.
  Result<std::vector<Row>> IndexLookup(const std::string& index_name,
                                       const std::vector<Value>& values);

  // ---- Bulk load / recovery / introspection ----

  /// Loads rows without logging: builds pages locally and installs them
  /// directly into PageStore (physical import). Not transactional.
  Status BulkLoad(const std::vector<Row>& rows);

  /// Rebuilds the PK/secondary indexes and placement metadata by scanning
  /// the table's pages from storage (crash recovery).
  Status RebuildIndexes();

  /// Pages allocated to this table, in page-number order.
  std::vector<PageNo> PageList() const;
  uint64_t approximate_row_count() const;

 private:
  friend class DBEngine;

  struct PageMeta {
    PageNo page_no = 0;
    uint32_t free_bytes = 0;
    uint16_t next_slot = 0;
  };

  /// Reserves a (page, slot) for a new row of `row_bytes` bytes.
  Rid ReservePlacement(size_t row_bytes);

  /// Committed-state index probe.
  bool LookupRid(const std::string& pk, Rid* rid) const;

  /// Loads (or initializes) the overlay entry for (this, pk), taking the
  /// row lock on first touch. A new entry takes over `pk`.
  Status EnsureEntry(Txn* txn, std::string&& pk,
                     Txn::OverlayEntry** entry_out);

  /// Index maintenance at commit (caller holds no table lock). An update
  /// keeps its rid, so only the secondary indexes change.
  void ApplyIndexInsert(const std::string& pk, const Rid& rid,
                        const Row& row);
  void ApplyIndexDelete(const std::string& pk, const Row& old_row);
  void ApplyIndexUpdate(const std::string& pk, const Row& old_row,
                        const Row& new_row);

  /// A secondary index entry's key: the row's `cols` encoded sortably,
  /// then its PK.
  std::string SecEntryKey(const std::vector<int>& cols, const Row& row,
                          const std::string& pk) const;

  DBEngine* engine_;
  std::string name_;
  SpaceId space_;
  Schema schema_;

  struct SecIndex {
    std::vector<int> columns;
    OrderedIndex entries;  // SecEntryKey(columns, row, pk) per row
  };

  mutable vedb::Mutex mu_{"engine.table"};
  OrderedIndex pk_index_ GUARDED_BY(mu_);
  std::map<std::string, SecIndex> sec_indexes_ GUARDED_BY(mu_);
  std::vector<PageMeta> pages_ GUARDED_BY(mu_);
  uint64_t row_count_ GUARDED_BY(mu_) = 0;
};

class DBEngine {
 public:
  struct Options {
    BufferPool::Options buffer_pool;
    LockManager::Options locks;
    /// CPU cost charged per row operation (parse/plan/execute slice).
    Duration row_op_cpu = 10 * kMicrosecond;
    /// CPU cost charged per transaction begin/commit bookkeeping.
    Duration txn_overhead_cpu = 3 * kMicrosecond;
    /// Redo shipper batching.
    size_t shipper_max_batch = 128;
    Duration shipper_period = 2 * kMillisecond;
    /// Periodic log truncation (checkpointing offloaded to storage).
    Duration checkpoint_period = 200 * kMillisecond;
  };

  /// `ebp` may be null (EBP disabled). `log` may be null for a read-only
  /// standby replica (write commits then fail with NotSupported and no
  /// shipper runs). The engine registers its REDO apply function with
  /// `pagestore` consumers via ApplyFn at cluster creation — pass
  /// engine::ApplyRedoToPage there.
  DBEngine(sim::SimEnvironment* env, sim::SimNode* node,
           logstore::LogStore* log, pagestore::PageStoreCluster* pagestore,
           ebp::ExtendedBufferPool* ebp, const Options& options);

  /// Creates (or re-declares, during recovery) a table.
  Table* CreateTable(const std::string& name, const Schema& schema);
  Table* GetTable(const std::string& name);

  TxnPtr Begin();
  Status Commit(Txn* txn);
  void Abort(Txn* txn);

  /// Runs `body` in a transaction, retrying on Aborted (lock timeouts) up
  /// to `max_retries` times.
  Status RunTransaction(const std::function<Status(Txn*)>& body,
                        int max_retries = 6);

  /// Crash recovery: rebuild table state from storage. Call after
  /// re-declaring the catalog on a fresh engine whose LogStore was opened
  /// with Recover(): re-ships log records PageStore may have missed and
  /// rebuilds every table's indexes.
  Status Recover(const std::vector<astore::LogRecord>& tail_records);

  /// Blocks until REDO through `lsn` is quorum-acked by PageStore.
  void EnsureShipped(uint64_t lsn);

  /// Pre-loads up to `max_pages` of the hottest EBP-cached pages into the
  /// buffer pool. Called after crash recovery to cut the cold-start page
  /// miss storm (a paper future-work item: "speed up the warm-up process
  /// for the buffer pool during crash recovery"). Returns pages loaded.
  size_t WarmupFromEbp(size_t max_pages);

  /// Starts the shipper/checkpoint actors.
  void StartBackground(sim::ActorGroup* group);
  void Shutdown();

  BufferPool* buffer_pool() { return &bp_; }
  sim::SimNode* node() { return node_; }
  sim::SimEnvironment* env() { return env_; }
  ebp::ExtendedBufferPool* ebp() { return ebp_; }
  pagestore::PageStoreCluster* pagestore() { return pagestore_; }
  logstore::LogStore* log() { return log_; }
  const Options& options() const { return options_; }

  struct Stats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t rows_written = 0;
  };
  Stats stats() const;

  /// CRC32C over every committed row's EncodeRow bytes, tables in name
  /// order and each table's rows in PK order: two engines with the same
  /// committed contents have the same digest, whatever path they took.
  Result<uint32_t> StateDigest();

  /// Point-read of a committed row by rid (used by Table and query exec).
  Result<Row> ReadRowAt(SpaceId space, const Rid& rid);

 private:
  friend class Table;

  void ShipperLoop();
  void CheckpointLoop();
  void EbpFlusherLoop();
  /// Queues an evicted page image for asynchronous insertion into the EBP
  /// (never blocks the evicting reader on the RDMA write).
  void EnqueueEbpPut(uint64_t key, uint64_t lsn, Slice image);
  /// Serves a page image still waiting in the flusher queue (the queue is
  /// a write-back buffer: its contents are newer than the EBP's).
  bool LookupPendingEbpPut(uint64_t key, std::string* image, uint64_t* lsn);
  /// Drains queued records with lsn <= the log's durable watermark.
  Status ShipEligibleOnce();

  sim::SimEnvironment* env_;
  sim::SimNode* node_;
  logstore::LogStore* log_;
  pagestore::PageStoreCluster* pagestore_;
  ebp::ExtendedBufferPool* ebp_;
  Options options_;

  LockManager locks_;
  BufferPool bp_;

  vedb::Mutex catalog_mu_{"engine.catalog"};
  std::map<std::string, std::unique_ptr<Table>> tables_
      GUARDED_BY(catalog_mu_);
  SpaceId next_space_ GUARDED_BY(catalog_mu_) = 1;
  std::atomic<TxnId> next_txn_{1};

  // Redo shipper state.
  // Lock order: logstore.lsn (the LSN lock) is taken before engine.ship
  // — AppendBatch runs the on_assigned hook (which enqueues ship records
  // under ship_mu_) while holding its LSN lock so the queue fills in LSN
  // order. Never call back into the logstore while holding ship_mu_.
  vedb::Mutex ship_mu_{"engine.ship"};
  // by lsn
  std::map<uint64_t, pagestore::RedoShipRecord> ship_queue_
      GUARDED_BY(ship_mu_);
  std::set<uint64_t> cancelled_lsns_ GUARDED_BY(ship_mu_);
  // all lsns <= this left the queue
  uint64_t shipped_through_ GUARDED_BY(ship_mu_) = 0;

  // Asynchronous EBP flusher: evicted images queue here; a background
  // actor performs the PutPage RDMA writes off the read path.
  vedb::Mutex ebp_flush_mu_{"engine.ebp_flush"};
  std::unique_ptr<sim::VirtualCondition> ebp_flush_cond_;
  struct EbpFlushItem {
    uint64_t key;
    uint64_t lsn;
    std::string image;
  };
  std::deque<EbpFlushItem> ebp_flush_queue_ GUARDED_BY(ebp_flush_mu_);
  bool ebp_flusher_running_ GUARDED_BY(ebp_flush_mu_) = false;
  bool ebp_flusher_stop_ GUARDED_BY(ebp_flush_mu_) = false;
  static constexpr size_t kEbpFlushQueueCap = 256;

  mutable vedb::Mutex stats_mu_{"engine.stats"};
  Stats stats_ GUARDED_BY(stats_mu_);

  std::atomic<bool> shutdown_{false};
};

}  // namespace vedb::engine

#endif  // VEDB_ENGINE_ENGINE_H_
