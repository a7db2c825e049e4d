// DBEngine buffer pool: the first-level page cache. Misses fall through to
// the extended buffer pool (one-sided RDMA to PMem, ~20us) and then to
// PageStore (RPC + SSD, ~1ms) — the hierarchy whose hit rates drive most of
// the paper's read-side numbers. Dirty pages are never written back to
// PageStore (log-is-database); eviction only requires the page's REDO to be
// shipped, and hands the image to the EBP.

#ifndef VEDB_ENGINE_BUFFER_POOL_H_
#define VEDB_ENGINE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/types.h"
#include "sim/env.h"

namespace vedb::engine {

/// One resident page. Content access must hold `mu` (memory-only work, no
/// clock waits under it).
struct Frame {
  uint64_t key = 0;
  vedb::Mutex mu{"bp.frame"};
  std::string image GUARDED_BY(mu);
  uint64_t lsn GUARDED_BY(mu) = 0;
  bool dirty GUARDED_BY(mu) = false;

  // Waiver(thread-annotations): guarded by the owning pool's lock, which a
  // GUARDED_BY on a member of a different object cannot name.
  int pins = 0;
  bool loading = false;
  // The frame's node in the pool's lru_ (in_lru) or pinned_ list; Pin and
  // Unpin splice it between the two.
  std::list<uint64_t>::iterator lru_it;
  bool in_lru = false;
};

class BufferPool {
 public:
  struct Options {
    /// Resident page capacity.
    size_t capacity_pages = 1024;
    /// CPU cost per pool access (hash lookup, latch).
    Duration access_cpu_cost = 600;
  };

  /// Miss/eviction plumbing supplied by the DBEngine.
  struct Callbacks {
    /// Extended buffer pool probe; NotFound on miss. Null when EBP is off.
    std::function<Status(uint64_t key, std::string* image, uint64_t* lsn)>
        ebp_get;
    /// Eviction sink into the EBP. Null when EBP is off.
    std::function<void(uint64_t key, uint64_t lsn, Slice image)> ebp_put;
    /// PageStore read; NotFound if the page has never existed.
    std::function<Status(uint64_t key, std::string* image, uint64_t* lsn)>
        pagestore_read;
    /// Blocks until REDO through `lsn` is durably shipped (eviction fence
    /// for dirty pages).
    std::function<void(uint64_t lsn)> ensure_shipped;
  };

  BufferPool(sim::SimEnvironment* env, sim::SimNode* node,
             const Options& options, Callbacks callbacks);

  /// Pins a page, fetching it through EBP/PageStore on a miss. With
  /// `create_if_missing`, an absent page is born formatted (dirty-on-first-
  /// write semantics come from the apply path). The returned frame stays
  /// resident until Unpin.
  Result<Frame*> Pin(uint64_t key, bool create_if_missing);

  /// Releases a pin. If the caller modified the page it passes the new
  /// `lsn` (0 = unchanged).
  void Unpin(Frame* frame, uint64_t modified_lsn);

  struct Stats {
    uint64_t hits = 0;
    uint64_t ebp_hits = 0;
    uint64_t pagestore_reads = 0;
    uint64_t created = 0;
    uint64_t evictions = 0;
  };
  Stats stats() const;

  size_t ResidentPages() const;

  /// True if the page is currently resident (used by the cost-based
  /// push-down estimator).
  bool IsResident(uint64_t key) const;

 private:
  /// Drops the pool below capacity. Temporarily releases mu_ around the
  /// ship fence and EBP hand-off, reacquiring before it returns.
  void EvictIfNeededLocked() REQUIRES(mu_);

  sim::SimEnvironment* env_;
  sim::SimNode* node_;
  Options options_;
  Callbacks callbacks_;

  // Lock order: bp.pool is taken before bp.frame (Pin/Unpin touch frame
  // content under the pool lock); never the reverse.
  mutable vedb::Mutex mu_{"bp.pool"};
  sim::VirtualCondition load_cond_;
  // shared_ptr so that a waiter parked on a loading frame can keep the
  // object alive across a failed load that erases the map entry.
  std::unordered_map<uint64_t, std::shared_ptr<Frame>> frames_ GUARDED_BY(mu_);
  // front = most recent, unpinned pages only
  std::list<uint64_t> lru_ GUARDED_BY(mu_);
  // Nodes of the pinned frames, in no particular order.
  std::list<uint64_t> pinned_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace vedb::engine

#endif  // VEDB_ENGINE_BUFFER_POOL_H_
