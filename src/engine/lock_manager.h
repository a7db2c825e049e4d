// Row lock manager: exclusive locks on (space, primary key), strict 2PL
// with deadlock resolution by wait timeout. Waiting goes through
// VirtualCondition so that a lock held across a commit's log write blocks
// waiters in *virtual* time — this is exactly the hot-row serialization the
// order-processing workload of Section VII-A measures.

#ifndef VEDB_ENGINE_LOCK_MANAGER_H_
#define VEDB_ENGINE_LOCK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/types.h"
#include "sim/clock.h"

namespace vedb::engine {

using TxnId = uint64_t;

class LockManager {
 public:
  struct Options {
    /// Aborts a waiter after this much virtual time (deadlock breaker).
    Duration wait_timeout = 500 * kMillisecond;
  };

  LockManager(sim::VirtualClock* clock, const Options& options)
      : clock_(clock), cond_(clock, "row-locks"), options_(options) {}

  /// Acquires an exclusive lock; re-entrant for the owner. Returns
  /// Aborted on timeout (the caller must abort the transaction).
  Status Lock(TxnId txn, SpaceId space, const std::string& key);

  /// Releases all locks held by `txn` and wakes waiters.
  void ReleaseAll(TxnId txn);

  /// Number of currently held locks (tests).
  size_t HeldCount() const;

 private:
  using LockKey = std::pair<SpaceId, std::string>;

  /// True if making `waiter` wait for `key` would close a cycle in the
  /// wait-for graph.
  bool WouldDeadlockLocked(TxnId waiter, const LockKey& key) const
      REQUIRES(mu_);

  sim::VirtualClock* clock_;
  mutable vedb::Mutex mu_{"engine.row_locks"};
  sim::VirtualCondition cond_;
  Options options_;
  // Only found, inserted and erased: nothing depends on an order.
  std::unordered_map<LockKey, TxnId, TaggedKeyHash, TaggedKeyEq> held_
      GUARDED_BY(mu_);
  // Each transaction's locks, in acquisition order, as pointers to the keys
  // in held_ (node-based, so the keys stay put until ReleaseAll erases them).
  std::unordered_map<TxnId, std::vector<const LockKey*>> by_txn_
      GUARDED_BY(mu_);
  // wait-for graph edges
  std::unordered_map<TxnId, LockKey> waiting_for_ GUARDED_BY(mu_);
};

}  // namespace vedb::engine

#endif  // VEDB_ENGINE_LOCK_MANAGER_H_
