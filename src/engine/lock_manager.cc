#include "engine/lock_manager.h"

namespace vedb::engine {

bool LockManager::WouldDeadlockLocked(TxnId waiter,
                                      const LockKey& key) const {
  // Follow holder -> waits-for -> holder ... edges; a path back to `waiter`
  // is a cycle. Depth-bounded as a safety valve.
  const LockKey* next = &key;
  for (int depth = 0; depth < 64; ++depth) {
    auto held = held_.find(*next);
    if (held == held_.end()) return false;  // lock got freed: no edge
    const TxnId holder = held->second;
    if (holder == waiter) return true;
    auto waits = waiting_for_.find(holder);
    if (waits == waiting_for_.end()) return false;  // holder is running
    next = &waits->second;
  }
  return true;  // pathologically deep chain: treat as deadlock
}

Status LockManager::Lock(TxnId txn, SpaceId space, const std::string& key) {
  const std::pair<SpaceId, std::string_view> probe(space, key);
  const Timestamp deadline = clock_->Now() + options_.wait_timeout;
  vedb::MutexLock lock(&mu_);
  while (true) {
    auto it = held_.find(probe);
    if (it == held_.end()) {
      auto ins = held_.emplace(LockKey(space, key), txn).first;
      by_txn_[txn].push_back(&ins->first);
      return Status::OK();
    }
    if (it->second == txn) return Status::OK();  // re-entrant
    // Deadlock detection on the wait-for graph: abort the requester rather
    // than stalling until the timeout (InnoDB-style immediate detection).
    if (WouldDeadlockLocked(txn, it->first)) {
      return Status::Aborted("deadlock detected");
    }
    waiting_for_[txn] = it->first;
    // Park until some lock is released or the deadline passes (the
    // deadline is a backstop for pathological queues).
    const bool ok = cond_.WaitUntil(&mu_, deadline, [&] {
      auto cur = held_.find(probe);
      return cur == held_.end() || cur->second == txn;
    });
    waiting_for_.erase(txn);
    if (!ok) return Status::Aborted("lock wait timeout (possible deadlock)");
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  {
    vedb::MutexLock lock(&mu_);
    auto it = by_txn_.find(txn);
    if (it == by_txn_.end()) return;
    for (const LockKey* lk : it->second) {
      // Look the key up before erasing: *lk lives in the erased node.
      auto h = held_.find(*lk);
      if (h != held_.end() && h->second == txn) held_.erase(h);
    }
    by_txn_.erase(it);
  }
  cond_.NotifyAll();
}

size_t LockManager::HeldCount() const {
  vedb::MutexLock lock(&mu_);
  return held_.size();
}

}  // namespace vedb::engine
