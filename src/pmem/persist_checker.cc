#include "pmem/persist_checker.h"

#include <atomic>

#include "common/logging.h"

namespace vedb::pmem {

namespace {
std::atomic<bool> g_abort_on_violation{false};
}  // namespace

void PersistChecker::SetAbortOnViolation(bool abort_on_violation) {
  g_abort_on_violation.store(abort_on_violation);
}

void PersistChecker::OnWrite(uint64_t offset, uint64_t length,
                             bool persistent) {
  MutexLock lk(&mu_);
  epoch_++;
  if (persistent) {
    // A flushed local store: carve the range out of any volatile overlap
    // (the store's CLWB+fence drains its own cache lines, not the world's).
    uint64_t end = offset + length;
    auto it = volatile_ranges_.upper_bound(offset);
    if (it != volatile_ranges_.begin()) --it;
    while (it != volatile_ranges_.end() && it->first < end) {
      auto next = std::next(it);
      const uint64_t r_start = it->first;
      const uint64_t r_end = it->second.first;
      const uint64_t r_epoch = it->second.second;
      if (r_end > offset && r_start < end) {
        volatile_ranges_.erase(it);
        if (r_start < offset) {
          volatile_ranges_[r_start] = {offset, r_epoch};
        }
        if (r_end > end) {
          volatile_ranges_[end] = {r_end, r_epoch};
        }
      }
      it = next;
    }
    return;
  }
  // Volatile write: remember its epoch. Overlapping older ranges are
  // superseded byte-for-byte; a conservative merge keeping the *newest*
  // epoch over the union is sound (it can only make acks stricter).
  uint64_t start = offset;
  uint64_t end = offset + length;
  auto it = volatile_ranges_.upper_bound(start);
  if (it != volatile_ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.first >= start) {
      start = prev->first;
      end = std::max(end, prev->second.first);
      volatile_ranges_.erase(prev);
    }
  }
  while (true) {
    auto next = volatile_ranges_.lower_bound(start);
    if (next == volatile_ranges_.end() || next->first > end) break;
    end = std::max(end, next->second.first);
    volatile_ranges_.erase(next);
  }
  volatile_ranges_[start] = {end, epoch_};
}

void PersistChecker::OnFlush() {
  MutexLock lk(&mu_);
  flush_epoch_ = epoch_;
  volatile_ranges_.clear();
}

void PersistChecker::OnCrash() {
  MutexLock lk(&mu_);
  // The volatile bytes were lost, not persisted; but nothing is pending
  // anymore either. Epochs survive (diagnostics may span the crash).
  volatile_ranges_.clear();
}

Status PersistChecker::CheckPersisted(uint64_t offset, uint64_t length,
                                      std::string_view context) {
  MutexLock lk(&mu_);
  const uint64_t end = offset + length;
  auto it = volatile_ranges_.upper_bound(offset);
  if (it != volatile_ranges_.begin()) --it;
  for (; it != volatile_ranges_.end() && it->first < end; ++it) {
    const uint64_t r_end = it->second.first;
    if (r_end <= offset) continue;
    // Overlap: the claim covers bytes outside the persistence domain.
    Violation v;
    v.offset = std::max(offset, it->first);
    v.length = std::min(end, r_end) - v.offset;
    v.write_epoch = it->second.second;
    v.ack_epoch = epoch_;
    v.context = std::string(context);
    violation_count_++;
    if (violation_log_.size() < kMaxLoggedViolations) {
      violation_log_.push_back(v);
    }
    VEDB_LOG(kError,
             "persistence-ordering violation in '%s': ack of [%llu, %llu) "
             "covers volatile bytes [%llu, %llu) written at epoch %llu "
             "(flush epoch %llu, ack epoch %llu)",
             v.context.c_str(), (unsigned long long)offset,
             (unsigned long long)end, (unsigned long long)v.offset,
             (unsigned long long)(v.offset + v.length),
             (unsigned long long)v.write_epoch,
             (unsigned long long)flush_epoch_, (unsigned long long)v.ack_epoch);
    VEDB_CHECK(!g_abort_on_violation.load(),
               "persistence-ordering violation (abort-on-violation set)");
    return Status::Corruption("persistence-ordering violation: acked bytes "
                              "not in the persistence domain (" +
                              v.context + ")");
  }
  return Status::OK();
}

uint64_t PersistChecker::violations() const {
  MutexLock lk(&mu_);
  return violation_count_;
}

std::vector<PersistChecker::Violation> PersistChecker::violation_log() const {
  MutexLock lk(&mu_);
  return violation_log_;
}

uint64_t PersistChecker::write_epoch() const {
  MutexLock lk(&mu_);
  return epoch_;
}

uint64_t PersistChecker::flush_epoch() const {
  MutexLock lk(&mu_);
  return flush_epoch_;
}

}  // namespace vedb::pmem
