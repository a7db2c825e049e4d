#include "sim/race_detector.h"

#include "common/logging.h"
#include "sim/clock.h"
#include "sim/lock_order.h"

namespace vedb::sim {

std::atomic<bool> RaceDetector::enabled_{false};

namespace {
// Cached per-actor id, invalidated when the detector's generation moves
// (Enable() starts a fresh epoch so stale ids from earlier tests vanish).
struct CachedTid {
  int tid = -1;
  uint64_t gen = 0;
};
const FiberLocal<CachedTid> fiber_tid;
}  // namespace

RaceDetector& RaceDetector::Instance() {
  static RaceDetector* detector = new RaceDetector();
  return *detector;
}

void RaceDetector::Enable() {
  // vedb::Mutex acquire/release reach the detector through the observer.
  InstallMutexObserver();
  RaceDetector& d = Instance();
  std::lock_guard<std::mutex> lk(d.mu_);
  d.ResetLocked();
  enabled_.store(true, std::memory_order_relaxed);
}

void RaceDetector::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void RaceDetector::ResetLocked() {
  next_tid_ = 0;
  epoch_gen_++;
  threads_.clear();
  locks_.clear();
  sync_objects_.clear();
  fork_tokens_.clear();
  next_fork_token_ = 1;
  shadow_.clear();
  race_count_ = 0;
  reports_.clear();
}

int RaceDetector::CurrentTidLocked() {
  CachedTid& mine = fiber_tid.Get();
  if (mine.tid < 0 || mine.gen != epoch_gen_) {
    mine.tid = next_tid_++;
    mine.gen = epoch_gen_;
    threads_[mine.tid].vc[mine.tid] = 1;  // epoch starts at 1
  }
  return mine.tid;
}

RaceDetector::ThreadState& RaceDetector::StateLocked(int tid) {
  return threads_[tid];
}

void RaceDetector::AcquireLocked(const VectorClock& src) {
  VectorClock& mine = StateLocked(CurrentTidLocked()).vc;
  for (const auto& [tid, clk] : src) {
    uint64_t& slot = mine[tid];
    if (clk > slot) slot = clk;
  }
}

void RaceDetector::ReleaseLocked(VectorClock* dst) {
  const int tid = CurrentTidLocked();
  VectorClock& mine = StateLocked(tid).vc;
  for (const auto& [t, clk] : mine) {
    uint64_t& slot = (*dst)[t];
    if (clk > slot) slot = clk;
  }
  // Advance our own epoch: later accesses are not covered by this release.
  mine[tid]++;
}

bool RaceDetector::HappensBeforeLocked(const Access& a, const ThreadState& t) {
  auto it = t.vc.find(a.tid);
  return it != t.vc.end() && a.epoch <= it->second;
}

void RaceDetector::ReportLocked(const Access& prev, const Access& cur,
                                const void* addr, size_t size) {
  race_count_++;
  if (reports_.size() < kMaxReports) {
    Report r;
    r.addr = addr;
    r.size = size;
    r.second_is_write = cur.is_write;
    r.first_is_write = prev.is_write;
    r.second_site = cur.site;
    r.first_site = prev.site;
    reports_.push_back(std::move(r));
  }
  VEDB_LOG(kError,
           "data race on %p (%zu bytes): %s at '%s' (actor %d) is unordered "
           "with prior %s at '%s' (actor %d)",
           addr, size, cur.is_write ? "write" : "read", cur.site.c_str(),
           cur.tid, prev.is_write ? "write" : "read", prev.site.c_str(),
           prev.tid);
  VEDB_CHECK(!abort_on_race_.load(), "data race (abort-on-race set)");
}

void RaceDetector::Annotate(const void* addr, size_t size, bool is_write,
                            const char* site) {
  std::lock_guard<std::mutex> lk(mu_);
  const int tid = CurrentTidLocked();
  ThreadState& me = StateLocked(tid);
  Cell& cell = shadow_[addr];

  Access cur;
  cur.tid = tid;
  cur.epoch = me.vc[tid];
  cur.is_write = is_write;
  cur.site = site;

  if (cell.has_write && cell.last_write.tid != tid &&
      !HappensBeforeLocked(cell.last_write, me)) {
    ReportLocked(cell.last_write, cur, addr, size);
  }
  if (is_write) {
    for (const auto& [rtid, read] : cell.reads) {
      if (rtid == tid) continue;
      if (!HappensBeforeLocked(read, me)) {
        ReportLocked(read, cur, addr, size);
      }
    }
    cell.last_write = cur;
    cell.has_write = true;
    cell.reads.clear();
  } else {
    cell.reads[tid] = cur;
  }
}

void RaceDetector::LockAcquired(const void* lock) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = locks_.find(lock);
  if (it != locks_.end()) AcquireLocked(it->second);
}

void RaceDetector::LockReleased(const void* lock) {
  std::lock_guard<std::mutex> lk(mu_);
  ReleaseLocked(&locks_[lock]);
}

void RaceDetector::ClockBlockRelease(const void* clock) {
  std::lock_guard<std::mutex> lk(mu_);
  ReleaseLocked(&sync_objects_[clock]);
}

void RaceDetector::ClockWakeAcquire(const void* clock) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sync_objects_.find(clock);
  if (it != sync_objects_.end()) AcquireLocked(it->second);
}

void RaceDetector::CondNotifyRelease(const void* cond) {
  std::lock_guard<std::mutex> lk(mu_);
  ReleaseLocked(&sync_objects_[cond]);
}

void RaceDetector::CondWakeAcquire(const void* cond) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sync_objects_.find(cond);
  if (it != sync_objects_.end()) AcquireLocked(it->second);
}

uint64_t RaceDetector::ForkCapture() {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t token = next_fork_token_++;
  ReleaseLocked(&fork_tokens_[token]);
  return token;
}

void RaceDetector::ForkJoin(uint64_t token) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = fork_tokens_.find(token);
  if (it == fork_tokens_.end()) return;
  AcquireLocked(it->second);
  fork_tokens_.erase(it);
}

uint64_t RaceDetector::race_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return race_count_;
}

std::vector<RaceDetector::Report> RaceDetector::reports() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reports_;
}

}  // namespace vedb::sim
