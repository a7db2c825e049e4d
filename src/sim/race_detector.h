// Deterministic happens-before race detector for the virtual-time runtime.
//
// TSan finds races only in the interleavings the OS scheduler happens to
// produce; under the sim runtime the interesting interleavings are decided
// by the virtual clock, so a race can hide for thousands of runs and then
// flake. This detector instead tracks the happens-before relation itself
// (FastTrack-style vector clocks) over the sim's synchronization edges:
//
//   * mutex acquire/release        (every vedb::Mutex, through the
//     MutexObserver that Enable() installs and Disable() removes)
//   * virtual-clock hand-offs      (an actor blocking releases to the global
//     clock; waking acquires it — hooked inside VirtualClock)
//   * VirtualCondition notify/wake (release on NotifyAll, acquire on wake)
//   * actor fork/join              (ActorGroup::Spawn / JoinAll edges)
//
// Two annotated accesses to the same address race iff neither
// happens-before the other — a property of the HB graph, not of the
// physical thread interleaving, so a racy pair is reported on *every* run
// with the same seed, and a properly synchronized run reports zero.
//
// Shared structures opt in with RaceAnnotate(addr, size, is_write) at their
// representative mutable state. The detector is disabled by default (one
// relaxed atomic load per hook); tests enable it around the region under
// scrutiny.

#ifndef VEDB_SIM_RACE_DETECTOR_H_
#define VEDB_SIM_RACE_DETECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vedb::sim {

/// Process-global happens-before tracker. All methods are thread safe; the
/// fast path (disabled) is a single relaxed atomic load.
class RaceDetector {
 public:
  /// One detected race: two accesses to [addr, addr+size) with no
  /// happens-before edge between them, at least one a write.
  struct Report {
    const void* addr = nullptr;
    size_t size = 0;
    bool second_is_write = false;  // the access that noticed the race
    bool first_is_write = false;   // the unordered prior access
    std::string second_site;
    std::string first_site;
  };

  static RaceDetector& Instance();

  /// Turns tracking on/off. Enabling resets all detector state so a test
  /// observes only its own accesses.
  static void Enable();
  static void Disable();
  static bool IsEnabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Number of races detected since the last Enable().
  uint64_t race_count() const;

  /// Copies out the recorded reports (capped at 64).
  std::vector<Report> reports() const;

  /// When true a detected race aborts immediately (debugging). Default
  /// false: races are recorded and counted, tests assert on race_count().
  void set_abort_on_race(bool abort_on_race) {
    abort_on_race_.store(abort_on_race);
  }

  // --- hook entry points (called via the free functions below) ---
  void Annotate(const void* addr, size_t size, bool is_write,
                const char* site);
  void LockAcquired(const void* lock);
  void LockReleased(const void* lock);
  /// Actor blocking on the virtual clock: release into the clock's global
  /// sync clock. Waking re-acquires it.
  void ClockBlockRelease(const void* clock);
  void ClockWakeAcquire(const void* clock);
  /// VirtualCondition::NotifyAll releases; a waiter acquires on wake.
  void CondNotifyRelease(const void* cond);
  void CondWakeAcquire(const void* cond);
  /// Fork edge: the spawner captures a token; the spawned actor joins it.
  uint64_t ForkCapture();
  void ForkJoin(uint64_t token);

 private:
  using VectorClock = std::map<int, uint64_t>;

  struct ThreadState {
    VectorClock vc;  // vc[tid] is this thread's own epoch counter
  };

  struct Access {
    int tid = -1;
    uint64_t epoch = 0;
    bool is_write = false;
    std::string site;
  };

  struct Cell {
    Access last_write;
    bool has_write = false;
    std::map<int, Access> reads;  // last read per thread since last write
  };

  static constexpr size_t kMaxReports = 64;

  RaceDetector() = default;

  int CurrentTidLocked();
  ThreadState& StateLocked(int tid);
  // Joins `src` into the calling thread's clock.
  void AcquireLocked(const VectorClock& src);
  // Joins the calling thread's clock into `dst`, then advances its epoch.
  void ReleaseLocked(VectorClock* dst);
  bool HappensBeforeLocked(const Access& a, const ThreadState& t);
  void ReportLocked(const Access& prev, const Access& cur, const void* addr,
                    size_t size);
  void ResetLocked();

  static std::atomic<bool> enabled_;

  // Waiver(thread-annotations): a vedb::Mutex here would report its own
  // acquisitions back into the detector's hooks, which take this lock.
  mutable std::mutex mu_;
  int next_tid_ = 0;
  uint64_t epoch_gen_ = 0;  // bumped on Enable(); invalidates cached tids
  std::map<int, ThreadState> threads_;  // keyed by tid
  std::map<const void*, VectorClock> locks_;
  std::map<const void*, VectorClock> sync_objects_;  // clock + conditions
  std::map<uint64_t, VectorClock> fork_tokens_;
  uint64_t next_fork_token_ = 1;
  std::map<const void*, Cell> shadow_;
  uint64_t race_count_ = 0;
  std::vector<Report> reports_;
  std::atomic<bool> abort_on_race_{false};
};

/// Records an access to shared state. `addr` should be a stable
/// representative address for the structure (e.g. &index_), not a moving
/// heap pointer.
inline void RaceAnnotate(const void* addr, size_t size, bool is_write,
                         const char* site = "") {
  if (!RaceDetector::IsEnabled()) return;
  RaceDetector::Instance().Annotate(addr, size, is_write, site);
}

}  // namespace vedb::sim

#endif  // VEDB_SIM_RACE_DETECTOR_H_
