// Virtual-time runtime: simulation actors are fibers (ucontext) that all
// run on the one OS thread that owns the VirtualClock, and all of their
// blocking flows through that clock. When every actor is asleep (with a
// wake time) or parked (on a VirtualCondition), the clock jumps to the
// earliest pending wake time. Database code therefore runs unmodified as
// ordinary call stacks while all latency is measured in deterministic
// virtual nanoseconds.
//
// Exactly one context runs at a time: an actor fiber, or the thread's own
// stack ("root", which hosts main whether or not it registered). A context
// runs until it blocks on the clock; the clock then switches to the next
// ready context in a deterministic order (timer pop order, condition
// parking order, spawn order), so two identical seeded runs are
// byte-identical. Every clock call must come from the clock's thread.
//
// Rules for actor code:
//  * Any wait whose release depends on another actor making progress in
//    virtual time (row locks held across I/O, group-commit waits, RPC
//    completions) must use VirtualCondition, otherwise the clock deadlocks
//    (and aborts with a diagnostic).
//  * A lock is never held across a clock wait: the next actor to take it
//    would block the one OS thread that must run the holder. With the
//    lock-order graph on, such a wait exits 65 naming the held locks.
//  * Never spin on shared state waiting for another actor without blocking
//    through the clock: the spinner never gives up the thread.

#ifndef VEDB_SIM_CLOCK_H_
#define VEDB_SIM_CLOCK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/race_detector.h"

namespace vedb::sim {

class VirtualCondition;
class ActorGroup;

/// One execution context: an actor fiber, or a thread's root context.
struct Fiber;

int NewFiberLocalKey();
/// The running context's storage for `key`.
std::shared_ptr<void>& FiberLocalSlot(int key);

/// Storage private to each execution context: every actor fiber, and each
/// thread's root context, sees its own default-constructed `T`.
template <typename T>
class FiberLocal {
 public:
  FiberLocal() : key_(NewFiberLocalKey()) {}
  T& Get() const {
    std::shared_ptr<void>& slot = FiberLocalSlot(key_);
    if (slot == nullptr) slot = std::make_shared<T>();
    return *static_cast<T*>(slot.get());
  }

 private:
  const int key_;
};

/// The virtual clock for one simulation, owned by the thread that
/// constructs it.
class VirtualClock {
 public:
  VirtualClock();
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  /// Current virtual time in nanoseconds.
  Timestamp Now() const;

  /// Marks the start of main's actor role: main queues behind every ready
  /// actor and returns when its turn comes. Any context may block on the
  /// clock whether or not it registered.
  void RegisterActor();

  /// Marks the end of main's actor role (a join edge for the race
  /// detector). Ready actors run when main next blocks.
  void UnregisterActor();

  /// Blocks the calling context until virtual time reaches `t`.
  void SleepUntil(Timestamp t);

  /// Blocks the calling context for `d` virtual nanoseconds.
  void SleepFor(Duration d);

 private:
  friend class VirtualCondition;
  friend class ActorGroup;
  friend struct Fiber;

  struct SleepEntry {
    Timestamp wake;
    Fiber* fiber;
    uint64_t seq;
    bool operator>(const SleepEntry& o) const { return wake > o.wake; }
  };

  void CheckThread() const;
  /// Blocks the running context (race-detector edges included) until it is
  /// readied again; with a `deadline`, a timer readies it too.
  void Block(const Timestamp* deadline);
  /// Suspends `self` as blocked until it is readied.
  void Suspend(Fiber* self, const Timestamp* deadline);
  /// Switches to the next ready context; returns once `self` runs again.
  void Dispatch(Fiber* self);
  /// Pops the next ready context, advancing virtual time and readying due
  /// sleepers while none is ready.
  Fiber* PickNext();
  /// Drops every timer entry of an exiting context.
  void PurgeTimers(Fiber* fiber);
  /// Body of an actor fiber; switches away for good when `fn` returns.
  [[noreturn]] void RunFiber(Fiber* self);

  Fiber* const root_;  // the owning thread's root context
  Timestamp now_ = 0;
  std::deque<Fiber*> ready_;  // woken contexts awaiting the thread, FIFO
  // Actors spawned since the last dispatch, in spawn order; they join the
  // back of ready_ when the running context next blocks.
  std::vector<Fiber*> spawned_;
  std::priority_queue<SleepEntry, std::vector<SleepEntry>,
                      std::greater<SleepEntry>>
      sleepers_;
  // Conditions with parked waiters (diagnostics for deadlock reports).
  std::set<VirtualCondition*> parked_conditions_;
};

/// A condition integrated with the virtual clock: parked waiters count as
/// blocked so the clock can keep advancing, and a notify makes them ready at
/// the current virtual instant, in parking order.
///
/// Usage (user_mu guards the predicate's state):
///   std::unique_lock<std::mutex> lk(user_mu);
///   cond.Wait(lk, [&] { return ready; });
/// Notifier:
///   { std::lock_guard<std::mutex> lk(user_mu); ready = true; }
///   cond.NotifyAll();
class VirtualCondition {
 public:
  explicit VirtualCondition(VirtualClock* clock, const char* name = "?")
      : clock_(clock), name_(name) {}
  VirtualCondition(const VirtualCondition&) = delete;
  VirtualCondition& operator=(const VirtualCondition&) = delete;

  /// Blocks until `pred()` is true. `lock` must be held on entry and is held
  /// again on return; it is released while parked.
  template <typename Pred>
  void Wait(std::unique_lock<std::mutex>& lock, Pred pred) {
    while (!pred()) {
      RaceLockReleased(lock.mutex());
      lock.unlock();
      Park(nullptr);
      lock.lock();
      RaceLockAcquired(lock.mutex());
    }
  }

  /// Like Wait, but gives up at virtual time `deadline`. Returns true if
  /// `pred()` held on exit, false on timeout.
  template <typename Pred>
  bool WaitUntil(std::unique_lock<std::mutex>& lock, Timestamp deadline,
                 Pred pred) {
    while (!pred()) {
      if (clock_->Now() >= deadline) return false;
      RaceLockReleased(lock.mutex());
      lock.unlock();
      Park(&deadline);
      lock.lock();
      RaceLockAcquired(lock.mutex());
    }
    return true;
  }

  /// As Wait above, for predicate state guarded by an annotated
  /// vedb::Mutex. `mu` must be held on entry and is held again on return.
  /// The body toggles the lock through the wait, which the static analysis
  /// cannot follow; callers are still checked against REQUIRES(mu).
  template <typename Pred>
  void Wait(vedb::Mutex* mu, Pred pred) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) {
      mu->Unlock();
      Park(nullptr);
      mu->Lock();
    }
  }

  /// As WaitUntil above, for vedb::Mutex-guarded state.
  template <typename Pred>
  bool WaitUntil(vedb::Mutex* mu, Timestamp deadline, Pred pred) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) {
      if (clock_->Now() >= deadline) return false;
      mu->Unlock();
      Park(&deadline);
      mu->Lock();
    }
    return true;
  }

  /// Readies all parked waiters. Call after mutating the predicate's state
  /// (holding or having released the user lock).
  void NotifyAll();

 private:
  friend class VirtualClock;

  /// Parks the running context until a notify (or the deadline, if any).
  void Park(const Timestamp* deadline);

  VirtualClock* clock_;
  const char* name_;
  std::vector<Fiber*> parked_;
};

/// Spawns actor fibers on a clock and joins them on destruction. Actors
/// spawned while a context runs join the back of the ready queue, in spawn
/// order, when that context next blocks.
class ActorGroup {
 public:
  explicit ActorGroup(VirtualClock* clock);
  ~ActorGroup();

  /// Creates a new actor fiber running `fn`.
  void Spawn(std::function<void()> fn);

  /// Does nothing: spawned actors need no start signal.
  void Start() {}

  /// Blocks the caller until every spawned actor has exited. The caller
  /// resumes at the virtual instant the last one exits, ahead of every
  /// other ready actor.
  void JoinAll();

 private:
  friend class VirtualClock;

  VirtualClock* clock_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  int live_ = 0;             // spawned actors that have not exited
  Fiber* joiner_ = nullptr;  // context blocked in JoinAll, if any
};

}  // namespace vedb::sim

#endif  // VEDB_SIM_CLOCK_H_
