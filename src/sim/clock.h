// Virtual-time runtime: simulation actors are fibers that all run on the
// one OS thread that owns the VirtualClock, and all of their
// blocking flows through that clock. When every actor is asleep (with a
// wake time) or parked (on a VirtualCondition), the clock jumps to the
// earliest pending wake time. Database code therefore runs unmodified as
// ordinary call stacks while all latency is measured in deterministic
// virtual nanoseconds.
//
// Exactly one context runs at a time: an actor fiber, or the thread's own
// stack ("root", which hosts main and blocks on the clock like any actor).
// A context runs until it blocks on the clock; the clock then switches to
// the next ready context in a deterministic order (wake time, and among
// sleepers sharing a wake time the order they went to sleep; condition
// parking order; spawn order), so two identical seeded runs are
// byte-identical. Every clock call must come from the clock's thread. A
// switch is a register-only x86-64 stack switch (callee-saved registers
// plus the FP control state, no signal mask), so it makes no system call.
//
// Rules for actor code:
//  * Any wait whose release depends on another actor making progress in
//    virtual time (row locks held across I/O, group-commit waits, RPC
//    completions) must use VirtualCondition, otherwise the clock deadlocks
//    (and aborts with a diagnostic).
//  * A vedb::Mutex is never held across a clock wait: the next actor to
//    take it would block the one OS thread that must run the holder. Every
//    switch checks this; a lock held there exits 65 naming the held locks
//    and their sites. Since only one context runs and it never switches
//    holding a lock, no actor can find a lock taken by another, so no
//    acquisition order can deadlock.
//  * Never spin on shared state waiting for another actor without blocking
//    through the clock: the spinner never gives up the thread.

#ifndef VEDB_SIM_CLOCK_H_
#define VEDB_SIM_CLOCK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"

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

  /// perfbench only, until a benchmark change moves its call sites: queues
  /// the caller behind every ready context and returns when its turn comes.
  void RegisterActor();

  /// perfbench only, until a benchmark change moves its call: a no-op.
  void UnregisterActor() {}

  /// Blocks the calling context until virtual time reaches `t`.
  void SleepUntil(Timestamp t);

  /// Blocks the calling context for `d` virtual nanoseconds.
  void SleepFor(Duration d);

  /// Context switches made so far: each hand-off of the thread from one
  /// context to another, an exiting actor's last one included.
  uint64_t switches() const { return switches_; }

  /// Times virtual time has jumped forward to a pending wake time.
  uint64_t advances() const { return advances_; }

  /// Timer entries held, live and stale (an entry outlives a wait that
  /// ended another way until it pops or the heap is compacted).
  size_t timer_entries() const { return sleepers_.size(); }

 private:
  friend class VirtualCondition;
  friend class ActorGroup;
  friend struct Fiber;

  // A timer entry names its context by slot, not pointer, so it may outlive
  // the context: a slot's owner is cleared when its fiber exits and reused
  // by a later one, and `seq` (unique per clock) tells the blocks apart.
  struct SleepEntry {
    Timestamp wake;
    uint64_t seq;
    uint32_t slot;
    bool operator>(const SleepEntry& o) const {
      return wake != o.wake ? wake > o.wake : seq > o.seq;
    }
  };

  void CheckThread() const;
  /// Suspends `self`, the running context, until it is readied again; with
  /// a `deadline`, a timer readies it too.
  void Suspend(Fiber* self, const Timestamp* deadline);
  /// Switches to the next ready context; returns once `self` runs again.
  void Dispatch(Fiber* self);
  /// Pops the next ready context, advancing virtual time and readying due
  /// sleepers while none is ready.
  Fiber* PickNext();
  /// True once `entry` can no longer wake anything: its context exited,
  /// woke another way, or blocked again since. Once stale, always stale.
  bool Stale(const SleepEntry& entry) const;
  void PushTimer(const SleepEntry& entry);
  void PopTimer();
  /// Body of an actor fiber; switches away for good when `fn` returns.
  [[noreturn]] void RunFiber(Fiber* self);

  Fiber* const root_;  // the owning thread's root context
  Timestamp now_ = 0;
  uint64_t switches_ = 0;
  uint64_t advances_ = 0;
  uint64_t suspends_ = 0;  // numbers each block: a timer entry's seq
  std::deque<Fiber*> ready_;  // woken contexts awaiting the thread, FIFO
  // Actors spawned since the last dispatch, in spawn order; they join the
  // back of ready_ when the running context next blocks.
  std::vector<Fiber*> spawned_;
  // Min-heap of timer entries by (wake, seq), a total order, so rebuilding
  // the heap never changes which entry pops next.
  std::vector<SleepEntry> sleepers_;
  // Timer slot owners: slot 0 is the root context, a null slot is free.
  std::vector<Fiber*> slot_owner_;
  std::vector<uint32_t> free_slots_;
  // Conditions with parked waiters (diagnostics for deadlock reports).
  std::set<VirtualCondition*> parked_conditions_;
};

/// A condition integrated with the virtual clock: parked waiters count as
/// blocked so the clock can keep advancing, and a notify makes them ready at
/// the current virtual instant, in parking order.
///
/// Usage (mu guards the predicate's state):
///   vedb::MutexLock lk(&mu);
///   cond.Wait(&mu, [&] { return ready; });
/// Notifier:
///   { vedb::MutexLock lk(&mu); ready = true; }
///   cond.NotifyAll();
class VirtualCondition {
 public:
  explicit VirtualCondition(VirtualClock* clock, const char* name = "?")
      : clock_(clock), name_(name) {}
  VirtualCondition(const VirtualCondition&) = delete;
  VirtualCondition& operator=(const VirtualCondition&) = delete;

  /// Blocks until `pred()` is true. `mu` must be held on entry and is held
  /// again on return, re-acquired at the caller's site; it is released while
  /// parked. The body toggles the lock through the wait, which the static
  /// analysis cannot follow; callers are still checked against REQUIRES(mu).
  template <typename Pred>
  void Wait(vedb::Mutex* mu, Pred pred, const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) {
      mu->Unlock();
      Park(nullptr);
      mu->Lock(file, line);
    }
  }

  /// Like Wait, but gives up at virtual time `deadline`. Returns true if
  /// `pred()` held on exit, false on timeout.
  template <typename Pred>
  bool WaitUntil(vedb::Mutex* mu, Timestamp deadline, Pred pred,
                 const char* file = __builtin_FILE(),
                 int line = __builtin_LINE()) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) {
      if (clock_->Now() >= deadline) return false;
      mu->Unlock();
      Park(&deadline);
      mu->Lock(file, line);
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

  /// perfbench only, until a benchmark change moves its call: a no-op.
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
