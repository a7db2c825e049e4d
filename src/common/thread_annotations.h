// Clang Thread Safety Analysis annotations plus the repo's annotated mutex.
//
// Static half: the macros below expand to Clang `thread_safety` attributes
// under Clang and to nothing elsewhere, so the GCC build is unaffected while
// a Clang build with -Wthread-safety (CMake option VEDB_THREAD_SAFETY)
// proves lock discipline on *all* paths, executed or not:
//
//   vedb::Mutex mu_{"cm.state"};
//   std::map<SegmentId, Route> routes_ GUARDED_BY(mu_);
//   void RebalanceLocked() REQUIRES(mu_);
//
// Dynamic half: vedb::Mutex keeps, per OS thread, a stack of the locks it
// holds with their acquisition sites. The sim clock checks that stack at
// every fiber switch: a lock held across a clock wait exits the process
// with status 65 (see sim/clock.h). With one OS thread and no switch while
// a lock is held, that check is what keeps actor interleavings from
// splitting a critical section; a check-then-act that spans a clock wait is
// the one interleaving hazard it cannot see.
//
// Rules of use (see DESIGN.md "Lock discipline"):
//   * Shared mutable state is guarded by vedb::Mutex and annotated
//     GUARDED_BY; helpers that expect the lock held are named *Locked and
//     annotated REQUIRES.
//   * Scopes use MutexLock (never std::lock_guard on a vedb::Mutex — the
//     guard cannot carry the scoped-capability annotation).
//   * A raw std::mutex carries a `Waiver(thread-annotations)` comment that
//     says why it cannot be a vedb::Mutex; scripts/lint.sh enforces this.
//
// This header must stay dependency-free besides the standard library:
// src/common cannot depend on src/sim.

#ifndef VEDB_COMMON_THREAD_ANNOTATIONS_H_
#define VEDB_COMMON_THREAD_ANNOTATIONS_H_

#include <cstdio>
#include <cstdlib>
#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define VEDB_TSA_ATTR__(x) __attribute__((x))
#else
#define VEDB_TSA_ATTR__(x)  // GCC/MSVC: annotations vanish
#endif

#define CAPABILITY(x) VEDB_TSA_ATTR__(capability(x))
#define SCOPED_CAPABILITY VEDB_TSA_ATTR__(scoped_lockable)
#define GUARDED_BY(x) VEDB_TSA_ATTR__(guarded_by(x))
#define PT_GUARDED_BY(x) VEDB_TSA_ATTR__(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) VEDB_TSA_ATTR__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) VEDB_TSA_ATTR__(acquired_after(__VA_ARGS__))
#define REQUIRES(...) VEDB_TSA_ATTR__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  VEDB_TSA_ATTR__(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) VEDB_TSA_ATTR__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  VEDB_TSA_ATTR__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) VEDB_TSA_ATTR__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  VEDB_TSA_ATTR__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  VEDB_TSA_ATTR__(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) VEDB_TSA_ATTR__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  VEDB_TSA_ATTR__(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) VEDB_TSA_ATTR__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) VEDB_TSA_ATTR__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  VEDB_TSA_ATTR__(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) VEDB_TSA_ATTR__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS VEDB_TSA_ATTR__(no_thread_safety_analysis)

namespace vedb {

class Mutex;

/// One vedb::Mutex the running OS thread holds: the lock, its class name
/// and its acquisition site. Plain data, so recording it allocates nothing.
struct HeldMutex {
  const Mutex* mu;
  const char* name;
  const char* file;
  int line;
};

/// The vedb::Mutexes the running OS thread holds, in acquisition order. The
/// actor fibers of a thread share it; the clock checks that it is empty at
/// every switch, so it only ever holds the running context's locks.
struct HeldMutexes {
  static constexpr int kCapacity = 32;
  int depth = 0;
  HeldMutex locks[kCapacity] = {};

  void Push(const Mutex* mu, const char* name, const char* file, int line) {
    if (depth == kCapacity) {
      std::fprintf(stderr, "more than %d vedb::Mutex held at %s:%d\n",
                   kCapacity, file, line);
      std::abort();
    }
    locks[depth++] = HeldMutex{mu, name, file, line};
  }

  void Pop(const Mutex* mu) {
    // Locks are almost always released LIFO; a relockable MutexLock may
    // release out of order, so search down from the top.
    for (int i = depth - 1; i >= 0; --i) {
      if (locks[i].mu != mu) continue;
      for (; i + 1 < depth; ++i) locks[i] = locks[i + 1];
      --depth;
      return;
    }
  }
};

/// The calling OS thread's held-lock stack.
inline HeldMutexes& ThreadHeldMutexes() {
  static thread_local HeldMutexes held;
  return held;
}

/// The repo's annotated mutex: a std::mutex that (a) is a Clang capability,
/// so GUARDED_BY/REQUIRES/ACQUIRE annotations type-check, and (b) records
/// itself on the thread's held-lock stack while held.
///
/// The constructor names the *lock class* (e.g. "ebp.index", "cm.state"),
/// which a held-across-wait report prints with the acquisition site.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "mutex") : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) ACQUIRE() {
    mu_.lock();
    ThreadHeldMutexes().Push(this, name_, file, line);
  }

  void Unlock() RELEASE() {
    ThreadHeldMutexes().Pop(this);
    mu_.unlock();
  }

 private:
  // Waiver(thread-annotations): the annotated mutex's own implementation.
  std::mutex mu_;
  const char* name_;
};

/// RAII scope for vedb::Mutex, relockable in the style of
/// absl::ReleasableMutexLock so condition-wait and drop-the-lock-for-I/O
/// patterns stay annotated:
///
///   MutexLock lk(&mu_);
///   ...
///   lk.Unlock();     // e.g. issue an RPC without the lock
///   ...
///   lk.Lock();       // re-acquire before touching guarded state again
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) ACQUIRE(mu)
      : mu_(mu), file_(file), line_(line) {
    mu_->Lock(file_, line_);
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_->Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() RELEASE() {
    mu_->Unlock();
    held_ = false;
  }
  void Lock() ACQUIRE() {
    mu_->Lock(file_, line_);
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_ = true;
  const char* file_;
  int line_;
};

}  // namespace vedb

#endif  // VEDB_COMMON_THREAD_ANNOTATIONS_H_
