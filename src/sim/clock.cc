#include "sim/clock.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "sim/lock_order.h"

#if defined(__SANITIZE_ADDRESS__)
#define VEDB_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VEDB_ASAN_FIBERS 1
#endif
#endif
#ifdef VEDB_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace vedb::sim {

namespace {
// Usable stack of every actor fiber; one guard page sits below it.
constexpr size_t kFiberStackBytes = 256 * 1024;
}  // namespace

struct Fiber {
  ucontext_t context;
  // Owned mapping (guard page + stack); null for a thread's root context.
  void* mapping = nullptr;
  size_t mapping_size = 0;
  // Usable stack, as ASan needs it for each switch. A root's is learned
  // from ASan on the first switch away from it.
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
  VirtualClock* clock = nullptr;  // fibers only
  ActorGroup* group = nullptr;    // fibers only
  std::function<void()> fn;
  bool blocked = false;
  uint64_t seq = 0;  // bumped per block, so stale timer entries are skipped
  std::vector<std::shared_ptr<void>> locals;  // FiberLocal storage

  void Run() { clock->RunFiber(this); }
  ~Fiber() {
    if (mapping != nullptr) munmap(mapping, mapping_size);
  }
};

namespace {

thread_local Fiber tls_root;
thread_local Fiber* tls_running = nullptr;  // null: the root context
#ifdef VEDB_ASAN_FIBERS
thread_local Fiber* tls_switched_from = nullptr;
#endif

Fiber* Running() { return tls_running != nullptr ? tls_running : &tls_root; }

// Completes a switch on the resumed side (ASan bookkeeping only).
void FinishSwitch([[maybe_unused]] void* fake_stack) {
#ifdef VEDB_ASAN_FIBERS
  Fiber* from = tls_switched_from;
  __sanitizer_finish_switch_fiber(fake_stack, &from->stack_bottom,
                                  &from->stack_size);
#endif
}

// Moves the thread from the running context to `to`. Returns when a later
// switch resumes the caller; never, for an exiting fiber.
void SwitchTo(Fiber* to, [[maybe_unused]] bool exiting) {
  Fiber* from = Running();
  tls_running = to;
#ifdef VEDB_ASAN_FIBERS
  void* fake_stack = nullptr;
  tls_switched_from = from;
  __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                 to->stack_bottom, to->stack_size);
  swapcontext(&from->context, &to->context);
  FinishSwitch(fake_stack);
#else
  swapcontext(&from->context, &to->context);
#endif
}

void FiberEntry() {
  FinishSwitch(nullptr);
  Running()->Run();
}

}  // namespace

int NewFiberLocalKey() {
  static int next_key = 0;
  return next_key++;
}

std::shared_ptr<void>& FiberLocalSlot(int key) {
  std::vector<std::shared_ptr<void>>& locals = Running()->locals;
  if (locals.size() <= static_cast<size_t>(key)) locals.resize(key + 1);
  return locals[key];
}

VirtualClock::VirtualClock() : root_(&tls_root) {}

void VirtualClock::CheckThread() const {
  VEDB_CHECK(&tls_root == root_,
             "VirtualClock %p called off the thread that owns it",
             static_cast<const void*>(this));
}

Timestamp VirtualClock::Now() const {
  CheckThread();
  return now_;
}

void VirtualClock::RegisterActor() {
  CheckThread();
  Fiber* self = Running();
  ready_.push_back(self);
  Dispatch(self);
}

void VirtualClock::UnregisterActor() {
  CheckThread();
  // Join edge: the actor's effects become visible to whoever joins it.
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockBlockRelease(this);
  }
  PurgeTimers(Running());
}

void VirtualClock::SleepUntil(Timestamp t) {
  CheckThread();
  if (t <= now_) return;
  Block(&t);
}

void VirtualClock::SleepFor(Duration d) {
  CheckThread();
  const Timestamp t = now_ + d;
  Block(&t);
}

void VirtualClock::Block(const Timestamp* deadline) {
  // Race detection: blocking hands the thread to other actors, so all the
  // blocker did so far happens-before whatever runs after the switch.
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockBlockRelease(this);
  }
  Suspend(Running(), deadline);
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockWakeAcquire(this);
  }
}

void VirtualClock::Suspend(Fiber* self, const Timestamp* deadline) {
  self->seq++;
  self->blocked = true;
  if (deadline != nullptr) {
    sleepers_.push(SleepEntry{*deadline, self, self->seq});
  }
  Dispatch(self);
}

void VirtualClock::Dispatch(Fiber* self) {
  Fiber* next = PickNext();
  if (next != self) SwitchTo(next, /*exiting=*/false);
}

Fiber* VirtualClock::PickNext() {
  // Every wait passes here, so the running context's held locks are
  // checked at every switch.
  if (LockOrderGraph::IsEnabled()) LockOrderGraph::CheckNoneHeldAcrossWait();
  auto stale = [](const SleepEntry& e) {
    return !e.fiber->blocked || e.fiber->seq != e.seq;
  };
  ready_.insert(ready_.end(), spawned_.begin(), spawned_.end());
  spawned_.clear();
  while (ready_.empty()) {
    // Drop stale timer entries (owner already woken, or from an earlier
    // block of the same context).
    while (!sleepers_.empty() && stale(sleepers_.top())) sleepers_.pop();
    if (sleepers_.empty()) {
      for (VirtualCondition* cond : parked_conditions_) {
        fprintf(stderr, "deadlock diagnostic: condition '%s' has %zu parked "
                "waiter(s)\n", cond->name_, cond->parked_.size());
      }
      VEDB_CHECK(false,
                 "virtual-time deadlock: clock=%p now=%llu; a wait that "
                 "depends on virtual time is not using "
                 "VirtualCondition/SleepFor",
                 static_cast<void*>(this), (unsigned long long)now_);
    }
    const Timestamp next = sleepers_.top().wake;
    if (next > now_) now_ = next;
    // Ready every sleeper whose time has arrived; they run one at a time in
    // timer pop order. Everything due may have been stale: loop again.
    while (!sleepers_.empty() && sleepers_.top().wake <= now_) {
      SleepEntry entry = sleepers_.top();
      sleepers_.pop();
      if (stale(entry)) continue;
      entry.fiber->blocked = false;
      ready_.push_back(entry.fiber);
    }
  }
  Fiber* next = ready_.front();
  ready_.pop_front();
  return next;
}

void VirtualClock::PurgeTimers(Fiber* fiber) {
  std::vector<SleepEntry> keep;
  keep.reserve(sleepers_.size());
  while (!sleepers_.empty()) {
    if (sleepers_.top().fiber != fiber) keep.push_back(sleepers_.top());
    sleepers_.pop();
  }
  for (auto& entry : keep) sleepers_.push(entry);
}

void VirtualClock::RunFiber(Fiber* self) {
  self->fn();
  self->fn = nullptr;
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockBlockRelease(this);
  }
  // The fiber is freed by JoinAll; drop the timer entries that point at it.
  PurgeTimers(self);
  ActorGroup* group = self->group;
  if (--group->live_ == 0 && group->joiner_ != nullptr) {
    group->joiner_->blocked = false;
    ready_.push_front(group->joiner_);
  }
  SwitchTo(PickNext(), /*exiting=*/true);
  std::abort();  // an exited fiber is never resumed
}

void VirtualCondition::Park(const Timestamp* deadline) {
  clock_->CheckThread();
  Fiber* self = Running();
  parked_.push_back(self);
  clock_->parked_conditions_.insert(this);
  clock_->Block(deadline);
  // A timer wake leaves our parked_ entry behind; remove it so it cannot
  // wake a later block of this same context.
  if (deadline != nullptr) {
    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
      if (*it == self) {
        parked_.erase(it);
        break;
      }
    }
  }
  if (parked_.empty()) clock_->parked_conditions_.erase(this);
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().CondWakeAcquire(this);
  }
}

void VirtualCondition::NotifyAll() {
  clock_->CheckThread();
  // The notifier's prior writes happen-before the waiters' wakeups.
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().CondNotifyRelease(this);
  }
  for (Fiber* fiber : parked_) {
    if (!fiber->blocked) continue;  // already woken by its timer
    fiber->blocked = false;
    clock_->ready_.push_back(fiber);
  }
  parked_.clear();
  clock_->parked_conditions_.erase(this);
}

ActorGroup::ActorGroup(VirtualClock* clock) : clock_(clock) {}

ActorGroup::~ActorGroup() { JoinAll(); }

void ActorGroup::Spawn(std::function<void()> fn) {
  clock_->CheckThread();
  auto fiber = std::make_unique<Fiber>();
  // Fork edge: the spawner's prior writes happen-before the new actor.
  const uint64_t fork_token = RaceDetector::IsEnabled()
                                  ? RaceDetector::Instance().ForkCapture()
                                  : 0;
  fiber->fn = [fork_token, fn = std::move(fn)] {
    if (fork_token != 0 && RaceDetector::IsEnabled()) {
      RaceDetector::Instance().ForkJoin(fork_token);
    }
    fn();
  };
  fiber->clock = clock_;
  fiber->group = this;
  // The guard page below the stack turns an overflow into a fault.
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  fiber->mapping_size = kFiberStackBytes + page;
  fiber->mapping = mmap(nullptr, fiber->mapping_size, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  VEDB_CHECK(fiber->mapping != MAP_FAILED, "fiber stack mmap failed");
  VEDB_CHECK(mprotect(fiber->mapping, page, PROT_NONE) == 0,
             "fiber guard page mprotect failed");
  fiber->stack_bottom = static_cast<char*>(fiber->mapping) + page;
  fiber->stack_size = kFiberStackBytes;
  getcontext(&fiber->context);
  fiber->context.uc_stack.ss_sp = const_cast<void*>(fiber->stack_bottom);
  fiber->context.uc_stack.ss_size = fiber->stack_size;
  fiber->context.uc_link = nullptr;
  makecontext(&fiber->context, &FiberEntry, 0);
  clock_->spawned_.push_back(fiber.get());
  live_++;
  fibers_.push_back(std::move(fiber));
}

void ActorGroup::JoinAll() {
  if (live_ > 0) {
    clock_->CheckThread();
    joiner_ = Running();
    clock_->Suspend(joiner_, nullptr);  // readied by the last actor's exit
    joiner_ = nullptr;
  }
  fibers_.clear();
  // Join edge: every exited actor released into the clock's sync clock;
  // the joiner acquires all of it.
  if (RaceDetector::IsEnabled()) {
    RaceDetector::Instance().ClockWakeAcquire(clock_);
  }
}

}  // namespace vedb::sim
