#include "sim/clock.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/logging.h"

#if defined(__SANITIZE_ADDRESS__)
#define VEDB_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VEDB_ASAN_FIBERS 1
#endif
#endif
#ifdef VEDB_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "fiber switching is x86-64 only: port vedb_sim_switch_stack below"
#endif

// Suspends the running context by pushing its callee-saved registers
// (rbx, rbp, r12-r15) and its FP control state (MXCSR, x87 control word)
// onto its stack and storing the stack pointer in *save_sp; then resumes
// the context whose stack pointer is `load_sp` by popping the same state
// off its stack and returning on it. Caller-saved registers are the
// compiler's to spill around the call, and no signal mask is touched, so
// a switch makes no system call. Saved frame, from the stored rsp up:
// MXCSR (4 bytes), x87 control word (2 + 2 pad), r15, r14, r13, r12, rbx,
// rbp, return address. Both stacks hold that same frame, so the CFI stays
// right across the stack pointer swap and an unwinder walks into the
// resumed context's caller.
extern "C" void vedb_sim_switch_stack(void** save_sp, void* load_sp);

asm(R"(
  .pushsection .text
  .globl vedb_sim_switch_stack
  .hidden vedb_sim_switch_stack
  .type vedb_sim_switch_stack, @function
  .p2align 4
vedb_sim_switch_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size vedb_sim_switch_stack, . - vedb_sim_switch_stack
  .popsection
)");

namespace vedb::sim {

namespace {
// Usable stack of every actor fiber; one guard page sits below it.
constexpr size_t kFiberStackBytes = 256 * 1024;
}  // namespace

struct Fiber {
  void* sp = nullptr;  // saved stack pointer while switched out
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
  uint64_t seq = 0;   // the clock's number for its latest block
  uint32_t slot = 0;  // its timer slot (0: a root context)
  std::vector<std::shared_ptr<void>> locals;  // FiberLocal storage

  void Run() { clock->RunFiber(this); }
  ~Fiber() {
    if (mapping == nullptr) return;
#ifdef VEDB_ASAN_FIBERS
    // An exited fiber's frames never returned, so their redzones are still
    // poisoned; a later mapping may reuse these addresses.
    ASAN_UNPOISON_MEMORY_REGION(stack_bottom, stack_size);
#endif
    munmap(mapping, mapping_size);
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
  vedb_sim_switch_stack(&from->sp, to->sp);
  FinishSwitch(fake_stack);
#else
  vedb_sim_switch_stack(&from->sp, to->sp);
#endif
}

void FiberEntry() {
  FinishSwitch(nullptr);
  Running()->Run();
}

// Lays out a fresh stack as vedb_sim_switch_stack's saved frame, so the
// first switch to it "returns" into FiberEntry with rsp = 8 (mod 16), as
// after a call, and with the spawner's current MXCSR and x87 control word.
// Returns the stack pointer to switch to.
void* SeedStack(const void* bottom, size_t size) {
  uint64_t* top = reinterpret_cast<uint64_t*>(
      (reinterpret_cast<uintptr_t>(bottom) + size) & ~uintptr_t{15});
  uint64_t* sp = top - 9;
  uint32_t mxcsr;
  uint16_t x87_cw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  sp[0] = mxcsr | uint64_t{x87_cw} << 32;
  for (int i = 1; i <= 6; ++i) sp[i] = 0;  // r15 .. rbp
  sp[7] = reinterpret_cast<uintptr_t>(&FiberEntry);
  sp[8] = 0;  // FiberEntry's return address: it never returns
  return sp;
}

// A switch with a vedb::Mutex held: the next actor to take that lock would
// block the one OS thread its holder needs. Names each held lock and exits.
[[noreturn]] [[gnu::cold]] void ExitHeldAcrossWait() {
  const HeldMutexes& held = ThreadHeldMutexes();
  for (int i = 0; i < held.depth; ++i) {
    const HeldMutex& h = held.locks[i];
    std::fprintf(stderr, "held across a clock wait: %s@%s:%d\n", h.name,
                 SourceBasename(h.file), h.line);
  }
  std::fflush(stderr);
  std::_Exit(65);
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

VirtualClock::VirtualClock() : root_(&tls_root), slot_owner_{root_} {}

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

void VirtualClock::SleepUntil(Timestamp t) {
  CheckThread();
  if (t <= now_) return;
  Suspend(Running(), &t);
}

void VirtualClock::SleepFor(Duration d) {
  CheckThread();
  const Timestamp t = now_ + d;
  Suspend(Running(), &t);
}

void VirtualClock::Suspend(Fiber* self, const Timestamp* deadline) {
  self->seq = ++suspends_;
  self->blocked = true;
  if (deadline != nullptr) {
    PushTimer(SleepEntry{*deadline, self->seq, self->slot});
  }
  Dispatch(self);
}

bool VirtualClock::Stale(const SleepEntry& entry) const {
  const Fiber* owner = slot_owner_[entry.slot];
  return owner == nullptr || !owner->blocked || owner->seq != entry.seq;
}

void VirtualClock::PushTimer(const SleepEntry& entry) {
  sleepers_.push_back(entry);
  std::push_heap(sleepers_.begin(), sleepers_.end(),
                 std::greater<SleepEntry>());
  // Each context has at most one live entry, so past twice the context
  // count stale entries outnumber live ones: drop them and re-heap. Cost is
  // linear in the survivors, which halve the heap, so amortized O(1) a push.
  const size_t contexts = slot_owner_.size() - free_slots_.size();
  if (sleepers_.size() > 2 * contexts) {
    sleepers_.erase(std::remove_if(sleepers_.begin(), sleepers_.end(),
                                   [this](const SleepEntry& e) {
                                     return Stale(e);
                                   }),
                    sleepers_.end());
    std::make_heap(sleepers_.begin(), sleepers_.end(),
                   std::greater<SleepEntry>());
  }
}

void VirtualClock::PopTimer() {
  std::pop_heap(sleepers_.begin(), sleepers_.end(),
                std::greater<SleepEntry>());
  sleepers_.pop_back();
}

void VirtualClock::Dispatch(Fiber* self) {
  Fiber* next = PickNext();
  if (next != self) {
    switches_++;
    SwitchTo(next, /*exiting=*/false);
  }
}

Fiber* VirtualClock::PickNext() {
  // Every switch passes here, an exiting actor's last one included, so the
  // running context's held locks are checked at every switch.
  if (ThreadHeldMutexes().depth != 0) ExitHeldAcrossWait();
  ready_.insert(ready_.end(), spawned_.begin(), spawned_.end());
  spawned_.clear();
  while (ready_.empty()) {
    // Drop stale timer entries (owner already woken, or from an earlier
    // block of the same context).
    while (!sleepers_.empty() && Stale(sleepers_.front())) PopTimer();
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
    const Timestamp next = sleepers_.front().wake;
    if (next > now_) {
      now_ = next;
      advances_++;
    }
    // Ready every sleeper whose time has arrived; they run one at a time in
    // timer pop order. Everything due may have been stale: loop again.
    while (!sleepers_.empty() && sleepers_.front().wake <= now_) {
      const SleepEntry entry = sleepers_.front();
      PopTimer();
      if (Stale(entry)) continue;
      Fiber* fiber = slot_owner_[entry.slot];
      fiber->blocked = false;
      ready_.push_back(fiber);
    }
  }
  Fiber* next = ready_.front();
  ready_.pop_front();
  return next;
}

void VirtualClock::RunFiber(Fiber* self) {
  self->fn();
  self->fn = nullptr;
  // The fiber is freed by JoinAll; its timer entries, left in the heap,
  // go stale with the slot.
  slot_owner_[self->slot] = nullptr;
  free_slots_.push_back(self->slot);
  ActorGroup* group = self->group;
  if (--group->live_ == 0 && group->joiner_ != nullptr) {
    group->joiner_->blocked = false;
    ready_.push_front(group->joiner_);
  }
  Fiber* next = PickNext();
  switches_++;
  SwitchTo(next, /*exiting=*/true);
  std::abort();  // an exited fiber is never resumed
}

void VirtualCondition::Park(const Timestamp* deadline) {
  clock_->CheckThread();
  Fiber* self = Running();
  parked_.push_back(self);
  clock_->parked_conditions_.insert(this);
  clock_->Suspend(self, deadline);
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
}

void VirtualCondition::NotifyAll() {
  clock_->CheckThread();
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
  fiber->fn = std::move(fn);
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
  fiber->sp = SeedStack(fiber->stack_bottom, fiber->stack_size);
  if (clock_->free_slots_.empty()) {
    fiber->slot = static_cast<uint32_t>(clock_->slot_owner_.size());
    clock_->slot_owner_.push_back(fiber.get());
  } else {
    fiber->slot = clock_->free_slots_.back();
    clock_->free_slots_.pop_back();
    clock_->slot_owner_[fiber->slot] = fiber.get();
  }
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
}

}  // namespace vedb::sim
