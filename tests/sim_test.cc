#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/clock.h"
#include "sim/device.h"
#include "sim/env.h"
#include "sim/fault.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace vedb::sim {
namespace {

TEST(VirtualClockTest, SingleActorSleepAdvances) {
  // Main's own context blocks on the clock like any actor fiber.
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.SleepFor(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.SleepUntil(250);
  EXPECT_EQ(clock.Now(), 250u);
  clock.SleepUntil(10);  // in the past: no-op
  EXPECT_EQ(clock.Now(), 250u);
}

TEST(VirtualClockTest, TwoActorsInterleaveDeterministically) {
  VirtualClock clock;
  vedb::Mutex mu("test.events");
  std::vector<std::pair<int, Timestamp>> events;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      for (int i = 0; i < 3; ++i) {
        clock.SleepFor(100);
        vedb::MutexLock lk(&mu);
        events.push_back({1, clock.Now()});
      }
    });
    group.Spawn([&] {
      for (int i = 0; i < 2; ++i) {
        clock.SleepFor(150);
        vedb::MutexLock lk(&mu);
        events.push_back({2, clock.Now()});
      }
    });
  }
  // Actor 1 wakes at 100,200,300; actor 2 at 150,300.
  ASSERT_EQ(events.size(), 5u);
  std::vector<Timestamp> times;
  for (auto& [id, t] : events) times.push_back(t);
  std::sort(times.begin(), times.end());
  EXPECT_EQ(times, (std::vector<Timestamp>{100, 150, 200, 300, 300}));
}

TEST(VirtualClockTest, ManyActorsAdvanceTogether) {
  VirtualClock clock;
  std::atomic<uint64_t> total{0};
  {
    ActorGroup group(&clock);
    for (int a = 0; a < 32; ++a) {
      group.Spawn([&clock, &total, a] {
        for (int i = 0; i < 50; ++i) clock.SleepFor(10 + a);
        total += clock.Now();
      });
    }
  }
  // The last actor (a=31) finishes at 50*(41) = 2050.
  EXPECT_EQ(clock.Now(), 50u * 41u);
  EXPECT_GT(total.load(), 0u);
}

TEST(VirtualConditionTest, NotifyWakesWaiter) {
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  bool ready = false;
  VirtualCondition cond(&clock);
  Timestamp waiter_wake_time = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock lk(&mu);
      cond.Wait(&mu, [&] { return ready; });
      waiter_wake_time = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(500);
      {
        vedb::MutexLock lk(&mu);
        ready = true;
      }
      cond.NotifyAll();
    });
  }
  // Waiter becomes runnable at the virtual instant of the notify.
  EXPECT_EQ(waiter_wake_time, 500u);
}

TEST(VirtualConditionTest, PredicateAlreadyTrueReturnsImmediately) {
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  {
    vedb::MutexLock lk(&mu);
    cond.Wait(&mu, [] { return true; });
    EXPECT_EQ(clock.Now(), 0u);
  }
}

TEST(VirtualConditionTest, ManyWaitersAllWake) {
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  int released = 0;
  bool open = false;
  VirtualCondition cond(&clock);
  {
    ActorGroup group(&clock);
    for (int i = 0; i < 16; ++i) {
      group.Spawn([&] {
        vedb::MutexLock lk(&mu);
        cond.Wait(&mu, [&] { return open; });
        released++;
      });
    }
    group.Spawn([&] {
      clock.SleepFor(1000);
      {
        vedb::MutexLock lk(&mu);
        open = true;
      }
      cond.NotifyAll();
    });
  }
  EXPECT_EQ(released, 16);
}

TEST(QueueingDeviceTest, SingleChannelSerializes) {
  VirtualClock clock;
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 100;
  QueueingDevice dev(&clock, "disk", p);
  Timestamp t1 = dev.Submit(0);
  Timestamp t2 = dev.Submit(0);
  Timestamp t3 = dev.Submit(0);
  EXPECT_EQ(t1, 100u);
  EXPECT_EQ(t2, 200u);
  EXPECT_EQ(t3, 300u);
}

TEST(QueueingDeviceTest, MultiChannelOverlaps) {
  VirtualClock clock;
  DeviceParams p;
  p.channels = 2;
  p.base_latency = 100;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.Submit(0), 100u);
  EXPECT_EQ(dev.Submit(0), 100u);  // second channel
  EXPECT_EQ(dev.Submit(0), 200u);  // queues behind the first
}

TEST(QueueingDeviceTest, BandwidthScalesWithBytes) {
  VirtualClock clock;
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 10;
  p.ns_per_byte = 2.0;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.Submit(100), 10u + 200u);
}

TEST(QueueingDeviceTest, AccessBlocksUntilCompletion) {
  VirtualClock clock;
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 500;
  QueueingDevice dev(&clock, "disk", p);
  Duration latency = dev.Access(0);
  EXPECT_EQ(latency, 500u);
  EXPECT_EQ(clock.Now(), 500u);
}

TEST(QueueingDeviceTest, SaturationGrowsLatency) {
  // With 2 channels and 8 concurrent clients, per-op latency must grow
  // roughly 4x beyond the service time: queueing emerges, not hard-coded.
  VirtualClock clock;
  DeviceParams p;
  p.channels = 2;
  p.base_latency = 100;
  QueueingDevice dev(&clock, "disk", p);
  std::atomic<uint64_t> total_latency{0};
  const int kClients = 8, kOps = 50;
  {
    ActorGroup group(&clock);
    for (int c = 0; c < kClients; ++c) {
      group.Spawn([&] {
        uint64_t mine = 0;
        for (int i = 0; i < kOps; ++i) mine += dev.Access(0);
        total_latency += mine;
      });
    }
  }
  double avg = static_cast<double>(total_latency.load()) / (kClients * kOps);
  EXPECT_GT(avg, 250.0);  // well above the 100ns service time
}

TEST(QueueingDeviceTest, SubmitAtHonorsEarliestStart) {
  VirtualClock clock;
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 10;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.SubmitAt(1000, 0), 1010u);
}

TEST(FaultInjectorTest, DisarmedSitePasses) {
  FaultInjector f;
  EXPECT_TRUE(f.MaybeFail("nowhere").ok());
}

TEST(FaultInjectorTest, AlwaysFailSite) {
  FaultInjector f;
  f.Arm("disk.write", 1.0, Status::IOError("boom"));
  EXPECT_TRUE(f.MaybeFail("disk.write").IsIOError());
  EXPECT_EQ(f.InjectedCount("disk.write"), 1u);
  f.Disarm("disk.write");
  EXPECT_TRUE(f.MaybeFail("disk.write").ok());
}

TEST(FaultInjectorTest, BudgetLimitsInjections) {
  FaultInjector f;
  f.Arm("x", 1.0, Status::IOError("boom"), /*remaining=*/2);
  EXPECT_FALSE(f.MaybeFail("x").ok());
  EXPECT_FALSE(f.MaybeFail("x").ok());
  EXPECT_TRUE(f.MaybeFail("x").ok());
  EXPECT_EQ(f.InjectedCount("x"), 2u);
}

TEST(SimEnvironmentTest, NodesHaveDevices) {
  SimEnvironment env;
  NodeConfig cfg;
  cfg.cpu_cores = 4;
  cfg.storage = HardwareProfile::OptanePmem(1);
  SimNode* node = env.AddNode("astore-1", cfg);
  EXPECT_EQ(node->name(), "astore-1");
  EXPECT_TRUE(node->alive());
  node->SetAlive(false);
  EXPECT_FALSE(node->alive());
  EXPECT_EQ(env.GetNode("astore-1"), node);
}

TEST(SimEnvironmentTest, ProfilesDiffer) {
  DeviceParams ssd = HardwareProfile::NvmeSsd(1);
  DeviceParams pmem = HardwareProfile::OptanePmem(2);
  // The PMem/SSD latency gap drives the whole paper; make sure the profiles
  // keep at least two orders of magnitude between base latencies.
  EXPECT_GT(ssd.base_latency, pmem.base_latency * 100);
}

}  // namespace
}  // namespace vedb::sim

namespace vedb::sim {
namespace {

TEST(VirtualConditionTest, WaitUntilTimesOut) {
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  bool never = false;
  Timestamp woke_at = 0;
  bool result = true;
  int held_depth = 0;
  const vedb::Mutex* held_top = nullptr;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock lk(&mu);
      result = cond.WaitUntil(&mu, 1000, [&] { return never; });
      woke_at = clock.Now();
      // A timed-out wait returns with the lock held again, like a notified
      // one: the caller's guard still owns exactly `mu`.
      const vedb::HeldMutexes& held = vedb::ThreadHeldMutexes();
      held_depth = held.depth;
      if (held.depth > 0) held_top = held.locks[held.depth - 1].mu;
    });
    group.Spawn([&] { clock.SleepFor(5000); });  // keeps time flowing
  }
  EXPECT_FALSE(result);
  EXPECT_EQ(woke_at, 1000u);  // woke exactly at the deadline
  EXPECT_EQ(held_depth, 1);
  EXPECT_EQ(held_top, &mu);
}

TEST(VirtualConditionTest, WaitUntilWokenByNotifyBeforeDeadline) {
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  bool ready = false;
  bool result = false;
  Timestamp woke_at = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock lk(&mu);
      result = cond.WaitUntil(&mu, 1 * kSecond, [&] { return ready; });
      woke_at = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(200);
      {
        vedb::MutexLock lk(&mu);
        ready = true;
      }
      cond.NotifyAll();
    });
  }
  EXPECT_TRUE(result);
  EXPECT_EQ(woke_at, 200u);
}

TEST(VirtualConditionTest, StaleTimerEntryDoesNotWakeLaterSleep) {
  // A timed wait notified early leaves a stale heap entry; a later sleep by
  // the same thread must not be woken by it.
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  bool ready = false;
  Timestamp second_wake = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      {
        vedb::MutexLock lk(&mu);
        cond.WaitUntil(&mu, 500, [&] { return ready; });  // woken at 100
      }
      clock.SleepFor(10000);  // must sleep the full span, not wake at 500
      second_wake = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(100);
      {
        vedb::MutexLock lk(&mu);
        ready = true;
      }
      cond.NotifyAll();
      clock.SleepFor(20000);  // keep an actor alive past the stale entry
    });
  }
  EXPECT_EQ(second_wake, 10100u);
}

TEST(VirtualConditionTest, FiberExitsWithAPendingLockWaitTimer) {
  // A lock wait with a timeout is notified early and its fiber exits; the
  // group frees the fiber while its timer entry (due at 1000) is still in
  // the heap. Popping that entry must not touch the freed fiber (ASan), and
  // a later fiber that reuses the timer slot must not be woken by it.
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  bool granted = false;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock lk(&mu);
      EXPECT_TRUE(cond.WaitUntil(&mu, 1000, [&] { return granted; }));
    });
    group.Spawn([&] {
      clock.SleepFor(100);
      {
        vedb::MutexLock lk(&mu);
        granted = true;
      }
      cond.NotifyAll();
    });
  }
  EXPECT_EQ(clock.Now(), 100u);
  EXPECT_GE(clock.timer_entries(), 1u);  // the waiter's entry outlived it
  Timestamp woke = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      clock.SleepUntil(1500);
      woke = clock.Now();
    });
  }
  EXPECT_EQ(woke, 1500u);
  clock.SleepUntil(2000);
  EXPECT_EQ(clock.timer_entries(), 0u);
}

TEST(VirtualConditionTest, StaleTimerEntriesAreCompactedInWakeOrder) {
  // Waiters time out far ahead but are all notified early, round after
  // round, so stale entries pile up faster than they pop. The heap must
  // stay within twice the live contexts, every live entry must still pop
  // on time (bystanders asleep across many compactions), and sleepers
  // sharing a wake time must still wake in sleep order.
  constexpr int kWaiters = 16;
  constexpr int kBystanders = 24;
  constexpr int kRounds = 200;
  VirtualClock clock;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  int round = 0;
  int timeouts = 0;
  Timestamp last_round_at = 0;
  size_t most_entries = 0;
  std::vector<int> order;
  std::vector<Timestamp> bystander_woke(kBystanders);
  // Scattered wake times (and waiter deadlines below), so dropping entries
  // leaves an array that is no longer a heap.
  auto bystander_wake = [](int k) -> Timestamp {
    return 100 + (k * 7919) % 1800;
  };
  {
    ActorGroup group(&clock);
    for (int k = 0; k < kBystanders; ++k) {
      group.Spawn([&, k] {
        clock.SleepUntil(bystander_wake(k));
        bystander_woke[k] = clock.Now();
      });
    }
    for (int i = 0; i < kWaiters; ++i) {
      group.Spawn([&, i] {
        for (int r = 1; r <= kRounds; ++r) {
          vedb::MutexLock lk(&mu);
          const Timestamp deadline = 1 * kSecond + (r * 104729 + i * 7) % 9973;
          if (!cond.WaitUntil(&mu, deadline, [&] { return round >= r; })) {
            timeouts++;
          }
        }
        clock.SleepUntil(2 * kSecond - i);
        clock.SleepUntil(3 * kSecond);
        order.push_back(i);
      });
    }
    group.Spawn([&] {
      for (int r = 1; r <= kRounds; ++r) {
        clock.SleepFor(10);
        {
          vedb::MutexLock lk(&mu);
          round = r;
        }
        cond.NotifyAll();
        most_entries = std::max(most_entries, clock.timer_entries());
      }
      last_round_at = clock.Now();
    });
  }
  // Every wait was notified in time: the notifier's short sleeps always
  // popped ahead of the waiters' far deadlines.
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(last_round_at, 10u * kRounds);
  for (int k = 0; k < kBystanders; ++k) {
    EXPECT_EQ(bystander_woke[k], bystander_wake(k)) << k;
  }
  // Contexts: root, the bystanders, the waiters and the notifier.
  EXPECT_LE(most_entries, 2u * (kBystanders + kWaiters + 2));
  std::vector<int> expected;
  for (int i = kWaiters - 1; i >= 0; --i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(VirtualConditionTest, TeardownNotifyFromNonActorWhilePollersExit) {
  // Regression for a teardown race: main stops a notification-driven
  // waiter while a timer-driven actor is also exiting ("notify the parked
  // waiter first, then release the pollers"); both must exit.
  for (int round = 0; round < 50; ++round) {
    VirtualClock clock;
    vedb::Mutex mu("test.cond");
    VirtualCondition cond(&clock, "teardown-test");
    bool stop = false;
    std::atomic<bool> poll_stop{false};
    int waiter_rounds = 0;
    ActorGroup group(&clock);
    group.Spawn([&] {  // notification-driven waiter (the flusher shape)
      vedb::MutexLock lk(&mu);
      cond.Wait(&mu, [&] { return stop; });
      waiter_rounds++;
    });
    group.Spawn([&] {  // polling actor (the shipper shape)
      while (!poll_stop.load()) clock.SleepFor(kMillisecond);
    });
    {
      vedb::MutexLock lk(&mu);
      stop = true;
    }
    cond.NotifyAll();        // lands while the poller still holds a timer
    poll_stop.store(true);   // only now release the poller
    group.JoinAll();
    EXPECT_EQ(waiter_rounds, 1);
  }
}

TEST(VirtualClockTest, JoinAllResumesAheadOfActorsReadyAtTheSameInstant) {
  // Main's JoinAll resumes at the virtual instant the group's last member
  // exits, before another actor that became ready at that instant.
  VirtualClock clock;
  std::vector<std::pair<std::string, Timestamp>> events;
  ActorGroup group(&clock);
  ActorGroup other(&clock);
  group.Spawn([&] {
    clock.SleepFor(5000);
    events.push_back({"member", clock.Now()});
  });
  other.Spawn([&] {
    clock.SleepFor(5000);  // readied right behind the member
    events.push_back({"other", clock.Now()});
  });
  group.JoinAll();
  events.push_back({"joiner", clock.Now()});
  other.JoinAll();
  const std::vector<std::pair<std::string, Timestamp>> expected = {
      {"member", 5000}, {"joiner", 5000}, {"other", 5000}};
  EXPECT_EQ(events, expected);
}

TEST(VirtualClockTest, SleepersDueAtTheSameInstantWakeInSleepOrder) {
  // The k-th sleeper falls asleep until 1000 at time 2k+1, in the reverse
  // of spawn order, and an actor exits at 2k+2, between two of those
  // sleeps, leaving its slot to a later fiber. They must wake in the order
  // they fell asleep.
  constexpr int kSleepers = 8;
  VirtualClock clock;
  std::vector<int> order;
  {
    ActorGroup group(&clock);
    for (int i = 0; i < kSleepers; ++i) {
      const Timestamp asleep = 2 * (kSleepers - 1 - i) + 1;
      group.Spawn([&clock, &order, i, asleep] {
        clock.SleepUntil(asleep);
        clock.SleepUntil(1000);
        order.push_back(i);
      });
      group.Spawn([&clock, asleep] { clock.SleepUntil(asleep + 1); });
    }
  }
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(VirtualClockTest, SpawnedActorsFirstRunInSpawnOrder) {
  VirtualClock clock;
  std::vector<int> order;
  {
    ActorGroup group(&clock);
    for (int i = 0; i < 8; ++i) {
      group.Spawn([&order, i] { order.push_back(i); });
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(VirtualClockTest, CountsSwitchesAndAdvancesForPingPong) {
  // Two actors take turns: ping wakes at 10, 30, 50 and pong at 20, 40, 60.
  VirtualClock clock;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      for (Timestamp t = 10; t <= 50; t += 20) clock.SleepUntil(t);
    });
    group.Spawn([&] {
      for (Timestamp t = 20; t <= 60; t += 20) clock.SleepUntil(t);
    });
  }
  EXPECT_EQ(clock.Now(), 60u);
  // One advance per wake time. One switch per resumption: each actor's
  // first run, the six wakes, and main's return from the join.
  EXPECT_EQ(clock.advances(), 6u);
  EXPECT_EQ(clock.switches(), 9u);
}

// 1/3 in the current SSE rounding mode; volatile keeps it at run time.
double OneThird() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(VirtualClockTest, FloatingPointControlIsPerFiber) {
  // fegetround reads the x87 control word; OneThird rounds through MXCSR.
  VirtualClock clock;
  const double nearest = OneThird();
  int a_mode = -1, a_mode_after = -1, b_mode = -1;
  double a_third = 0, a_third_after = 0, b_third = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      fesetround(FE_UPWARD);
      a_mode = fegetround();
      a_third = OneThird();
      clock.SleepFor(100);
      a_mode_after = fegetround();
      a_third_after = OneThird();
    });
    group.Spawn([&] {
      clock.SleepFor(50);  // runs while A sleeps with FE_UPWARD set
      b_mode = fegetround();
      b_third = OneThird();
    });
  }
  EXPECT_EQ(a_mode, FE_UPWARD);
  EXPECT_GT(a_third, nearest);
  EXPECT_EQ(b_mode, FE_TONEAREST);
  EXPECT_EQ(b_third, nearest);
  EXPECT_EQ(a_mode_after, FE_UPWARD);
  EXPECT_EQ(a_third_after, a_third);
  EXPECT_EQ(fegetround(), FE_TONEAREST);
  EXPECT_EQ(OneThird(), nearest);
}

// Fills a 1 KiB frame at each of `depth` nested calls, then yields to the
// clock with every frame live.
[[gnu::noinline]] int TouchDeepStack(VirtualClock* clock, int depth) {
  volatile char frame[1024];
  for (size_t i = 0; i < sizeof(frame); ++i) {
    frame[i] = static_cast<char>(depth + i);
  }
  int sum = 0;
  if (depth > 0) {
    sum = TouchDeepStack(clock, depth - 1);
  } else {
    clock->SleepFor(1);
  }
  return sum + frame[depth];
}

TEST(VirtualClockTest, FiberStacksAreReusedCleanly) {
  // Each round unmaps its actors' stacks at the join, and the next round's
  // stacks reuse those addresses. An exited fiber's frames never return, so
  // under ASan a fresh stack must not inherit their poisoned redzones.
  VirtualClock clock;
  int exited = 0;
  for (int round = 0; round < 100; ++round) {
    ActorGroup group(&clock);
    for (int i = 0; i < 40; ++i) {
      group.Spawn([&] {
        TouchDeepStack(&clock, 32);
        exited++;
      });
    }
    group.JoinAll();
  }
  EXPECT_EQ(exited, 4000);
  EXPECT_EQ(clock.Now(), 100u);
}

TEST(VirtualClockTest, FreedFiberStackLeavesNoPoisonBehind) {
#ifndef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  // An exited fiber's frames never return, so their redzones stay poisoned
  // until the stack is freed; whatever maps those addresses next (a PMem
  // device, say) must not inherit them.
  VirtualClock clock;
  uintptr_t lo = 0, hi = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      // A frame address, not a local's: a local may sit on a fake stack.
      const auto frame =
          reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
      // The frames still live at the exit lie between `frame` and the
      // stack's 4 KiB-aligned top. A redzone poisoned deeper down stands in
      // for theirs when detect_stack_use_after_return moves them off-stack.
      hi = (frame + 4095) & ~uintptr_t{4095};
      lo = hi - 64 * 1024;
      ASAN_POISON_MEMORY_REGION(reinterpret_cast<void*>(lo), 64);
    });
  }
  EXPECT_EQ(__asan_region_is_poisoned(reinterpret_cast<void*>(lo), hi - lo),
            nullptr);
#endif
}

// Main starts background actors and keeps working between its own sleeps;
// returns every (actor, virtual time) event in the order it happened.
std::vector<std::pair<int, Timestamp>> RunMainWithBackground() {
  VirtualClock clock;
  std::vector<std::pair<int, Timestamp>> events;
  bool stop = false;
  ActorGroup background(&clock);
  for (int a = 1; a <= 3; ++a) {
    background.Spawn([&, a] {
      while (!stop) {
        clock.SleepFor(50 * a);
        events.push_back({a, clock.Now()});
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    clock.SleepFor(75);
    events.push_back({0, clock.Now()});
  }
  stop = true;
  background.JoinAll();
  return events;
}

TEST(VirtualClockTest, MainWithBackgroundActorsRunsDeterministically) {
  const auto first = RunMainWithBackground();
  const auto second = RunMainWithBackground();
  EXPECT_GT(first.size(), 20u);
  EXPECT_EQ(first, second);
}

// Every actor runs on the clock's one thread: a second actor contending for
// a lock held across a wait would relock it on that same thread and hang.
// Every switch checks for held locks, in every binary, with nothing to turn
// on; one held there is named with its acquisition site and the process
// exits 65.
TEST(HeldLockDeathTest, MutexHeldAcrossSleepExits65) {
  EXPECT_EXIT(
      {
        VirtualClock clock;
        vedb::Mutex mu("test.held");
        vedb::MutexLock lk(&mu);
        clock.SleepFor(10);
      },
      ::testing::ExitedWithCode(65),
      "held across a clock wait: test.held@sim_test.cc:[0-9]+");
}

TEST(HeldLockDeathTest, ConditionWaitReportsOnlyTheOtherHeldLock) {
  // The waited mutex is released while parked, so only `other` is held
  // across the wait; the report must name it and nothing after it.
  EXPECT_EXIT(
      {
        VirtualClock clock;
        vedb::Mutex waited("test.waited");
        vedb::Mutex other("test.other");
        VirtualCondition cond(&clock);
        bool ready = false;
        ActorGroup group(&clock);
        group.Spawn([&] {
          clock.SleepFor(10);
          {
            vedb::MutexLock lk(&waited);
            ready = true;
          }
          cond.NotifyAll();
        });
        vedb::MutexLock lo(&other);
        vedb::MutexLock lw(&waited);
        cond.Wait(&waited, [&] { return ready; });
      },
      ::testing::ExitedWithCode(65),
      "^held across a clock wait: test.other@sim_test.cc:[0-9]+\n$");
}

TEST(HeldLockDeathTest, OutOfOrderRelockLeavesNothingHeld) {
  // A relockable MutexLock released and retaken under a later lock leaves
  // the held-lock stack out of acquisition order; releasing both must still
  // empty it, so the next switch passes.
  EXPECT_EXIT(
      {
        VirtualClock clock;
        vedb::Mutex a("test.a");
        vedb::Mutex b("test.b");
        {
          vedb::MutexLock la(&a);
          vedb::MutexLock lb(&b);
          la.Unlock();
          la.Lock();  // now above b
        }  // b is released first, from below a
        clock.SleepFor(10);
        std::fprintf(stderr, "switched with %d held\n",
                     vedb::ThreadHeldMutexes().depth);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "^switched with 0 held\n$");
}

}  // namespace
}  // namespace vedb::sim
