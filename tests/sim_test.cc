#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/clock.h"
#include "sim/device.h"
#include "sim/env.h"
#include "sim/fault.h"

namespace vedb::sim {
namespace {

TEST(VirtualClockTest, SingleActorSleepAdvances) {
  VirtualClock clock;
  clock.RegisterActor();
  EXPECT_EQ(clock.Now(), 0u);
  clock.SleepFor(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.SleepUntil(250);
  EXPECT_EQ(clock.Now(), 250u);
  clock.SleepUntil(10);  // in the past: no-op
  EXPECT_EQ(clock.Now(), 250u);
  clock.UnregisterActor();
}

TEST(VirtualClockTest, TwoActorsInterleaveDeterministically) {
  VirtualClock clock;
  std::mutex mu;
  std::vector<std::pair<int, Timestamp>> events;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      for (int i = 0; i < 3; ++i) {
        clock.SleepFor(100);
        std::lock_guard<std::mutex> lk(mu);
        events.push_back({1, clock.Now()});
      }
    });
    group.Spawn([&] {
      for (int i = 0; i < 2; ++i) {
        clock.SleepFor(150);
        std::lock_guard<std::mutex> lk(mu);
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
  std::mutex mu;
  bool ready = false;
  VirtualCondition cond(&clock);
  Timestamp waiter_wake_time = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      std::unique_lock<std::mutex> lk(mu);
      cond.Wait(lk, [&] { return ready; });
      waiter_wake_time = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(500);
      {
        std::lock_guard<std::mutex> lk(mu);
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
  clock.RegisterActor();
  std::mutex mu;
  VirtualCondition cond(&clock);
  std::unique_lock<std::mutex> lk(mu);
  cond.Wait(lk, [] { return true; });
  EXPECT_EQ(clock.Now(), 0u);
  lk.unlock();
  clock.UnregisterActor();
}

TEST(VirtualConditionTest, ManyWaitersAllWake) {
  VirtualClock clock;
  std::mutex mu;
  int released = 0;
  bool open = false;
  VirtualCondition cond(&clock);
  {
    ActorGroup group(&clock);
    for (int i = 0; i < 16; ++i) {
      group.Spawn([&] {
        std::unique_lock<std::mutex> lk(mu);
        cond.Wait(lk, [&] { return open; });
        released++;
      });
    }
    group.Spawn([&] {
      clock.SleepFor(1000);
      {
        std::lock_guard<std::mutex> lk(mu);
        open = true;
      }
      cond.NotifyAll();
    });
  }
  EXPECT_EQ(released, 16);
}

TEST(QueueingDeviceTest, SingleChannelSerializes) {
  VirtualClock clock;
  clock.RegisterActor();
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
  clock.UnregisterActor();
}

TEST(QueueingDeviceTest, MultiChannelOverlaps) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 2;
  p.base_latency = 100;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.Submit(0), 100u);
  EXPECT_EQ(dev.Submit(0), 100u);  // second channel
  EXPECT_EQ(dev.Submit(0), 200u);  // queues behind the first
  clock.UnregisterActor();
}

TEST(QueueingDeviceTest, BandwidthScalesWithBytes) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 10;
  p.ns_per_byte = 2.0;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.Submit(100), 10u + 200u);
  clock.UnregisterActor();
}

TEST(QueueingDeviceTest, AccessBlocksUntilCompletion) {
  VirtualClock clock;
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 500;
  QueueingDevice dev(&clock, "disk", p);
  Duration latency = dev.Access(0);
  EXPECT_EQ(latency, 500u);
  EXPECT_EQ(clock.Now(), 500u);
  clock.UnregisterActor();
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
  clock.RegisterActor();
  DeviceParams p;
  p.channels = 1;
  p.base_latency = 10;
  QueueingDevice dev(&clock, "disk", p);
  EXPECT_EQ(dev.SubmitAt(1000, 0), 1010u);
  clock.UnregisterActor();
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
  std::mutex mu;
  VirtualCondition cond(&clock);
  bool never = false;
  Timestamp woke_at = 0;
  bool result = true;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      std::unique_lock<std::mutex> lk(mu);
      result = cond.WaitUntil(lk, 1000, [&] { return never; });
      woke_at = clock.Now();
    });
    group.Spawn([&] { clock.SleepFor(5000); });  // keeps time flowing
  }
  EXPECT_FALSE(result);
  EXPECT_EQ(woke_at, 1000u);  // woke exactly at the deadline
}

TEST(VirtualConditionTest, WaitUntilWokenByNotifyBeforeDeadline) {
  VirtualClock clock;
  std::mutex mu;
  VirtualCondition cond(&clock);
  bool ready = false;
  bool result = false;
  Timestamp woke_at = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      std::unique_lock<std::mutex> lk(mu);
      result = cond.WaitUntil(lk, 1 * kSecond, [&] { return ready; });
      woke_at = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(200);
      {
        std::lock_guard<std::mutex> lk(mu);
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
  std::mutex mu;
  VirtualCondition cond(&clock);
  bool ready = false;
  Timestamp second_wake = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      {
        std::unique_lock<std::mutex> lk(mu);
        cond.WaitUntil(lk, 500, [&] { return ready; });  // woken at 100
      }
      clock.SleepFor(10000);  // must sleep the full span, not wake at 500
      second_wake = clock.Now();
    });
    group.Spawn([&] {
      clock.SleepFor(100);
      {
        std::lock_guard<std::mutex> lk(mu);
        ready = true;
      }
      cond.NotifyAll();
      clock.SleepFor(20000);  // keep an actor alive past the stale entry
    });
  }
  EXPECT_EQ(second_wake, 10100u);
}

TEST(VirtualClockTest, GuestMainCanSleepWithoutRegistering) {
  // A main that never registered (e.g. a test constructing a cluster) may
  // still block on the clock.
  VirtualClock clock;
  clock.SleepFor(1234);  // main is not a registered actor
  EXPECT_EQ(clock.Now(), 1234u);
}

TEST(VirtualConditionTest, TeardownNotifyFromNonActorWhilePollersExit) {
  // Regression for a teardown race: a non-actor stops a notification-driven
  // waiter while timer-driven actors are also exiting. The supported
  // protocol is "notify the parked waiter first, then release the pollers":
  // done in the opposite order, the last poller to exit would see
  // "everyone parked, no timers" and abort as a deadlock.
  for (int round = 0; round < 50; ++round) {
    VirtualClock clock;
    std::mutex mu;
    VirtualCondition cond(&clock, "teardown-test");
    bool stop = false;
    std::atomic<bool> poll_stop{false};
    int waiter_rounds = 0;
    ActorGroup group(&clock);
    group.Spawn([&] {  // notification-driven waiter (the flusher shape)
      std::unique_lock<std::mutex> lk(mu);
      cond.Wait(lk, [&] { return stop; });
      waiter_rounds++;
    });
    group.Spawn([&] {  // polling actor (the shipper shape)
      while (!poll_stop.load()) clock.SleepFor(kMillisecond);
    });
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cond.NotifyAll();        // lands while the poller still holds a timer
    poll_stop.store(true);   // only now release the poller
    group.JoinAll();
    EXPECT_EQ(waiter_rounds, 1);
  }
}

TEST(VirtualClockTest, JoinAllResumesAheadOfActorsReadyAtTheSameInstant) {
  // A registered actor's JoinAll resumes at the virtual instant its last
  // member exits, before another actor that became ready at that instant.
  VirtualClock clock;
  clock.RegisterActor();
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
  clock.UnregisterActor();
  const std::vector<std::pair<std::string, Timestamp>> expected = {
      {"member", 5000}, {"joiner", 5000}, {"other", 5000}};
  EXPECT_EQ(events, expected);
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

// A guest main (never registered) starts background actors and keeps
// working between its own sleeps; returns every (actor, virtual time)
// event in the order it happened.
std::vector<std::pair<int, Timestamp>> RunGuestMainWithBackground() {
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

TEST(VirtualClockTest, GuestMainWithBackgroundActorsRunsDeterministically) {
  const auto first = RunGuestMainWithBackground();
  const auto second = RunGuestMainWithBackground();
  EXPECT_GT(first.size(), 20u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace vedb::sim
