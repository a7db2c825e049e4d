// Tests for the deterministic happens-before race detector.
//
// The point under test is determinism: a pair of actors with unordered
// accesses must be reported on EVERY run with any seed/interleaving, and a
// properly synchronized pair must never be. These tests are the "negative
// guard" of the analysis layer — if the clock hooks or the lock edges are
// removed from the sim runtime, they fail loudly.

#include <gtest/gtest.h>

#include <string>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/clock.h"
#include "sim/race_detector.h"

namespace vedb::sim {
namespace {

/// RAII enable/disable so a failing assertion cannot leak a globally
/// enabled detector into later tests.
struct ScopedDetector {
  ScopedDetector() { RaceDetector::Enable(); }
  ~ScopedDetector() { RaceDetector::Disable(); }
};

TEST(RaceDetectorTest, UnsynchronizedActorPairIsReportedDeterministically) {
  // Run the identical racy program several times: the report must appear on
  // every run, not just on unlucky interleavings.
  for (int run = 0; run < 5; ++run) {
    VirtualClock clock;
    ScopedDetector det;
    int shared = 0;
    {
      ActorGroup group(&clock);
      group.Spawn([&] {
        shared = 1;
        RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "actor-a");
      });
      group.Spawn([&] {
        shared = 2;
        RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "actor-b");
      });
      group.JoinAll();
    }
    EXPECT_GE(RaceDetector::Instance().race_count(), 1u)
        << "racy pair not reported on run " << run;
    const auto reports = RaceDetector::Instance().reports();
    ASSERT_FALSE(reports.empty());
    EXPECT_EQ(reports[0].addr, &shared);
    EXPECT_TRUE(reports[0].second_is_write);
    EXPECT_TRUE(reports[0].first_is_write);
  }
}

TEST(RaceDetectorTest, ReadWriteRaceIsReported) {
  VirtualClock clock;
  ScopedDetector det;
  int shared = 0;
  int observed = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      shared = 1;
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "writer");
    });
    group.Spawn([&] {
      observed = shared;
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/false, "reader");
    });
    group.JoinAll();
  }
  (void)observed;
  EXPECT_GE(RaceDetector::Instance().race_count(), 1u);
}

TEST(RaceDetectorTest, MutexSynchronizedPairIsClean) {
  for (int run = 0; run < 5; ++run) {
    VirtualClock clock;
    ScopedDetector det;
    vedb::Mutex mu("test.shared");
    int shared = 0;
    {
      ActorGroup group(&clock);
      group.Spawn([&] {
        vedb::MutexLock lk(&mu);
        shared = 1;
        RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "actor-a");
      });
      group.Spawn([&] {
        vedb::MutexLock lk(&mu);
        shared = 2;
        RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "actor-b");
      });
      group.JoinAll();
    }
    EXPECT_EQ(RaceDetector::Instance().race_count(), 0u)
        << "false positive on run " << run;
  }
}

TEST(RaceDetectorTest, VirtualClockHandOffOrdersAccesses) {
  // Actor B only touches the shared value after sleeping past A's write.
  // The block/wake hand-off through the virtual clock is a real
  // happens-before edge in the sim (the clock only advances once A has
  // finished its slice), and the detector must model it: no report.
  VirtualClock clock;
  ScopedDetector det;
  int shared = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      shared = 1;
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "early");
      clock.SleepFor(10 * kMillisecond);
    });
    group.Spawn([&] {
      clock.SleepFor(50 * kMillisecond);  // wakes strictly after A's write
      shared = 2;
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "late");
    });
    group.JoinAll();
  }
  EXPECT_EQ(RaceDetector::Instance().race_count(), 0u);
}

TEST(RaceDetectorTest, ForkEdgeOrdersSpawnerBeforeChild) {
  VirtualClock clock;
  ScopedDetector det;
  clock.RegisterActor();
  int shared = 0;
  shared = 1;
  RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "spawner");
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      shared = 2;  // ordered after the spawner's write by the fork edge
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "child");
    });
    group.JoinAll();
  }
  clock.UnregisterActor();
  EXPECT_EQ(RaceDetector::Instance().race_count(), 0u);
}

TEST(RaceDetectorTest, CondvarNotifyWakeIsAHappensBeforeEdge) {
  // Producer publishes `shared` and flips `ready` under the annotated
  // mutex; the consumer blocks in the vedb::Mutex Wait overload and writes
  // `shared` after waking. The notify→wake edge (CondNotifyRelease /
  // CondWakeAcquire, fired from inside VirtualCondition) plus the lock
  // edges must order the two writes: no report.
  VirtualClock clock;
  ScopedDetector det;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  bool ready = false;
  int shared = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      clock.SleepFor(5 * kMillisecond);  // let the consumer block first
      {
        vedb::MutexLock lk(&mu);
        shared = 1;
        RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "producer");
        ready = true;
      }
      cond.NotifyAll();
    });
    group.Spawn([&] {
      vedb::MutexLock lk(&mu);
      cond.Wait(&mu, [&] { return ready; });
      shared = 2;
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "consumer");
    });
    group.JoinAll();
  }
  EXPECT_EQ(RaceDetector::Instance().race_count(), 0u);
}

TEST(RaceDetectorTest, CondvarTimeoutStillHoldsLockOnReturn) {
  // WaitUntil's timeout path must re-acquire the mutex before returning,
  // so a guarded write right after a timed-out wait is still ordered
  // against other critical sections. Also pins the return value: false on
  // timeout, with the predicate still unsatisfied.
  VirtualClock clock;
  ScopedDetector det;
  vedb::Mutex mu("test.cond");
  VirtualCondition cond(&clock);
  bool ready = false;  // never set: every wait times out
  int shared = 0;
  {
    ActorGroup group(&clock);
    group.Spawn([&] {
      vedb::MutexLock lk(&mu);
      bool ok = cond.WaitUntil(&mu, clock.Now() + 10 * kMillisecond,
                               [&] { return ready; });
      EXPECT_FALSE(ok);
      shared = 1;  // legal: the lock is held again after the timeout
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "timed-out");
    });
    group.Spawn([&] {
      clock.SleepFor(50 * kMillisecond);  // strictly after the timeout
      vedb::MutexLock lk(&mu);
      shared = 2;
      RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "late");
    });
    group.JoinAll();
  }
  EXPECT_EQ(RaceDetector::Instance().race_count(), 0u);
}

TEST(RaceDetectorTest, DisabledDetectorRecordsNothing) {
  ASSERT_FALSE(RaceDetector::IsEnabled());
  int shared = 0;
  RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "off");
  RaceAnnotate(&shared, sizeof(shared), /*is_write=*/true, "off");
  RaceDetector::Enable();
  const uint64_t count = RaceDetector::Instance().race_count();
  RaceDetector::Disable();
  EXPECT_EQ(count, 0u);  // Enable() resets; pre-enable accesses are unseen
}

}  // namespace
}  // namespace vedb::sim
