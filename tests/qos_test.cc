// Deterministic tests for the per-tenant QoS admission stack: the GCRA
// token bucket, the grouped memory limiter, and the AdmissionController
// that stitches them into the AStore client path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "qos/admission.h"
#include "qos/memory_limiter.h"
#include "qos/token_bucket.h"
#include "sim/clock.h"

namespace vedb::qos {
namespace {

TEST(TokenBucketTest, FullBucketGrantsBurstInstantly) {
  sim::VirtualClock clock;
  TokenBucket bucket(&clock, {/*rate=*/1 * kMiB, /*burst=*/64 * kKiB});
  EXPECT_EQ(bucket.TokensAvailable(), 64 * kKiB);
  // The whole burst conforms immediately...
  EXPECT_EQ(bucket.Acquire(64 * kKiB), clock.Now());
  EXPECT_EQ(bucket.TokensAvailable(), 0u);
  // ...but the next byte must wait out the debt.
  EXPECT_GT(bucket.Acquire(1 * kKiB), clock.Now());
}

TEST(TokenBucketTest, IdleBucketRecoversAtConfiguredRate) {
  sim::VirtualClock clock;
  TokenBucket bucket(&clock, {/*rate=*/1 * kMiB, /*burst=*/64 * kKiB});
  bucket.Acquire(64 * kKiB);
  EXPECT_EQ(bucket.TokensAvailable(), 0u);
  // 32 KiB at 1 MiB/s = 31.25 virtual ms; half the burst is back.
  clock.SleepFor(32 * kKiB * kSecond / (1 * kMiB));
  EXPECT_EQ(bucket.TokensAvailable(), 32 * kKiB);
  // A long idle period refills to exactly the burst, never beyond.
  clock.SleepFor(10 * kSecond);
  EXPECT_EQ(bucket.TokensAvailable(), 64 * kKiB);
}

TEST(TokenBucketTest, OversizedRequestPaysWithDebtNotDeadlock) {
  sim::VirtualClock clock;
  TokenBucket bucket(&clock, {/*rate=*/1 * kMiB, /*burst=*/16 * kKiB});
  // Four times the burst: legal, just amortized at the configured rate.
  const Timestamp ready = bucket.Acquire(64 * kKiB);
  EXPECT_GT(ready, clock.Now());
  // The wait equals the non-burst excess at 1 MiB/s (48 KiB worth).
  EXPECT_EQ(ready - clock.Now(), 48 * kKiB * kSecond / (1 * kMiB));
}

TEST(TokenBucketTest, UnlimitedBucketNeverDelays) {
  sim::VirtualClock clock;
  TokenBucket bucket(&clock, {/*rate=*/0, /*burst=*/1});
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(bucket.Acquire(100 * kMiB), clock.Now());
  }
}

TEST(TokenBucketTest, GrantScheduleIsDeterministic) {
  auto run = [] {
    sim::VirtualClock clock;
    TokenBucket bucket(&clock, {/*rate=*/2 * kMiB, /*burst=*/32 * kKiB});
    std::vector<Timestamp> grants;
    for (int i = 0; i < 32; ++i) {
      const Timestamp ready = bucket.Acquire((i % 5 + 1) * 4 * kKiB);
      grants.push_back(ready);
      clock.SleepUntil(ready);
    }
    return grants;
  };
  EXPECT_EQ(run(), run());
}

TEST(MemoryLimiterTest, UnknownGroupAndNeverFitRequestsFailFast) {
  sim::VirtualClock clock;
  GroupedMemoryLimiter limiter(&clock, {/*total=*/1 * kMiB});
  limiter.RegisterGroup("a", 256 * kKiB);
  EXPECT_TRUE(limiter.Acquire("ghost", 1).IsInvalidArgument());
  // Over the group cap and over the shared total: would park forever.
  EXPECT_TRUE(limiter.Acquire("a", 512 * kKiB).IsInvalidArgument());
  limiter.RegisterGroup("b", 0);  // bounded only by the total
  EXPECT_TRUE(limiter.Acquire("b", 2 * kMiB).IsInvalidArgument());
}

TEST(MemoryLimiterTest, AcquireBlocksUntilReleaseUnderGroupCap) {
  sim::VirtualClock clock;
  GroupedMemoryLimiter limiter(&clock, {/*total=*/1 * kMiB});
  limiter.RegisterGroup("a", 256 * kKiB);

  Timestamp granted_at = 0;
  Timestamp released_at = 0;
  {
    sim::ActorGroup group(&clock);
    group.Spawn([&] {
      ASSERT_TRUE(limiter.Acquire("a", 200 * kKiB).ok());
      clock.SleepFor(5 * kMillisecond);
      released_at = clock.Now();
      limiter.Release("a", 200 * kKiB);
    });
    group.Spawn([&] {
      clock.SleepFor(1 * kMillisecond);  // let the first actor get in
      // 200 + 100 > 256 KiB: must wait for the release.
      ASSERT_TRUE(limiter.Acquire("a", 100 * kKiB).ok());
      granted_at = clock.Now();
      limiter.Release("a", 100 * kKiB);
    });
  }
  EXPECT_GE(granted_at, released_at);
  EXPECT_EQ(limiter.TotalInflightBytes(), 0u);
  EXPECT_EQ(limiter.InflightBytes("a"), 0u);
}

TEST(MemoryLimiterTest, GroupsOnlyContendOnTheSharedTotal) {
  sim::VirtualClock clock;
  GroupedMemoryLimiter limiter(&clock, {/*total=*/1 * kMiB});
  limiter.RegisterGroup("a", 256 * kKiB);
  limiter.RegisterGroup("b", 256 * kKiB);

  Timestamp b_granted_at = 0;
  {
    sim::ActorGroup group(&clock);
    group.Spawn([&] {
      // Saturate a's own cap; the shared pool has plenty left.
      ASSERT_TRUE(limiter.Acquire("a", 256 * kKiB).ok());
      clock.SleepFor(10 * kMillisecond);
      limiter.Release("a", 256 * kKiB);
    });
    group.Spawn([&] {
      clock.SleepFor(1 * kMillisecond);
      const Timestamp before = clock.Now();
      // b does not queue behind a's cap.
      ASSERT_TRUE(limiter.Acquire("b", 256 * kKiB).ok());
      b_granted_at = clock.Now();
      EXPECT_EQ(b_granted_at, before);
      limiter.Release("b", 256 * kKiB);
    });
  }
  EXPECT_GT(b_granted_at, 0u);
  EXPECT_EQ(limiter.TotalInflightBytes(), 0u);
}

TEST(MemoryLimiterTest, FifoWithinGroupLargeRequestIsNotStarved) {
  sim::VirtualClock clock;
  GroupedMemoryLimiter limiter(&clock, {/*total=*/256 * kKiB});
  limiter.RegisterGroup("a", 0);

  std::vector<int> grant_order;
  vedb::Mutex order_mu("test.order");
  {
    sim::ActorGroup group(&clock);
    group.Spawn([&] {  // holder
      ASSERT_TRUE(limiter.Acquire("a", 200 * kKiB).ok());
      clock.SleepFor(10 * kMillisecond);
      limiter.Release("a", 200 * kKiB);
    });
    group.Spawn([&] {  // big request, parks first
      clock.SleepFor(1 * kMillisecond);
      ASSERT_TRUE(limiter.Acquire("a", 128 * kKiB).ok());
      {
        vedb::MutexLock lk(&order_mu);
        grant_order.push_back(1);
      }
      clock.SleepFor(5 * kMillisecond);
      limiter.Release("a", 128 * kKiB);
    });
    group.Spawn([&] {  // small latecomer would fit, but FIFO holds it back
      clock.SleepFor(2 * kMillisecond);
      ASSERT_TRUE(limiter.Acquire("a", 8 * kKiB).ok());
      {
        vedb::MutexLock lk(&order_mu);
        grant_order.push_back(2);
      }
      limiter.Release("a", 8 * kKiB);
    });
  }
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], 1);
  EXPECT_EQ(grant_order[1], 2);
}

TEST(AdmissionTest, FloodedTenantThrottlesWhileNeighborStaysClean) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  sim::VirtualClock clock;
  AdmissionController adm(&clock);
  TenantConfig flooded;
  flooded.rate_bytes_per_sec = 1 * kMiB;
  flooded.burst_bytes = 16 * kKiB;
  TenantConfig calm;
  calm.rate_bytes_per_sec = 8 * kMiB;
  calm.burst_bytes = 256 * kKiB;
  ASSERT_TRUE(adm.RegisterTenant("a", flooded).ok());
  ASSERT_TRUE(adm.RegisterTenant("b", calm).ok());
  EXPECT_TRUE(adm.RegisterTenant("a", flooded).IsAlreadyExists());

  for (int i = 0; i < 20; ++i) {
    auto ra = adm.Admit("a", 32 * kKiB);  // 32 KiB back-to-back >> 1 MiB/s
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    auto rb = adm.Admit("b", 4 * kKiB);  // well under b's rate
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    clock.SleepFor(1 * kMillisecond);
  }
  EXPECT_GT(adm.ThrottleCount("a"), 0u);
  EXPECT_EQ(adm.ThrottleCount("b"), 0u);
  EXPECT_EQ(adm.InflightBytes("a"), 0u);  // tickets all released
  EXPECT_EQ(adm.InflightBytes("b"), 0u);
}

TEST(AdmissionTest, TicketReleasesInflightBytesOnDestruction) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  sim::VirtualClock clock;
  AdmissionController adm(&clock);
  ASSERT_TRUE(adm.RegisterTenant("t", TenantConfig{}).ok());
  {
    auto r = adm.Admit("t", 64 * kKiB);
    ASSERT_TRUE(r.ok());
    Ticket ticket = std::move(r).value();
    EXPECT_TRUE(ticket.active());
    EXPECT_EQ(adm.InflightBytes("t"), 64 * kKiB);
    // Move keeps exactly one live claim.
    Ticket moved = std::move(ticket);
    EXPECT_FALSE(ticket.active());
    EXPECT_EQ(adm.InflightBytes("t"), 64 * kKiB);
    moved.Release();
    moved.Release();  // idempotent
    EXPECT_EQ(adm.InflightBytes("t"), 0u);
  }
  EXPECT_EQ(adm.InflightBytes("t"), 0u);
  EXPECT_TRUE(adm.Admit("ghost", 1).status().IsInvalidArgument());
}

TEST(AdmissionTest, ThrottleDecisionsAreDeterministic) {
  auto run = [] {
    obs::MetricsRegistry::Default().RemoveAllForTesting();
    sim::VirtualClock clock;
    AdmissionController adm(&clock);
    TenantConfig cfg;
    cfg.rate_bytes_per_sec = 2 * kMiB;
    cfg.burst_bytes = 32 * kKiB;
    EXPECT_TRUE(adm.RegisterTenant("t", cfg).ok());
    std::vector<Timestamp> admits;
    for (int i = 0; i < 24; ++i) {
      auto r = adm.Admit("t", (i % 3 + 1) * 8 * kKiB);
      EXPECT_TRUE(r.ok());
      admits.push_back(clock.Now());
    }
    const uint64_t throttles = adm.ThrottleCount("t");
    return std::make_pair(admits, throttles);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace vedb::qos
