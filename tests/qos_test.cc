// Deterministic tests for the GCRA token bucket that paces the AStore
// scrubber's background reads.

#include <gtest/gtest.h>

#include <vector>

#include "astore/token_bucket.h"
#include "common/units.h"
#include "sim/clock.h"

namespace vedb::astore {
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

}  // namespace
}  // namespace vedb::astore
