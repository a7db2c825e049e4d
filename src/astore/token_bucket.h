// Deterministic token-bucket rate limiter on the virtual clock; it paces
// the scrubber's background reads.
//
// The bucket is a GCRA-style meter: instead of a periodically refilled
// counter it tracks a single "theoretical arrival time" (the virtual instant
// at which all previously granted bytes are amortized at the configured
// rate). Acquire() never rejects — it returns the virtual time at which the
// grant conforms, and the caller sleeps until then. Because the state is one
// integer advanced by integer arithmetic on virtual timestamps, two seeded
// runs make byte-identical throttling decisions; there is no background
// refill actor and no floating-point drift.
//
// A request larger than the burst is legal: it simply pays for the excess
// with a proportionally later ready time (debt model), so oversized but
// bounded appends degrade to their fair rate instead of deadlocking.

#ifndef VEDB_ASTORE_TOKEN_BUCKET_H_
#define VEDB_ASTORE_TOKEN_BUCKET_H_

#include <cstdint>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/clock.h"

namespace vedb::astore {

class TokenBucket {
 public:
  struct Options {
    /// Sustained rate. 0 means unlimited (Acquire always grants now).
    uint64_t rate_bytes_per_sec = 0;
    /// Tokens that may be consumed instantaneously from a full bucket.
    uint64_t burst_bytes = 256 * kKiB;
  };

  TokenBucket(sim::VirtualClock* clock, const Options& options)
      : clock_(clock), options_(options) {}

  /// Grants `bytes` tokens and returns the virtual time at which the grant
  /// conforms to the configured rate: `now` when the bucket covers it, a
  /// later instant otherwise. The caller must SleepUntil() the returned
  /// time before proceeding; the debt is recorded either way, so callers
  /// that race Acquire() serialize deterministically through the clock.
  Timestamp Acquire(uint64_t bytes);

  /// Tokens currently available (burst minus outstanding debt). Never
  /// negative; a bucket deep in debt reads 0.
  uint64_t TokensAvailable() const;

 private:
  Duration CostNs(uint64_t bytes) const {
    return bytes * kSecond / options_.rate_bytes_per_sec;
  }

  sim::VirtualClock* clock_;
  const Options options_;

  mutable vedb::Mutex mu_{"astore.token_bucket"};
  /// Virtual time at which every granted byte is amortized at `rate`. The
  /// bucket may run up to burst_ns ahead of now (burst credit); a grant
  /// whose tat exceeds now + burst_ns must wait for the overshoot.
  Timestamp tat_ GUARDED_BY(mu_) = 0;
};

}  // namespace vedb::astore

#endif  // VEDB_ASTORE_TOKEN_BUCKET_H_
