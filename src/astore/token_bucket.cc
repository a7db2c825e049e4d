#include "astore/token_bucket.h"

#include <algorithm>

namespace vedb::astore {

Timestamp TokenBucket::Acquire(uint64_t bytes) {
  const Timestamp now = clock_->Now();
  if (options_.rate_bytes_per_sec == 0) return now;
  const Duration burst_ns = CostNs(options_.burst_bytes);
  vedb::MutexLock lk(&mu_);
  // An idle bucket's tat decays toward now (it never banks more credit
  // than the burst allows, because the grant below is measured against
  // now - burst_ns, not against tat alone).
  const Timestamp base = std::max(tat_, now > burst_ns ? now - burst_ns : 0);
  tat_ = base + CostNs(bytes);
  // Conforming while tat stays within one burst of now; beyond that the
  // caller owes the overshoot.
  return tat_ > now + burst_ns ? tat_ - burst_ns : now;
}

uint64_t TokenBucket::TokensAvailable() const {
  if (options_.rate_bytes_per_sec == 0) return options_.burst_bytes;
  const Timestamp now = clock_->Now();
  vedb::MutexLock lk(&mu_);
  if (tat_ <= now) return options_.burst_bytes;  // fully recovered
  const uint64_t debt =
      (tat_ - now) * options_.rate_bytes_per_sec / kSecond;
  return debt >= options_.burst_bytes ? 0 : options_.burst_bytes - debt;
}

}  // namespace vedb::astore
