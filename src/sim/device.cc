#include "sim/device.h"

#include <algorithm>

#include "common/logging.h"

namespace vedb::sim {

QueueingDevice::QueueingDevice(VirtualClock* clock, std::string name,
                               const DeviceParams& params)
    : clock_(clock),
      name_(std::move(name)),
      params_(params),
      rng_(params.seed) {
  VEDB_CHECK(params.channels > 0, "device %s needs >= 1 channel",
             name_.c_str());
  busy_until_.assign(params.channels, 0);
}

Duration QueueingDevice::ServiceTimeLocked(uint64_t bytes,
                                           Duration extra_cost) {
  Duration t = params_.base_latency + extra_cost +
               static_cast<Duration>(bytes * params_.ns_per_byte);
  if (params_.jitter_mean > 0) {
    t += static_cast<Duration>(
        rng_.Exponential(static_cast<double>(params_.jitter_mean)));
  }
  if (params_.spike_probability > 0 &&
      rng_.Bernoulli(params_.spike_probability)) {
    t += params_.spike_latency;
  }
  return t;
}

Timestamp QueueingDevice::Submit(uint64_t bytes, Duration extra_cost) {
  return SubmitAt(clock_->Now(), bytes, extra_cost);
}

Timestamp QueueingDevice::SubmitAt(Timestamp earliest, uint64_t bytes,
                                   Duration extra_cost, Duration* queue_wait) {
  MutexLock lk(&mu_);
  ops_++;
  // Pick the channel that frees up first.
  auto it = std::min_element(busy_until_.begin(), busy_until_.end());
  const Timestamp start = std::max(earliest, *it);
  const Timestamp done = start + ServiceTimeLocked(bytes, extra_cost);
  *it = done;
  if (queue_wait != nullptr) *queue_wait = start - earliest;
  return done;
}

Duration QueueingDevice::Access(uint64_t bytes, Duration extra_cost) {
  const Timestamp begin = clock_->Now();
  const Timestamp done = Submit(bytes, extra_cost);
  clock_->SleepUntil(done);
  return done - begin;
}

uint64_t QueueingDevice::op_count() const {
  MutexLock lk(&mu_);
  return ops_;
}

}  // namespace vedb::sim
