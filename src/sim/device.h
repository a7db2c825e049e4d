// Queueing device models. Every piece of simulated hardware (SSD, PMem DIMM,
// NIC, CPU pool) is a QueueingDevice: N service channels, a per-operation
// service-time function, and deterministic jitter. Saturation and latency
// growth under concurrency emerge from channel queueing rather than from
// hard-coded curves.

#ifndef VEDB_SIM_DEVICE_H_
#define VEDB_SIM_DEVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/clock.h"

namespace vedb::sim {

/// Parameters of one device's service-time distribution.
struct DeviceParams {
  /// Parallel service channels (SSD queue depth, PMem iMC channels, NIC
  /// processing units, CPU cores).
  int channels = 1;
  /// Fixed cost per operation, ns.
  Duration base_latency = 0;
  /// Transfer cost, ns per byte (1e9 / bytes_per_second).
  double ns_per_byte = 0.0;
  /// Mean of an exponential jitter term added to each operation, ns. Zero
  /// disables jitter.
  Duration jitter_mean = 0;
  /// Probability that an operation hits a latency spike (GC pause, kernel
  /// scheduling hiccup), and the spike magnitude.
  double spike_probability = 0.0;
  Duration spike_latency = 0;
  /// Seed for the device's private jitter PRNG.
  uint64_t seed = 1;
};

/// A shared hardware resource with queueing. Thread safe.
class QueueingDevice {
 public:
  QueueingDevice(VirtualClock* clock, std::string name,
                 const DeviceParams& params);

  /// Submits an operation transferring `bytes` (plus `extra_cost` of fixed
  /// work) and returns its completion timestamp without blocking. Use for
  /// fan-out I/O: submit to several devices, then SleepUntil(max of
  /// completions).
  Timestamp Submit(uint64_t bytes, Duration extra_cost = 0);

  /// Like Submit, but the operation cannot start before `earliest` (used to
  /// chain dependent operations across devices, e.g. NIC then media).
  /// When `queue_wait` is non-null it receives how long the operation sat
  /// waiting for a free channel (start - earliest) — observability callers
  /// use it to split queueing from wire/service time.
  Timestamp SubmitAt(Timestamp earliest, uint64_t bytes,
                     Duration extra_cost = 0, Duration* queue_wait = nullptr);

  /// Submits and blocks the calling actor until the operation completes.
  /// Returns the operation's latency.
  Duration Access(uint64_t bytes, Duration extra_cost = 0);

  /// Occupies a channel for exactly `cost` of service time (CPU-style work).
  Timestamp SubmitWork(Duration cost) { return Submit(0, cost); }
  Duration ExecuteWork(Duration cost) { return Access(0, cost); }

  const std::string& name() const { return name_; }
  const DeviceParams& params() const { return params_; }

  /// Total operations ever submitted (for tests/metrics).
  uint64_t op_count() const;

 private:
  Duration ServiceTimeLocked(uint64_t bytes, Duration extra_cost)
      REQUIRES(mu_);

  VirtualClock* clock_;
  std::string name_;
  DeviceParams params_;

  mutable Mutex mu_{"sim.device"};
  std::vector<Timestamp> busy_until_ GUARDED_BY(mu_);  // one per channel
  Random rng_ GUARDED_BY(mu_);
  uint64_t ops_ GUARDED_BY(mu_) = 0;
};

}  // namespace vedb::sim

#endif  // VEDB_SIM_DEVICE_H_
