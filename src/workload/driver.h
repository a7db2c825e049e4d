// Closed-loop multi-client benchmark driver: N client actors each run a
// transaction function back-to-back for a fixed span of virtual time;
// latencies and throughput are measured in virtual time, so runs are fast
// in wall-clock terms and deterministic in shape.

#ifndef VEDB_WORKLOAD_DRIVER_H_
#define VEDB_WORKLOAD_DRIVER_H_

#include <atomic>
#include <functional>
#include <string>

#include "common/histogram.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "sim/env.h"

namespace vedb::workload {

struct LoadResult {
  uint64_t operations = 0;
  uint64_t errors = 0;
  Duration elapsed = 0;
  Histogram latency;  // nanoseconds

  double Throughput() const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(operations) /
                              (static_cast<double>(elapsed) / kSecond);
  }
};

/// Runs `clients` concurrent actors, each looping `op(client_id)` until
/// `duration` of virtual time passes (after `warmup`). Caller must NOT be a
/// registered actor busy elsewhere; this call blocks until the run ends.
inline LoadResult RunClosedLoop(
    sim::SimEnvironment* env, int clients, Duration warmup, Duration duration,
    const std::function<Status(int client)>& op) {
  LoadResult result;
  vedb::Mutex merge_mu{"workload.merge"};
  const Timestamp t0 = env->clock()->Now();
  const Timestamp measure_start = t0 + warmup;
  const Timestamp end = measure_start + duration;
  {
    sim::ActorGroup group(env->clock());
    for (int i = 0; i < clients; ++i) {
      group.Spawn([&, i] {
        Histogram local;
        uint64_t ops = 0, errors = 0;
        while (env->clock()->Now() < end) {
          const Timestamp begin = env->clock()->Now();
          const Status s = op(i);
          const Timestamp finish = env->clock()->Now();
          // Only ops that BEGAN inside the measurement window count. The
          // old `finish < measure_start` test admitted the op straddling
          // the warm-up boundary, crediting its warm-up time to the
          // measured window and skewing the latency tail.
          if (begin < measure_start) continue;  // warmup
          if (s.ok()) {
            ops++;
            local.Add(finish - begin);
          } else {
            errors++;
          }
        }
        vedb::MutexLock lk(&merge_mu);
        result.operations += ops;
        result.errors += errors;
        result.latency.Merge(local);
      });
    }
  }
  result.elapsed = duration;

  // Mirror the run into the metrics registry so benches can export it
  // alongside the per-module metrics (see obs/export.h).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("workload.operations")->Add(result.operations);
  reg.GetCounter("workload.errors")->Add(result.errors);
  reg.GetHistogram("workload.txn_latency_ns")->Merge(result.latency);
  return result;
}

}  // namespace vedb::workload

#endif  // VEDB_WORKLOAD_DRIVER_H_
