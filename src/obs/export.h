// obs::Snapshot — a point-in-time, deterministic export of a
// MetricsRegistry. Samples are sorted by (name, labels) and numbers are
// formatted with fixed printf specifiers, so two identical seeded runs
// serialize to byte-identical JSON. Benches dump snapshots into
// results/ and CI validates the schema (scripts/check_bench_schema.py).

#ifndef VEDB_OBS_EXPORT_H_
#define VEDB_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace vedb::obs {

struct Snapshot {
  /// Bumped whenever the serialized layout changes; the CI schema check
  /// fails on drift.
  static constexpr int kSchemaVersion = 1;

  /// Virtual time at collection (ns since simulation start).
  Timestamp virtual_time_ns = 0;
  /// Free-form run identifier, e.g. "table2/pmem".
  std::string run_label;

  struct CounterSample {
    std::string name;
    LabelSet labels;
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    LabelSet labels;
    int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    LabelSet labels;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };

  // Each sorted by (name, labels).
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  std::string ToJson() const;

  /// Convenience lookups (nullptr when absent). Labels must already be
  /// canonical (sorted by key).
  const CounterSample* FindCounter(const std::string& name,
                                   const LabelSet& labels = {}) const;
  const GaugeSample* FindGauge(const std::string& name,
                               const LabelSet& labels = {}) const;
  const HistogramSample* FindHistogram(const std::string& name,
                                       const LabelSet& labels = {}) const;
};

/// Collects every metric in `registry` at virtual time `now`.
Snapshot CollectSnapshot(const MetricsRegistry& registry, Timestamp now,
                         std::string run_label = "");

/// Creates `dir` (one level) if it does not exist and writes `contents` to
/// dir/filename. Used by benches for results/ exports.
Status WriteResultsFile(const std::string& dir, const std::string& filename,
                        const std::string& contents);

}  // namespace vedb::obs

#endif  // VEDB_OBS_EXPORT_H_
