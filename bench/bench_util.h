// Shared helpers for the figure/table reproduction benches: canonical
// cluster configurations (scaled versions of Table I), console table
// printing, and metrics-registry snapshot/export plumbing (obs/export.h).

#ifndef VEDB_BENCH_BENCH_UTIL_H_
#define VEDB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "engine/types.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/env.h"
#include "workload/cluster.h"

namespace vedb::bench {

/// Cluster preset approximating Table I, scaled for simulation. `astore`
/// selects the PMem log backend; `ebp_capacity` of 0 disables the EBP.
inline workload::ClusterOptions MakeClusterOptions(bool astore_log,
                                                   uint64_t ebp_capacity,
                                                   uint64_t seed = 2023) {
  workload::ClusterOptions opts;
  opts.seed = seed;
  opts.use_astore_log = astore_log;
  opts.enable_ebp = ebp_capacity > 0;
  opts.astore_server.pmem_capacity = 192 * kMiB;
  opts.astore_log.ring.segment_size = 1 * kMiB;
  opts.astore_log.ring.ring_size = 10;
  opts.ebp.capacity = ebp_capacity;
  opts.ebp.segment_size = 2 * kMiB;
  return opts;
}

inline void PrintHeader(const std::string& title) {
  printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    printf("%-*s", width, cell.c_str());
  }
  printf("\n");
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Parses the optional "ops"/"scale" first CLI argument benches take so CI
/// can run them short and deterministic; falls back to `def` (and clamps to
/// >= 1) on absence or garbage.
inline int ArgInt(int argc, char** argv, int def) {
  if (argc < 2) return def;
  const int v = atoi(argv[1]);
  return v >= 1 ? v : def;
}

/// Reports a failed query run on stderr and returns false for it. The
/// query benches exit nonzero when any run, warm-up included, fails.
inline bool QueryOk(int q, const Status& s) {
  if (s.ok()) return true;
  fprintf(stderr, "Q%d failed: %s\n", q, s.ToString().c_str());
  return false;
}

/// A query answer's oracle: its row count and the CRC32C of its rows'
/// EncodeRow bytes, sorted, so row order does not matter. Each double is
/// first rounded to 9 significant digits: pushed-down partial sums add in
/// another order than a local aggregation, which moves the last bits.
struct Answer {
  size_t rows = 0;
  uint32_t digest = 0;

  bool operator==(const Answer&) const = default;
  /// The JSON fields "<prefix>_rows" and "<prefix>_digest", each after a
  /// comma.
  std::string ToJson(const std::string& prefix) const {
    return ",\"" + prefix + "_rows\":" + std::to_string(rows) + ",\"" +
           prefix + "_digest\":" + std::to_string(digest);
  }
};

inline Answer AnswerOf(const std::vector<engine::Row>& rows) {
  std::vector<std::string> encoded(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    engine::Row rounded = rows[i];
    for (engine::Value& v : rounded) {
      if (!v.is_double()) continue;
      char buf[32];
      snprintf(buf, sizeof(buf), "%.9g", v.AsDouble());
      const double d = strtod(buf, nullptr);
      v = engine::Value(d == 0 ? 0.0 : d);  // -0.0 and 0.0 alike
    }
    engine::EncodeRow(rounded, &encoded[i]);
  }
  std::sort(encoded.begin(), encoded.end());
  uint32_t crc = 0;
  for (const std::string& e : encoded) crc = Crc32c(crc, e.data(), e.size());
  return {rows.size(), crc};
}

/// Returns whether every configuration (named by `configs`, one per entry
/// of `answers`) gave query `q` the same answer; reports on stderr when not.
inline bool AnswersAgree(const char* bench, int q,
                         const std::vector<std::string>& configs,
                         const std::vector<Answer>& answers) {
  bool agree = true;
  for (const Answer& a : answers) agree &= a == answers[0];
  if (agree) return true;
  fprintf(stderr, "%s: Q%d answers differ:", bench, q);
  for (size_t c = 0; c < answers.size(); ++c) {
    fprintf(stderr, " %s %zu rows/%08x", configs[c].c_str(), answers[c].rows,
            answers[c].digest);
  }
  fprintf(stderr, "\n");
  return false;
}

/// Snapshots the default metrics registry at the cluster's current virtual
/// time under `run_label`, then zeroes every metric value so the next
/// configuration of a multi-config bench starts from a clean registry.
/// Call while the cluster (and its clock) is still alive.
inline obs::Snapshot CollectRunSnapshot(sim::SimEnvironment* env,
                                        const std::string& run_label) {
  obs::Snapshot snap = obs::CollectSnapshot(
      obs::MetricsRegistry::Default(), env->clock()->Now(), run_label);
  obs::MetricsRegistry::Default().ResetValues();
  return snap;
}

/// Histogram-sample accessors in milliseconds (0 when the sample is absent
/// or empty) — benches report from the registry, not private histograms.
inline double AvgMs(const obs::Snapshot::HistogramSample* h) {
  if (h == nullptr || h->count == 0) return 0.0;
  return static_cast<double>(h->sum) / static_cast<double>(h->count) / 1e6;
}
inline double P95Ms(const obs::Snapshot::HistogramSample* h) {
  return h == nullptr ? 0.0 : static_cast<double>(h->p95) / 1e6;
}
inline double P99Ms(const obs::Snapshot::HistogramSample* h) {
  return h == nullptr ? 0.0 : static_cast<double>(h->p99) / 1e6;
}

/// Assembles the standard bench results document: a JSON object wrapping
/// per-configuration registry snapshots plus optional extra fields, written
/// to results/<filename>. Extras must already be valid JSON fragments of
/// the form "\"key\": value".
inline Status WriteBenchResults(const std::string& bench_name,
                                const std::string& filename,
                                const std::vector<obs::Snapshot>& configs,
                                const std::vector<std::string>& extras = {}) {
  std::string out = "{\"bench\":\"" + bench_name + "\",";
  out += "\"schema_version\":" + std::to_string(obs::Snapshot::kSchemaVersion);
  for (const std::string& extra : extras) {
    out += ",";
    out += extra;
  }
  out += ",\"configs\":[";
  for (size_t i = 0; i < configs.size(); ++i) {
    if (i > 0) out += ",";
    out += configs[i].ToJson();
  }
  out += "]}";
  return obs::WriteResultsFile("results", filename, out);
}

}  // namespace vedb::bench

#endif  // VEDB_BENCH_BENCH_UTIL_H_
