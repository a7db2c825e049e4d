#include "obs/export.h"

#include <sys/stat.h>

#include <cstdio>
#include <utility>

namespace vedb::obs {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendLabels(std::string* out, const LabelSet& labels) {
  *out += "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ",";
    first = false;
    *out += "\"";
    AppendEscaped(out, k);
    *out += "\":\"";
    AppendEscaped(out, v);
    *out += "\"";
  }
  *out += "}";
}

void AppendU64Field(std::string* out, const char* key, uint64_t v,
                    bool trailing_comma = true) {
  char buf[64];
  snprintf(buf, sizeof(buf), "\"%s\":%llu%s", key,
           static_cast<unsigned long long>(v), trailing_comma ? "," : "");
  *out += buf;
}

}  // namespace

Snapshot CollectSnapshot(const MetricsRegistry& registry, Timestamp now,
                         std::string run_label) {
  Snapshot snap;
  snap.virtual_time_ns = now;
  snap.run_label = std::move(run_label);
  registry.VisitCounters([&](const std::string& name, const LabelSet& labels,
                             uint64_t value) {
    snap.counters.push_back({name, labels, value});
  });
  registry.VisitGauges([&](const std::string& name, const LabelSet& labels,
                           int64_t value) {
    snap.gauges.push_back({name, labels, value});
  });
  registry.VisitHistograms([&](const std::string& name, const LabelSet& labels,
                               const Histogram& hist) {
    Snapshot::HistogramSample s;
    s.name = name;
    s.labels = labels;
    s.count = hist.count();
    s.sum = static_cast<uint64_t>(hist.Average() * hist.count() + 0.5);
    s.min = hist.min();
    s.max = hist.max();
    s.p50 = hist.P50();
    s.p95 = hist.P95();
    s.p99 = hist.P99();
    snap.histograms.push_back(std::move(s));
  });
  return snap;
}

std::string Snapshot::ToJson() const {
  std::string out = "{";
  AppendU64Field(&out, "schema_version", kSchemaVersion);
  AppendU64Field(&out, "virtual_time_ns", virtual_time_ns);
  out += "\"run_label\":\"";
  AppendEscaped(&out, run_label);
  out += "\",\"counters\":[";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(&out, c.name);
    out += "\",\"labels\":";
    AppendLabels(&out, c.labels);
    out += ",";
    AppendU64Field(&out, "value", c.value, /*trailing_comma=*/false);
    out += "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& g : gauges) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(&out, g.name);
    out += "\",\"labels\":";
    AppendLabels(&out, g.labels);
    char buf[64];
    snprintf(buf, sizeof(buf), ",\"value\":%lld}",
             static_cast<long long>(g.value));
    out += buf;
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(&out, h.name);
    out += "\",\"labels\":";
    AppendLabels(&out, h.labels);
    out += ",";
    AppendU64Field(&out, "count", h.count);
    AppendU64Field(&out, "sum", h.sum);
    AppendU64Field(&out, "min", h.min);
    AppendU64Field(&out, "max", h.max);
    AppendU64Field(&out, "p50", h.p50);
    AppendU64Field(&out, "p95", h.p95);
    AppendU64Field(&out, "p99", h.p99, /*trailing_comma=*/false);
    out += "}";
  }
  out += "]}";
  return out;
}

const Snapshot::CounterSample* Snapshot::FindCounter(
    const std::string& name, const LabelSet& labels) const {
  for (const auto& c : counters) {
    if (c.name == name && c.labels == labels) return &c;
  }
  return nullptr;
}

const Snapshot::GaugeSample* Snapshot::FindGauge(
    const std::string& name, const LabelSet& labels) const {
  for (const auto& g : gauges) {
    if (g.name == name && g.labels == labels) return &g;
  }
  return nullptr;
}

const Snapshot::HistogramSample* Snapshot::FindHistogram(
    const std::string& name, const LabelSet& labels) const {
  for (const auto& h : histograms) {
    if (h.name == name && h.labels == labels) return &h;
  }
  return nullptr;
}

Status WriteResultsFile(const std::string& dir, const std::string& filename,
                        const std::string& contents) {
  struct stat st;
  if (stat(dir.c_str(), &st) != 0) {
    if (mkdir(dir.c_str(), 0755) != 0) {
      return Status::IOError("cannot create directory " + dir);
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return Status::IOError(dir + " exists and is not a directory");
  }
  const std::string path = dir + "/" + filename;
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const size_t written = fwrite(contents.data(), 1, contents.size(), f);
  const int close_rc = fclose(f);
  if (written != contents.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace vedb::obs
