#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace vedb::obs {

LabelSet CanonicalLabels(LabelSet labels) {
  std::stable_sort(labels.begin(), labels.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Last value wins for duplicate keys: keep the final occurrence.
  LabelSet out;
  for (auto& kv : labels) {
    if (!out.empty() && out.back().first == kv.first) {
      out.back().second = std::move(kv.second);
    } else {
      out.push_back(std::move(kv));
    }
  }
  return out;
}

void HistogramMetric::Observe(uint64_t value) {
  vedb::MutexLock lk(&mu_);
  histogram_.Add(value);
}

void HistogramMetric::Merge(const Histogram& other) {
  vedb::MutexLock lk(&mu_);
  histogram_.Merge(other);
}

Histogram HistogramMetric::Snapshot() const {
  vedb::MutexLock lk(&mu_);
  return histogram_;
}

void HistogramMetric::Reset() {
  vedb::MutexLock lk(&mu_);
  histogram_.Clear();
}

Counter* MetricsRegistry::GetCounter(const std::string& name, LabelSet labels) {
  Key key{name, CanonicalLabels(std::move(labels))};
  vedb::MutexLock lk(&mu_);
  VEDB_CHECK(gauges_.find(key) == gauges_.end() &&
                 histograms_.find(key) == histograms_.end(),
             "metric %s already registered with a different kind",
             name.c_str());
  auto& slot = counters_[std::move(key)];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, LabelSet labels) {
  Key key{name, CanonicalLabels(std::move(labels))};
  vedb::MutexLock lk(&mu_);
  VEDB_CHECK(counters_.find(key) == counters_.end() &&
                 histograms_.find(key) == histograms_.end(),
             "metric %s already registered with a different kind",
             name.c_str());
  auto& slot = gauges_[std::move(key)];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               LabelSet labels) {
  Key key{name, CanonicalLabels(std::move(labels))};
  vedb::MutexLock lk(&mu_);
  VEDB_CHECK(counters_.find(key) == counters_.end() &&
                 gauges_.find(key) == gauges_.end(),
             "metric %s already registered with a different kind",
             name.c_str());
  auto& slot = histograms_[std::move(key)];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return slot.get();
}

void MetricsRegistry::ResetValues() {
  vedb::MutexLock lk(&mu_);
  for (auto& [key, c] : counters_) c->Reset();
  for (auto& [key, g] : gauges_) g->Reset();
  for (auto& [key, h] : histograms_) h->Reset();
}

void MetricsRegistry::RemoveAllForTesting() {
  vedb::MutexLock lk(&mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

size_t MetricsRegistry::MetricCount() const {
  vedb::MutexLock lk(&mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const std::string&, const LabelSet&, uint64_t)>&
        fn) const {
  vedb::MutexLock lk(&mu_);
  for (const auto& [key, c] : counters_) fn(key.name, key.labels, c->value());
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const std::string&, const LabelSet&, int64_t)>&
        fn) const {
  vedb::MutexLock lk(&mu_);
  for (const auto& [key, g] : gauges_) fn(key.name, key.labels, g->value());
}

void MetricsRegistry::VisitHistograms(
    const std::function<void(const std::string&, const LabelSet&,
                             const Histogram&)>& fn) const {
  std::vector<std::pair<Key, Histogram>> copies;
  {
    vedb::MutexLock lk(&mu_);
    copies.reserve(histograms_.size());
    for (const auto& [key, h] : histograms_) {
      copies.emplace_back(key, h->Snapshot());
    }
  }
  for (const auto& [key, hist] : copies) fn(key.name, key.labels, hist);
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: instrumented singletons cache pointers into it and
  // may outlive any static destruction order.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace vedb::obs
