#include "astore/scrubber.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"
#include "sim/lock_order.h"

namespace vedb::astore {

Scrubber::Scrubber(sim::SimEnvironment* env, AStoreClient* client,
                   AStoreServer* server, const Options& options)
    : env_(env),
      client_(client),
      server_(server),
      options_(options),
      bucket_(env->clock(),
              qos::TokenBucket::Options{options.rate_bytes_per_sec,
                                        options.burst_bytes}),
      background_(env->clock()) {
  sim::LockOrderGraph::RegisterContract("astore.scrub", "astore.server");
  sim::LockOrderGraph::RegisterContract("astore.scrub", "cm.state");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string node = server_->node()->name();
  chunks_ = reg.GetCounter("astore.scrub.chunks", {{"node", node}});
  bytes_ = reg.GetCounter("astore.scrub.bytes", {{"node", node}});
  mismatches_ = reg.GetCounter("astore.scrub.mismatches", {{"node", node}});
  repairs_ = reg.GetCounter("astore.scrub.repairs", {{"node", node}});
  reports_ = reg.GetCounter("astore.scrub.reports", {{"node", node}});
  skipped_ = reg.GetCounter("astore.scrub.skipped", {{"node", node}});
}

void Scrubber::StartBackground() {
  background_.Spawn([this] { ScrubLoop(); });
}

void Scrubber::Shutdown() {
  RequestShutdown();
  background_.JoinAll();
}

void Scrubber::ScrubLoop() {
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(options_.scrub_period);
    if (shutdown_.load()) break;
    ScrubPass();
  }
}

void Scrubber::ScrubPass() {
  // A crashed node's scrubber is gone with its process.
  if (!server_->node()->alive()) return;
  obs::SpanScope span(obs::Tracer::Global(), "astore.scrub.pass");
  const std::vector<SegmentId> ids = server_->LiveSegmentIds();
  for (SegmentId id : ids) {
    if (shutdown_.load()) return;
    // discard-ok: a segment that vanished or got quarantined mid-pass is
    // simply picked up (or not) by the next pass.
    (void)ScrubSegment(id);
  }
  vedb::MutexLock lk(&mu_);
  pass_count_++;
}

bool Scrubber::ScrubSegment(SegmentId id) {
  auto opened = client_->OpenSegment(id);
  if (!opened.ok()) return true;  // deleted or CM unreachable; next pass
  SegmentHandlePtr handle = opened.value();
  const SegmentRoute route = handle->route();
  const std::string& self = server_->node()->name();
  size_t local_idx = route.replicas.size();
  for (size_t i = 0; i < route.replicas.size(); ++i) {
    if (route.replicas[i].node == self) local_idx = i;
  }
  // Not routed here (a stale local copy awaiting the deferred cleaner) or
  // unreplicated (nothing to vote against): nothing to scrub.
  if (local_idx == route.replicas.size() || route.replicas.size() < 2) {
    return true;
  }

  obs::SpanScope span(obs::Tracer::Global(), "astore.scrub.segment");
  span.AddTag("segment", std::to_string(id));
  for (uint64_t off = 0; off < route.size; off += options_.chunk_bytes) {
    if (shutdown_.load()) return true;
    const uint64_t len = std::min(options_.chunk_bytes, route.size - off);
    // Pace BEFORE reading: every byte the vote will pull (two settledness
    // reads per replica) is paid for at the configured background rate.
    const Timestamp ready =
        bucket_.Acquire(2 * len * route.replicas.size());
    env_->clock()->SleepUntil(ready);
    const ChunkVerdict verdict = ScrubChunk(handle, route, local_idx, off, len);
    if (verdict == ChunkVerdict::kIrreparable) {
      // In-place repair failed (a latent sticky bad region keeps corrupting
      // our copy): escalate. The CM drops this replica from the route and
      // re-replicates the segment from a healthy copy onto another server.
      Status s = client_->ReportCorruptReplica(handle, self);
      if (s.ok()) {
        reports_->Add(1);
        VEDB_LOG(kWarn,
                 "scrub %s: segment %llu replica irreparable at offset %llu, "
                 "reported for quarantine",
                 self.c_str(), static_cast<unsigned long long>(id),
                 static_cast<unsigned long long>(off));
      }
      // Reported or not, stop touching this segment: its route is moving
      // (or the report will be retried by the next pass).
      return false;
    }
  }
  return true;
}

Scrubber::ChunkVerdict Scrubber::ScrubChunk(const SegmentHandlePtr& handle,
                                            const SegmentRoute& route,
                                            size_t local_idx, uint64_t offset,
                                            uint64_t len) {
  const size_t n = route.replicas.size();
  std::vector<std::string> first(n), second(n);
  std::vector<bool> settled(n, false);
  chunks_->Add(1);
  for (size_t i = 0; i < n; ++i) {
    first[i].resize(len);
    if (client_->ReadReplica(handle, i, offset, len, first[i].data()).ok()) {
      bytes_->Add(len);
    } else {
      first[i].clear();  // replica down; excluded from the vote
    }
  }
  // Settledness: re-read after a gap. A copy that changed between the two
  // reads is being appended to right now — comparing replicas mid-write
  // would flag the write frontier as rot, so the chunk waits a round.
  env_->clock()->SleepFor(options_.settle_gap);
  for (size_t i = 0; i < n; ++i) {
    if (first[i].empty() && len > 0) continue;
    second[i].resize(len);
    if (client_->ReadReplica(handle, i, offset, len, second[i].data()).ok()) {
      bytes_->Add(len);
      settled[i] = first[i] == second[i];
    }
  }
  if (!settled[local_idx]) {
    skipped_->Add(1);
    return ChunkVerdict::kSkipped;
  }

  // Strict majority vote over the settled copies.
  std::map<std::string, int> votes;
  int usable = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!settled[i]) continue;
    votes[second[i]]++;
    usable++;
  }
  const std::string* majority = nullptr;
  int best = 0;
  bool tie = false;
  for (const auto& [content, count] : votes) {
    if (count > best) {
      majority = &content;
      best = count;
      tie = false;
    } else if (count == best) {
      tie = true;
    }
  }
  if (majority == nullptr || tie || 2 * best <= usable) {
    // No quorum on what the bytes should be (e.g. two settled copies that
    // disagree 1-1). Don't guess; the next pass — after a writer finishes
    // or another replica comes back — will have more voters.
    skipped_->Add(1);
    return ChunkVerdict::kSkipped;
  }
  if (second[local_idx] == *majority) return ChunkVerdict::kClean;

  // Our copy diverges from a stable majority: bit rot. Rewrite the good
  // bytes over it (epoch-guarded — a concurrent route change wins) and
  // verify the rewrite took.
  mismatches_->Add(1);
  Status w = client_->WriteReplica(handle, local_idx, offset, Slice(*majority),
                                   route.epoch);
  if (!w.ok()) {
    skipped_->Add(1);  // route moved under us; re-examined next pass
    return ChunkVerdict::kSkipped;
  }
  std::string reread(len, '\0');
  Status r = client_->ReadReplica(handle, local_idx, offset, len,
                                  reread.data());
  if (r.ok() && reread == *majority) {
    repairs_->Add(1);
    return ChunkVerdict::kRepaired;
  }
  return ChunkVerdict::kIrreparable;
}

}  // namespace vedb::astore
