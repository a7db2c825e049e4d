#include "logstore/logstore.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace vedb::logstore {

LogStore::LogStore(sim::VirtualClock* clock, const char* backend,
                   uint64_t next_lsn)
    : clock_(clock),
      backend_(backend),
      next_lsn_(next_lsn),
      cond_(clock, "group-commit"),
      durable_(next_lsn - 1) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  appends_ = reg.GetCounter("logstore.appends", {{"backend", backend}});
  append_ns_ = reg.GetHistogram("logstore.append_ns", {{"backend", backend}});
  flushes_ = reg.GetCounter("logstore.flushes", {{"backend", backend}});
  flush_bytes_ = reg.GetCounter("logstore.flush_bytes", {{"backend", backend}});
}

Result<AppendResult> LogStore::AppendBatch(
    const std::vector<std::string>& payloads, const AppendHooks* hooks) {
  if (payloads.empty()) return Status::InvalidArgument("empty batch");

  const Timestamp begin = clock_->Now();
  obs::SpanScope span(obs::Tracer::Global(), "logstore.append");
  span.AddTag("backend", backend_);

  Item item;
  item.payloads = &payloads;
  item.hooks = hooks;
  {
    vedb::MutexLock lk(&lsn_mu_);
    item.first_lsn = next_lsn_;
    next_lsn_ += payloads.size();
    item.last_lsn = next_lsn_ - 1;
    if (hooks != nullptr && hooks->on_assigned) {
      hooks->on_assigned(item.first_lsn, item.last_lsn);
    }
  }
  VEDB_RETURN_IF_ERROR(Submit(&item));
  appends_->Add(1);
  append_ns_->Observe(clock_->Now() - begin);
  return AppendResult{item.first_lsn, item.last_lsn};
}

Status LogStore::Submit(Item* item) {
  // Nothing between LSN assignment and this enqueue waits on the clock, so
  // the queue, and with it every group, is in LSN order.
  vedb::MutexLock lk(&mu_);
  pending_.push_back(item);
  while (durable_ < item->last_lsn) {
    if (!flushing_) {
      // Become the leader: flush everything queued so far as one write.
      flushing_ = true;
      std::vector<Item*> group;
      group.swap(pending_);
      lk.Unlock();

      std::vector<Slice> flat;
      for (const Item* g : group) {
        for (const std::string& p : *g->payloads) flat.emplace_back(p);
      }
      const uint64_t first = group.front()->first_lsn;
      const uint64_t last = group.back()->last_lsn;
      Status s = Flush(first, flat);
      // Resolve the group: record failures (before the watermark makes the
      // range look resolved), fire downstream cancellations, then advance
      // the watermark so the group's committers wake.
      if (!s.ok()) {
        lk.Lock();
        for (Item* g : group) g->status = s;
        lk.Unlock();
        for (const Item* g : group) {
          if (g->hooks != nullptr && g->hooks->on_failed) {
            g->hooks->on_failed(g->first_lsn, g->last_lsn);
          }
        }
      }
      lk.Lock();
      VEDB_CHECK(first == durable_ + 1,
                 "log group [%llu, %llu] resolved after lsn %llu",
                 static_cast<unsigned long long>(first),
                 static_cast<unsigned long long>(last),
                 static_cast<unsigned long long>(durable_));
      durable_ = last;
      flushing_ = false;
      lk.Unlock();
      cond_.NotifyAll();
      lk.Lock();
      continue;
    }
    // Follower: wait for the in-flight flush to finish, then re-check.
    cond_.Wait(&mu_, [&] { return !flushing_; });
  }
  return item->status;
}

uint64_t LogStore::DurableLsn() const {
  vedb::MutexLock lk(&mu_);
  return durable_;
}

uint64_t LogStore::NextLsn() const {
  vedb::MutexLock lk(&lsn_mu_);
  return next_lsn_;
}

void LogStore::CountFlush(uint64_t bytes) {
  flushes_->Add(1);
  flush_bytes_->Add(bytes);
}

std::string EncodeBatchPayload(const std::vector<Slice>& payloads) {
  size_t bound = 5;  // varint32 count
  for (const Slice& p : payloads) bound += 5 + p.size();
  std::string out;
  out.reserve(bound);
  PutVarint32(&out, static_cast<uint32_t>(payloads.size()));
  for (const Slice& p : payloads) {
    PutLengthPrefixedSlice(&out, p);
  }
  return out;
}

bool DecodeBatchPayload(Slice in, uint64_t first_lsn,
                        std::vector<astore::LogRecord>* out) {
  uint32_t count = 0;
  if (!GetVarint32(&in, &count)) return false;
  for (uint32_t i = 0; i < count; ++i) {
    Slice payload;
    if (!GetLengthPrefixedSlice(&in, &payload)) return false;
    out->push_back(astore::LogRecord{first_lsn + i, payload.ToString()});
  }
  return true;
}

// ---------------- BlobLogStore ----------------

Result<std::unique_ptr<BlobLogStore>> BlobLogStore::Create(
    sim::SimEnvironment* env, blob::BlobStoreCluster* cluster,
    sim::SimNode* client, const Options& options) {
  VEDB_ASSIGN_OR_RETURN(
      std::unique_ptr<blob::BlobGroup> group,
      blob::BlobGroup::Create(cluster, client, options.group));
  return std::unique_ptr<BlobLogStore>(
      new BlobLogStore(env, client, options, std::move(group)));
}

Status BlobLogStore::Flush(uint64_t first_lsn,
                           const std::vector<Slice>& payloads) {
  // One pass through the async submission path per physical flush: the
  // dispatcher burns CPU for the submit and the request waits its turn in
  // the scheduling queue — "CPU resources are required to schedule every
  // I/O request..." (Section V).
  const Duration sched_delay = static_cast<Duration>(
      rng_.Exponential(static_cast<double>(options_.sched_delay_mean)));
  client_->cpu()->Access(0, options_.submit_overhead);
  env_->clock()->SleepFor(sched_delay);

  // Frame the whole group as one record keyed by its first LSN.
  const std::string body = EncodeBatchPayload(payloads);
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  PutFixed64(&frame, first_lsn);
  frame += body;
  PutFixed32(&frame, MaskCrc(Crc32c(0, frame.data() + 4, 8 + body.size())));
  CountFlush(frame.size());
  return group_->Append(Slice(frame), nullptr);
}

Result<std::vector<astore::LogRecord>> BlobLogStore::ReadFrom(
    uint64_t from_lsn) {
  // Walk the chunk stream: every append starts at a chunk boundary and
  // occupies whole chunks.
  std::vector<astore::LogRecord> records;
  const uint64_t io = options_.group.io_size;
  const uint64_t end = group_->length();
  uint64_t offset = 0;
  while (offset < end) {
    std::string head;
    VEDB_RETURN_IF_ERROR(group_->Read(offset, 12, &head));
    const uint32_t body_len = DecodeFixed32(head.data());
    const uint64_t first = DecodeFixed64(head.data() + 4);
    const uint64_t frame_len = 16 + body_len;
    if (body_len == 0 || offset + frame_len > end) break;  // tail padding
    std::string frame;
    VEDB_RETURN_IF_ERROR(group_->Read(offset, frame_len, &frame));
    const uint32_t stored = UnmaskCrc(DecodeFixed32(frame.data() + 12 + body_len));
    if (stored != Crc32c(0, frame.data() + 4, 8 + body_len)) break;
    std::vector<astore::LogRecord> batch;
    if (!DecodeBatchPayload(Slice(frame.data() + 12, body_len), first,
                            &batch)) {
      break;
    }
    for (auto& rec : batch) {
      if (rec.lsn >= from_lsn) records.push_back(std::move(rec));
    }
    offset += (frame_len + io - 1) / io * io;  // next chunk boundary
  }
  std::sort(records.begin(), records.end(),
            [](const astore::LogRecord& a, const astore::LogRecord& b) {
              return a.lsn < b.lsn;
            });
  return records;
}

// ---------------- AStoreLogStore ----------------

Result<std::unique_ptr<AStoreLogStore>> AStoreLogStore::Create(
    sim::SimEnvironment* env, astore::AStoreClient* client,
    const Options& options) {
  VEDB_ASSIGN_OR_RETURN(std::unique_ptr<astore::SegmentRing> ring,
                        astore::SegmentRing::Create(client, options.ring));
  return std::unique_ptr<AStoreLogStore>(new AStoreLogStore(
      env, client, options, std::move(ring), /*next_lsn=*/1));
}

namespace {

// Unpacks the batch frames of the ring on `segments` one segment at a
// time, releasing each frame once unpacked, so only one segment's frames
// and the records kept are held at once. Appends every record with lsn >=
// `from_lsn` to `out`, in log order, and returns one past the largest LSN
// of any record (1 for an empty log).
Result<uint64_t> UnpackRing(astore::AStoreClient* client,
                            const std::vector<astore::SegmentId>& segments,
                            uint64_t from_lsn,
                            std::vector<astore::LogRecord>* out) {
  // Ring records are batch frames keyed by their first LSN, so a frame
  // below `from_lsn` may still hold records at or above it.
  uint64_t next_lsn = 1;
  auto unpack = [&](std::vector<astore::LogRecord>* frames) {
    for (astore::LogRecord& frame : *frames) {
      std::vector<astore::LogRecord> batch;
      if (!DecodeBatchPayload(Slice(frame.payload), frame.lsn, &batch)) {
        return Status::Corruption("bad batch frame");
      }
      std::string().swap(frame.payload);
      for (auto& r : batch) {
        next_lsn = std::max(next_lsn, r.lsn + 1);
        if (r.lsn >= from_lsn) out->push_back(std::move(r));
      }
    }
    return Status::OK();
  };
  VEDB_RETURN_IF_ERROR(
      astore::SegmentRing::RecoverEach(client, segments, 0, unpack).status());
  return next_lsn;
}

}  // namespace

Result<std::unique_ptr<AStoreLogStore>> AStoreLogStore::Recover(
    sim::SimEnvironment* env, astore::AStoreClient* client,
    const std::vector<astore::SegmentId>& segments, uint64_t from_lsn,
    const Options& options, std::vector<astore::LogRecord>* recovered_out) {
  std::vector<astore::LogRecord> discarded;
  VEDB_ASSIGN_OR_RETURN(
      uint64_t next_lsn,
      UnpackRing(client, segments, from_lsn,
                 recovered_out != nullptr ? recovered_out : &discarded));

  // Resume on a fresh ring (the old segments stay readable until deleted;
  // production would re-attach in place — a fresh ring keeps the recovered
  // ring immutable, which is simpler and equally correct).
  VEDB_ASSIGN_OR_RETURN(std::unique_ptr<astore::SegmentRing> ring,
                        astore::SegmentRing::Create(client, options.ring));
  return std::unique_ptr<AStoreLogStore>(
      new AStoreLogStore(env, client, options, std::move(ring), next_lsn));
}

Status AStoreLogStore::Flush(uint64_t first_lsn,
                             const std::vector<Slice>& payloads) {
  const std::string body = EncodeBatchPayload(payloads);
  CountFlush(body.size());
  // Flushes are serialized by the single group-commit leader, so ring
  // placement naturally follows LSN order. AppendRecord owns the whole
  // reserve/commit/replaced-segment dance — which now rides the client's
  // doorbell coalescer (SubmitReserved/WaitCommit): while this leader
  // parks on its completion token, independent producers on the same
  // client (other rings, AppendAsync callers) join the same doorbell.
  return ring_->AppendRecord(first_lsn, Slice(body));
}

Result<std::vector<astore::LogRecord>> AStoreLogStore::ReadFrom(
    uint64_t from_lsn) {
  std::vector<astore::LogRecord> records;
  VEDB_RETURN_IF_ERROR(
      UnpackRing(client_, ring_->segment_ids(), from_lsn, &records).status());
  return records;
}

}  // namespace vedb::logstore
