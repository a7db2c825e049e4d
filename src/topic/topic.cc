#include "topic/topic.h"

#include <algorithm>

#include "astore/frame.h"
#include "common/coding.h"
#include "obs/trace.h"
#include "sim/lock_order.h"
#include "topic/record.h"

namespace vedb::topic {

namespace {

/// Framing overhead of one SegmentRing record: the PackedFrame header
/// (u32 len | u64 lsn | u32 masked crc), which precedes the payload.
constexpr uint64_t kFrameOverhead = astore::PackedFrame::kHeaderSize;

}  // namespace

Topic::Topic(astore::AStoreClient* client, TopicOptions options)
    : client_(client), options_(std::move(options)) {
  // Declared order contracts (sim/lock_order.h): both topic lock classes
  // are held across SegmentRing::Reserve only; the gate fails any future
  // path that takes them the other way around.
  sim::LockOrderGraph::RegisterContract("topic.partition", "astore.ring");
  sim::LockOrderGraph::RegisterContract("topic.meta", "astore.ring");

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::LabelSet labels = {{"topic", options_.name}};
  produces_ = reg.GetCounter("topic.produce", labels);
  produce_bytes_ = reg.GetCounter("topic.produce_bytes", labels);
  produce_ns_ = reg.GetHistogram("topic.produce_ns", labels);
  fetches_ = reg.GetCounter("topic.fetch", labels);
  consumed_ = reg.GetCounter("topic.consume", labels);
  consume_ns_ = reg.GetHistogram("topic.consume_ns", labels);
  offset_commits_ = reg.GetCounter("topic.offset_commits", labels);
  trims_ = reg.GetCounter("topic.trims", labels);
  segments_freed_ = reg.GetCounter("topic.segments_freed", labels);
}

Result<std::unique_ptr<Topic>> Topic::Create(astore::AStoreClient* client,
                                             const TopicOptions& options) {
  if (options.partitions < 1) {
    return Status::InvalidArgument("topic needs at least one partition");
  }
  std::unique_ptr<Topic> topic(new Topic(client, options));
  astore::SegmentRing::Options data_opts = options.data_ring;
  data_opts.forbid_overwrite = true;  // retention-managed, never wrap
  for (int p = 0; p < options.partitions; ++p) {
    auto part = std::make_unique<Partition>();
    VEDB_ASSIGN_OR_RETURN(part->ring,
                          astore::SegmentRing::Create(client, data_opts));
    topic->partitions_.push_back(std::move(part));
  }
  VEDB_ASSIGN_OR_RETURN(
      topic->meta_ring_,
      astore::SegmentRing::Create(client, options.meta_ring));
  return topic;
}

Topic::Partition* Topic::GetPartition(int partition) const {
  if (partition < 0 || partition >= static_cast<int>(partitions_.size())) {
    return nullptr;
  }
  return partitions_[static_cast<size_t>(partition)].get();
}

Result<uint64_t> Topic::Produce(int partition, Slice payload) {
  Partition* part = GetPartition(partition);
  if (part == nullptr) {
    return Status::InvalidArgument("no such partition");
  }
  obs::SpanScope span(obs::Tracer::Global(), "topic.produce");
  const Timestamp begin = client_->env()->clock()->Now();
  for (int attempt = 0; attempt < 3; ++attempt) {
    uint64_t lsn;
    astore::SegmentRing::Reservation r;
    {
      // LSN assignment and ring reservation under one lock so ring order
      // matches LSN order (topic.partition -> astore.ring).
      vedb::MutexLock lk(&part->mu);
      lsn = part->next_lsn;
      auto res = part->ring->Reserve(lsn, payload.size());
      if (!res.ok()) return res.status();  // InvalidArgument / NoSpace
      r = std::move(res).value();
      part->next_lsn++;
    }
    const Status s = part->ring->CommitReserved(r, lsn, payload);
    if (s.IsBusy()) continue;  // slot replaced; retry with a fresh LSN
    if (!s.ok()) return s;     // the skipped LSN stays a tolerated gap
    {
      vedb::MutexLock lk(&part->mu);
      part->index[lsn] =
          Locator{r.seg, r.offset, static_cast<uint32_t>(payload.size())};
    }
    produces_->Add(1);
    produce_bytes_->Add(payload.size());
    produce_ns_->Observe(client_->env()->clock()->Now() - begin);
    return lsn;
  }
  return Status::Unavailable("produce failed after segment replacements");
}

Result<std::vector<Message>> Topic::Fetch(int partition, uint64_t from_lsn,
                                          size_t max_messages) {
  Partition* part = GetPartition(partition);
  if (part == nullptr) {
    return Status::InvalidArgument("no such partition");
  }
  obs::SpanScope span(obs::Tracer::Global(), "topic.consume");
  const Timestamp begin = client_->env()->clock()->Now();
  // Copy the locators under the lock; all reads happen outside it.
  std::vector<std::pair<uint64_t, Locator>> locators;
  {
    vedb::MutexLock lk(&part->mu);
    const uint64_t floor = std::max(from_lsn, part->trim_lsn);
    for (auto it = part->index.lower_bound(floor);
         it != part->index.end() && locators.size() < max_messages; ++it) {
      locators.emplace_back(it->first, it->second);
    }
  }
  std::vector<Message> out;
  out.reserve(locators.size());
  for (const auto& [lsn, loc] : locators) {
    const uint64_t frame_size = kFrameOverhead + loc.payload_size;
    std::string buf(frame_size, '\0');
    VEDB_RETURN_IF_ERROR(
        client_->Read(loc.seg, loc.offset, frame_size, buf.data()));
    // Self-validating read: the frame must agree with the locator byte for
    // byte, CRC included — a mismatch means the locator (or the segment)
    // is lying and the consumer must not see the payload.
    const astore::PackedFrame frame =
        astore::PackedFrame::DecodeHeader(buf.data());
    if (frame.payload_len != loc.payload_size || frame.lsn != lsn) {
      return Status::Corruption("topic record frame mismatch");
    }
    if (!astore::PackedFrame::VerifyCrc(buf.data(), loc.payload_size)) {
      return Status::Corruption("topic record crc mismatch");
    }
    out.push_back(Message{
        lsn, std::string(buf.data() + astore::PackedFrame::kPayloadOffset,
                         loc.payload_size)});
  }
  fetches_->Add(1);
  consumed_->Add(out.size());
  consume_ns_->Observe(client_->env()->clock()->Now() - begin);
  return out;
}

Status Topic::AppendMeta(Slice record) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    uint64_t lsn;
    astore::SegmentRing::Reservation r;
    {
      vedb::MutexLock lk(&meta_mu_);
      lsn = meta_next_lsn_;
      auto res = meta_ring_->Reserve(lsn, record.size());
      if (!res.ok()) return res.status();
      r = std::move(res).value();
      meta_next_lsn_++;
    }
    const Status s = meta_ring_->CommitReserved(r, lsn, record);
    if (s.IsBusy()) continue;
    return s;
  }
  return Status::Unavailable("meta append failed after segment replacements");
}

Status Topic::CommitOffset(const std::string& group, int partition,
                           uint64_t next_lsn) {
  if (GetPartition(partition) == nullptr) {
    return Status::InvalidArgument("no such partition");
  }
  if (group.empty() || group.size() > 65535) {
    return Status::InvalidArgument("bad consumer group name");
  }
  obs::SpanScope span(obs::Tracer::Global(), "topic.offset_commit");
  const std::string record = EncodeOffsetCommit(
      static_cast<uint64_t>(partition), group, next_lsn);
  VEDB_RETURN_IF_ERROR(AppendMeta(Slice(record)));
  // Crash point between the durable commit record and the ack: the caller
  // sees a failure, but recovery replays the meta ring to exactly the
  // committed position (tests/topic_test.cc's exactly-once scenario).
  VEDB_RETURN_IF_ERROR(
      client_->env()->faults()->MaybeFail("topic.offset.ack"));
  {
    vedb::MutexLock lk(&meta_mu_);
    offsets_[{group, static_cast<uint64_t>(partition)}] = next_lsn;
  }
  offset_commits_->Add(1);
  return Status::OK();
}

uint64_t Topic::CommittedOffset(const std::string& group,
                                int partition) const {
  vedb::MutexLock lk(&meta_mu_);
  auto it = offsets_.find({group, static_cast<uint64_t>(partition)});
  return it == offsets_.end() ? 1 : it->second;
}

Status Topic::TrimTo(int partition, uint64_t trim_lsn) {
  Partition* part = GetPartition(partition);
  if (part == nullptr) {
    return Status::InvalidArgument("no such partition");
  }
  {
    vedb::MutexLock lk(&part->mu);
    if (trim_lsn <= part->trim_lsn) return Status::OK();  // never regress
  }
  // Watermark first, segments second: a crash in between leaks retention
  // (re-trimmed on the next lap), never records.
  VEDB_RETURN_IF_ERROR(
      AppendMeta(Slice(EncodeTrim(static_cast<uint64_t>(partition),
                                  trim_lsn))));
  {
    vedb::MutexLock lk(&part->mu);
    part->trim_lsn = std::max(part->trim_lsn, trim_lsn);
    part->index.erase(part->index.begin(),
                      part->index.lower_bound(trim_lsn));
  }
  VEDB_ASSIGN_OR_RETURN(int freed, part->ring->TrimBefore(trim_lsn));
  trims_->Add(1);
  segments_freed_->Add(static_cast<uint64_t>(freed));
  return Status::OK();
}

uint64_t Topic::TrimWatermark(int partition) const {
  Partition* part = GetPartition(partition);
  if (part == nullptr) return 0;
  vedb::MutexLock lk(&part->mu);
  return part->trim_lsn;
}

uint64_t Topic::NextLsn(int partition) const {
  Partition* part = GetPartition(partition);
  if (part == nullptr) return 0;
  vedb::MutexLock lk(&part->mu);
  return part->next_lsn;
}

Topic::Manifest Topic::GetManifest() const {
  Manifest m;
  for (const auto& part : partitions_) {
    m.partition_segments.push_back(part->ring->segment_ids());
  }
  m.meta_segments = meta_ring_->segment_ids();
  return m;
}

Result<std::unique_ptr<Topic>> Topic::Recover(astore::AStoreClient* client,
                                              const Manifest& manifest,
                                              const TopicOptions& options) {
  TopicOptions opts = options;
  opts.partitions = static_cast<int>(manifest.partition_segments.size());
  if (opts.partitions < 1) {
    return Status::InvalidArgument("manifest has no partitions");
  }
  std::unique_ptr<Topic> topic(new Topic(client, opts));
  astore::SegmentRing::Options data_opts = opts.data_ring;
  data_opts.forbid_overwrite = true;

  for (const auto& segment_ids : manifest.partition_segments) {
    VEDB_ASSIGN_OR_RETURN(
        astore::SegmentRing::Recovered rec,
        astore::SegmentRing::Recover(client, segment_ids, 0, data_opts));
    auto part = std::make_unique<Partition>();
    // Old segments stay readable in place through the locator index; new
    // produces go to a fresh ring.
    // OpenSegment blocks on the clock, so the index is built unlocked
    // and published under the lock.
    std::map<astore::SegmentId, astore::SegmentHandlePtr> handles;
    std::map<uint64_t, Locator> index;
    for (const auto& loc : rec.locations) {
      auto it = handles.find(loc.segment);
      if (it == handles.end()) {
        VEDB_ASSIGN_OR_RETURN(astore::SegmentHandlePtr seg,
                              client->OpenSegment(loc.segment));
        it = handles.emplace(loc.segment, std::move(seg)).first;
      }
      index[loc.lsn] = Locator{it->second, loc.offset, loc.payload_size};
    }
    {
      vedb::MutexLock lk(&part->mu);
      part->next_lsn = std::max<uint64_t>(1, rec.next_lsn);
      part->index = std::move(index);
    }
    VEDB_ASSIGN_OR_RETURN(part->ring,
                          astore::SegmentRing::Create(client, data_opts));
    topic->partitions_.push_back(std::move(part));
  }

  // Replay the meta ring last-wins: records come back in LSN order, so a
  // plain overwrite leaves the latest commit/watermark standing.
  VEDB_ASSIGN_OR_RETURN(
      astore::SegmentRing::Recovered meta,
      astore::SegmentRing::Recover(client, manifest.meta_segments, 0,
                                   opts.meta_ring));
  std::map<uint64_t, uint64_t> trim_watermarks;
  {
    vedb::MutexLock lk(&topic->meta_mu_);
    topic->meta_next_lsn_ = std::max<uint64_t>(1, meta.next_lsn);
    for (const auto& raw : meta.records) {
      VEDB_ASSIGN_OR_RETURN(MetaRecord rec,
                            DecodeMetaRecord(Slice(raw.payload)));
      switch (rec.type) {
        case MetaType::kOffsetCommit:
          topic->offsets_[{rec.group, rec.partition}] = rec.next_lsn;
          break;
        case MetaType::kTrim:
          trim_watermarks[rec.partition] = rec.trim_lsn;
          break;
      }
    }
  }
  VEDB_ASSIGN_OR_RETURN(
      topic->meta_ring_,
      astore::SegmentRing::Create(client, opts.meta_ring));
  for (const auto& [partition, trim_lsn] : trim_watermarks) {
    Partition* part =
        topic->GetPartition(static_cast<int>(partition));
    if (part == nullptr) continue;  // watermark for a dropped partition
    vedb::MutexLock lk(&part->mu);
    part->trim_lsn = trim_lsn;
    part->index.erase(part->index.begin(),
                      part->index.lower_bound(trim_lsn));
  }
  return topic;
}

}  // namespace vedb::topic
