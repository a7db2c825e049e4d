#include "astore/segment_ring.h"

#include <algorithm>
#include <iterator>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"

namespace vedb::astore {

SegmentRing::SegmentRing(AStoreClient* client, Options options,
                         std::vector<SegmentHandlePtr> segments)
    : client_(client),
      options_(options),
      segments_(std::move(segments)),
      slot_start_lsn_(segments_.size(), 0) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  appends_ = reg.GetCounter("astore.ring.appends");
  append_ns_ = reg.GetHistogram("astore.ring.append_ns");
  replacements_ = reg.GetCounter("astore.ring.replacements");
}

std::string SegmentRing::EncodeHeader(SegmentStatus status,
                                      uint64_t start_lsn) {
  std::string h;
  PutFixed32(&h, kHeaderMagic);
  PutFixed32(&h, static_cast<uint32_t>(status));
  PutFixed64(&h, start_lsn);
  PutFixed32(&h, MaskCrc(Crc32c(Slice(h))));
  return h;
}

bool SegmentRing::DecodeHeader(Slice in, SegmentStatus* status,
                               uint64_t* start_lsn) {
  if (in.size() < 20) return false;
  if (DecodeFixed32(in.data()) != kHeaderMagic) return false;
  const uint32_t stored_crc = UnmaskCrc(DecodeFixed32(in.data() + 16));
  if (stored_crc != Crc32c(0, in.data(), 16)) return false;
  *status = static_cast<SegmentStatus>(DecodeFixed32(in.data() + 4));
  *start_lsn = DecodeFixed64(in.data() + 8);
  return true;
}

Result<std::unique_ptr<SegmentRing>> SegmentRing::Create(
    AStoreClient* client, const Options& options) {
  std::vector<SegmentHandlePtr> segments;
  for (int i = 0; i < options.ring_size; ++i) {
    VEDB_ASSIGN_OR_RETURN(
        SegmentHandlePtr seg,
        client->CreateSegment(options.segment_size, options.replication));
    // Stamp every segment empty so recovery can tell "never used" from
    // garbage.
    VEDB_RETURN_IF_ERROR(client->WriteAt(
        seg, 0, EncodeHeader(SegmentStatus::kEmpty, 0)));
    segments.push_back(std::move(seg));
  }
  return std::unique_ptr<SegmentRing>(
      new SegmentRing(client, options, std::move(segments)));
}

std::vector<SegmentId> SegmentRing::segment_ids() const {
  vedb::MutexLock lk(&mu_);
  std::vector<SegmentId> ids;
  ids.reserve(segments_.size());
  for (const auto& seg : segments_) ids.push_back(seg->id());
  return ids;
}

Status SegmentRing::ReplaceSegmentSlot(size_t idx,
                                       const SegmentHandlePtr& broken) {
  // "The storage SDK will close the failed segment, create a new segment,
  // and automatically retry" (Section V-E). The broken segment is left
  // alive (frozen) so already-acked records stay readable for recovery.
  VEDB_ASSIGN_OR_RETURN(
      SegmentHandlePtr fresh,
      client_->CreateSegment(options_.segment_size, options_.replication));
  VEDB_RETURN_IF_ERROR(
      client_->WriteAt(fresh, 0, EncodeHeader(SegmentStatus::kEmpty, 0)));
  vedb::MutexLock lk(&mu_);
  if (segments_[idx] == broken) {
    segments_[idx] = std::move(fresh);
    slot_start_lsn_[idx] = 0;
    replaced_++;
    replacements_->Add(1);
    if (idx == cur_idx_) {
      cur_offset_ = kHeaderSize;
      cur_initialized_ = false;
    }
  }
  return Status::OK();
}

Result<SegmentRing::Reservation> SegmentRing::Reserve(uint64_t lsn,
                                                      size_t payload_size) {
  // API-boundary validation: an empty payload would frame as a zero-length
  // record, which the recovery scan cannot distinguish from the
  // end-of-durable-log sentinel — callers used to be trusted not to do
  // this; now it is a typed error here.
  if (payload_size == 0) {
    return Status::InvalidArgument("zero-length record");
  }
  const size_t frame_size = payload_size + PackedFrame::kHeaderSize;
  // `>=`, not `>`: a frame that exactly fills the data area would wrap the
  // ring on EVERY append — one segment per record defeats coalescing and
  // recycles the whole ring every few records — so this boundary is the
  // only gate.
  if (frame_size >= options_.segment_size - kHeaderSize) {
    return Status::InvalidArgument("record larger than a segment");
  }
  Reservation r;
  r.frame_size = frame_size;
  vedb::MutexLock lk(&mu_);
  // The ring cursor (cur_idx_/cur_offset_/slot_start_lsn_) is the hot
  // shared state of the log write path; an unsynchronized reservation
  // would hand two records the same bytes.
  if (cur_offset_ + frame_size > options_.segment_size) {
    // Advance the ring: freeze the current slot, recycle the next.
    r.to_mark_full = segments_[cur_idx_];
    r.full_start_lsn = slot_start_lsn_[cur_idx_];
    cur_idx_ = (cur_idx_ + 1) % segments_.size();
    cur_offset_ = kHeaderSize;
    cur_initialized_ = false;
  }
  r.slot_idx = cur_idx_;
  r.seg = segments_[cur_idx_];
  r.offset = cur_offset_;
  cur_offset_ += frame_size;
  if (!cur_initialized_) {
    // "Sets its header to the start LSN of the current REDO log."
    r.init_header = true;
    cur_initialized_ = true;
    slot_start_lsn_[cur_idx_] = lsn;
  }
  return r;
}

Result<SegmentRing::PendingCommitPtr> SegmentRing::SubmitReserved(
    const Reservation& reservation, uint64_t lsn, Slice payload) {
  VEDB_CHECK(
      reservation.frame_size == payload.size() + PackedFrame::kHeaderSize,
      "reservation size mismatch");
  auto pending = std::make_unique<PendingCommit>();
  pending->reservation = reservation;
  pending->lsn = lsn;
  pending->begin = client_->env()->clock()->Now();
  PackedFrame::EncodeHeader(pending->frame_header, lsn, payload);

  // Crash-ordering contract (torn chains apply a strict WR prefix): the
  // kInUse header precedes the frame — a record must never exist in a
  // segment whose header does not route recovery to it — and the frame
  // header precedes the payload, so a torn record fails its CRC.
  std::vector<RecordPiece> pieces;
  pieces.reserve(3);
  if (reservation.init_header) {
    pending->init_header = EncodeHeader(SegmentStatus::kInUse, lsn);
    pieces.push_back(RecordPiece{0, Slice(pending->init_header)});
  }
  pieces.push_back(RecordPiece{
      reservation.offset,
      Slice(pending->frame_header, PackedFrame::kHeaderSize)});
  pieces.push_back(
      RecordPiece{reservation.offset + PackedFrame::kPayloadOffset, payload});
  VEDB_ASSIGN_OR_RETURN(
      pending->token,
      client_->append_ring()->Submit(reservation.seg, std::move(pieces)));
  return pending;
}

Status SegmentRing::WaitCommit(PendingCommitPtr pending) {
  VEDB_CHECK(pending != nullptr, "WaitCommit on a null pending commit");
  Status s = client_->append_ring()->Wait(pending->token);
  const Reservation& reservation = pending->reservation;
  const SegmentHandlePtr& seg = reservation.seg;
  if (s.ok()) {
    // Commit point: the LSN becomes visible as durable once we return OK,
    // so the frame must be in the persistence domain on every replica.
    // This is logstore's commit-path persist-ordering check.
    VEDB_RETURN_IF_ERROR(client_->VerifyPersisted(
        seg, reservation.offset, reservation.frame_size, "logstore.commit"));
    if (reservation.to_mark_full != nullptr) {
      // Stamped strictly AFTER the wrapping record is durable. The old
      // path stamped first, so a crash between the stamp and the record
      // marked a segment kFull while its successor held nothing — under
      // doorbell coalescing that window covers the whole batch.
      // discard-ok: best effort; a lingering "in-use" status is tolerated
      // by recovery.
      (void)client_->WriteAt(
          reservation.to_mark_full, 0,
          EncodeHeader(SegmentStatus::kFull, reservation.full_start_lsn));
    }
    appends_->Add(1);
    append_ns_->Observe(client_->env()->clock()->Now() - pending->begin);
    return s;
  }
  if (!s.IsUnavailable() && !s.IsStale()) return s;

  // Freeze-and-reopen (Section V-E): swap the broken slot for a fresh
  // segment, then have the caller retry through the normal reserve+commit
  // path. Concurrent in-flight records on the broken segment fail and
  // repair the same way; the replacement is idempotent (only the first
  // swapper wins).
  bool found = false;
  size_t idx = 0;
  {
    vedb::MutexLock lk(&mu_);
    auto it = std::find(segments_.begin(), segments_.end(), seg);
    if (it != segments_.end()) {
      found = true;
      idx = static_cast<size_t>(it - segments_.begin());
    }
  }
  if (found) {
    VEDB_RETURN_IF_ERROR(ReplaceSegmentSlot(idx, seg));
  }
  return Status::Busy("segment replaced; retry the append");
}

Status SegmentRing::CommitReserved(const Reservation& reservation,
                                   uint64_t lsn, Slice payload) {
  VEDB_ASSIGN_OR_RETURN(PendingCommitPtr pending,
                        SubmitReserved(reservation, lsn, payload));
  return WaitCommit(std::move(pending));
}

Status SegmentRing::AppendRecord(uint64_t lsn, Slice payload) {
  Status s;
  for (int attempt = 0; attempt < 3; ++attempt) {
    VEDB_ASSIGN_OR_RETURN(Reservation r, Reserve(lsn, payload.size()));
    s = CommitReserved(r, lsn, payload);
    if (!s.IsBusy()) return s;
  }
  return Status::Unavailable("log append failed after segment replacements");
}

namespace {

/// Result of parsing one copy of a segment's data area.
struct ParsedFrames {
  uint64_t next_lsn = 0;
  /// Segment-relative offset one past the last valid frame (the point
  /// where this copy's durable prefix ends).
  uint64_t valid_end = SegmentRing::kHeaderSize;
};

ParsedFrames ParseFrames(Slice buf, uint64_t from_lsn, uint64_t start_lsn,
                         std::vector<LogRecord>* out) {
  ParsedFrames p;
  uint64_t prev_lsn = 0;
  uint64_t offset = SegmentRing::kHeaderSize;  // frame offset in the segment
  Slice in = buf;
  while (in.size() >= PackedFrame::kHeaderSize) {
    const PackedFrame f = PackedFrame::DecodeHeader(in.data());
    const uint32_t len = f.payload_len;
    // Zero length is the end-of-durable-log sentinel (never-written PMem);
    // Reserve rejects zero-length records, so no valid frame encodes it.
    if (len == 0) break;
    if (len > in.size() - PackedFrame::kHeaderSize) break;  // torn/past end
    if (!PackedFrame::VerifyCrc(in.data(), len)) break;  // prefix ends here
    const uint64_t lsn = f.lsn;
    // Guard against remnants of a previous ring lap: records must start at
    // the header's start LSN and stay strictly ascending.
    if (lsn < start_lsn || (prev_lsn != 0 && lsn <= prev_lsn)) break;
    if (lsn >= from_lsn && out != nullptr) {
      out->push_back(LogRecord{
          lsn, std::string(in.data() + PackedFrame::kPayloadOffset, len)});
    }
    prev_lsn = lsn;
    p.next_lsn = lsn + 1;
    offset += PackedFrame::kHeaderSize + len;
    in.RemovePrefix(PackedFrame::kHeaderSize + len);
  }
  p.valid_end = offset;
  return p;
}

}  // namespace

Result<uint64_t> SegmentRing::ScanSegment(AStoreClient* client,
                                          const SegmentHandlePtr& seg,
                                          uint64_t from_lsn,
                                          uint64_t start_lsn,
                                          std::vector<LogRecord>* out) {
  const uint64_t data_size = seg->size() - kHeaderSize;
  const SegmentRoute route = seg->route();
  const size_t replicas = route.replicas.size();

  if (replicas <= 1) {
    // Single copy: read the whole data area once, then parse frames.
    std::string buf(data_size, '\0');
    VEDB_RETURN_IF_ERROR(
        client->Read(seg, kHeaderSize, data_size, buf.data()));
    return ParseFrames(Slice(buf), from_lsn, start_lsn, out).next_lsn;
  }

  // Cross-replica scan. Looking at ONE copy, a CRC mismatch mid-log is
  // indistinguishable from the torn tail: a single flipped bit would
  // silently truncate recovery at that record. Reading every copy
  // disambiguates — the longest valid frame prefix wins (a frame durable
  // on any replica was flushed there before its ack, so adopting it can
  // only extend the log with genuinely persisted records) — and copies
  // whose prefix ends earlier are repaired from the winner. Each copy is
  // parsed as it lands and only the best so far is kept, so at most two
  // copies are in memory at once.
  std::string best_buf;
  std::string buf;
  std::vector<bool> have(replicas, false);
  std::vector<uint64_t> valid_end(replicas, kHeaderSize);
  size_t winner = 0;
  bool found = false;
  for (size_t i = 0; i < replicas; ++i) {
    buf.assign(data_size, '\0');
    Status s = client->ReadReplica(seg, i, kHeaderSize, data_size, buf.data());
    if (!s.ok()) continue;  // dead node: recover from the copies we have
    have[i] = true;
    valid_end[i] =
        ParseFrames(Slice(buf), from_lsn, start_lsn, nullptr).valid_end;
    // The first longest valid prefix wins.
    if (!found || valid_end[i] > valid_end[winner]) {
      winner = i;
      found = true;
      best_buf.swap(buf);
    }
  }
  if (!found) {
    // Every direct replica read failed (nodes down, route mid-rebuild):
    // fall back to the failover+retry read path.
    buf.assign(data_size, '\0');
    VEDB_RETURN_IF_ERROR(
        client->Read(seg, kHeaderSize, data_size, buf.data()));
    return ParseFrames(Slice(buf), from_lsn, start_lsn, out).next_lsn;
  }
  const ParsedFrames best =
      ParseFrames(Slice(best_buf), from_lsn, start_lsn, out);
  // Scan-repair: rewrite the winner's valid prefix over every copy whose
  // own prefix ended earlier (mid-log bit rot or a lost tail). Divergent
  // garbage beyond the winner's prefix is left alone — it is outside the
  // durable log on every copy.
  for (size_t i = 0; i < replicas; ++i) {
    if (!have[i] || i == winner || valid_end[i] >= best.valid_end) continue;
    const uint64_t lo = valid_end[i];
    Slice patch(best_buf.data() + (lo - kHeaderSize), best.valid_end - lo);
    Status rs = client->WriteReplica(seg, i, lo, patch, route.epoch);
    if (rs.ok()) {
      obs::MetricsRegistry::Default()
          .GetCounter("astore.repair.scan_repairs")
          ->Add(1);
    }
    // A failed repair (node down, epoch moved) is left for the scrubber.
  }
  return best.next_lsn;
}

Result<SegmentRing::Recovered> SegmentRing::Recover(
    AStoreClient* client, const std::vector<SegmentId>& segment_ids,
    uint64_t from_lsn) {
  Recovered result;
  VEDB_ASSIGN_OR_RETURN(
      result.next_lsn,
      RecoverEach(client, segment_ids, from_lsn,
                  [&result](std::vector<LogRecord>* records) {
                    std::move(records->begin(), records->end(),
                              std::back_inserter(result.records));
                    return Status::OK();
                  }));
  std::sort(result.records.begin(), result.records.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.lsn < b.lsn;
            });
  return result;
}

Result<uint64_t> SegmentRing::RecoverEach(
    AStoreClient* client, const std::vector<SegmentId>& segment_ids,
    uint64_t from_lsn, const SegmentVisitor& visit) {
  struct Opened {
    SegmentHandlePtr seg;
    SegmentStatus status = SegmentStatus::kEmpty;
    uint64_t start_lsn = 0;
  };
  // Header reads are verified: a single replica serving a rotted header
  // must not make a live segment look unusable, so the read fails over to
  // a copy whose header decodes (and repairs the bad copy). Only when NO
  // copy has a valid header (DataLoss) is the segment classed kError —
  // the same conclusion a garbage header produced before.
  ReadOptions hdr_opts;
  hdr_opts.verify = [](Slice b) {
    SegmentStatus st;
    uint64_t sl;
    return DecodeHeader(b, &st, &sl)
               ? Status::OK()
               : Status::Corruption("segment header fails magic/CRC");
  };
  std::vector<Opened> ring;
  for (SegmentId id : segment_ids) {
    VEDB_ASSIGN_OR_RETURN(SegmentHandlePtr seg, client->OpenSegment(id));
    char hdr[kHeaderSize];
    Status hs = client->ReadVerified(seg, 0, kHeaderSize, hdr, hdr_opts);
    Opened o;
    o.seg = std::move(seg);
    if (hs.ok()) {
      VEDB_CHECK(DecodeHeader(Slice(hdr, kHeaderSize), &o.status,
                              &o.start_lsn),
                 "verified header failed to decode");
    } else if (hs.IsDataLoss()) {
      o.status = SegmentStatus::kError;  // garbage on every copy: unusable
    } else {
      return hs;
    }
    ring.push_back(std::move(o));
  }

  // "A binary search can be performed on all headers in the SegmentRing and
  // it can efficiently identify the largest LSN." Non-empty start LSNs form
  // a rotated ascending sequence in ring order; find the rotation point.
  auto used = [&](const Opened& o) {
    return o.status == SegmentStatus::kInUse || o.status == SegmentStatus::kFull;
  };
  int latest = -1;
  size_t used_count = 0;
  for (size_t i = 0; i < ring.size(); ++i) {
    if (used(ring[i])) used_count++;
  }
  if (used_count > 0) {
    // Binary search over the contiguous used prefix-in-ring-order. On a
    // ring that has not wrapped, the used segments are a prefix with
    // ascending LSNs: the answer is the last used one. After wrapping,
    // every slot is used and LSNs are a rotated ascending sequence.
    if (used_count < ring.size()) {
      // Not yet wrapped: last used slot holds the largest start LSN.
      size_t lo = 0, hi = ring.size() - 1;
      while (lo < hi) {
        size_t mid = (lo + hi + 1) / 2;
        if (used(ring[mid])) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      // Guard against replaced/irregular rings where used slots are not a
      // prefix: verify, else fall back to a linear pass.
      if (used(ring[lo]) && (lo + 1 == ring.size() || !used(ring[lo + 1]))) {
        latest = static_cast<int>(lo);
      }
    } else {
      // Wrapped: find rotation point (first slot whose LSN is smaller than
      // its predecessor's); the predecessor holds the max.
      size_t lo = 0, hi = ring.size() - 1;
      if (ring[lo].start_lsn <= ring[hi].start_lsn) {
        latest = static_cast<int>(hi);  // fully sorted: last one
      } else {
        while (lo < hi) {
          size_t mid = (lo + hi) / 2;
          if (ring[mid].start_lsn >= ring[0].start_lsn) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        latest = static_cast<int>(lo) - 1;
      }
    }
    if (latest < 0 || !used(ring[latest])) {
      // Fallback linear scan (robust to replaced slots).
      uint64_t best = 0;
      for (size_t i = 0; i < ring.size(); ++i) {
        if (used(ring[i]) && ring[i].start_lsn >= best) {
          best = ring[i].start_lsn;
          latest = static_cast<int>(i);
        }
      }
    }
  }

  if (latest < 0) return uint64_t{0};  // empty log

  // Collect records from every used segment whose records can be >= from_lsn,
  // in LSN order: sort used segments by start LSN.
  std::vector<const Opened*> ordered;
  for (const auto& o : ring) {
    if (used(o)) ordered.push_back(&o);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Opened* a, const Opened* b) {
              return a->start_lsn < b->start_lsn;
            });
  // Drop stale generations: segments whose start LSN is greater than a
  // later ring position's are from an older lap. With ascending LSNs this
  // reduces to: scan in LSN order, keep all (older laps were overwritten).
  uint64_t next_lsn = 0;
  for (const Opened* o : ordered) {
    std::vector<LogRecord> records;
    VEDB_ASSIGN_OR_RETURN(
        uint64_t seg_next,
        ScanSegment(client, o->seg, from_lsn, o->start_lsn, &records));
    next_lsn = std::max(next_lsn, seg_next);
    VEDB_RETURN_IF_ERROR(visit(&records));
  }
  return next_lsn;
}

}  // namespace vedb::astore
