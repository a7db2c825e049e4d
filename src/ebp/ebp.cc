#include "ebp/ebp.h"

#include <algorithm>
#include <set>

#include "common/coding.h"
#include "common/logging.h"

namespace vedb::ebp {

// ---------------- PageFrame ----------------

bool PageFrame::Parse(Slice in, PageKey* key, uint64_t* lsn, uint32_t* len) {
  if (in.size() < kHeaderSize) return false;
  if (DecodeFixed32(in.data()) != kMagic) return false;
  *key = DecodeFixed64(in.data() + 4);
  *lsn = DecodeFixed64(in.data() + 12);
  *len = DecodeFixed32(in.data() + 20);
  return true;
}

std::string ExtendedBufferPool::FramePage(PageKey key, uint64_t lsn,
                                          Slice image) {
  std::string f;
  PutFixed32(&f, PageFrame::kMagic);
  PutFixed64(&f, key);
  PutFixed64(&f, lsn);
  PutFixed32(&f, static_cast<uint32_t>(image.size()));
  f.append(image.data(), image.size());
  return f;
}

// ---------------- EbpServerAgent ----------------

EbpServerAgent::EbpServerAgent(sim::SimEnvironment* env,
                               net::RpcTransport* rpc,
                               astore::AStoreServer* server)
    : env_(env), server_(server) {
  rpc->RegisterService(server->node(), "ebp.report",
                       [this](Slice req, std::string* resp) {
                         return HandleReport(req, resp);
                       });
  rpc->RegisterService(server->node(), "ebp.scan",
                       [this](Slice req, std::string* resp) {
                         return HandleScan(req, resp);
                       });
}

uint64_t EbpServerAgent::ReportedLsn(PageKey key) const {
  vedb::MutexLock lk(&mu_);
  auto it = latest_lsn_.find(key);
  return it == latest_lsn_.end() ? 0 : it->second;
}

Status EbpServerAgent::HandleReport(Slice request, std::string* response) {
  Slice raw;
  if (!GetFixedBytes(&request, 4, &raw)) {
    return Status::InvalidArgument("ebp report");
  }
  const uint32_t count = DecodeFixed32(raw.data());
  server_->node()->cpu()->Access(0, 200 * count);  // ~0.2us per entry
  vedb::MutexLock lk(&mu_);
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("ebp report");
    }
    const PageKey key = DecodeFixed64(raw.data());
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("ebp report");
    }
    const uint64_t lsn = DecodeFixed64(raw.data());
    uint64_t& cur = latest_lsn_[key];
    cur = std::max(cur, lsn);
  }
  response->clear();
  return Status::OK();
}

Status EbpServerAgent::HandleScan(Slice request, std::string* response) {
  Slice raw;
  if (!GetFixedBytes(&request, 4, &raw)) {
    return Status::InvalidArgument("ebp scan");
  }
  const uint32_t count = DecodeFixed32(raw.data());

  std::string body;
  uint32_t entries = 0;
  uint64_t scanned_bytes = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("ebp scan");
    }
    const astore::SegmentId seg_id = DecodeFixed64(raw.data());
    auto placement = server_->GetLocalSegment(seg_id);
    if (!placement.ok()) continue;  // not hosted here
    const auto [base, size] = *placement;

    std::string buf(size, '\0');
    if (!server_->pmem()->Read(base, size, buf.data()).ok()) continue;
    scanned_bytes += size;

    // Walk page frames until the first non-frame byte.
    uint64_t off = 0;
    while (off + PageFrame::kHeaderSize <= size) {
      PageKey key;
      uint64_t lsn;
      uint32_t len;
      if (!PageFrame::Parse(Slice(buf.data() + off, size - off), &key, &lsn,
                            &len)) {
        break;
      }
      if (off + PageFrame::kHeaderSize + len > size) break;
      bool stale;
      {
        vedb::MutexLock lk(&mu_);
        auto it = latest_lsn_.find(key);
        // "Compares their LSNs with the one in memory, discards those with
        // older LSNs" (Section V-E).
        stale = it != latest_lsn_.end() && lsn < it->second;
      }
      if (!stale) {
        PutFixed64(&body, key);
        PutFixed64(&body, lsn);
        PutFixed64(&body, seg_id);
        PutFixed64(&body, off);
        PutFixed32(&body, len);
        entries++;
      }
      off += PageFrame::kHeaderSize + len;
    }
  }
  // The scan reads local PMem sequentially.
  server_->node()->storage()->Access(scanned_bytes);
  PutFixed32(response, entries);
  response->append(body);
  return Status::OK();
}

// ---------------- ExtendedBufferPool ----------------

ExtendedBufferPool::ExtendedBufferPool(sim::SimEnvironment* env,
                                       astore::AStoreClient* client,
                                       const Options& options)
    : env_(env), client_(client), options_(options) {
  sim::DeviceParams index_params;
  index_params.channels = 1;  // the EBP index lock is a serial resource
  index_params.base_latency = options_.index_op_cost;
  index_params.seed = env_->NextSeed();
  index_lock_ = std::make_unique<sim::QueueingDevice>(
      env_->clock(), "ebp.index_lock", index_params);

  for (int i = 0; i < options_.lru_shards; ++i) {
    sim::DeviceParams lru_params;
    lru_params.channels = 1;
    lru_params.base_latency = 300;  // per-shard LRU list maintenance
    lru_params.seed = env_->NextSeed();
    lru_locks_.push_back(std::make_unique<sim::QueueingDevice>(
        env_->clock(), "ebp.lru." + std::to_string(i), lru_params));
    lru_.emplace_back();
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  hits_metric_ = reg.GetCounter("ebp.hits");
  misses_metric_ = reg.GetCounter("ebp.misses");
  puts_metric_ = reg.GetCounter("ebp.puts");
  evictions_metric_ = reg.GetCounter("ebp.evictions");
  compactions_metric_ = reg.GetCounter("ebp.compactions");
  put_failures_metric_ = reg.GetCounter("ebp.put_failures");
  live_bytes_metric_ = reg.GetGauge("ebp.live_bytes");
  segments_metric_ = reg.GetGauge("ebp.segments");
}

ExtendedBufferPool::Stats ExtendedBufferPool::stats() const {
  vedb::MutexLock lk(&mu_);
  Stats s = stats_;
  s.live_bytes = live_bytes_;
  return s;
}

bool ExtendedBufferPool::Contains(PageKey key) const {
  vedb::MutexLock lk(&mu_);
  return index_.count(key) != 0;
}

bool ExtendedBufferPool::LookupPlacement(PageKey key, Placement* out) const {
  vedb::MutexLock lk(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  if (!it->second.seg->FirstReplicaNode(&out->node)) return false;
  out->segment = it->second.seg->id();
  out->offset = it->second.offset;
  out->len = it->second.len;
  return true;
}

bool ExtendedBufferPool::PriorityHasRoomLocked(int priority,
                                               uint64_t bytes) const {
  if (options_.policy != Policy::kPriority || priority >= 3) return true;
  // "Pages of priority can be placed in any space with the same or lower
  // priority": class p is capped at priority_caps[p] of total capacity.
  const uint64_t cap = static_cast<uint64_t>(
      options_.capacity * options_.priority_caps[priority]);
  uint64_t used = 0;
  for (int p = 0; p <= priority; ++p) used += priority_bytes_[p];
  return used + bytes <= cap;
}

ExtendedBufferPool::SegmentState* ExtendedBufferPool::FindSegmentLocked(
    const astore::SegmentHandlePtr& handle) {
  for (SegmentState& seg : segments_) {
    if (seg.handle == handle) return &seg;
  }
  return nullptr;
}

void ExtendedBufferPool::RetireLocked(
    std::unordered_map<PageKey, IndexEntry>::iterator it) {
  const IndexEntry& e = it->second;
  const uint64_t frame = PageFrame::kHeaderSize + e.len;
  if (SegmentState* seg = FindSegmentLocked(e.seg)) {
    seg->garbage += frame;
    seg->live_pages--;
  }
  live_bytes_ -= frame;
  priority_bytes_[e.priority] -= frame;
  lru_[e.lru_shard].erase(e.lru_it);
  index_.erase(it);
}

void ExtendedBufferPool::EvictLocked(uint64_t needed) {
  const uint64_t target =
      options_.capacity -
      std::min<uint64_t>(
          options_.capacity,
          needed + static_cast<uint64_t>(options_.capacity *
                                         options_.evict_fraction));
  // Priority policy drains lower classes first; flat treats all equally.
  const int passes = options_.policy == Policy::kPriority ? 4 : 1;
  for (int pass = 0; pass < passes && live_bytes_ > target; ++pass) {
    bool progress = true;
    while (live_bytes_ > target && progress) {
      progress = false;
      for (int shard = 0; shard < options_.lru_shards && live_bytes_ > target;
           ++shard) {
        auto& list = lru_[shard];
        // Find the least-recent victim of an eligible class.
        for (auto it = list.rbegin(); it != list.rend(); ++it) {
          auto idx = index_.find(*it);
          VEDB_CHECK(idx != index_.end(), "LRU/index out of sync");
          if (options_.policy == Policy::kPriority &&
              idx->second.priority > pass) {
            continue;
          }
          RetireLocked(idx);  // erases the LRU node `it` points at
          stats_.evicted_pages++;
          evictions_metric_->Add(1);
          progress = true;
          break;
        }
      }
    }
  }
}

Result<astore::SegmentHandlePtr> ExtendedBufferPool::ActiveSegmentFor(
    uint64_t bytes, uint64_t* offset) {
  {
    vedb::MutexLock lk(&mu_);
    if (!segments_.empty()) {
      SegmentState& active = segments_.back();
      if (!active.handle->frozen() && !active.handle->stale() &&
          active.used + bytes <= options_.segment_size) {
        *offset = active.used;
        active.used += bytes;
        active.live_pages++;
        return active.handle;
      }
    }
  }
  // Need a new segment (RPC to the CM; done outside the pool lock).
  VEDB_ASSIGN_OR_RETURN(
      astore::SegmentHandlePtr handle,
      client_->CreateSegment(options_.segment_size, options_.replication));
  vedb::MutexLock lk(&mu_);
  segments_.push_back(SegmentState{handle, 0, 0, 0});
  SetSegmentsGaugeLocked();
  SegmentState& active = segments_.back();
  if (active.used + bytes > options_.segment_size) {
    return Status::NoSpace("page larger than EBP segment");
  }
  *offset = active.used;
  active.used += bytes;
  active.live_pages++;
  return active.handle;
}

Status ExtendedBufferPool::PutPage(PageKey key, uint64_t lsn, Slice image,
                                   int priority) {
  if (priority < 0) priority = 0;
  if (priority > 3) priority = 3;
  const std::string frame = FramePage(key, lsn, image);

  ChargeIndexOp();
  const int shard = ShardOf(key);
  lru_locks_[shard]->Access(0);

  {
    vedb::MutexLock lk(&mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // A newer version is already cached (e.g. the flusher's put overtook
      // a compaction move of an older one): nothing to do.
      if (it->second.lsn > lsn) return Status::OK();
      // Replace the older version: its bytes become garbage.
      RetireLocked(it);
    }
    if (live_bytes_ + frame.size() > options_.capacity ||
        !PriorityHasRoomLocked(priority, frame.size())) {
      EvictLocked(frame.size());
    }
    if (options_.policy == Policy::kPriority &&
        !PriorityHasRoomLocked(priority, frame.size())) {
      // This class's share is still full (higher classes own the space):
      // the page simply is not cached.
      return Status::NoSpace("EBP priority class full");
    }
  }

  Status s = WriteAndInstall(key, lsn, frame, priority, shard);
  // The engine drops cache puts' statuses; the counter keeps them seen.
  if (!s.ok()) put_failures_metric_->Add(1);
  return s;
}

Status ExtendedBufferPool::WriteAndInstall(PageKey key, uint64_t lsn,
                                           const std::string& frame,
                                           int priority, int shard) {
  uint64_t offset = 0;
  VEDB_ASSIGN_OR_RETURN(astore::SegmentHandlePtr seg,
                        ActiveSegmentFor(frame.size(), &offset));
  Status s = client_->WriteAt(seg, offset, Slice(frame));

  vedb::MutexLock lk(&mu_);
  SegmentState* held = FindSegmentLocked(seg);
  if (held == nullptr) {
    return s.ok() ? Status::Aborted("EBP segment released during put") : s;
  }
  // The write ran without the pool lock, so another put of this key may
  // have installed meanwhile. The newer LSN wins; the loser's frame is
  // garbage either way.
  auto it = index_.find(key);
  if (!s.ok() || (it != index_.end() && it->second.lsn >= lsn)) {
    held->garbage += frame.size();
    held->live_pages--;
    return s;  // a failed cache write is benign; the caller drops the page
  }
  if (it != index_.end()) RetireLocked(it);
  IndexEntry e;
  e.lsn = lsn;
  e.seg = seg;
  e.offset = offset;
  e.len = static_cast<uint32_t>(frame.size() - PageFrame::kHeaderSize);
  e.priority = priority;
  e.lru_shard = shard;
  lru_[shard].push_front(key);
  e.lru_it = lru_[shard].begin();
  index_.emplace(key, std::move(e));
  live_bytes_ += frame.size();
  priority_bytes_[priority] += frame.size();
  stats_.puts++;
  puts_metric_->Add(1);
  live_bytes_metric_->Set(static_cast<int64_t>(live_bytes_));
  return Status::OK();
}

Status ExtendedBufferPool::GetPage(PageKey key, std::string* image,
                                   uint64_t* lsn) {
  ChargeIndexOp();
  astore::SegmentHandlePtr seg;
  uint64_t offset = 0;
  uint32_t len = 0;
  const int shard = ShardOf(key);
  {
    vedb::MutexLock lk(&mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      stats_.misses++;
      misses_metric_->Add(1);
      return Status::NotFound("EBP miss");
    }
    IndexEntry& e = it->second;
    seg = e.seg;
    offset = e.offset;
    len = e.len;
    // Touch the LRU.
    lru_[e.lru_shard].erase(e.lru_it);
    lru_[e.lru_shard].push_front(key);
    e.lru_it = lru_[e.lru_shard].begin();
  }
  lru_locks_[shard]->Access(0);

  std::string buf(PageFrame::kHeaderSize + len, '\0');
  Status s = client_->Read(seg, offset, buf.size(), buf.data());
  if (!s.ok()) {
    // A dead AStore server only costs hit rate, never correctness.
    Erase(key);
    vedb::MutexLock lk(&mu_);
    stats_.misses++;
    misses_metric_->Add(1);
    return Status::NotFound("EBP replica unavailable");
  }
  PageKey got_key;
  uint64_t got_lsn;
  uint32_t got_len;
  if (!PageFrame::Parse(Slice(buf), &got_key, &got_lsn, &got_len) ||
      got_key != key || got_len != len) {
    Erase(key);
    vedb::MutexLock lk(&mu_);
    stats_.misses++;
    misses_metric_->Add(1);
    return Status::NotFound("EBP frame mismatch");
  }
  image->assign(buf.data() + PageFrame::kHeaderSize, len);
  if (lsn != nullptr) *lsn = got_lsn;
  vedb::MutexLock lk(&mu_);
  stats_.hits++;
  hits_metric_->Add(1);
  return Status::OK();
}

std::vector<PageKey> ExtendedBufferPool::HottestKeys(size_t limit) const {
  vedb::MutexLock lk(&mu_);
  std::vector<PageKey> keys;
  // Round-robin across the shard lists from their hot ends.
  std::vector<std::list<PageKey>::const_iterator> cursors;
  cursors.reserve(lru_.size());
  for (const auto& list : lru_) cursors.push_back(list.begin());
  bool progress = true;
  while (keys.size() < limit && progress) {
    progress = false;
    for (size_t s = 0; s < lru_.size() && keys.size() < limit; ++s) {
      if (cursors[s] == lru_[s].end()) continue;
      keys.push_back(*cursors[s]);
      ++cursors[s];
      progress = true;
    }
  }
  return keys;
}

void ExtendedBufferPool::Erase(PageKey key) {
  vedb::MutexLock lk(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) RetireLocked(it);
}

void ExtendedBufferPool::NoteLatestLsn(PageKey key, uint64_t lsn) {
  vedb::MutexLock lk(&report_mu_);
  uint64_t& cur = pending_reports_[key];
  cur = std::max(cur, lsn);
}

Status ExtendedBufferPool::FlushLsnReports() {
  std::unordered_map<PageKey, uint64_t> batch;
  {
    vedb::MutexLock lk(&report_mu_);
    batch.swap(pending_reports_);
  }
  if (batch.empty()) return Status::OK();

  std::string req;
  PutFixed32(&req, static_cast<uint32_t>(batch.size()));
  for (const auto& [key, lsn] : batch) {
    PutFixed64(&req, key);
    PutFixed64(&req, lsn);
  }

  // Send to every node hosting one of our segments.
  std::set<std::string> nodes;
  {
    vedb::MutexLock lk(&mu_);
    for (const auto& seg : segments_) {
      for (const auto& loc : seg.handle->route().replicas) {
        nodes.insert(loc.node);
      }
    }
  }
  for (const std::string& name : nodes) {
    std::string resp;
    // discard-ok: LSN reports are advisory; a missed report only costs
    // scan precision after a crash, never correctness.
    (void)client_->rpc()->Call(client_->node(), env_->GetNode(name),
                               "ebp.report", Slice(req), &resp);
  }
  return Status::OK();
}

Status ExtendedBufferPool::ScanServers(
    const std::vector<astore::SegmentId>& segment_ids,
    std::map<astore::SegmentId, astore::SegmentHandlePtr>* handles,
    std::vector<ScannedEntry>* entries) {
  // Re-open every EBP segment and group them by hosting node.
  std::map<std::string, std::vector<astore::SegmentId>> by_node;
  for (astore::SegmentId id : segment_ids) {
    auto opened = client_->OpenSegment(id);
    if (!opened.ok()) continue;  // segment lost with its server: fine
    const auto route = (*opened)->route();
    if (route.replicas.empty()) continue;
    by_node[route.replicas[0].node].push_back(id);
    (*handles)[id] = *opened;
  }

  for (const auto& [node_name, ids] : by_node) {
    sim::SimNode* node = env_->GetNode(node_name);
    if (!node->alive()) continue;  // its pages are simply lost
    std::string req, resp;
    PutFixed32(&req, static_cast<uint32_t>(ids.size()));
    for (astore::SegmentId id : ids) PutFixed64(&req, id);
    Status s = client_->rpc()->Call(client_->node(), node, "ebp.scan",
                                    Slice(req), &resp);
    if (!s.ok()) continue;
    Slice in(resp);
    Slice raw;
    if (!GetFixedBytes(&in, 4, &raw)) continue;
    const uint32_t count = DecodeFixed32(raw.data());
    for (uint32_t i = 0; i < count; ++i) {
      ScannedEntry e;
      if (!GetFixedBytes(&in, 8, &raw)) break;
      e.key = DecodeFixed64(raw.data());
      if (!GetFixedBytes(&in, 8, &raw)) break;
      e.lsn = DecodeFixed64(raw.data());
      if (!GetFixedBytes(&in, 8, &raw)) break;
      e.seg = DecodeFixed64(raw.data());
      if (!GetFixedBytes(&in, 8, &raw)) break;
      e.offset = DecodeFixed64(raw.data());
      if (!GetFixedBytes(&in, 4, &raw)) break;
      e.len = DecodeFixed32(raw.data());
      entries->push_back(e);
    }
  }
  return Status::OK();
}

Status ExtendedBufferPool::RecoverFromServers(
    const std::vector<astore::SegmentId>& segment_ids) {
  std::map<astore::SegmentId, astore::SegmentHandlePtr> handles;
  std::vector<ScannedEntry> entries;
  VEDB_RETURN_IF_ERROR(ScanServers(segment_ids, &handles, &entries));

  // Keep the newest version of each page.
  std::unordered_map<PageKey, ScannedEntry> newest;
  for (const ScannedEntry& e : entries) {
    auto it = newest.find(e.key);
    if (it == newest.end() || e.lsn > it->second.lsn) newest[e.key] = e;
  }

  vedb::MutexLock lk(&mu_);
  index_.clear();
  for (auto& list : lru_) list.clear();
  segments_.clear();
  live_bytes_ = 0;
  for (auto& b : priority_bytes_) b = 0;

  std::map<astore::SegmentId, size_t> seg_slot;
  for (const auto& [id, handle] : handles) {
    seg_slot[id] = segments_.size();
    segments_.push_back(SegmentState{handle, 0, 0, 0});
  }
  SetSegmentsGaugeLocked();
  for (const auto& [key, e] : newest) {
    auto slot = seg_slot.find(e.seg);
    if (slot == seg_slot.end()) continue;
    SegmentState& seg = segments_[slot->second];
    const uint64_t frame = PageFrame::kHeaderSize + e.len;
    seg.used = std::max(seg.used, e.offset + frame);
    seg.live_pages++;
    IndexEntry entry;
    entry.lsn = e.lsn;
    entry.seg = seg.handle;
    entry.offset = e.offset;
    entry.len = e.len;
    entry.priority = 3;
    entry.lru_shard = ShardOf(key);
    lru_[entry.lru_shard].push_front(key);
    entry.lru_it = lru_[entry.lru_shard].begin();
    index_[key] = std::move(entry);
    live_bytes_ += frame;
    priority_bytes_[3] += frame;
  }
  // Account duplicate/stale frames in the recovered segments as garbage.
  for (auto& seg : segments_) {
    uint64_t live = 0;
    for (const auto& [key, e] : index_) {
      if (e.seg == seg.handle) live += PageFrame::kHeaderSize + e.len;
    }
    seg.garbage = seg.used > live ? seg.used - live : 0;
  }
  return Status::OK();
}

Status ExtendedBufferPool::ReattachSegments(
    const std::vector<astore::SegmentId>& segment_ids) {
  std::map<astore::SegmentId, astore::SegmentHandlePtr> handles;
  std::vector<ScannedEntry> entries;
  VEDB_RETURN_IF_ERROR(ScanServers(segment_ids, &handles, &entries));

  std::unordered_map<PageKey, ScannedEntry> newest;
  for (const ScannedEntry& e : entries) {
    auto it = newest.find(e.key);
    if (it == newest.end() || e.lsn > it->second.lsn) newest[e.key] = e;
  }

  vedb::MutexLock lk(&mu_);
  std::map<astore::SegmentId, size_t> seg_slot;
  for (size_t i = 0; i < segments_.size(); ++i) {
    seg_slot[segments_[i].handle->id()] = i;
  }
  for (const auto& [id, handle] : handles) {
    if (seg_slot.count(id)) continue;
    seg_slot[id] = segments_.size();
    segments_.push_back(SegmentState{handle, 0, 0, 0});
  }
  SetSegmentsGaugeLocked();
  for (const auto& [key, e] : newest) {
    auto existing = index_.find(key);
    // Keep any current entry with the same or newer version.
    if (existing != index_.end() && existing->second.lsn >= e.lsn) continue;
    auto slot = seg_slot.find(e.seg);
    if (slot == seg_slot.end()) continue;
    if (existing != index_.end()) RetireLocked(existing);  // older entry
    SegmentState& seg = segments_[slot->second];
    const uint64_t frame = PageFrame::kHeaderSize + e.len;
    seg.used = std::max(seg.used, e.offset + frame);
    seg.live_pages++;
    IndexEntry entry;
    entry.lsn = e.lsn;
    entry.seg = seg.handle;
    entry.offset = e.offset;
    entry.len = e.len;
    entry.priority = 3;
    entry.lru_shard = ShardOf(key);
    lru_[entry.lru_shard].push_front(key);
    entry.lru_it = lru_[entry.lru_shard].begin();
    index_[key] = std::move(entry);
    live_bytes_ += frame;
    priority_bytes_[3] += frame;
  }
  return Status::OK();
}

const ExtendedBufferPool::SegmentState*
ExtendedBufferPool::WorstSealedLocked() const {
  const SegmentState* worst = nullptr;
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {  // skip active (last)
    const SegmentState& seg = segments_[i];
    if (seg.used == 0) continue;
    if (worst == nullptr || seg.garbage_ratio() >= worst->garbage_ratio()) {
      worst = &seg;
    }
  }
  return worst;
}

double ExtendedBufferPool::WorstSealedGarbageRatio() const {
  vedb::MutexLock lk(&mu_);
  const SegmentState* worst = WorstSealedLocked();
  return worst == nullptr ? 0.0 : worst->garbage_ratio();
}

bool ExtendedBufferPool::UnderSpacePressure() const {
  vedb::MutexLock lk(&mu_);
  uint64_t sealed = 0;
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {  // skip active (last)
    sealed += segments_[i].used;
  }
  // Sealed segments that each keep (1 - threshold) of their bytes live hold
  // at most capacity / (1 - threshold); past that, some segment is over the
  // threshold. Below it, moving pages would only spend PMem writes.
  return static_cast<double>(sealed) * (1.0 - options_.garbage_threshold) >=
         static_cast<double>(options_.capacity);
}

Status ExtendedBufferPool::CompactOnce() {
  // Pages moved out of a victim land in the active segment, which can seal
  // it and make it a candidate in turn; bounding the pass by the segment
  // count at its start keeps that from looping forever.
  size_t budget;
  {
    vedb::MutexLock lk(&mu_);
    budget = segments_.size();
  }
  for (; budget > 0; --budget) {
    astore::SegmentHandlePtr victim;
    {
      vedb::MutexLock lk(&mu_);
      const SegmentState* worst = WorstSealedLocked();
      if (worst != nullptr &&
          worst->garbage_ratio() >= options_.garbage_threshold) {
        victim = worst->handle;
      }
    }
    if (victim == nullptr) break;
    ReclaimSegment(victim);
  }
  return Status::OK();
}

void ExtendedBufferPool::ReclaimSegment(
    const astore::SegmentHandlePtr& victim) {
  std::vector<std::pair<PageKey, IndexEntry>> live;
  {
    vedb::MutexLock lk(&mu_);
    for (const auto& [key, e] : index_) {
      if (e.seg == victim) live.push_back({key, e});
    }
  }

  if (options_.enable_compaction) {
    // Move live pages to the active segment, then release the victim.
    for (const auto& [key, e] : live) {
      std::string buf(PageFrame::kHeaderSize + e.len, '\0');
      if (!client_->Read(victim, e.offset, buf.size(), buf.data()).ok()) {
        continue;
      }
      PageKey k;
      uint64_t lsn;
      uint32_t len;
      if (!PageFrame::Parse(Slice(buf), &k, &lsn, &len) || k != key) continue;
      // Re-insert only if the entry is still current (not replaced since).
      bool still_current;
      {
        vedb::MutexLock lk(&mu_);
        auto it = index_.find(key);
        still_current = it != index_.end() && it->second.seg == victim &&
                        it->second.offset == e.offset;
      }
      if (still_current) {
        // discard-ok: failing to re-cache a compacted page only loses a
        // cache entry (and is counted in ebp.put_failures).
        (void)PutPage(key, lsn,
                      Slice(buf.data() + PageFrame::kHeaderSize, len),
                      e.priority);
      }
    }
  } else {
    // "If compaction is not enabled, the segments with high amounts of
    // garbage will be released directly, releasing part of the valid pages
    // in the process."
    vedb::MutexLock lk(&mu_);
    for (const auto& [key, e] : live) {
      auto it = index_.find(key);
      if (it == index_.end() || it->second.seg != victim) continue;
      RetireLocked(it);
      stats_.dropped_live_pages++;
    }
  }

  // Release the victim segment cluster-wide.
  {
    vedb::MutexLock lk(&mu_);
    for (auto it = segments_.begin(); it != segments_.end(); ++it) {
      if (it->handle == victim) {
        segments_.erase(it);
        break;
      }
    }
    SetSegmentsGaugeLocked();
    stats_.compactions++;
    compactions_metric_->Add(1);
  }
  // discard-ok: a failed delete leaks the segment until its lease-based
  // clean; the cache itself is already consistent.
  (void)client_->Delete(victim);
}

void ExtendedBufferPool::BackgroundLoop() {
  Timestamp last_report = 0;
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(options_.compaction_period);
    // discard-ok: background maintenance is retried next period.
    if (UnderSpacePressure()) (void)CompactOnce();
    const Timestamp now = env_->clock()->Now();
    if (now - last_report >= options_.report_period) {
      // discard-ok: reports are re-sent with fresher data next period.
      (void)FlushLsnReports();
      last_report = now;
    }
  }
}

void ExtendedBufferPool::StartBackground(sim::ActorGroup* group) {
  group->Spawn([this] { BackgroundLoop(); });
}

}  // namespace vedb::ebp
