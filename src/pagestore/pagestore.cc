#include "pagestore/pagestore.h"

#include <algorithm>
#include <unordered_set>

#include "common/coding.h"
#include "common/logging.h"

namespace vedb::pagestore {

namespace {

// The bytes of every live page buffer in the process, each counted once
// however many replicas share it (pagestore.image_bytes), and of every
// shard's REDO chain, each record counted once however many replicas hold
// it (pagestore.chain_bytes).
std::atomic<int64_t> resident_image_bytes{0};
std::atomic<int64_t> resident_chain_bytes{0};

void AddResident(std::atomic<int64_t>* resident, obs::Gauge* gauge,
                 int64_t delta) {
  gauge->Set(resident->fetch_add(delta) + delta);
}

}  // namespace

void PageStoreCluster::AddImageBytes(int64_t delta) {
  // Registered with the first image, so a run that builds no page does not
  // report the gauge.
  if (image_bytes_ == nullptr) {
    image_bytes_ =
        obs::MetricsRegistry::Default().GetGauge("pagestore.image_bytes");
  }
  AddResident(&resident_image_bytes, image_bytes_, delta);
}

void PageStoreCluster::AddChainBytes(int64_t delta) {
  AddResident(&resident_chain_bytes, chain_bytes_, delta);
}

PageStoreCluster::ImageRef PageStoreCluster::NewImage(PageImage image) {
  AddImageBytes(static_cast<int64_t>(image.bytes.size()));
  return ImageRef(new PageImage(std::move(image)),
                  [gauge = image_bytes_](PageImage* img) {
                    AddResident(&resident_image_bytes, gauge,
                                -static_cast<int64_t>(img->bytes.size()));
                    delete img;
                  });
}

PageStoreCluster::PageStoreCluster(sim::SimEnvironment* env,
                                   net::RpcTransport* rpc,
                                   std::vector<sim::SimNode*> nodes,
                                   ApplyFn apply, const Options& options)
    : env_(env),
      rpc_(rpc),
      nodes_(std::move(nodes)),
      apply_(std::move(apply)),
      options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  ship_batches_ = reg.GetCounter("pagestore.ship_batches");
  ship_records_ = reg.GetCounter("pagestore.ship_records");
  applied_metric_ = reg.GetCounter("pagestore.applied_records");
  gossip_metric_ = reg.GetCounter("pagestore.gossip_fills");
  page_reads_ = reg.GetCounter("pagestore.page_reads");
  read_ns_ = reg.GetHistogram("pagestore.read_ns");
  versions_built_ = reg.GetCounter("pagestore.versions_built");
  versions_adopted_ = reg.GetCounter("pagestore.versions_adopted");
  chain_bytes_ = reg.GetGauge("pagestore.chain_bytes");
  VEDB_CHECK(static_cast<int>(nodes_.size()) >= options_.replication,
             "need at least replication-many PageStore nodes");
  VEDB_CHECK(options_.write_quorum <= options_.replication, "quorum too big");

  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    for (int r = 0; r < options_.replication; ++r) {
      shard->nodes.push_back(nodes_[(s + r) % nodes_.size()]);
    }
    vedb::MutexLock lk(&shard->mu);
    shard->replicas.resize(options_.replication);
    shards_.push_back(std::move(shard));
  }

  // Register per-(node, shard-replica) services. Service names carry the
  // shard & replica index so one node can host several shards.
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard* shard = shards_[s].get();
    for (int r = 0; r < options_.replication; ++r) {
      sim::SimNode* node = shard->nodes[r];
      const std::string suffix =
          "." + std::to_string(s) + "." + std::to_string(r);
      shard->ship_service.push_back("ps.ship" + suffix);
      shard->read_service.push_back("ps.read_page" + suffix);
      shard->fetch_service.push_back("ps.fetch" + suffix);
      rpc_->RegisterTimedService(
          node, shard->ship_service[r],
          [this, s, r](Slice req, std::string* resp, Timestamp start,
                       Timestamp* done) {
            return HandleShip(s, r, req, resp, start, done);
          });
      rpc_->RegisterService(node, shard->read_service[r],
                            [this, s, r](Slice req, std::string* resp) {
                              return HandleReadPage(s, r, req, resp);
                            });
      rpc_->RegisterService(node, shard->fetch_service[r],
                            [this, s, r](Slice req, std::string* resp) {
                              return HandleFetch(s, r, req, resp);
                            });
    }
  }
}

PageStoreCluster::~PageStoreCluster() {
  int64_t bytes = 0;
  for (const auto& shard : shards_) {
    vedb::MutexLock lk(&shard->mu);
    for (const auto& [index, chunk] : shard->chain) {
      for (const ChainRecord& rec : chunk->records) {
        if (rec.holders > 0) bytes += static_cast<int64_t>(rec.payload.size());
      }
    }
  }
  if (bytes != 0) AddChainBytes(-bytes);
}

int PageStoreCluster::ShardOf(PageKey key) const {
  // Fibonacci hash spreads sequential page numbers evenly.
  return static_cast<int>(((key * 0x9E3779B97F4A7C15ULL) >> 32) & 0x7FFFFFFF) %
         options_.num_shards;
}

const std::vector<sim::SimNode*>& PageStoreCluster::ReplicaNodes(
    int shard) const {
  return shards_[shard]->nodes;
}

bool PageStoreCluster::DecodeRecords(Slice in, std::vector<WireRecord>* out) {
  Slice raw;
  if (!GetFixedBytes(&in, 4, &raw)) return false;
  const uint32_t count = DecodeFixed32(raw.data());
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireRecord rec;
    if (!GetFixedBytes(&in, 8, &raw)) return false;
    rec.seq = DecodeFixed64(raw.data());
    if (!GetFixedBytes(&in, 8, &raw)) return false;
    rec.lsn = DecodeFixed64(raw.data());
    if (!GetFixedBytes(&in, 8, &raw)) return false;
    rec.page_key = DecodeFixed64(raw.data());
    if (!GetLengthPrefixedSlice(&in, &rec.payload)) return false;
    out->push_back(rec);
  }
  return true;
}

const PageStoreCluster::ChainRecord* PageStoreCluster::ChainAtLocked(
    const Shard* shard, uint64_t seq) {
  auto it = shard->chain.find(seq >> kChainChunkBits);
  if (it == shard->chain.end()) return nullptr;
  const ChainRecord& rec = it->second->records[seq & kChainChunkMask];
  return rec.holders > 0 ? &rec : nullptr;
}

void PageStoreCluster::InsertRecordsLocked(
    Shard* shard, ShardReplica* rep, const std::vector<WireRecord>& records) {
  int64_t published = 0;
  for (const WireRecord& in : records) {
    // A late duplicate of a record already dropped from the front is kept
    // like any other arrival: grow the flags backwards to reach its slot.
    while (in.seq < rep->first_seq) {
      rep->held.push_front(false);
      rep->first_seq--;
    }
    const uint64_t idx = in.seq - rep->first_seq;
    if (idx >= rep->held.size()) rep->held.resize(idx + 1, false);
    rep->max_seen_seq = std::max(rep->max_seen_seq, in.seq);
    if (rep->held[idx]) continue;
    rep->held[idx] = true;
    // A sequence number names one record, so a copy another replica
    // published is this one; otherwise this replica publishes its own.
    std::unique_ptr<ChainChunk>& chunk =
        shard->chain[in.seq >> kChainChunkBits];
    if (chunk == nullptr) chunk = std::make_unique<ChainChunk>();
    ChainRecord& rec = chunk->records[in.seq & kChainChunkMask];
    if (rec.holders++ > 0) {
      VEDB_CHECK(rec.lsn == in.lsn && rec.page_key == in.page_key &&
                     Slice(rec.payload) == in.payload,
                 "pagestore: two records with seq %llu",
                 (unsigned long long)in.seq);
      continue;
    }
    chunk->live++;
    rec.lsn = in.lsn;
    rec.page_key = in.page_key;
    rec.payload.assign(in.payload.data(), in.payload.size());
    published += static_cast<int64_t>(rec.payload.size());
  }
  if (published != 0) AddChainBytes(published);
  // Dense chain: advance over every held successor.
  while (rep->Holds(rep->contiguous_seq + 1)) rep->contiguous_seq++;
}

uint64_t PageStoreCluster::ApplyContiguousLocked(Shard* shard,
                                                 ShardReplica* rep) {
  // NOTE: must not block on the clock (caller holds shard->mu); the CPU
  // cost of the applied records is charged by the caller after unlocking.
  if (rep->applied_seq == rep->contiguous_seq) return 0;
  const uint64_t first = rep->applied_seq + 1;
  const uint64_t last = rep->contiguous_seq;

  // Group the run by page. Every seq in (applied_seq, contiguous_seq] is
  // held: contiguous_seq only passes held records, TruncateBelow drops
  // only seqs <= applied_seq, and a late arrival only fills a slot. So no
  // record of the run can have been skipped. This replica's hold keeps
  // each record, and the chunk it sits in, in place until it is dropped.
  std::vector<RunPage>& run = shard->run_pages;
  std::vector<RunRecord>& run_records = shard->run_records;
  run.clear();
  run_records.clear();
  uint64_t max_lsn = rep->applied_lsn;
  for (uint64_t seq = first; seq <= last; ++seq) {
    const ChainRecord* rec = ChainAtLocked(shard, seq);
    VEDB_CHECK(rec != nullptr, "pagestore: seq %llu missing below the "
               "contiguity watermark", (unsigned long long)seq);
    ShardReplica::Page& page = rep->pages[rec->page_key];
    if (page.run == kNotInRun) {
      page.run = static_cast<uint32_t>(run.size());
      run.push_back({rec->page_key, &page, 0, nullptr, 0});
    }
    run[page.run].target = seq;
    run_records.push_back({rec, page.run});
    max_lsn = std::max(max_lsn, rec->lsn);
  }

  // Each page the run touches ends at the version of the run's last record
  // on it. An image already at or past it (an install stamped after those
  // records) is kept. Otherwise adopt a peer's current image that stands
  // exactly there: every replica applies the same chain to the same
  // install, so it is this page. Failing that, build: make the image
  // writable, copying it only if it is shared.
  uint64_t adopted = 0;
  uint64_t built = 0;
  for (RunPage& p : run) {
    p.page->run = kNotInRun;
    ImageRef& mine = p.page->image;
    if (mine != nullptr && mine->seq >= p.target) continue;
    const ImageRef* peer_image = nullptr;
    for (const ShardReplica& peer : shard->replicas) {
      if (&peer == rep) continue;
      auto it = peer.pages.find(p.key);
      if (it != peer.pages.end() && it->second.image->seq == p.target) {
        peer_image = &it->second.image;
        break;
      }
    }
    if (peer_image != nullptr) {
      mine = *peer_image;
      adopted++;
      continue;
    }
    built++;
    if (mine == nullptr) {
      mine = NewImage(PageImage());
    } else if (mine.use_count() > 1) {
      mine = NewImage(*mine);
    }
    p.build = mine.get();
    p.size_before = mine->bytes.size();
  }

  // Apply the run's records to the pages being built, in chain order. An
  // install replaces its page as of its stamped seq, so a record at or
  // below the image's seq (one shipped before the install) is skipped on
  // every replica alike.
  for (uint64_t seq = first; seq <= last; ++seq) {
    const RunRecord& r = run_records[seq - first];
    PageImage* img = run[r.page].build;
    if (img == nullptr || seq <= img->seq) continue;
    apply_(r.rec->page_key, Slice(r.rec->payload), r.rec->lsn, &img->bytes);
    if (r.rec->lsn > img->lsn) img->lsn = r.rec->lsn;
    img->seq = seq;
  }
  int64_t grown = 0;
  for (const RunPage& p : run) {
    if (p.build == nullptr) continue;
    grown += static_cast<int64_t>(p.build->bytes.size()) -
             static_cast<int64_t>(p.size_before);
  }
  if (grown != 0) AddImageBytes(grown);

  const uint64_t applied = last - first + 1;
  rep->applied_seq = last;
  rep->applied_lsn = max_lsn;
  applied_records_.fetch_add(applied);
  applied_metric_->Add(applied);
  versions_built_->Add(built);
  versions_adopted_->Add(adopted);
  return applied;
}

Status PageStoreCluster::HandleShip(int shard, int replica_idx, Slice request,
                                    std::string* response, Timestamp start,
                                    Timestamp* done) {
  VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("ps.ship"));
  Shard* sh = shards_[shard].get();

  std::vector<WireRecord> records;
  if (!DecodeRecords(request, &records)) {
    return Status::InvalidArgument("ship batch");
  }
  uint64_t total_bytes = 0;
  for (const WireRecord& rec : records) total_bytes += rec.payload.size();

  // Records are persisted (SSD) before acking.
  *done = sh->nodes[replica_idx]->storage()->SubmitAt(
      start, total_bytes + 64 * records.size());
  {
    vedb::MutexLock lk(&sh->mu);
    InsertRecordsLocked(sh, &sh->replicas[replica_idx], records);
  }
  response->clear();
  return Status::OK();
}

Status PageStoreCluster::ShipRecords(
    sim::SimNode* client, const std::vector<RedoShipRecord>& records) {
  if (records.empty()) return Status::OK();

  // Group by shard and stamp chain sequence numbers under the shard's ship
  // lock so the per-shard chain stays dense and in ship order. Each
  // request starts with a 4-byte record count, filled in below.
  struct ShardBatch {
    std::string request;  // encoded incrementally
    uint32_t count = 0;
    uint64_t max_lsn = 0;
  };
  std::vector<ShardBatch> batches(options_.num_shards);
  for (const auto& rec : records) {
    const int s = ShardOf(rec.page_key);
    ShardBatch& batch = batches[s];
    uint64_t seq;
    {
      Shard* shard = shards_[s].get();
      vedb::MutexLock lk(&shard->ship_mu);
      seq = shard->next_seq++;
      shard->last_shipped_lsn = std::max(shard->last_shipped_lsn, rec.lsn);
    }
    if (batch.count == 0) batch.request.assign(4, '\0');
    PutFixed64(&batch.request, seq);
    PutFixed64(&batch.request, rec.lsn);
    PutFixed64(&batch.request, rec.page_key);
    PutLengthPrefixedSlice(&batch.request, Slice(rec.payload));
    batch.count++;
    batch.max_lsn = std::max(batch.max_lsn, rec.lsn);
  }

  // One scatter covering every (shard, replica) pair, in shard order; we
  // wait for all calls but tolerate per-replica failures as long as each
  // shard has a quorum.
  std::vector<net::RpcTransport::ScatterCall> calls;
  std::vector<int> call_shard;
  for (int s = 0; s < options_.num_shards; ++s) {
    ShardBatch& batch = batches[s];
    if (batch.count == 0) continue;
    EncodeFixed32(batch.request.data(), batch.count);
    for (int r = 0; r < options_.replication; ++r) {
      calls.push_back({shards_[s]->nodes[r], shards_[s]->ship_service[r],
                       r + 1 == options_.replication
                           ? std::move(batch.request)
                           : batch.request});
      call_shard.push_back(s);
    }
  }
  auto statuses = rpc_->CallScatter(client, calls, nullptr, /*acks=*/0);

  std::vector<int> acks(options_.num_shards, 0);
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) acks[call_shard[i]]++;
  }
  for (int s = 0; s < options_.num_shards; ++s) {
    const ShardBatch& batch = batches[s];
    if (batch.count == 0) continue;
    if (acks[s] < options_.write_quorum) {
      return Status::Unavailable("PageStore shard " + std::to_string(s) +
                                 " lost its quorum");
    }
    uint64_t prev = shards_[s]->acked_lsn.load();
    while (prev < batch.max_lsn &&
           !shards_[s]->acked_lsn.compare_exchange_weak(prev,
                                                        batch.max_lsn)) {
    }
  }
  ship_batches_->Add(1);
  ship_records_->Add(records.size());
  return Status::OK();
}

Status PageStoreCluster::HandleReadPage(int shard, int replica_idx,
                                        Slice request, std::string* response) {
  Shard* sh = shards_[shard].get();
  Slice raw;
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("read_page");
  }
  const PageKey key = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("read_page");
  }
  const uint64_t min_lsn = DecodeFixed64(raw.data());

  // If this replica cannot reach the required LSN from what it already
  // holds, try one synchronous gossip catch-up before giving up.
  bool need_gossip;
  {
    vedb::MutexLock lk(&sh->mu);
    const ShardReplica* rep = &sh->replicas[replica_idx];
    uint64_t reachable_lsn = rep->applied_lsn;
    for (uint64_t seq = rep->applied_seq + 1; seq <= rep->contiguous_seq;
         ++seq) {
      if (const ChainRecord* rec = ChainAtLocked(sh, seq)) {
        reachable_lsn = std::max(reachable_lsn, rec->lsn);
      }
    }
    need_gossip = reachable_lsn < min_lsn;
  }
  if (need_gossip) {
    GossipCatchUp(shard, replica_idx);
  }

  // Page read I/O from local media.
  sim::SimNode* node = sh->nodes[replica_idx];
  node->storage()->Access(options_.page_size);
  uint64_t applied;
  Status result;
  {
    vedb::MutexLock lk(&sh->mu);
    ShardReplica* rep = &sh->replicas[replica_idx];
    applied = ApplyContiguousLocked(sh, rep);
    if (rep->applied_lsn < min_lsn) {
      result = Status::Stale("replica behind requested LSN");
    } else {
      auto it = rep->pages.find(key);
      if (it == rep->pages.end()) {
        result = Status::NotFound("no such page");
      } else {
        PutFixed64(response, it->second.image->lsn);
        response->append(it->second.image->bytes);
        result = Status::OK();
      }
    }
  }
  if (applied > 0) {
    node->cpu()->Access(0, applied * options_.apply_cpu_per_record);
  }
  return result;
}

Status PageStoreCluster::ReadPage(sim::SimNode* client, PageKey key,
                                  std::string* image, uint64_t* image_lsn) {
  const Timestamp begin = env_->clock()->Now();
  const int s = ShardOf(key);
  Shard* shard = shards_[s].get();
  const uint64_t min_lsn = shard->acked_lsn.load();

  std::string req;
  PutFixed64(&req, key);
  PutFixed64(&req, min_lsn);

  Status last = Status::Unavailable("no replicas");
  for (int r = 0; r < options_.replication; ++r) {
    sim::SimNode* node = shard->nodes[r];
    if (!node->alive()) continue;
    std::string resp;
    last = rpc_->Call(client, node, shard->read_service[r], Slice(req), &resp);
    if (last.ok()) {
      if (resp.size() < 8) return Status::Corruption("bad page response");
      if (image_lsn != nullptr) *image_lsn = DecodeFixed64(resp.data());
      image->assign(resp.data() + 8, resp.size() - 8);
      page_reads_->Add(1);
      read_ns_->Observe(env_->clock()->Now() - begin);
      return Status::OK();
    }
    if (last.IsNotFound()) return last;  // authoritative miss
  }
  return last;
}

Status PageStoreCluster::HandleFetch(int shard, int replica_idx,
                                     Slice request, std::string* response) {
  const Shard* sh = shards_[shard].get();
  Slice raw;
  if (!GetFixedBytes(&request, 8, &raw)) {
    return Status::InvalidArgument("fetch");
  }
  const uint64_t after = DecodeFixed64(raw.data());

  uint32_t count = 0;
  std::string body;
  {
    vedb::MutexLock lk(&sh->mu);
    const ShardReplica* rep = &sh->replicas[replica_idx];
    const uint64_t end_seq = rep->first_seq + rep->held.size();
    for (uint64_t seq = std::max(after + 1, rep->first_seq); seq < end_seq;
         ++seq) {
      if (!rep->held[seq - rep->first_seq]) continue;
      const ChainRecord* rec = ChainAtLocked(sh, seq);
      PutFixed64(&body, seq);
      PutFixed64(&body, rec->lsn);
      PutFixed64(&body, rec->page_key);
      PutLengthPrefixedSlice(&body, Slice(rec->payload));
      count++;
    }
  }
  sh->nodes[replica_idx]->storage()->Access(body.size());
  PutFixed32(response, count);
  response->append(body);
  return Status::OK();
}

bool PageStoreCluster::GossipCatchUp(int shard, int replica_idx) {
  Shard* sh = shards_[shard].get();
  uint64_t after;
  {
    vedb::MutexLock lk(&sh->mu);
    after = sh->replicas[replica_idx].contiguous_seq;
  }
  bool progressed = false;
  for (int r = 0; r < options_.replication; ++r) {
    if (r == replica_idx) continue;
    sim::SimNode* peer = sh->nodes[r];
    if (!peer->alive()) continue;
    std::string req, resp;
    PutFixed64(&req, after);
    if (!rpc_->Call(sh->nodes[replica_idx], peer, sh->fetch_service[r],
                    Slice(req), &resp)
             .ok()) {
      continue;
    }
    std::vector<WireRecord> records;
    // discard-ok: a cut-short response still fills the holes it covers.
    (void)DecodeRecords(Slice(resp), &records);
    vedb::MutexLock lk(&sh->mu);
    ShardReplica* rep = &sh->replicas[replica_idx];
    if (!records.empty()) {
      const uint64_t before = rep->contiguous_seq;
      InsertRecordsLocked(sh, rep, records);
      if (rep->contiguous_seq > before) {
        progressed = true;
        gossip_fills_.fetch_add(1);
        gossip_metric_->Add(1);
      }
    }
    if (rep->contiguous_seq >= rep->max_seen_seq) break;  // caught up
  }
  return progressed;
}

Status PageStoreCluster::PeekLocalPage(sim::SimNode* node, PageKey key,
                                       std::string* image,
                                       uint64_t* applied) {
  *applied = 0;
  Shard* sh = shards_[ShardOf(key)].get();
  for (int r = 0; r < options_.replication; ++r) {
    if (sh->nodes[r] != node) continue;
    vedb::MutexLock lk(&sh->mu);
    ShardReplica* rep = &sh->replicas[r];
    *applied = ApplyContiguousLocked(sh, rep);
    auto it = rep->pages.find(key);
    if (it == rep->pages.end()) {
      return Status::NotFound("no such page on this replica");
    }
    *image = it->second.image->bytes;
    return Status::OK();
  }
  return Status::NotFound("no replica of this shard on " + node->name());
}

sim::SimNode* PageStoreCluster::LocalNodeFor(PageKey key) const {
  const int s = ShardOf(key);
  for (sim::SimNode* node : shards_[s]->nodes) {
    if (node->alive()) return node;
  }
  return nullptr;
}

Status PageStoreCluster::InstallPageDirect(PageKey key, uint64_t lsn,
                                           Slice image) {
  Shard* shard = shards_[ShardOf(key)].get();
  // The image replaces the page as of the chain's head: every replica
  // skips a record stamped or received before the install, whether it
  // applied the record before the install or applies it after.
  uint64_t head;
  {
    vedb::MutexLock lk(&shard->ship_mu);
    head = shard->next_seq - 1;
  }
  vedb::MutexLock lk(&shard->mu);
  for (const ShardReplica& rep : shard->replicas) {
    head = std::max(head, rep.max_seen_seq);
  }
  PageImage fresh;
  fresh.lsn = lsn;
  fresh.seq = head;
  fresh.bytes = image.ToString();
  const ImageRef shared = NewImage(std::move(fresh));
  for (ShardReplica& rep : shard->replicas) rep.pages[key].image = shared;
  return Status::OK();
}

uint64_t PageStoreCluster::DurableLsn() const {
  // A shard only constrains the durable bound while it has shipped records
  // that are not yet quorum-acked; fully-acked (or never-used) shards are
  // unconstraining.
  uint64_t bound = UINT64_MAX;
  uint64_t max_acked = 0;
  for (const auto& shard : shards_) {
    uint64_t shipped;
    {
      vedb::MutexLock lk(&shard->ship_mu);
      shipped = shard->last_shipped_lsn;
    }
    const uint64_t acked = shard->acked_lsn.load();
    max_acked = std::max(max_acked, acked);
    if (acked < shipped) bound = std::min(bound, acked);
  }
  return bound == UINT64_MAX ? max_acked : bound;
}

void PageStoreCluster::TruncateBelow(uint64_t lsn) {
  int64_t dropped = 0;
  for (auto& shard : shards_) {
    vedb::MutexLock lk(&shard->mu);
    for (ShardReplica& rep : shard->replicas) {
      // Only applied records may be dropped. A record leaves the chain
      // with its last holder, and a chunk with its last record.
      const uint64_t end_seq = rep.first_seq + rep.held.size();
      for (uint64_t seq = rep.first_seq;
           seq <= rep.applied_seq && seq < end_seq; ++seq) {
        if (!rep.held[seq - rep.first_seq]) continue;
        auto chunk = shard->chain.find(seq >> kChainChunkBits);
        ChainRecord& rec = chunk->second->records[seq & kChainChunkMask];
        if (rec.lsn >= lsn) continue;
        rep.held[seq - rep.first_seq] = false;
        if (--rec.holders > 0) continue;
        dropped += static_cast<int64_t>(rec.payload.size());
        rec = ChainRecord();
        if (--chunk->second->live == 0) shard->chain.erase(chunk);
      }
      // Release the dropped prefix.
      while (!rep.held.empty() && !rep.held.front() &&
             rep.first_seq <= rep.applied_seq) {
        rep.held.pop_front();
        rep.first_seq++;
      }
    }
  }
  if (dropped != 0) AddChainBytes(-dropped);
}

std::vector<uint64_t> PageStoreCluster::RetainedRecords(int shard,
                                                        int replica) const {
  const Shard* sh = shards_[shard].get();
  vedb::MutexLock lk(&sh->mu);
  const ShardReplica& rep = sh->replicas[replica];
  std::vector<uint64_t> seqs;
  for (size_t i = 0; i < rep.held.size(); ++i) {
    if (rep.held[i]) seqs.push_back(rep.first_seq + i);
  }
  return seqs;
}

size_t PageStoreCluster::ChainRecords(int shard) const {
  const Shard* sh = shards_[shard].get();
  vedb::MutexLock lk(&sh->mu);
  size_t records = 0;
  for (const auto& [index, chunk] : sh->chain) records += chunk->live;
  return records;
}

size_t PageStoreCluster::DistinctImages(int shard) const {
  const Shard* sh = shards_[shard].get();
  vedb::MutexLock lk(&sh->mu);
  std::unordered_set<const PageImage*> seen;
  for (const ShardReplica& rep : sh->replicas) {
    for (const auto& [key, page] : rep.pages) seen.insert(page.image.get());
  }
  return seen.size();
}

uint64_t PageStoreCluster::ContiguousSeq(int shard, int replica) const {
  const Shard* sh = shards_[shard].get();
  vedb::MutexLock lk(&sh->mu);
  return sh->replicas[replica].contiguous_seq;
}

void PageStoreCluster::BackgroundLoop(sim::SimNode* node) {
  uint64_t tick = 0;
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(options_.background_period);
    tick++;
    if (!node->alive()) continue;  // a dead box does no background work
    for (int s = 0; s < options_.num_shards; ++s) {
      Shard* sh = shards_[s].get();
      for (int r = 0; r < options_.replication; ++r) {
        if (sh->nodes[r] != node) continue;
        bool hole;
        uint64_t applied;
        {
          vedb::MutexLock lk(&sh->mu);
          ShardReplica* rep = &sh->replicas[r];
          applied = ApplyContiguousLocked(sh, rep);
          hole = rep->contiguous_seq < rep->max_seen_seq;
        }
        if (applied > 0) {
          node->cpu()->Access(0, applied * options_.apply_cpu_per_record);
        }
        // Known holes are chased every tick; full anti-entropy (which also
        // finds records this replica never heard about, e.g. while it was
        // down) runs on a slower cadence.
        if (hole || tick % 4 == 0) GossipCatchUp(s, r);
      }
    }
  }
}

void PageStoreCluster::StartBackground(sim::ActorGroup* group) {
  // One background actor per distinct node, spawned in nodes_ order. A
  // pointer-ordered std::set here would make the spawn order (and thus
  // same-timestamp actor scheduling) vary with heap layout across
  // processes, breaking byte-identical seeded runs.
  std::vector<sim::SimNode*> distinct;
  for (sim::SimNode* node : nodes_) {
    if (std::find(distinct.begin(), distinct.end(), node) ==
        distinct.end()) {
      distinct.push_back(node);
    }
  }
  for (sim::SimNode* node : distinct) {
    group->Spawn([this, node] { BackgroundLoop(node); });
  }
}

}  // namespace vedb::pagestore
