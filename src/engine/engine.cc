#include "engine/engine.h"

#include <algorithm>

#include "common/logging.h"

namespace vedb::engine {

DBEngine::DBEngine(sim::SimEnvironment* env, sim::SimNode* node,
                   logstore::LogStore* log,
                   pagestore::PageStoreCluster* pagestore,
                   ebp::ExtendedBufferPool* ebp, const Options& options)
    : env_(env),
      node_(node),
      log_(log),
      pagestore_(pagestore),
      ebp_(ebp),
      options_(options),
      locks_(env->clock(), options.locks),
      bp_(env, node, options.buffer_pool,
          BufferPool::Callbacks{
              ebp == nullptr
                  ? BufferPool::Callbacks{}.ebp_get
                  : [this](uint64_t key, std::string* image, uint64_t* lsn) {
                      // Write-buffer semantics: an image still queued for
                      // the flusher is newer than anything in the EBP.
                      if (LookupPendingEbpPut(key, image, lsn)) {
                        return Status::OK();
                      }
                      return ebp_->GetPage(key, image, lsn);
                    },
              ebp == nullptr
                  ? BufferPool::Callbacks{}.ebp_put
                  : [this](uint64_t key, uint64_t lsn, Slice image) {
                      EnqueueEbpPut(key, lsn, image);
                    },
              [this](uint64_t key, std::string* image, uint64_t* lsn) {
                return pagestore_->ReadPage(node_, key, image, lsn);
              },
              [this](uint64_t lsn) { EnsureShipped(lsn); }}) {
  ebp_flush_cond_ = std::make_unique<sim::VirtualCondition>(env->clock(), "ebp-flusher");
}

Table* DBEngine::CreateTable(const std::string& name, const Schema& schema) {
  vedb::MutexLock lk(&catalog_mu_);
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  auto table = std::make_unique<Table>(this, name, next_space_++, schema);
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Table* DBEngine::GetTable(const std::string& name) {
  vedb::MutexLock lk(&catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

TxnPtr DBEngine::Begin() {
  node_->cpu()->Access(0, options_.txn_overhead_cpu);
  return TxnPtr(new Txn(next_txn_.fetch_add(1)));
}

Result<Row> DBEngine::ReadRowAt(SpaceId space, const Rid& rid) {
  VEDB_ASSIGN_OR_RETURN(Frame * frame,
                        bp_.Pin(PackPageKey(space, rid.page_no), false));
  Row row;
  Status s;
  {
    vedb::MutexLock lk(&frame->mu);
    Page page(&frame->image);
    Slice bytes;
    s = page.GetRow(rid.slot, &bytes);
    if (s.ok() && !DecodeRow(bytes, &row)) {
      s = Status::Corruption("undecodable row");
    }
  }
  bp_.Unpin(frame, 0);
  if (!s.ok()) return s;
  return row;
}

void DBEngine::Abort(Txn* txn) {
  locks_.ReleaseAll(txn->id());
  txn->overlay_.clear();
  txn->touch_order_.clear();
  vedb::MutexLock lk(&stats_mu_);
  stats_.aborts++;
}

Status DBEngine::Commit(Txn* txn) {
  node_->cpu()->Access(0, options_.txn_overhead_cpu);

  // Collect modified entries in touch order.
  struct PendingWrite {
    Table* table;
    std::string pk;
    Txn::OverlayEntry* entry;
    RedoRecord rec;
  };
  std::vector<PendingWrite> writes;
  for (const auto& key : txn->touch_order_) {
    auto it = txn->overlay_.find(key);
    if (it == txn->overlay_.end() || !it->second.modified) continue;
    Txn::OverlayEntry& entry = it->second;
    if (!entry.has_committed && !entry.current.has_value()) continue;
    PendingWrite w;
    w.table = key.first;
    w.pk = key.second;
    w.entry = &entry;
    w.rec.space = w.table->space();
    if (entry.current.has_value()) {
      std::string bytes;
      EncodeRow(*entry.current, &bytes);
      Rid rid = entry.has_committed ? entry.committed_rid
                                    : w.table->ReservePlacement(bytes.size());
      w.rec.type = RedoType::kPutRow;
      w.rec.page_no = rid.page_no;
      w.rec.slot = rid.slot;
      w.rec.row = std::move(bytes);
      entry.committed_rid = rid;  // remember placement for index update
    } else {
      w.rec.type = RedoType::kDeleteRow;
      w.rec.page_no = entry.committed_rid.page_no;
      w.rec.slot = entry.committed_rid.slot;
    }
    writes.push_back(std::move(w));
  }

  if (!writes.empty() && log_ == nullptr) {
    Abort(txn);
    return Status::NotSupported("read-only replica cannot commit writes");
  }
  if (writes.empty()) {
    // Read-only transaction: nothing to log.
    locks_.ReleaseAll(txn->id());
    txn->overlay_.clear();
    txn->touch_order_.clear();
    vedb::MutexLock lk(&stats_mu_);
    stats_.commits++;
    return Status::OK();
  }

  // One log batch per commit ("the database transaction can be committed"
  // once the write request completes, Section V-B).
  std::vector<std::string> payloads;
  payloads.reserve(writes.size());
  for (const PendingWrite& w : writes) {
    std::string payload;
    w.rec.EncodeTo(&payload);
    payloads.push_back(std::move(payload));
  }

  logstore::AppendHooks hooks;
  hooks.on_assigned = [&](uint64_t first, uint64_t last) {
    // Runs under the LSN lock: enqueue ship records in LSN order.
    vedb::MutexLock lk(&ship_mu_);
    for (size_t i = 0; i < writes.size(); ++i) {
      pagestore::RedoShipRecord rec;
      rec.page_key = writes[i].rec.page_key();
      rec.lsn = first + i;
      rec.payload = payloads[i];
      ship_queue_[rec.lsn] = std::move(rec);
    }
    (void)last;
  };
  hooks.on_failed = [&](uint64_t first, uint64_t last) {
    vedb::MutexLock lk(&ship_mu_);
    for (uint64_t lsn = first; lsn <= last; ++lsn) {
      ship_queue_.erase(lsn);
      cancelled_lsns_.insert(lsn);
    }
  };

  auto appended = log_->AppendBatch(payloads, &hooks);
  if (!appended.ok()) {
    Abort(txn);
    return appended.status();
  }
  // Apply to buffer-pool pages in LSN order, then update indexes.
  for (size_t i = 0; i < writes.size(); ++i) {
    const uint64_t lsn = appended->first_lsn + i;
    const PendingWrite& w = writes[i];
    auto frame = bp_.Pin(w.rec.page_key(), /*create_if_missing=*/true);
    if (!frame.ok()) {
      // The page is unreachable (storage outage). The commit is already
      // durable in the log; PageStore will materialize it. Skip the local
      // apply; subsequent readers fetch from storage.
      VEDB_LOG(kWarn, "commit apply skipped: %s",
               frame.status().ToString().c_str());
      continue;
    }
    {
      vedb::MutexLock lk(&(*frame)->mu);
      ApplyRedoToPage(Slice(payloads[i]), lsn, &(*frame)->image);
    }
    bp_.Unpin(*frame, lsn);
    if (ebp_ != nullptr) ebp_->NoteLatestLsn(w.rec.page_key(), lsn);

    // Index maintenance.
    Txn::OverlayEntry& entry = *w.entry;
    if (entry.current.has_value()) {
      if (entry.has_committed) {
        w.table->ApplyIndexUpdate(w.pk, entry.committed_rid,
                                  entry.committed_row, *entry.current);
      } else {
        w.table->ApplyIndexInsert(w.pk, entry.committed_rid, *entry.current);
      }
    } else {
      w.table->ApplyIndexDelete(w.pk, entry.committed_row);
    }
  }

  locks_.ReleaseAll(txn->id());
  txn->overlay_.clear();
  txn->touch_order_.clear();
  {
    vedb::MutexLock lk(&stats_mu_);
    stats_.commits++;
    stats_.rows_written += writes.size();
  }
  return Status::OK();
}

Status DBEngine::RunTransaction(const std::function<Status(Txn*)>& body,
                                int max_retries) {
  Status last;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) {
      // Deadlock victims back off before retrying so the same collision
      // does not repeat immediately (randomized exponential backoff).
      const Duration base = 200 * kMicrosecond << std::min(attempt, 4);
      const Duration jitter =
          (next_txn_.load() * 0x9E3779B97F4A7C15ULL) % base;
      env_->clock()->SleepFor(base + jitter);
    }
    TxnPtr txn = Begin();
    last = body(txn.get());
    if (last.ok()) {
      last = Commit(txn.get());
      if (last.ok()) return last;
    } else {
      Abort(txn.get());
    }
    if (!last.IsAborted() && !last.IsBusy()) return last;
  }
  return last;
}

Status DBEngine::ShipEligibleOnce() {
  std::vector<pagestore::RedoShipRecord> batch;
  uint64_t new_shipped_through;
  {
    vedb::MutexLock lk(&ship_mu_);
    const uint64_t durable = log_->DurableLsn();
    new_shipped_through = shipped_through_;
    while (new_shipped_through < durable &&
           batch.size() < options_.shipper_max_batch) {
      const uint64_t lsn = new_shipped_through + 1;
      auto it = ship_queue_.find(lsn);
      if (it != ship_queue_.end()) {
        batch.push_back(std::move(it->second));
        ship_queue_.erase(it);
      } else if (cancelled_lsns_.erase(lsn) == 0) {
        break;  // not yet enqueued (assignment hook still running)
      }
      new_shipped_through = lsn;
    }
  }
  if (batch.empty()) {
    vedb::MutexLock lk(&ship_mu_);
    if (new_shipped_through > shipped_through_) {
      shipped_through_ = new_shipped_through;
    }
    return Status::OK();
  }
  Status s = pagestore_->ShipRecords(node_, batch);
  {
    vedb::MutexLock lk(&ship_mu_);
    if (s.ok()) {
      shipped_through_ = std::max(shipped_through_, new_shipped_through);
    } else {
      // Re-queue for retry.
      for (auto& rec : batch) ship_queue_[rec.lsn] = std::move(rec);
    }
  }
  return s;
}

size_t DBEngine::WarmupFromEbp(size_t max_pages) {
  if (ebp_ == nullptr) return 0;
  size_t loaded = 0;
  for (uint64_t key : ebp_->HottestKeys(max_pages)) {
    auto frame = bp_.Pin(key, /*create_if_missing=*/false);
    if (frame.ok()) {
      bp_.Unpin(*frame, 0);
      loaded++;
    }
  }
  return loaded;
}

void DBEngine::EnsureShipped(uint64_t lsn) {
  // Ship synchronously on the caller's thread; if the target LSN's batch is
  // still being logged by another transaction, poll briefly.
  while (true) {
    {
      vedb::MutexLock lk(&ship_mu_);
      if (shipped_through_ >= lsn) return;
    }
    // discard-ok: a failed ship attempt is retried on the next loop turn;
    // the fence below only passes once shipped_through_ advances.
    (void)ShipEligibleOnce();
    {
      vedb::MutexLock lk(&ship_mu_);
      if (shipped_through_ >= lsn) return;
    }
    env_->clock()->SleepFor(200 * kMicrosecond);
  }
}

void DBEngine::ShipperLoop() {
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(options_.shipper_period);
    while (true) {
      bool more;
      uint64_t before;
      {
        vedb::MutexLock lk(&ship_mu_);
        more = !ship_queue_.empty() &&
               ship_queue_.begin()->first <= log_->DurableLsn();
        before = shipped_through_;
      }
      if (!more) break;
      // discard-ok: background shipping retries forever; EnsureShipped is
      // the synchronous fence for callers that need the result.
      (void)ShipEligibleOnce();
      // No progress: the next LSN's record is not queued yet (its
      // on_assigned hook has not run) or the ship failed. Spinning here
      // would keep the thread without advancing virtual time, so the
      // actor that fills the gap would never run; wait a period instead.
      vedb::MutexLock lk(&ship_mu_);
      if (shipped_through_ == before) break;
    }
  }
}

void DBEngine::CheckpointLoop() {
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(options_.checkpoint_period);
    // Checkpointing is offloaded to the storage layer: the log can drop
    // everything PageStore has quorum-acked.
    const uint64_t durable = pagestore_->DurableLsn();
    log_->Truncate(durable);
    pagestore_->TruncateBelow(durable);
  }
}

bool DBEngine::LookupPendingEbpPut(uint64_t key, std::string* image,
                                   uint64_t* lsn) {
  vedb::MutexLock lk(&ebp_flush_mu_);
  // Scan newest-first: the last enqueued version of the page wins.
  for (auto it = ebp_flush_queue_.rbegin(); it != ebp_flush_queue_.rend();
       ++it) {
    if (it->key == key) {
      *image = it->image;
      if (lsn != nullptr) *lsn = it->lsn;
      return true;
    }
  }
  return false;
}

void DBEngine::EnqueueEbpPut(uint64_t key, uint64_t lsn, Slice image) {
  bool notify = false;
  {
    vedb::MutexLock lk(&ebp_flush_mu_);
    if (!ebp_flusher_running_) {
      // No flusher (unit tests / read-only replicas without background):
      // fall through to a synchronous put below.
    } else if (ebp_flush_queue_.size() < kEbpFlushQueueCap) {
      ebp_flush_queue_.push_back(EbpFlushItem{key, lsn, image.ToString()});
      notify = true;
    } else {
      // Cache-write backpressure: dropping the put only costs hit rate.
      return;
    }
  }
  if (notify) {
    ebp_flush_cond_->NotifyAll();
    return;
  }
  // discard-ok: the EBP is a cache; a failed put only costs a future miss.
  (void)ebp_->PutPage(key, lsn, image);
}

void DBEngine::EbpFlusherLoop() {
  while (true) {
    EbpFlushItem item;
    {
      vedb::MutexLock lk(&ebp_flush_mu_);
      ebp_flush_cond_->Wait(&ebp_flush_mu_, [&] {
        return !ebp_flush_queue_.empty() || ebp_flusher_stop_;
      });
      if (ebp_flush_queue_.empty()) {
        if (ebp_flusher_stop_) break;  // drained: exit
        continue;
      }
      item = std::move(ebp_flush_queue_.front());
      ebp_flush_queue_.pop_front();
    }
    // discard-ok: cache put; a NoSpace/Unavailable failure is harmless.
    (void)ebp_->PutPage(item.key, item.lsn, Slice(item.image));
  }
}

void DBEngine::StartBackground(sim::ActorGroup* group) {
  if (ebp_ != nullptr) {
    {
      vedb::MutexLock lk(&ebp_flush_mu_);
      ebp_flusher_running_ = true;
    }
    group->Spawn([this] { EbpFlusherLoop(); });
  }
  if (log_ == nullptr) return;  // read-only replica: nothing to ship
  group->Spawn([this] { ShipperLoop(); });
  group->Spawn([this] { CheckpointLoop(); });
}

void DBEngine::Shutdown() {
  // Stop the flusher *before* releasing the polling loops. The flusher's
  // exit is notification-driven; the wakeup must land while the shipper/
  // checkpoint loops still hold timers on the clock, otherwise the last
  // polling actor to exit can observe "everyone parked, no timers" and
  // abort with a spurious virtual-time deadlock (a non-actor caller's
  // pending NotifyAll is invisible to the clock).
  {
    vedb::MutexLock lk(&ebp_flush_mu_);
    ebp_flusher_stop_ = true;
  }
  ebp_flush_cond_->NotifyAll();
  shutdown_.store(true);
}

DBEngine::Stats DBEngine::stats() const {
  vedb::MutexLock lk(&stats_mu_);
  return stats_;
}

Status DBEngine::Recover(const std::vector<astore::LogRecord>& tail_records) {
  // Records PageStore may not have seen get re-shipped; page-level LSN
  // idempotence absorbs duplicates.
  const uint64_t ps_durable = pagestore_->DurableLsn();
  std::vector<pagestore::RedoShipRecord> reship;
  for (const auto& rec : tail_records) {
    if (rec.lsn <= ps_durable) continue;
    RedoRecord decoded;
    if (!RedoRecord::DecodeFrom(Slice(rec.payload), &decoded)) {
      return Status::Corruption("bad redo record in recovered log");
    }
    reship.push_back(pagestore::RedoShipRecord{decoded.page_key(), rec.lsn,
                                               rec.payload});
  }
  if (!reship.empty()) {
    VEDB_RETURN_IF_ERROR(pagestore_->ShipRecords(node_, reship));
  }
  // Read both watermarks BEFORE taking ship_mu_: NextLsn() takes the
  // logstore's LSN lock, and AppendBatch's on_assigned hook takes ship_mu_
  // under that same lock — the established order is logstore.astore before
  // engine.ship, and inverting it here is a lock-order cycle (caught by
  // the LockOrderGraph on the failure_drill example).
  uint64_t resume_through = pagestore_->DurableLsn();
  if (log_ != nullptr) {
    resume_through = std::max(resume_through, log_->NextLsn() - 1);
  }
  {
    vedb::MutexLock lk(&ship_mu_);
    shipped_through_ = std::max(shipped_through_, resume_through);
    // The ship scan starts past the watermark, so entries at or below it
    // could never leave the queue.
    ship_queue_.erase(ship_queue_.begin(),
                      ship_queue_.upper_bound(shipped_through_));
  }

  // Rebuild every table's in-memory indexes from storage.
  std::vector<Table*> tables;
  {
    vedb::MutexLock lk(&catalog_mu_);
    for (auto& [name, table] : tables_) tables.push_back(table.get());
  }
  for (Table* table : tables) {
    VEDB_RETURN_IF_ERROR(table->RebuildIndexes());
  }
  return Status::OK();
}

}  // namespace vedb::engine
