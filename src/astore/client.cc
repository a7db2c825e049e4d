#include "astore/client.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace vedb::astore {

namespace {

// Low-cardinality cause label for the retry counter: the status code only,
// never the message (messages embed node names and offsets).
const char* CauseLabel(const Status& s) {
  switch (s.code()) {
    case Status::Code::kUnavailable: return "unavailable";
    case Status::Code::kStale: return "stale";
    case Status::Code::kTimedOut: return "timed_out";
    case Status::Code::kIOError: return "io_error";
    case Status::Code::kBusy: return "busy";
    case Status::Code::kDataLoss: return "data_loss";
    default: return "other";
  }
}

}  // namespace

AStoreClient::AStoreClient(sim::SimEnvironment* env, net::RpcTransport* rpc,
                           net::RdmaFabric* fabric, sim::SimNode* cm_node,
                           sim::SimNode* client_node, ClientId client_id,
                           const Options& options)
    : env_(env),
      rpc_(rpc),
      fabric_(fabric),
      client_node_(client_node),
      client_id_(client_id),
      options_(options),
      cm_endpoints_({cm_node}),
      retry_rng_(0x9e3779b97f4a7c15ull ^ client_id) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  writes_ = reg.GetCounter("astore.client.writes");
  write_bytes_ = reg.GetCounter("astore.client.write_bytes");
  write_ns_ = reg.GetHistogram("astore.client.write_ns");
  reads_ = reg.GetCounter("astore.client.reads");
  read_ns_ = reg.GetHistogram("astore.client.read_ns");
  route_refreshes_ = reg.GetCounter("astore.client.route_refreshes");
  unfreezes_ = reg.GetCounter("astore.client.unfreezes");
  cm_failovers_ = reg.GetCounter("astore.client.cm_failovers");
  corrupt_reads_ = reg.GetCounter("astore.client.corrupt_reads");
  read_repairs_ = reg.GetCounter("astore.repair.read_repairs");
  ring_doorbells_ = reg.GetCounter("ring.doorbells");
  doorbell_batch_ = reg.GetHistogram("ring.doorbell_batch");
  coalesced_appends_ = reg.GetCounter("astore.client.coalesced_appends");
  append_ring_ =
      std::make_unique<AppendRing>(this, options_.append_ring);
}

void AStoreClient::SetCmEndpoints(std::vector<sim::SimNode*> endpoints) {
  VEDB_CHECK(!endpoints.empty(), "client needs at least one CM endpoint");
  cm_endpoints_ = std::move(endpoints);
  cm_index_.store(0);
}

bool AStoreClient::Retriable(const Status& s) const {
  // Transient by construction: node down, route out of date, deadline
  // expiry, fabric hiccup, slot churn. Everything else — LeaseExpired,
  // NoSpace, NotFound, Corruption, InvalidArgument — is a fact a retry
  // cannot change. DataLoss is deliberately NOT here: it is only retriable
  // via a *different* replica, and ReadInternal already fails over across
  // every live replica within one attempt — by the time DataLoss reaches
  // this predicate, every copy was tried and re-reading the same replicas
  // would just serve the same rot.
  return s.IsUnavailable() || s.IsStale() || s.IsTimedOut() || s.IsIOError() ||
         s.IsBusy();
}

Duration AStoreClient::BackoffDelay(int attempt) {
  const RetryPolicy& rp = options_.retry;
  Duration base = rp.initial_backoff;
  for (int i = 1; i < attempt && base < rp.max_backoff; ++i) base *= 2;
  if (base > rp.max_backoff) base = rp.max_backoff;
  vedb::MutexLock lk(&retry_mu_);
  // Jitter in [base/2, base]: decorrelates clients without ever collapsing
  // the delay to zero.
  return base / 2 + static_cast<Duration>(retry_rng_.Uniform(
                        static_cast<uint64_t>(base / 2 + 1)));
}

void AStoreClient::CountRetry(const char* op, const Status& cause) {
  obs::MetricsRegistry::Default()
      .GetCounter("astore.client.retries",
                  {{"op", op}, {"cause", CauseLabel(cause)}})
      ->Add(1);
}

Status AStoreClient::CmCallOnce(const std::string& service, Slice request,
                                std::string* response, Duration rpc_deadline) {
  Status s = env_->faults()->MaybeFail("astore.client.cm");
  const size_t idx = cm_index_.load(std::memory_order_relaxed);
  sim::SimNode* cm = cm_endpoints_[idx % cm_endpoints_.size()];
  if (s.ok()) {
    net::RpcCallOptions opts;
    if (rpc_deadline != 0) {
      opts.deadline = env_->clock()->Now() + rpc_deadline;
    }
    response->clear();
    s = rpc_->Call(client_node_, cm, service, request, response, opts);
  }
  if (s.ok()) {
    // Every successful control response is prefixed with the answering
    // primary's term. A term below the highest one we have seen means a
    // stale primary (e.g. revived after demotion, still believing in its
    // old reign): reject its answer and redirect to the real primary.
    if (response->size() < 8) {
      return Status::Corruption("cm response missing term");
    }
    const uint64_t term = DecodeFixed64(response->data());
    uint64_t seen = cm_term_.load(std::memory_order_relaxed);
    while (term > seen &&
           !cm_term_.compare_exchange_weak(seen, term,
                                           std::memory_order_relaxed)) {
    }
    if (term < seen) {
      s = Status::Stale("cm answered from a superseded term");
    } else {
      response->erase(0, 8);
      return Status::OK();
    }
  }
  if (cm_endpoints_.size() > 1 &&
      (s.IsUnavailable() || s.IsTimedOut() || s.IsStale())) {
    // This endpoint is dead, partitioned, demoted, or stale: prefer the
    // next one. CAS so a burst of concurrent failures rotates once.
    size_t expect = idx;
    if (cm_index_.compare_exchange_strong(expect, idx + 1,
                                          std::memory_order_relaxed)) {
      cm_failovers_->Add(1);
    }
  }
  return s;
}

Status AStoreClient::CmCall(const char* op, const std::string& service,
                            Slice request, std::string* response,
                            bool idempotent) {
  const RetryPolicy& rp = options_.retry;
  const Timestamp deadline =
      rp.op_deadline == 0 ? 0 : env_->clock()->Now() + rp.op_deadline;
  Status s;
  for (int attempt = 1;; ++attempt) {
    s = CmCallOnce(service, request, response,
                   (idempotent && rp.cm_deadline != 0) ? rp.cm_deadline : 0);
    if (s.ok() || !Retriable(s)) return s;
    if (attempt >= rp.max_attempts) return s;
    const Timestamp now = env_->clock()->Now();
    if (deadline != 0 && now >= deadline) return s;
    CountRetry(op, s);
    Timestamp wake = now + BackoffDelay(attempt);
    if (deadline != 0 && wake > deadline) wake = deadline;
    env_->clock()->SleepUntil(wake);
  }
}

Status AStoreClient::Connect() { return RenewLease(); }

Status AStoreClient::RenewLease() {
  std::string req, resp;
  PutFixed64(&req, client_id_);
  // Renewal rides the full retry policy: during a CM failover the renew
  // loop is what keeps probing endpoints until the new primary answers,
  // and a lost renewal here is the difference between a transparent
  // failover and a LeaseExpired surfacing to every writer.
  Status s = CmCall("renew_lease", "cm.lease", Slice(req), &resp,
                    /*idempotent=*/true);
  if (!s.ok()) {
    obs::MetricsRegistry::Default()
        .GetCounter("astore.client.lease_renew_failures",
                    {{"cause", CauseLabel(s)}})
        ->Add(1);
    return s;
  }
  if (resp.size() < 8) return Status::Corruption("bad lease response");
  lease_expiry_.store(DecodeFixed64(resp.data()));
  return Status::OK();
}

Result<SegmentHandlePtr> AStoreClient::CreateSegment(uint64_t size,
                                                     int replication) {
  if (replication <= 0) replication = options_.default_replication;
  std::string req, resp;
  PutFixed64(&req, client_id_);
  PutFixed64(&req, size);
  PutFixed32(&req, static_cast<uint32_t>(replication));
  VEDB_RETURN_IF_ERROR(CmCall("create", "cm.create_segment", Slice(req),
                              &resp, /*idempotent=*/false));
  Slice in(resp);
  SegmentRoute route;
  if (!DecodeSegmentRoute(&in, &route)) {
    return Status::Corruption("bad create response");
  }
  auto handle = std::make_shared<SegmentHandle>(std::move(route));
  vedb::MutexLock lk(&mu_);
  open_[handle->id()] = handle;
  return handle;
}

Result<SegmentHandlePtr> AStoreClient::OpenSegment(SegmentId id) {
  std::string req, resp;
  PutFixed64(&req, id);
  VEDB_RETURN_IF_ERROR(
      CmCall("open", "cm.get_route", Slice(req), &resp, /*idempotent=*/true));
  Slice in(resp);
  SegmentRoute route;
  if (!DecodeSegmentRoute(&in, &route)) {
    return Status::Corruption("bad route response");
  }
  auto handle = std::make_shared<SegmentHandle>(std::move(route));
  vedb::MutexLock lk(&mu_);
  open_[handle->id()] = handle;
  return handle;
}

Status AStoreClient::BeginWrite(const SegmentHandlePtr& handle, Slice data,
                                bool reserve, uint64_t* offset) {
  vedb::MutexLock lk(&handle->mu_);
  if (handle->stale_) return Status::Stale("segment route is stale");
  if (handle->frozen_) return Status::Unavailable("segment frozen");
  const uint64_t size = handle->route_.size;
  if (!reserve) {
    if (data.size() > size || *offset > size - data.size()) {
      return Status::InvalidArgument("write past segment end");
    }
    return Status::OK();
  }
  // A record bigger than the whole segment is a caller bug, not a
  // capacity condition: NoSpace tells callers "open a fresh segment and
  // retry", which would loop forever on an impossible payload.
  if (data.size() > size) {
    return Status::InvalidArgument("record larger than the segment");
  }
  // Subtraction form: `write_offset_ + data.size()` wraps for sizes near
  // UINT64_MAX and would bypass the capacity check.
  if (handle->write_offset_ > size - data.size()) {
    return Status::NoSpace("segment full");
  }
  // The cursor is reserved under this short lock; the RDMA fan-out happens
  // outside it so concurrent appends overlap in virtual time.
  *offset = handle->write_offset_;
  handle->write_offset_ += data.size();
  return Status::OK();
}

Status AStoreClient::Append(const SegmentHandlePtr& handle, Slice data,
                            uint64_t* offset_out) {
  uint64_t offset = 0;
  VEDB_RETURN_IF_ERROR(BeginWrite(handle, data, /*reserve=*/true, &offset));
  VEDB_RETURN_IF_ERROR(WriteSingle(handle, offset, data, "append"));
  if (offset_out != nullptr) *offset_out = offset;
  return Status::OK();
}

Result<AStoreClient::AppendToken> AStoreClient::AppendAsync(
    const SegmentHandlePtr& handle, Slice data, uint64_t* offset_out) {
  uint64_t offset = 0;
  VEDB_RETURN_IF_ERROR(BeginWrite(handle, data, /*reserve=*/true, &offset));
  if (offset_out != nullptr) *offset_out = offset;
  return append_ring_->Submit(handle, {RecordPiece{offset, data}});
}

Status AStoreClient::WaitAppend(AppendToken token) {
  return append_ring_->Wait(token);
}

Status AStoreClient::WriteAt(const SegmentHandlePtr& handle, uint64_t offset,
                             Slice data) {
  VEDB_RETURN_IF_ERROR(BeginWrite(handle, data, /*reserve=*/false, &offset));
  return WriteSingle(handle, offset, data, "write_at");
}

Status AStoreClient::WriteSingle(const SegmentHandlePtr& handle,
                                 uint64_t offset, Slice data, const char* op) {
  // A blocking write is a one-record group posted on the caller's thread.
  // It skips the ring's leader/follower queue, where it would wait behind
  // another producer's flush, and pays the flat per-write SDK cost.
  const std::vector<RecordPiece> record = {RecordPiece{offset, data}};
  return RetryOnHandle(handle, op, /*writer=*/true, [&] {
    return PostRecordGroup(handle, {&record}, options_.write_sdk_overhead);
  });
}

Status AStoreClient::WriteRecordGroup(
    const SegmentHandlePtr& handle,
    const std::vector<const std::vector<RecordPiece>*>& records) {
  {
    vedb::MutexLock lk(&handle->mu_);
    if (handle->stale_) return Status::Stale("segment route is stale");
    if (handle->frozen_) return Status::Unavailable("segment frozen");
  }
  // Batched SDK cost: per-record WR assembly plus ONE doorbell/CQ reap for
  // the whole group — this replaces N copies of write_sdk_overhead, which
  // is where the Table-2 client_ns share collapses.
  const AppendRingOptions& ring = options_.append_ring;
  const Duration sdk_cost =
      ring.submit_overhead * static_cast<Duration>(records.size()) +
      ring.completion_overhead;
  VEDB_RETURN_IF_ERROR(
      RetryOnHandle(handle, "append_group", /*writer=*/true, [&] {
        return PostRecordGroup(handle, records, sdk_cost);
      }));
  ring_doorbells_->Add(1);
  doorbell_batch_->Observe(records.size());
  if (records.size() > 1) coalesced_appends_->Add(records.size());
  return Status::OK();
}

Status AStoreClient::PostRecordGroup(
    const SegmentHandlePtr& handle,
    const std::vector<const std::vector<RecordPiece>*>& records,
    Duration sdk_cost) {
  // Zombie fencing: a client whose lease lapsed must not touch PMem that
  // may have been reclaimed for another client (Section IV-C).
  if (options_.enforce_lease && !LeaseValid()) {
    return Status::LeaseExpired("client lease expired");
  }

  // "If any copy fails, it returns a failure to the application and
  // freezes the segment with the current effective length." The injection
  // point for the whole fan-out (free when unarmed) fails the same way.
  const auto freeze = [&](Status failure) {
    vedb::MutexLock lk(&handle->mu_);
    handle->frozen_ = true;
    handle->frozen_epoch_ = handle->route_.epoch;
    return failure;
  };
  Status injected = env_->faults()->MaybeFail("astore.client.write");
  if (!injected.ok()) return freeze(std::move(injected));

  const Timestamp t0 = env_->clock()->Now();
  obs::SpanScope span(obs::Tracer::Global(), "astore.client.write");
  span.AddTag("segment", std::to_string(handle->id()));
  span.AddTag("batch", std::to_string(records.size()));

  // SDK software cost (WR construction, CQ polling, segment-meta update).
  client_node_->cpu()->Access(0, sdk_cost);
  const Timestamp sdk_done = env_->clock()->Now();

  SegmentRoute route = handle->route();

  // io-meta: the offset/length pair that makes the effective data length
  // discoverable after a failure (Section IV-B). One io-meta covers the
  // group's full extent: discovery only needs the furthest persisted byte.
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  uint64_t bytes = 0;
  for (const auto* rec : records) {
    for (const RecordPiece& p : *rec) {
      lo = std::min(lo, p.offset);
      hi = std::max(hi, p.offset + p.data.size());
      bytes += p.data.size();
    }
  }
  std::string io_meta;
  PutFixed64(&io_meta, lo);
  PutFixed64(&io_meta, hi - lo);

  // One chain per replica, "chained together to reduce MMIO operations":
  // every record's WRs in submission order, then WRITE io-meta, then one
  // flush READ covering them all. WR order inside the chain is the
  // crash-ordering contract: a torn chain applies a prefix, so a record is
  // only ever torn *after* all earlier records.
  std::vector<std::vector<net::RdmaWorkRequest>> chains;
  chains.reserve(route.replicas.size());
  for (const auto& loc : route.replicas) {
    net::ChainBuilder builder(loc.region);
    for (const auto* rec : records) {
      for (const RecordPiece& p : *rec) {
        builder.Write(loc.base_offset + p.offset, p.data);
      }
    }
    builder.Write(loc.io_meta_offset, Slice(io_meta));
    builder.FlushRead(loc.io_meta_offset);
    chains.push_back(builder.Take());
  }

  std::vector<net::ChainBreakdown> breakdowns;
  auto statuses = fabric_->PostChainMulti(client_node_, chains, &breakdowns);
  for (const Status& st : statuses) {
    if (!st.ok()) return freeze(st);
  }

  writes_->Add(records.size());
  write_bytes_->Add(bytes);
  write_ns_->Observe(env_->clock()->Now() - t0);

  // Table 2-style breakdown of the critical (slowest-replica) chain: four
  // child spans that tile [t0, chain end] with no gaps, so their durations
  // sum exactly to the end-to-end write span. The client component is the
  // SDK software time plus the doorbell — for a ring group, one doorbell
  // and the batched SDK cost cover every record — and the rest comes
  // straight from the fabric's ChainBreakdown.
  if (obs::Tracer* tracer = obs::Tracer::Global();
      tracer != nullptr && span.active() && !breakdowns.empty()) {
    const net::ChainBreakdown* crit = &breakdowns[0];
    for (const auto& bd : breakdowns) {
      if (bd.end > crit->end) crit = &bd;
    }
    const Timestamp c1 = sdk_done + crit->client;
    const Timestamp c2 = c1 + crit->network;
    const Timestamp c3 = c2 + crit->server;
    tracer->AddSpan("breakdown.client", span.context(), t0, c1);
    tracer->AddSpan("breakdown.network", span.context(), c1, c2);
    tracer->AddSpan("breakdown.server", span.context(), c2, c3);
    tracer->AddSpan("breakdown.pmem_flush", span.context(), c3, crit->end);
  }

  // Ack ordering: every record's bytes and the io-meta must be in the
  // persistence domain on every replica before the write (or any ring
  // token) resolves OK. With DDIO left enabled the flush READ is a no-op
  // and the persist checker trips here, which is exactly the bug class the
  // paper's DDIO-off deployment exists to prevent — and what keeps
  // doorbell coalescing safe.
  for (const auto& loc : route.replicas) {
    for (const auto* rec : records) {
      for (const RecordPiece& p : *rec) {
        VEDB_RETURN_IF_ERROR(fabric_->VerifyPersisted(
            loc.region, loc.base_offset + p.offset, p.data.size(),
            "astore.client.ack/payload"));
      }
    }
    VEDB_RETURN_IF_ERROR(fabric_->VerifyPersisted(
        loc.region, loc.io_meta_offset, io_meta.size(),
        "astore.client.ack/io_meta"));
  }
  return Status::OK();
}

template <typename F>
Status AStoreClient::RetryOnHandle(const SegmentHandlePtr& handle,
                                   const char* op, bool writer, F&& attempt) {
  Status s = attempt();
  if (s.ok()) return s;
  const RetryPolicy& rp = options_.retry;
  const Timestamp deadline =
      rp.op_deadline == 0 ? 0 : env_->clock()->Now() + rp.op_deadline;
  for (int n = 1; n < rp.max_attempts; ++n) {
    if (!Retriable(s)) return s;
    if (handle->stale()) return s;  // reclaimed/deleted: permanently gone
    const Timestamp now = env_->clock()->Now();
    if (deadline != 0 && now >= deadline) return s;
    CountRetry(op, s);
    Timestamp wake = now + BackoffDelay(n);
    if (deadline != 0 && wake > deadline) wake = deadline;
    env_->clock()->SleepUntil(wake);
    // Pick up the CM's rebuilt replica set before trying again. discard-ok:
    // an unreachable CM keeps the cached route and the retry proceeds.
    (void)RefreshRoute(handle);
    if (handle->stale()) return Status::Stale("segment route is stale");
    s = attempt();
    if (s.ok()) {
      // The failed writer owns repair of its reserved range: the retry
      // bypassed the frozen gate and re-posted the same bytes at the same
      // offsets on every replica, so its success re-establishes replica
      // agreement — which is why it may also lift the freeze it caused.
      if (writer) {
        vedb::MutexLock lk(&handle->mu_);
        if (handle->frozen_ && !handle->stale_) {
          handle->frozen_ = false;
          unfreezes_->Add(1);
        }
      }
      return s;
    }
  }
  return s;
}

Status AStoreClient::VerifyPersisted(const SegmentHandlePtr& handle,
                                     uint64_t offset, uint64_t len,
                                     std::string_view context) {
  SegmentRoute route = handle->route();
  for (const auto& loc : route.replicas) {
    VEDB_RETURN_IF_ERROR(fabric_->VerifyPersisted(
        loc.region, loc.base_offset + offset, len, context));
  }
  return Status::OK();
}

Status AStoreClient::Read(const SegmentHandlePtr& handle, uint64_t offset,
                          uint64_t len, char* out) {
  return ReadWithRecovery(handle, offset, len, out, ReadOptions{});
}

Status AStoreClient::ReadVerified(const SegmentHandlePtr& handle,
                                  uint64_t offset, uint64_t len, char* out,
                                  const ReadOptions& read_opts) {
  return ReadWithRecovery(handle, offset, len, out, read_opts);
}

Status AStoreClient::ReadWithRecovery(const SegmentHandlePtr& handle,
                                      uint64_t offset, uint64_t len, char* out,
                                      const ReadOptions& read_opts) {
  {
    vedb::MutexLock lk(&handle->mu_);
    if (handle->stale_) return Status::Stale("segment route is stale");
    if (len > handle->route_.size || offset > handle->route_.size - len) {
      return Status::InvalidArgument("read past segment end");
    }
  }
  return RetryOnHandle(handle, "read", /*writer=*/false, [&] {
    return ReadInternal(handle, offset, len, out, read_opts);
  });
}

Status AStoreClient::ReadInternal(const SegmentHandlePtr& handle,
                                  uint64_t offset, uint64_t len, char* out,
                                  const ReadOptions& read_opts) {
  VEDB_RETURN_IF_ERROR(env_->faults()->MaybeFail("astore.client.read"));
  const Timestamp t0 = env_->clock()->Now();
  obs::SpanScope span(obs::Tracer::Global(), "astore.client.read");
  span.AddTag("segment", std::to_string(handle->id()));
  client_node_->cpu()->Access(0, options_.read_sdk_overhead);
  SegmentRoute route = handle->route();
  if (route.replicas.empty()) return Status::Unavailable("no replicas");

  // "Selects an online copy to read through one-sided RDMA READ." A failed
  // copy does not fail the read: we fail over to the next replica and only
  // surface the last error once every copy has been tried. A copy that
  // *answers* but fails integrity (short completion or verifier mismatch)
  // is treated the same way, except it is remembered for read-repair and
  // the surfaced status is DataLoss, never a transport error.
  const uint64_t start = read_rr_.fetch_add(1);
  Status last = Status::Unavailable("no live replica for segment");
  std::vector<size_t> bad;  // replica indices that served corrupt bytes
  for (size_t i = 0; i < route.replicas.size(); ++i) {
    const size_t idx = (start + i) % route.replicas.size();
    const auto& loc = route.replicas[idx];
    sim::SimNode* node = env_->GetNode(loc.node);
    if (!node->alive()) continue;
    Status s = env_->faults()->MaybeFail("astore.client.read.replica");
    if (s.ok()) {
      // Simulated DMA completion length. The "astore.client.read.short"
      // site models a replica NIC aborting mid-transfer: only part of the
      // requested range lands in the buffer and the completion reports the
      // smaller length.
      uint64_t completed = len;
      Status torn = env_->faults()->MaybeFail("astore.client.read.short");
      if (!torn.ok() && len > 0) completed = len / 2;
      s = fabric_->Read(client_node_, loc.region, loc.base_offset + offset,
                        completed, out);
      if (s.ok()) {
        // Completion length first, checksum second: handing a sliced
        // buffer to the verifier could let a checksum covering a shorter
        // prefix record pass as the whole range.
        if (completed != len) {
          s = Status::DataLoss("replica completed a short read");
        } else if (read_opts.verify) {
          Status v = read_opts.verify(Slice(out, len));
          if (!v.ok()) {
            s = Status::DataLoss(v.message().empty() ? "checksum mismatch"
                                                     : v.message());
          }
        }
        if (s.IsDataLoss()) {
          corrupt_reads_->Add(1);
          bad.push_back(idx);
        }
      }
    }
    if (s.ok()) {
      if (!bad.empty() && read_opts.read_repair) {
        RepairReplicas(handle, route, bad, offset, Slice(out, len));
      }
      reads_->Add(1);
      read_ns_->Observe(env_->clock()->Now() - t0);
      return s;
    }
    last = std::move(s);
  }
  return last;
}

void AStoreClient::RepairReplicas(const SegmentHandlePtr& handle,
                                  const SegmentRoute& route,
                                  const std::vector<size_t>& bad,
                                  uint64_t offset, Slice good) {
  for (size_t idx : bad) {
    Status s = WriteReplica(handle, idx, offset, good, route.epoch);
    if (s.ok()) read_repairs_->Add(1);
    // A failed repair is left for the next read or the scrubber.
  }
}

Status AStoreClient::WriteReplica(const SegmentHandlePtr& handle,
                                  size_t replica_idx, uint64_t offset,
                                  Slice data, uint64_t route_epoch) {
  SegmentRoute route = handle->route();
  // Epoch guard: if the CM moved the route since the caller captured it,
  // `replica_idx` may now point at a freshly rebuilt copy, and a concurrent
  // writer may have re-posted newer bytes — either way the other party
  // wins and the repair is dropped (the scrubber will catch real rot).
  if (route.epoch != route_epoch) {
    return Status::Stale("route epoch moved; repair dropped");
  }
  if (replica_idx >= route.replicas.size()) {
    return Status::InvalidArgument("no such replica");
  }
  if (data.size() > route.size || offset > route.size - data.size()) {
    return Status::InvalidArgument("write past segment end");
  }
  const auto& loc = route.replicas[replica_idx];
  sim::SimNode* node = env_->GetNode(loc.node);
  if (!node->alive()) return Status::Unavailable("replica node is down");
  // WRITE the verified bytes + flush READ: the same persistence protocol
  // as the write path, against the one bad replica.
  net::ChainBuilder chain(loc.region);
  chain.Write(loc.base_offset + offset, data)
      .FlushRead(loc.base_offset + offset);
  return fabric_->PostChain(client_node_, chain.Take());
}

Status AStoreClient::ReadReplica(const SegmentHandlePtr& handle,
                                 size_t replica_idx, uint64_t offset,
                                 uint64_t len, char* out) {
  SegmentRoute route = handle->route();
  if (replica_idx >= route.replicas.size()) {
    return Status::InvalidArgument("no such replica");
  }
  if (len > route.size || offset > route.size - len) {
    return Status::InvalidArgument("read past segment end");
  }
  const auto& loc = route.replicas[replica_idx];
  sim::SimNode* node = env_->GetNode(loc.node);
  if (!node->alive()) return Status::Unavailable("replica node is down");
  return fabric_->Read(client_node_, loc.region, loc.base_offset + offset,
                       len, out);
}

Status AStoreClient::ReportCorruptReplica(const SegmentHandlePtr& handle,
                                          const std::string& node_name) {
  std::string req, resp;
  PutLengthPrefixedSlice(&req, Slice(node_name));
  PutFixed64(&req, handle->id());
  // Idempotent: quarantining an already-dropped replica is a no-op on the
  // CM, so per-attempt deadlines and retries are safe.
  return CmCall("report_corrupt", "cm.report_corrupt", Slice(req), &resp,
                /*idempotent=*/true);
}

Status AStoreClient::Delete(const SegmentHandlePtr& handle) {
  std::string req, resp;
  PutFixed64(&req, client_id_);
  PutFixed64(&req, handle->id());
  // Non-idempotent (a retried delete that already applied answers NotFound,
  // which is harmless, but per-attempt deadlines could time out a delete
  // that actually succeeded): no cm_deadline, retries only on transport
  // failure.
  Status s = CmCall("delete", "cm.delete_segment", Slice(req), &resp,
                    /*idempotent=*/false);
  {
    vedb::MutexLock lk(&handle->mu_);
    handle->stale_ = true;
    handle->frozen_ = true;
  }
  {
    vedb::MutexLock lk(&mu_);
    open_.erase(handle->id());
  }
  return s;
}

void AStoreClient::RefreshRoutes() {
  std::vector<SegmentHandlePtr> handles;
  {
    vedb::MutexLock lk(&mu_);
    for (auto it = open_.begin(); it != open_.end();) {
      if (SegmentHandlePtr h = it->second.lock()) {
        handles.push_back(std::move(h));
        ++it;
      } else {
        it = open_.erase(it);
      }
    }
  }
  for (const SegmentHandlePtr& handle : handles) {
    // discard-ok: per-handle refresh failures (CM unreachable) keep the
    // cached route; the next refresh pass tries again.
    (void)RefreshRoute(handle);
  }
}

Status AStoreClient::RefreshRoute(const SegmentHandlePtr& handle) {
  std::string req, resp;
  PutFixed64(&req, handle->id());
  // Single attempt (the periodic pass and the write-retry loop supply the
  // repetition); the endpoint rotation inside still walks the CM list.
  Status s = CmCallOnce("cm.get_route", Slice(req), &resp,
                        options_.retry.cm_deadline);
  route_refreshes_->Add(1);
  vedb::MutexLock lk(&handle->mu_);
  if (s.IsNotFound()) {
    // Deleted (possibly reclaimed): stop using it before the server's
    // cleaning deadline can hand the space to someone else.
    handle->stale_ = true;
    handle->frozen_ = true;
    return s;
  }
  if (!s.ok()) return s;  // CM unreachable: keep the cached route
  Slice in(resp);
  SegmentRoute route;
  if (!DecodeSegmentRoute(&in, &route)) {
    return Status::Corruption("bad route response");
  }
  if (route.owner != client_id_) {
    handle->stale_ = true;
    handle->frozen_ = true;
    return Status::Stale("segment reclaimed by another owner");
  }
  if (route.epoch != handle->route_.epoch) {
    const bool advanced = route.epoch > handle->route_.epoch;
    handle->route_ = std::move(route);
    // The CM rebuilt the replica set past the failure that froze this
    // handle, so the freeze no longer protects anything: un-freeze (the
    // recovery half of Section IV-C's stale-route protocol).
    if (advanced && handle->frozen_ && !handle->stale_ &&
        handle->route_.epoch > handle->frozen_epoch_) {
      handle->frozen_ = false;
      unfreezes_->Add(1);
    }
  }
  return Status::OK();
}

void AStoreClient::BackgroundLoop() {
  Timestamp last_lease = 0;
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(options_.route_refresh_interval);
    RefreshRoutes();
    Timestamp now = env_->clock()->Now();
    if (now - last_lease >= options_.lease_renew_interval) {
      // discard-ok: a failed renewal is retried next period; writes fence
      // themselves on LeaseValid().
      (void)RenewLease();
      last_lease = now;
    }
  }
}

void AStoreClient::StartBackground(sim::ActorGroup* group) {
  group->Spawn([this] { BackgroundLoop(); });
}

}  // namespace vedb::astore
