#include "astore/cluster_manager.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace vedb::astore {

ClusterManager::ClusterManager(sim::SimEnvironment* env,
                               net::RpcTransport* rpc, sim::SimNode* node,
                               const Options& options)
    : env_(env),
      rpc_(rpc),
      node_(node),
      options_(options),
      background_(env->clock()) {
  VEDB_CHECK(options_.node_id < 0x10000, "cm node_id must fit 16 bits");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  term_gauge_ = reg.GetGauge("cm.term", {{"node", node_->name()}});
  failovers_ = reg.GetCounter("cm.failovers", {{"node", node_->name()}});
  quarantines_ =
      reg.GetCounter("astore.repair.quarantines", {{"node", node_->name()}});
  rebuilds_ =
      reg.GetCounter("astore.repair.rebuilds", {{"node", node_->name()}});
  {
    // Until SetPeers says otherwise this member is a standalone primary.
    vedb::MutexLock lk(&mu_);
    term_ = MakeTerm(1, options_.node_id);
    leader_id_ = options_.node_id;
    term_gauge_->Set(static_cast<int64_t>(term_));
  }
  RegisterRpcServices();
}

void ClusterManager::SetPeers(const std::vector<CmPeer>& peers) {
  peers_ = peers;
  uint32_t lowest = options_.node_id;
  for (const CmPeer& p : peers_) lowest = std::min(lowest, p.node_id);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (const CmPeer& p : peers_) {
    if (p.node_id == options_.node_id) continue;
    lag_gauges_[p.node_id] =
        reg.GetGauge("cm.replication_lag", {{"node", node_->name()},
                                            {"peer", p.node->name()}});
  }
  vedb::MutexLock lk(&mu_);
  // Every member starts pre-agreed on term (1, lowest id): the record
  // streams are aligned from seq 1, so no initial snapshot is needed.
  term_ = MakeTerm(1, lowest);
  leader_id_ = lowest;
  term_gauge_->Set(static_cast<int64_t>(term_));
}

void ClusterManager::RegisterServer(AStoreServer* server) {
  vedb::MutexLock lk(&mu_);
  servers_[server->node()->name()] = ServerInfo{server, false};
}

void ClusterManager::StartBackground() {
  background_.Spawn([this] { HealthLoop(); });
}

void ClusterManager::Shutdown() {
  RequestShutdown();
  // Drain: the heartbeat actor observes the flag within one period and
  // exits; the join resumes us at that virtual instant.
  background_.JoinAll();
}

void ClusterManager::HealthLoop() {
  while (!shutdown_.load()) {
    env_->clock()->SleepFor(options_.heartbeat_period);
    if (shutdown_.load()) break;
    Tick();
  }
}

void ClusterManager::Tick() {
  // A crashed CM does nothing — its node is gone, so neither its sweeps nor
  // its RPCs exist. When revived it resumes here with stale beliefs and the
  // first peer ping demotes it (PrimaryTick pings before sweeping).
  if (!node_->alive()) return;
  if (IsPrimary()) {
    PrimaryTick();
  } else {
    StandbyTick();
  }
}

bool ClusterManager::IsPrimary() const {
  vedb::MutexLock lk(&mu_);
  return IsPrimaryLocked();
}

uint64_t ClusterManager::Term() const {
  vedb::MutexLock lk(&mu_);
  return term_;
}

uint32_t ClusterManager::LeaderId() const {
  vedb::MutexLock lk(&mu_);
  return leader_id_;
}

std::vector<uint64_t> ClusterManager::GrantedTerms() const {
  vedb::MutexLock lk(&mu_);
  return {granted_terms_.begin(), granted_terms_.end()};
}

std::string ClusterManager::DebugEncodeRoutes() const {
  vedb::MutexLock lk(&mu_);
  std::string out;
  for (const auto& [id, route] : routes_) EncodeSegmentRoute(&out, route);
  return out;
}

uint64_t ClusterManager::LastSeq() const {
  {
    vedb::MutexLock lk(&mu_);
    if (IsPrimaryLocked()) return next_seq_ - 1;
  }
  vedb::MutexLock lk(&repl_mu_);
  return last_applied_;
}

CmRecord ClusterManager::MakeRecordLocked(CmRecordType type) {
  CmRecord rec;
  rec.term = term_;
  rec.seq = next_seq_++;
  rec.type = type;
  return rec;
}

void ClusterManager::ShipRecords(const std::vector<CmRecord>& records) {
  if (records.empty() || peers_.size() < 2) return;
  std::string batch;
  PutFixed32(&batch, static_cast<uint32_t>(records.size()));
  for (const CmRecord& rec : records) EncodeCmRecord(&batch, rec);
  const uint64_t last = records.back().seq;
  for (const CmPeer& peer : peers_) {
    if (peer.node_id == options_.node_id) continue;
    net::RpcCallOptions opts;
    opts.deadline = env_->clock()->Now() + options_.replication_deadline;
    std::string resp;
    Status s = rpc_->Call(node_, peer.node, "cm.replicate", Slice(batch),
                          &resp, opts);
    auto lag_it = lag_gauges_.find(peer.node_id);
    if (s.ok() && resp.size() >= 8) {
      const uint64_t acked = DecodeFixed64(resp.data());
      if (lag_it != lag_gauges_.end()) {
        lag_it->second->Set(
            static_cast<int64_t>(last > acked ? last - acked : 0));
      }
    } else if (lag_it != lag_gauges_.end()) {
      // Unacked ship: report the full distance; the peer repairs itself via
      // snapshot pull and the next successful ship corrects the gauge.
      lag_it->second->Set(static_cast<int64_t>(last));
    }
  }
}

void ClusterManager::ApplyRecordLocked(const CmRecord& rec) {
  switch (rec.type) {
    case CmRecordType::kLease:
      leases_[rec.client] = rec.expiry;
      break;
    case CmRecordType::kLeasePrune:
      for (auto it = leases_.begin(); it != leases_.end();) {
        if (it->second <= rec.cutoff) {
          it = leases_.erase(it);
        } else {
          ++it;
        }
      }
      break;
    case CmRecordType::kRouteUpsert:
      routes_[rec.route.id] = rec.route;
      pending_creates_.erase(rec.route.id);
      next_segment_id_ = std::max(next_segment_id_, rec.route.id + 1);
      break;
    case CmRecordType::kRouteErase:
      routes_.erase(rec.segment);
      pending_creates_.erase(rec.segment);
      break;
    case CmRecordType::kCreateBegin:
      pending_creates_.insert(rec.segment);
      next_segment_id_ = std::max(next_segment_id_, rec.segment + 1);
      break;
  }
}

void ClusterManager::AdoptTermIfNewer(uint64_t term) {
  {
    vedb::MutexLock lk(&mu_);
    if (term <= term_) return;
    if (IsPrimaryLocked()) {
      VEDB_LOG(kInfo, "cm %s stepping down: term %llu superseded by %llu",
               node_->name().c_str(), static_cast<unsigned long long>(term_),
               static_cast<unsigned long long>(term));
    }
    term_ = term;
    leader_id_ = TermNodeId(term);
    term_gauge_->Set(static_cast<int64_t>(term_));
  }
  vedb::MutexLock lk(&repl_mu_);
  // Our state may have diverged from the new leader's (records we missed,
  // or records only we applied). Resync wholesale before ingesting more.
  need_snapshot_ = true;
  reorder_.clear();
  leader_down_since_ = 0;
}

Status ClusterManager::RequirePrimaryAndStamp(std::string* resp) {
  vedb::MutexLock lk(&mu_);
  if (!IsPrimaryLocked()) {
    return Status::Stale("cm " + node_->name() + " is not primary");
  }
  PutFixed64(resp, term_);
  return Status::OK();
}

Status ClusterManager::PingPeer(const CmPeer& peer, PeerStatus* out) {
  std::string req, resp;
  PutFixed32(&req, options_.node_id);
  PutFixed64(&req, Term());
  net::RpcCallOptions opts;
  opts.deadline = env_->clock()->Now() + options_.replication_deadline;
  VEDB_RETURN_IF_ERROR(
      rpc_->Call(node_, peer.node, "cm.ping", Slice(req), &resp, opts));
  Slice in(resp);
  Slice raw;
  if (!GetFixedBytes(&in, 8, &raw)) return Status::Corruption("ping resp");
  out->term = DecodeFixed64(raw.data());
  if (!GetFixedBytes(&in, 4, &raw)) return Status::Corruption("ping resp");
  out->leader_id = DecodeFixed32(raw.data());
  if (!GetFixedBytes(&in, 8, &raw)) return Status::Corruption("ping resp");
  out->last_seq = DecodeFixed64(raw.data());
  return Status::OK();
}

void ClusterManager::PrimaryTick() {
  // Validate our term against the group BEFORE any sweep: a revived or
  // partition-healed old primary must learn of the new term and step down
  // rather than issue a late rebuild against the promoted standby's state.
  if (peers_.size() >= 2) {
    uint64_t last;
    {
      vedb::MutexLock lk(&mu_);
      last = next_seq_ - 1;
    }
    const uint64_t my_term = Term();
    for (const CmPeer& peer : peers_) {
      if (peer.node_id == options_.node_id) continue;
      PeerStatus ps;
      if (!PingPeer(peer, &ps).ok()) continue;
      if (ps.term > my_term) {
        AdoptTermIfNewer(ps.term);
        return;  // demoted; no sweep under a term we no longer lead
      }
      auto lag_it = lag_gauges_.find(peer.node_id);
      if (lag_it != lag_gauges_.end()) {
        lag_it->second->Set(
            static_cast<int64_t>(last > ps.last_seq ? last - ps.last_seq : 0));
      }
    }
  }
  CheckHealthNow();
}

void ClusterManager::StandbyTick() {
  const CmPeer* leader = nullptr;
  const uint32_t lid = LeaderId();
  for (const CmPeer& peer : peers_) {
    if (peer.node_id == lid) leader = &peer;
  }
  if (leader == nullptr || leader->node == node_) return;

  PeerStatus ps;
  const Status s = PingPeer(*leader, &ps);
  if (s.ok()) {
    AdoptTermIfNewer(ps.term);
    bool pull = false;
    {
      vedb::MutexLock lk(&repl_mu_);
      leader_down_since_ = 0;
      if (need_snapshot_) {
        pull = true;
      } else if (ps.last_seq > last_applied_ &&
                 last_applied_ == prev_applied_seen_) {
        // The leader is ahead and we made no progress across a whole tick:
        // a shipped batch was lost to us. Repair wholesale.
        need_snapshot_ = true;
        pull = true;
      }
      prev_applied_seen_ = last_applied_;
    }
    if (pull) {
      // discard-ok: best-effort; the flag stays set and the next tick
      // retries until a pull succeeds.
      (void)PullSnapshotFromLeader();
    }
    return;
  }

  const Timestamp now = env_->clock()->Now();
  bool elect = false;
  {
    vedb::MutexLock lk(&repl_mu_);
    if (leader_down_since_ == 0) {
      leader_down_since_ = now;
    } else if (now - leader_down_since_ >= options_.failure_timeout) {
      elect = true;
    }
  }
  if (elect) TryElect();
}

void ClusterManager::TryElect() {
  const uint64_t my_term = Term();
  const uint32_t my_id = options_.node_id;
  const uint32_t lid = LeaderId();
  int reachable = 1;  // self
  bool lower_live = false;
  for (const CmPeer& peer : peers_) {
    if (peer.node_id == my_id) continue;
    PeerStatus ps;
    if (!PingPeer(peer, &ps).ok()) continue;
    reachable++;
    if (ps.term > my_term) {
      // Someone already promoted; follow them.
      AdoptTermIfNewer(ps.term);
      return;
    }
    if (peer.node_id == lid) {
      // The leader answered after all; not an outage.
      vedb::MutexLock lk(&repl_mu_);
      leader_down_since_ = 0;
      return;
    }
    if (peer.node_id < my_id) lower_live = true;
  }
  // Majority gate (self included): a minority-side member must never
  // promote, or a healed partition would reunite two primaries whose terms
  // both granted leases. This is the split-brain fence.
  if (2 * reachable <= static_cast<int>(peers_.size())) return;
  // Deterministic election: the lowest-node-id live standby wins the next
  // term; everyone else defers and adopts it on their next ping.
  if (lower_live) return;
  Promote();
}

void ClusterManager::Promote() {
  uint64_t applied;
  {
    vedb::MutexLock lk(&repl_mu_);
    // Drain whatever consecutive records are still buffered, then discard
    // the rest: the old primary that could fill the gap is gone.
    while (!reorder_.empty() &&
           reorder_.begin()->first == last_applied_ + 1) {
      {
        vedb::MutexLock state(&mu_);
        ApplyRecordLocked(reorder_.begin()->second);
      }
      last_applied_++;
      reorder_.erase(reorder_.begin());
    }
    reorder_.clear();
    need_snapshot_ = false;
    leader_down_since_ = 0;
    applied = last_applied_;
    prev_applied_seen_ = applied;
  }

  std::vector<CmRecord> records;
  std::vector<SegmentId> orphans;
  uint64_t new_term;
  {
    vedb::MutexLock lk(&mu_);
    new_term = MakeTerm(TermRound(term_) + 1, options_.node_id);
    term_ = new_term;
    leader_id_ = options_.node_id;
    next_seq_ = applied + 1;
    // Ids the old primary may have reserved without us ever hearing of the
    // reservation can never be re-issued.
    next_segment_id_ += options_.failover_id_gap;
    // In-flight creates whose kCreateBegin we saw but whose commit never
    // arrived are orphans: their client will retry against us and get a
    // fresh id, so release the half-made allocations and drop the ids.
    orphans.assign(pending_creates_.begin(), pending_creates_.end());
    pending_creates_.clear();
    for (SegmentId id : orphans) {
      CmRecord rec = MakeRecordLocked(CmRecordType::kRouteErase);
      rec.segment = id;
      records.push_back(rec);
    }
    term_gauge_->Set(static_cast<int64_t>(term_));
  }
  failovers_->Add(1);
  VEDB_LOG(kInfo, "cm %s promoted to primary: term %llu, %zu orphaned creates",
           node_->name().c_str(), static_cast<unsigned long long>(new_term),
           orphans.size());
  ShipRecords(records);

  if (!orphans.empty()) {
    std::vector<sim::SimNode*> server_nodes;
    {
      vedb::MutexLock lk(&mu_);
      for (const auto& [name, info] : servers_) {
        server_nodes.push_back(info.server->node());
      }
    }
    for (SegmentId id : orphans) {
      std::string req;
      PutFixed64(&req, id);
      for (sim::SimNode* server : server_nodes) {
        std::string resp;
        // discard-ok: best-effort epoch-zero cleanup — a server that never
        // allocated the id answers NotFound, an unreachable one reclaims
        // the space via its deferred cleaner.
        (void)rpc_->Call(node_, server, "astore.release", Slice(req), &resp);
      }
    }
  }
  // Resume health-checking immediately: dead storage nodes get their
  // routes' epochs bumped and replicas rebuilt under the new term.
  CheckHealthNow();
}

Status ClusterManager::PullSnapshotFromLeader() {
  const CmPeer* leader = nullptr;
  const uint32_t lid = LeaderId();
  for (const CmPeer& peer : peers_) {
    if (peer.node_id == lid) leader = &peer;
  }
  if (leader == nullptr || leader->node == node_) {
    return Status::InvalidArgument("no leader to sync from");
  }
  std::string resp;
  VEDB_RETURN_IF_ERROR(rpc_->Call(node_, leader->node, "cm.fetch_snapshot",
                                  Slice(), &resp));
  Slice in(resp);
  CmSnapshot snap;
  if (!DecodeCmSnapshot(&in, &snap)) {
    return Status::Corruption("bad cm snapshot");
  }
  InstallSnapshot(snap);
  return Status::OK();
}

void ClusterManager::InstallSnapshot(const CmSnapshot& snap) {
  vedb::MutexLock repl(&repl_mu_);
  {
    vedb::MutexLock lk(&mu_);
    if (snap.term < term_) return;  // raced with an even newer leader
    term_ = snap.term;
    leader_id_ = snap.leader_id;
    next_seq_ = snap.last_seq + 1;
    next_segment_id_ = snap.next_segment_id;
    routes_.clear();
    for (const SegmentRoute& route : snap.routes) routes_[route.id] = route;
    leases_.clear();
    for (const auto& [client, expiry] : snap.leases) {
      leases_[client] = expiry;
    }
    pending_creates_ = {snap.pending_creates.begin(),
                        snap.pending_creates.end()};
    term_gauge_->Set(static_cast<int64_t>(term_));
  }
  last_applied_ = snap.last_seq;
  prev_applied_seen_ = snap.last_seq;
  need_snapshot_ = false;
  for (auto it = reorder_.begin(); it != reorder_.end();) {
    if (it->first <= snap.last_seq) {
      it = reorder_.erase(it);
    } else {
      ++it;
    }
  }
}

CmSnapshot ClusterManager::BuildSnapshotLocked() const {
  CmSnapshot snap;
  snap.term = term_;
  snap.leader_id = leader_id_;
  snap.last_seq = next_seq_ - 1;
  snap.next_segment_id = next_segment_id_;
  for (const auto& [id, route] : routes_) snap.routes.push_back(route);
  for (const auto& [client, expiry] : leases_) {
    snap.leases.emplace_back(client, expiry);
  }
  snap.pending_creates = {pending_creates_.begin(), pending_creates_.end()};
  return snap;
}

void ClusterManager::CheckHealthNow() {
  // Snapshot transitions under the lock, act on them outside it (rebuild
  // issues RPCs that advance virtual time).
  std::vector<std::string> newly_dead;
  std::vector<AStoreServer*> returned;
  std::vector<CmRecord> records;
  {
    vedb::MutexLock lk(&mu_);
    if (!IsPrimaryLocked()) return;  // standbys follow, they don't sweep
    // Drop leases that expired: holders must re-acquire anyway, and
    // without pruning the map grows by one entry per client id forever.
    const Timestamp now = env_->clock()->Now();
    bool pruned = false;
    for (auto it = leases_.begin(); it != leases_.end();) {
      if (it->second <= now) {
        it = leases_.erase(it);
        pruned = true;
      } else {
        ++it;
      }
    }
    if (pruned) {
      CmRecord rec = MakeRecordLocked(CmRecordType::kLeasePrune);
      rec.cutoff = now;
      records.push_back(rec);
    }
    for (auto& [name, info] : servers_) {
      const bool alive = info.server->node()->alive();
      if (!alive && !info.marked_dead) {
        info.marked_dead = true;
        newly_dead.push_back(name);
      } else if (alive && info.marked_dead) {
        info.marked_dead = false;
        returned.push_back(info.server);
      }
    }
  }
  ShipRecords(records);
  for (const std::string& name : newly_dead) {
    RebuildSegmentsOf(name);
  }
  // "If the failed node returns to the cluster, the segments on it are
  // considered stale and will be cleaned up by the CM" (Section IV-C) —
  // EXCEPT segments that lost their only replica with the node: those are
  // re-attached from the returning server's persistent PMem copy (the
  // paper's local-recovery future-work item).
  for (AStoreServer* server : returned) {
    std::vector<SegmentId> stale;
    std::vector<SegmentId> reattach;
    {
      vedb::MutexLock lk(&mu_);
      for (const auto& [id, route] : routes_) {
        bool routed_here = false;
        for (const auto& loc : route.replicas) {
          if (loc.node == server->node()->name()) routed_here = true;
        }
        if (routed_here || !server->HasSegment(id)) continue;
        if (route.replicas.empty()) {
          reattach.push_back(id);
        } else {
          stale.push_back(id);
        }
      }
    }
    for (SegmentId id : stale) {
      std::string req, resp;
      PutFixed64(&req, id);
      // discard-ok: best-effort release of a stale replica; the server's
      // deferred cleaner reclaims it anyway if the RPC is lost.
      (void)rpc_->Call(node_, server->node(), "astore.release", Slice(req),
                       &resp);
    }
    for (SegmentId id : reattach) {
      auto loc = server->LocationOf(id);
      if (!loc.ok()) continue;
      std::vector<CmRecord> reattach_records;
      {
        vedb::MutexLock lk(&mu_);
        auto it = routes_.find(id);
        if (it == routes_.end() || !it->second.replicas.empty()) continue;
        it->second.replicas.push_back(*loc);
        it->second.epoch++;
        CmRecord rec = MakeRecordLocked(CmRecordType::kRouteUpsert);
        rec.route = it->second;
        reattach_records.push_back(rec);
      }
      ShipRecords(reattach_records);
    }
  }

  // Retry rebuilds that previously found no usable target (each attempt
  // re-enqueues itself on failure, so an under-replicated segment is
  // re-attempted every sweep until a server frees up).
  struct RetryJob {
    SegmentId id;
    uint64_t size;
    ReplicaLocation source;
  };
  std::vector<RetryJob> retries;
  {
    vedb::MutexLock lk(&mu_);
    for (SegmentId id : pending_rebuilds_) {
      auto it = routes_.find(id);
      if (it == routes_.end() || it->second.replicas.empty()) continue;
      retries.push_back(
          RetryJob{id, it->second.size, it->second.replicas.front()});
    }
    pending_rebuilds_.clear();
  }
  for (const RetryJob& job : retries) {
    RebuildOneReplica(job.id, job.size, job.source, {});
  }
}

void ClusterManager::RebuildSegmentsOf(const std::string& dead_node) {
  // Collect segments that lost a replica.
  struct RebuildJob {
    SegmentId id;
    uint64_t size;
    ReplicaLocation source;  // a healthy replica to copy from
  };
  std::vector<RebuildJob> jobs;
  std::vector<CmRecord> records;
  {
    vedb::MutexLock lk(&mu_);
    for (auto& [id, route] : routes_) {
      auto it = std::find_if(
          route.replicas.begin(), route.replicas.end(),
          [&](const ReplicaLocation& l) { return l.node == dead_node; });
      if (it == route.replicas.end()) continue;
      route.replicas.erase(it);
      route.epoch++;
      CmRecord rec = MakeRecordLocked(CmRecordType::kRouteUpsert);
      rec.route = route;
      records.push_back(rec);
      if (options_.auto_rebuild && !route.replicas.empty()) {
        jobs.push_back(RebuildJob{id, route.size, route.replicas.front()});
      }
    }
  }
  ShipRecords(records);

  for (const RebuildJob& job : jobs) {
    RebuildOneReplica(job.id, job.size, job.source, {});
  }
}

void ClusterManager::RebuildOneReplica(
    SegmentId id, uint64_t size, const ReplicaLocation& source,
    const std::vector<std::string>& extra_exclude) {
  AStoreServer* target = nullptr;
  {
    vedb::MutexLock lk(&mu_);
    // Exclude nodes already carrying a replica, plus the caller's own
    // exclusions (a quarantined reporter must not get the copy right back),
    // plus every node a copy of this segment was ever quarantined on (its
    // PMem region has bad cells; re-hosting there would re-corrupt).
    std::vector<std::string> exclude = extra_exclude;
    auto rit = routes_.find(id);
    if (rit == routes_.end()) return;  // deleted meanwhile
    for (const auto& loc : rit->second.replicas) exclude.push_back(loc.node);
    auto qit = quarantined_nodes_.find(id);
    if (qit != quarantined_nodes_.end()) {
      exclude.insert(exclude.end(), qit->second.begin(), qit->second.end());
    }
    // Also exclude servers still holding an off-route copy awaiting the
    // deferred cleaner (e.g. a revived node): their Allocate would fail
    // with AlreadyExists and strand the segment under-replicated.
    for (const auto& [name, info] : servers_) {
      if (info.server->HoldsSegmentStorage(id)) exclude.push_back(name);
    }
    auto picked = PickServersLocked(1, exclude);
    if (!picked.ok()) {
      // No usable target right now (dead nodes, or every spare still holds
      // a stale pending-clean copy). Queue a retry for the health sweep:
      // the segment must not stay under-replicated just because placement
      // hit a momentary dead-end.
      pending_rebuilds_.insert(id);
      return;
    }
    target = picked.value()[0];
  }
  // Ask the new server to pull the bytes from the healthy source.
  std::string req, resp;
  PutFixed64(&req, id);
  PutFixed64(&req, size);
  PutLengthPrefixedSlice(&req, Slice(source.node));
  PutFixed64(&req, source.base_offset);
  PutFixed32(&req, source.region.value);
  Status s =
      rpc_->Call(node_, target->node(), "astore.pull", Slice(req), &resp);
  if (!s.ok()) {
    VEDB_LOG(kWarn, "rebuild of segment %llu on %s failed: %s",
             static_cast<unsigned long long>(id),
             target->node()->name().c_str(), s.ToString().c_str());
    vedb::MutexLock lk(&mu_);
    pending_rebuilds_.insert(id);
    return;
  }
  Slice in(resp);
  ReplicaLocation loc;
  if (!DecodeReplicaLocation(&in, &loc)) return;
  std::vector<CmRecord> commit;
  {
    vedb::MutexLock lk(&mu_);
    auto rit = routes_.find(id);
    if (rit == routes_.end()) return;
    rit->second.replicas.push_back(loc);
    rit->second.epoch++;
    CmRecord rec = MakeRecordLocked(CmRecordType::kRouteUpsert);
    rec.route = rit->second;
    commit.push_back(rec);
  }
  rebuilds_->Add(1);
  ShipRecords(commit);
}

Status ClusterManager::QuarantineReplica(const std::string& node_name,
                                         SegmentId id) {
  uint64_t size = 0;
  ReplicaLocation source;
  bool rebuild = false;
  sim::SimNode* reporter = nullptr;
  std::vector<CmRecord> records;
  {
    vedb::MutexLock lk(&mu_);
    if (!IsPrimaryLocked()) {
      return Status::Stale("cm " + node_->name() + " is not primary");
    }
    auto it = routes_.find(id);
    if (it == routes_.end()) return Status::NotFound("no such segment");
    auto rit = std::find_if(
        it->second.replicas.begin(), it->second.replicas.end(),
        [&](const ReplicaLocation& l) { return l.node == node_name; });
    // Stale report: the route already moved past this replica (a concurrent
    // rebuild or an earlier report won). Acknowledge without action.
    if (rit == it->second.replicas.end()) return Status::OK();
    if (it->second.replicas.size() <= 1) {
      return Status::Unavailable(
          "refusing to quarantine the last replica of segment " +
          std::to_string(id));
    }
    it->second.replicas.erase(rit);
    it->second.epoch++;
    CmRecord rec = MakeRecordLocked(CmRecordType::kRouteUpsert);
    rec.route = it->second;
    records.push_back(rec);
    size = it->second.size;
    source = it->second.replicas.front();
    rebuild = options_.auto_rebuild;
    quarantined_nodes_[id].insert(node_name);
    auto sit = servers_.find(node_name);
    if (sit != servers_.end()) reporter = sit->second.server->node();
    quarantines_->Add(1);
  }
  VEDB_LOG(kInfo, "cm %s quarantined replica of segment %llu on %s",
           node_->name().c_str(), static_cast<unsigned long long>(id),
           node_name.c_str());
  // Release the quarantined copy right away (rather than waiting for the
  // next returned-node sweep): its deferred-clean timer starts now, so the
  // node becomes a usable rebuild target for OTHER segments sooner.
  if (reporter != nullptr) {
    std::string req, resp;
    PutFixed64(&req, id);
    // discard-ok: best-effort; the stale-copy health sweep retries this
    (void)rpc_->Call(node_, reporter, "astore.release", Slice(req), &resp);
  }
  ShipRecords(records);
  if (rebuild) RebuildOneReplica(id, size, source, {node_name});
  return Status::OK();
}

Timestamp ClusterManager::AcquireLease(ClientId client) {
  std::vector<CmRecord> records;
  Timestamp expiry;
  {
    vedb::MutexLock lk(&mu_);
    expiry = env_->clock()->Now() + options_.lease_duration;
    leases_[client] = expiry;
    granted_terms_.insert(term_);
    CmRecord rec = MakeRecordLocked(CmRecordType::kLease);
    rec.client = client;
    rec.expiry = expiry;
    records.push_back(rec);
  }
  ShipRecords(records);
  return expiry;
}

bool ClusterManager::LeaseValid(ClientId client) const {
  vedb::MutexLock lk(&mu_);
  auto it = leases_.find(client);
  return it != leases_.end() && it->second > env_->clock()->Now();
}

Result<std::vector<AStoreServer*>> ClusterManager::PickServersLocked(
    int count, const std::vector<std::string>& exclude) const {
  // "The CM returns the appropriate nodes according to the capacity and
  // load of the AStore Server nodes" (Section IV-A): order by free
  // capacity, break ties by live segment count.
  std::vector<AStoreServer*> candidates;
  for (const auto& [name, info] : servers_) {
    if (info.marked_dead || !info.server->node()->alive()) continue;
    if (std::find(exclude.begin(), exclude.end(), name) != exclude.end()) {
      continue;
    }
    candidates.push_back(info.server);
  }
  if (static_cast<int>(candidates.size()) < count) {
    return Status::Unavailable("not enough healthy AStore servers");
  }
  std::sort(candidates.begin(), candidates.end(),
            [](AStoreServer* a, AStoreServer* b) {
              const uint64_t fa = a->FreeCapacity(), fb = b->FreeCapacity();
              if (fa != fb) return fa > fb;
              return a->LiveSegmentCount() < b->LiveSegmentCount();
            });
  candidates.resize(count);
  return candidates;
}

Result<SegmentRoute> ClusterManager::CreateSegment(sim::SimNode* rpc_client,
                                                   ClientId client,
                                                   uint64_t size,
                                                   int replication) {
  if (size == 0 || replication < 1) {
    return Status::InvalidArgument("bad segment parameters");
  }
  SegmentRoute route;
  std::vector<AStoreServer*> chosen;
  std::vector<CmRecord> begin_records;
  {
    vedb::MutexLock lk(&mu_);
    if (!IsPrimaryLocked()) {
      return Status::Stale("cm " + node_->name() + " is not primary");
    }
    VEDB_ASSIGN_OR_RETURN(chosen, PickServersLocked(replication, {}));
    route.id = next_segment_id_++;
    route.size = size;
    route.replication = replication;
    route.epoch = 1;
    route.owner = client;
    // Reserve the id group-wide before any allocation happens, so a CM that
    // takes over mid-create knows the id was handed out and releases the
    // half-made allocations instead of ever re-issuing the id.
    pending_creates_.insert(route.id);
    CmRecord rec = MakeRecordLocked(CmRecordType::kCreateBegin);
    rec.segment = route.id;
    begin_records.push_back(rec);
  }
  ShipRecords(begin_records);
  // Allocate space on each chosen server ("the AStore Client sends an RPC
  // message to apply for new storage space", Section IV-B — issued here on
  // the caller's behalf, from its node).
  // On a mid-loop failure the earlier allocations must be handed back, or
  // the space leaks until the servers' deferred cleaner never fires for it
  // (no route ever exists, so nothing would ever release it).
  auto release_partial = [&](Status failure) -> Status {
    for (size_t i = 0; i < route.replicas.size(); ++i) {
      std::string req, resp;
      PutFixed64(&req, route.id);
      // discard-ok: best-effort undo; an unreachable server's space is
      // bounded by the segment size and reclaimed when it re-registers.
      (void)rpc_->Call(rpc_client, chosen[i]->node(), "astore.release",
                       Slice(req), &resp);
    }
    std::vector<CmRecord> abort_records;
    {
      vedb::MutexLock lk(&mu_);
      pending_creates_.erase(route.id);
      if (IsPrimaryLocked()) {
        CmRecord rec = MakeRecordLocked(CmRecordType::kRouteErase);
        rec.segment = route.id;
        abort_records.push_back(rec);
      }
    }
    ShipRecords(abort_records);
    return failure;
  };
  for (AStoreServer* server : chosen) {
    std::string req, resp;
    PutFixed64(&req, route.id);
    PutFixed64(&req, size);
    Status s = rpc_->Call(rpc_client, server->node(), "astore.alloc",
                          Slice(req), &resp);
    if (!s.ok()) return release_partial(std::move(s));
    Slice in(resp);
    ReplicaLocation loc;
    if (!DecodeReplicaLocation(&in, &loc)) {
      return release_partial(Status::Corruption("bad alloc response"));
    }
    route.replicas.push_back(loc);
  }
  std::vector<CmRecord> commit_records;
  {
    vedb::MutexLock lk(&mu_);
    if (!IsPrimaryLocked()) {
      // Demoted while the allocations were in flight: the new primary owns
      // the id's fate (it saw our kCreateBegin). Undo and let the client
      // retry against it.
      lk.Unlock();
      return release_partial(
          Status::Stale("cm demoted during segment create"));
    }
    routes_[route.id] = route;
    pending_creates_.erase(route.id);
    CmRecord rec = MakeRecordLocked(CmRecordType::kRouteUpsert);
    rec.route = route;
    commit_records.push_back(rec);
  }
  ShipRecords(commit_records);
  return route;
}

Result<SegmentRoute> ClusterManager::GetRoute(SegmentId id) const {
  vedb::MutexLock lk(&mu_);
  auto it = routes_.find(id);
  if (it == routes_.end()) return Status::NotFound("no such segment");
  return it->second;
}

Status ClusterManager::ReclaimSegment(SegmentId id, ClientId new_owner) {
  std::vector<CmRecord> records;
  {
    vedb::MutexLock lk(&mu_);
    auto it = routes_.find(id);
    if (it == routes_.end()) return Status::NotFound("no such segment");
    it->second.owner = new_owner;
    it->second.epoch++;
    CmRecord rec = MakeRecordLocked(CmRecordType::kRouteUpsert);
    rec.route = it->second;
    records.push_back(rec);
  }
  ShipRecords(records);
  return Status::OK();
}

Status ClusterManager::DeleteSegment(sim::SimNode* rpc_client, ClientId client,
                                     SegmentId id) {
  SegmentRoute route;
  std::vector<CmRecord> records;
  {
    vedb::MutexLock lk(&mu_);
    auto it = routes_.find(id);
    if (it == routes_.end()) return Status::NotFound("no such segment");
    if (it->second.owner != client) {
      return Status::LeaseExpired("segment owned by another client");
    }
    route = it->second;
    routes_.erase(it);
    pending_rebuilds_.erase(id);
    quarantined_nodes_.erase(id);
    CmRecord rec = MakeRecordLocked(CmRecordType::kRouteErase);
    rec.segment = id;
    records.push_back(rec);
  }
  ShipRecords(records);
  // Ask each replica to (defer-)release the space.
  for (const auto& loc : route.replicas) {
    std::string req, resp;
    PutFixed64(&req, id);
    sim::SimNode* server_node = env_->GetNode(loc.node);
    // discard-ok: release is advisory; unreachable replicas are reclaimed
    // by the deferred cleaning deadline.
    (void)rpc_->Call(rpc_client, server_node, "astore.release", Slice(req),
                     &resp);
  }
  return Status::OK();
}

std::vector<SegmentId> ClusterManager::ListSegments(ClientId client) const {
  vedb::MutexLock lk(&mu_);
  std::vector<SegmentId> out;
  for (const auto& [id, route] : routes_) {
    if (route.owner == client) out.push_back(id);
  }
  return out;
}

size_t ClusterManager::AliveServerCount() const {
  vedb::MutexLock lk(&mu_);
  size_t n = 0;
  for (const auto& [name, info] : servers_) {
    if (!info.marked_dead && info.server->node()->alive()) n++;
  }
  return n;
}

void ClusterManager::RegisterRpcServices() {
  rpc_->RegisterService(
      node_, "cm.create_segment", [this](Slice req, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost);
        VEDB_RETURN_IF_ERROR(RequirePrimaryAndStamp(resp));
        Slice raw;
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("create req");
        }
        ClientId client = DecodeFixed64(raw.data());
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("create req");
        }
        uint64_t size = DecodeFixed64(raw.data());
        if (!GetFixedBytes(&req, 4, &raw)) {
          return Status::InvalidArgument("create req");
        }
        int replication = static_cast<int>(DecodeFixed32(raw.data()));
        VEDB_ASSIGN_OR_RETURN(
            SegmentRoute route,
            CreateSegment(node_, client, size, replication));
        EncodeSegmentRoute(resp, route);
        return Status::OK();
      });
  rpc_->RegisterService(
      node_, "cm.get_route", [this](Slice req, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost / 10);
        VEDB_RETURN_IF_ERROR(RequirePrimaryAndStamp(resp));
        Slice raw;
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("route req");
        }
        VEDB_ASSIGN_OR_RETURN(SegmentRoute route,
                              GetRoute(DecodeFixed64(raw.data())));
        EncodeSegmentRoute(resp, route);
        return Status::OK();
      });
  rpc_->RegisterService(
      node_, "cm.delete_segment", [this](Slice req, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost);
        resp->clear();
        VEDB_RETURN_IF_ERROR(RequirePrimaryAndStamp(resp));
        Slice raw;
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("delete req");
        }
        ClientId client = DecodeFixed64(raw.data());
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("delete req");
        }
        return DeleteSegment(node_, client, DecodeFixed64(raw.data()));
      });
  rpc_->RegisterService(
      node_, "cm.report_corrupt", [this](Slice req, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost);
        resp->clear();
        VEDB_RETURN_IF_ERROR(RequirePrimaryAndStamp(resp));
        Slice reporter;
        if (!GetLengthPrefixedSlice(&req, &reporter)) {
          return Status::InvalidArgument("report req");
        }
        Slice raw;
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("report req");
        }
        return QuarantineReplica(reporter.ToString(),
                                 DecodeFixed64(raw.data()));
      });
  rpc_->RegisterService(
      node_, "cm.lease", [this](Slice req, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost / 10);
        VEDB_RETURN_IF_ERROR(RequirePrimaryAndStamp(resp));
        Slice raw;
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("lease req");
        }
        Timestamp expiry = AcquireLease(DecodeFixed64(raw.data()));
        PutFixed64(resp, expiry);
        return Status::OK();
      });

  // ---- Intra-group services (term-checked, never client-facing). ----
  rpc_->RegisterService(
      node_, "cm.ping", [this](Slice req, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost / 20);
        Slice raw;
        if (!GetFixedBytes(&req, 4, &raw)) {
          return Status::InvalidArgument("ping req");
        }
        if (!GetFixedBytes(&req, 8, &raw)) {
          return Status::InvalidArgument("ping req");
        }
        // A ping carries the sender's term: this is how a revived old
        // primary hears about the regime change.
        AdoptTermIfNewer(DecodeFixed64(raw.data()));
        PutFixed64(resp, Term());
        PutFixed32(resp, LeaderId());
        PutFixed64(resp, LastSeq());
        return Status::OK();
      });
  rpc_->RegisterService(
      node_, "cm.replicate", [this](Slice req, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost / 20);
        Slice raw;
        if (!GetFixedBytes(&req, 4, &raw)) {
          return Status::InvalidArgument("replicate req");
        }
        const uint32_t count = DecodeFixed32(raw.data());
        std::vector<CmRecord> records(count);
        for (uint32_t i = 0; i < count; ++i) {
          if (!DecodeCmRecord(&req, &records[i])) {
            return Status::Corruption("cm record failed validation");
          }
        }
        if (!records.empty()) {
          const uint64_t t = records.front().term;
          {
            vedb::MutexLock lk(&mu_);
            if (t < term_) {
              // A demoted primary is still flushing its tail; refuse it so
              // its stale decisions never reach our tables.
              return Status::Stale("replication from a stale term");
            }
          }
          AdoptTermIfNewer(t);
        }
        vedb::MutexLock lk(&repl_mu_);
        if (need_snapshot_) {
          // Mid-resync our stream position is meaningless; applying now
          // could interleave with the snapshot install. Back off.
          return Status::Busy("standby is resyncing via snapshot");
        }
        for (const CmRecord& rec : records) {
          if (rec.seq > last_applied_) reorder_[rec.seq] = rec;
        }
        // Concurrent primary-side mutators ship out of order; apply the
        // longest consecutive run and keep the rest buffered.
        while (!reorder_.empty() &&
               reorder_.begin()->first == last_applied_ + 1) {
          {
            vedb::MutexLock state(&mu_);
            ApplyRecordLocked(reorder_.begin()->second);
          }
          last_applied_++;
          reorder_.erase(reorder_.begin());
        }
        PutFixed64(resp, last_applied_);
        return Status::OK();
      });
  rpc_->RegisterService(
      node_, "cm.fetch_snapshot", [this](Slice /*req*/, std::string* resp) {
        node_->cpu()->Access(0, options_.control_op_cost);
        CmSnapshot snap;
        {
          vedb::MutexLock lk(&mu_);
          if (!IsPrimaryLocked()) {
            return Status::Stale("cm " + node_->name() + " is not primary");
          }
          snap = BuildSnapshotLocked();
        }
        EncodeCmSnapshot(resp, snap);
        return Status::OK();
      });
}

}  // namespace vedb::astore
