#include "query/pushdown.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/page.h"

namespace vedb::query {

PushdownRuntime::PushdownRuntime(
    sim::SimEnvironment* env, net::RpcTransport* rpc,
    pagestore::PageStoreCluster* pagestore,
    const std::vector<sim::SimNode*>& pagestore_nodes,
    const std::vector<astore::AStoreServer*>& astore_servers,
    const Options& options)
    : env_(env), rpc_(rpc), pagestore_(pagestore), options_(options) {
  for (astore::AStoreServer* server : astore_servers) {
    rpc_->RegisterTimedService(
        server->node(), "pq.exec.ebp",
        [this, server](Slice req, std::string* resp, Timestamp start,
                       Timestamp* done) {
          return HandleEbpExec(server, req, resp, start, done);
        });
  }
  // Dedup preserving input order: pointer-ordered iteration would vary
  // with heap layout across processes (see PageStoreCluster::StartBackground).
  std::vector<sim::SimNode*> distinct;
  for (sim::SimNode* node : pagestore_nodes) {
    if (std::find(distinct.begin(), distinct.end(), node) ==
        distinct.end()) {
      distinct.push_back(node);
    }
  }
  for (sim::SimNode* node : distinct) {
    rpc_->RegisterTimedService(
        node, "pq.exec.ps",
        [this, node](Slice req, std::string* resp, Timestamp start,
                     Timestamp* done) {
          return HandlePsExec(node, req, resp, start, done);
        });
  }
}

void PushdownRuntime::EncodeFragment(const Fragment& fragment,
                                     std::string* out) {
  out->push_back(fragment.predicate != nullptr ? 1 : 0);
  if (fragment.predicate != nullptr) fragment.predicate->EncodeTo(out);
  PutVarint32(out, static_cast<uint32_t>(fragment.group_cols.size()));
  for (int c : fragment.group_cols) PutVarint32(out, c);
  PutVarint32(out, static_cast<uint32_t>(fragment.aggs.size()));
  for (const AggSpec& agg : fragment.aggs) {
    out->push_back(static_cast<char>(agg.kind));
    out->push_back(agg.arg != nullptr ? 1 : 0);
    if (agg.arg != nullptr) agg.arg->EncodeTo(out);
  }
}

bool PushdownRuntime::DecodeFragment(Slice* in, Fragment* out) {
  if (in->empty()) return false;
  const bool has_pred = (*in)[0] != 0;
  in->RemovePrefix(1);
  if (has_pred && !Expr::DecodeFrom(in, &out->predicate)) return false;
  uint32_t n = 0;
  if (!GetVarint32(in, &n)) return false;
  out->group_cols.clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t c = 0;
    if (!GetVarint32(in, &c)) return false;
    out->group_cols.push_back(static_cast<int>(c));
  }
  if (!GetVarint32(in, &n)) return false;
  out->aggs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    if (in->size() < 2) return false;
    AggSpec agg;
    agg.kind = static_cast<AggSpec::Kind>((*in)[0]);
    const bool has_arg = (*in)[1] != 0;
    in->RemovePrefix(2);
    if (has_arg && !Expr::DecodeFrom(in, &agg.arg)) return false;
    out->aggs.push_back(std::move(agg));
  }
  return true;
}

void PushdownRuntime::ExecutePages(
    const Fragment& fragment, const std::vector<std::string>& images,
    std::vector<Row>* rows,
    std::map<std::string, std::pair<Row, std::vector<AggState>>>* groups,
    uint64_t* rows_processed) {
  const bool aggregate = !fragment.aggs.empty();
  for (const std::string& image_const : images) {
    std::string image = image_const;  // Page wraps a mutable buffer
    engine::Page page(&image);
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      Slice bytes;
      if (!page.GetRow(slot, &bytes).ok()) continue;
      Row row;
      if (!engine::DecodeRow(bytes, &row)) continue;
      (*rows_processed)++;
      if (fragment.predicate != nullptr &&
          !fragment.predicate->EvalBool(row)) {
        continue;
      }
      if (!aggregate) {
        rows->push_back(std::move(row));
        continue;
      }
      std::string key;
      Row group_vals;
      for (int c : fragment.group_cols) {
        row[c].EncodeSortable(&key);
        group_vals.push_back(row[c]);
      }
      auto it = groups->find(key);
      if (it == groups->end()) {
        it = groups
                 ->emplace(key,
                           std::make_pair(
                               std::move(group_vals),
                               std::vector<AggState>(fragment.aggs.size())))
                 .first;
      }
      for (size_t i = 0; i < fragment.aggs.size(); ++i) {
        it->second.second[i].Update(fragment.aggs[i], row);
      }
    }
  }
}

void PushdownRuntime::EncodeResponse(
    const Fragment& fragment, const std::vector<Row>& rows,
    const std::map<std::string, std::pair<Row, std::vector<AggState>>>& groups,
    std::string* out) {
  if (fragment.aggs.empty()) {
    PutVarint32(out, static_cast<uint32_t>(rows.size()));
    for (const Row& row : rows) engine::EncodeRow(row, out);
    return;
  }
  PutVarint32(out, static_cast<uint32_t>(groups.size()));
  for (const auto& [key, entry] : groups) {
    engine::EncodeRow(entry.first, out);
    for (const AggState& state : entry.second) state.EncodeTo(out);
  }
}

Status PushdownRuntime::HandleEbpExec(astore::AStoreServer* server,
                                      Slice request, std::string* response,
                                      Timestamp start, Timestamp* done) {
  Fragment fragment;
  if (!DecodeFragment(&request, &fragment)) {
    return Status::InvalidArgument("bad fragment");
  }
  uint32_t count = 0;
  if (!GetVarint32(&request, &count)) {
    return Status::InvalidArgument("bad page list");
  }
  // Read the requested page frames from local PMem.
  std::vector<std::string> images;
  uint64_t read_bytes = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Slice raw;
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("bad page entry");
    }
    const astore::SegmentId seg = DecodeFixed64(raw.data());
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("bad page entry");
    }
    const uint64_t offset = DecodeFixed64(raw.data());
    if (!GetFixedBytes(&request, 4, &raw)) {
      return Status::InvalidArgument("bad page entry");
    }
    const uint32_t len = DecodeFixed32(raw.data());

    auto placement = server->GetLocalSegment(seg);
    if (!placement.ok()) continue;  // segment moved: skip (engine retries)
    const auto [base, size] = *placement;
    if (offset + ebp::PageFrame::kHeaderSize + len > size) continue;
    std::string frame(ebp::PageFrame::kHeaderSize + len, '\0');
    if (!server->pmem()
             ->Read(base + offset, frame.size(), frame.data())
             .ok()) {
      continue;
    }
    read_bytes += frame.size();
    images.push_back(frame.substr(ebp::PageFrame::kHeaderSize));
  }

  std::vector<Row> rows;
  std::map<std::string, std::pair<Row, std::vector<AggState>>> groups;
  uint64_t processed = 0;
  ExecutePages(fragment, images, &rows, &groups, &processed);
  // "We can use idle CPU resources and warm data pages in the EBP": the
  // scan reads local PMem, then the executor burns the server's CPU.
  Timestamp t = server->node()->storage()->SubmitAt(start, read_bytes);
  t = server->node()->cpu()->SubmitAt(t, 0,
                                      processed * options_.exec_cpu_per_row);
  *done = t;
  EncodeResponse(fragment, rows, groups, response);
  return Status::OK();
}

Status PushdownRuntime::HandlePsExec(sim::SimNode* node, Slice request,
                                     std::string* response, Timestamp start,
                                     Timestamp* done) {
  Fragment fragment;
  if (!DecodeFragment(&request, &fragment)) {
    return Status::InvalidArgument("bad fragment");
  }
  uint32_t count = 0;
  if (!GetVarint32(&request, &count)) {
    return Status::InvalidArgument("bad page list");
  }
  std::vector<std::string> images;
  uint64_t applied_total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Slice raw;
    if (!GetFixedBytes(&request, 8, &raw)) {
      return Status::InvalidArgument("bad page entry");
    }
    const pagestore::PageKey key = DecodeFixed64(raw.data());
    std::string image;
    uint64_t applied = 0;
    if (pagestore_->PeekLocalPage(node, key, &image, &applied).ok()) {
      images.push_back(std::move(image));
    }
    applied_total += applied;
  }
  std::vector<Row> rows;
  std::map<std::string, std::pair<Row, std::vector<AggState>>> groups;
  uint64_t processed = 0;
  ExecutePages(fragment, images, &rows, &groups, &processed);
  // Local SSD reads per page, then executor CPU (incl. any catch-up apply).
  Timestamp t = node->storage()->SubmitAt(start, images.size() * 16 * kKiB);
  t = node->cpu()->SubmitAt(
      t, 0, processed * options_.exec_cpu_per_row + applied_total * 2000);
  *done = t;
  EncodeResponse(fragment, rows, groups, response);
  return Status::OK();
}

Result<std::vector<Row>> PushdownRuntime::ExecuteFragment(
    ExecContext* ctx, engine::Table* table, const ExprPtr& predicate,
    const std::vector<int>& group_cols, const std::vector<AggSpec>& aggs) {
  Fragment fragment;
  fragment.predicate = predicate;
  fragment.group_cols = group_cols;
  fragment.aggs = aggs;
  std::string fragment_bytes;
  EncodeFragment(fragment, &fragment_bytes);

  // Split pages by residence: EBP-cached pages run on their AStore server,
  // the rest on the PageStore node persisting their shard (Section VI-B).
  struct EbpTask {
    std::string request;
    uint32_t count = 0;
  };
  std::map<std::string, EbpTask> ebp_tasks;             // by astore node
  // Keyed by name, not address, so the dispatch order cannot depend on
  // where the nodes happen to sit in the heap.
  std::map<std::string, std::vector<uint64_t>> ps_tasks;  // by PageStore node
  for (engine::PageNo page_no : table->PageList()) {
    const uint64_t key = engine::PackPageKey(table->space(), page_no);
    ebp::ExtendedBufferPool::Placement placement;
    if (ebp_ != nullptr && ebp_->LookupPlacement(key, &placement)) {
      EbpTask& task = ebp_tasks[placement.node];
      PutFixed64(&task.request, placement.segment);
      PutFixed64(&task.request, placement.offset);
      PutFixed32(&task.request, placement.len);
      task.count++;
      ctx->pushdown_pages_from_ebp++;
    } else {
      sim::SimNode* node = pagestore_->LocalNodeFor(key);
      if (node == nullptr) {
        return Status::Unavailable("no PageStore replica for push-down");
      }
      ps_tasks[node->name()].push_back(key);
      ctx->pushdown_pages_from_pagestore++;
    }
  }

  std::vector<net::RpcTransport::ScatterCall> calls;
  for (auto& [node_name, task] : ebp_tasks) {
    std::string req = fragment_bytes;
    PutVarint32(&req, task.count);
    req += task.request;
    calls.push_back({env_->GetNode(node_name), "pq.exec.ebp", std::move(req)});
  }
  for (auto& [node_name, keys] : ps_tasks) {
    std::string req = fragment_bytes;
    PutVarint32(&req, static_cast<uint32_t>(keys.size()));
    for (uint64_t key : keys) PutFixed64(&req, key);
    calls.push_back({env_->GetNode(node_name), "pq.exec.ps", std::move(req)});
  }
  ctx->pushdown_tasks += calls.size();

  // "These tasks are dispatched to corresponding servers in parallel."
  std::vector<std::string> responses;
  std::vector<Status> statuses =
      rpc_->CallScatter(ctx->engine->node(), calls, &responses);

  // Merge partials.
  std::vector<Row> rows;
  std::map<std::string, std::pair<Row, std::vector<AggState>>> groups;
  for (size_t i = 0; i < statuses.size(); ++i) {
    VEDB_RETURN_IF_ERROR(statuses[i]);
    Slice in(responses[i]);
    uint32_t n = 0;
    if (!GetVarint32(&in, &n)) return Status::Corruption("bad pq response");
    if (aggs.empty()) {
      for (uint32_t j = 0; j < n; ++j) {
        Row row;
        uint32_t arity = 0;
        if (!GetVarint32(&in, &arity)) return Status::Corruption("bad row");
        row.reserve(arity);
        for (uint32_t c = 0; c < arity; ++c) {
          Value v;
          if (!Value::DecodeFrom(&in, &v)) {
            return Status::Corruption("bad value");
          }
          row.push_back(std::move(v));
        }
        rows.push_back(std::move(row));
      }
    } else {
      for (uint32_t j = 0; j < n; ++j) {
        uint32_t arity = 0;
        if (!GetVarint32(&in, &arity)) return Status::Corruption("bad group");
        Row group_vals;
        group_vals.reserve(arity);
        for (uint32_t c = 0; c < arity; ++c) {
          Value v;
          if (!Value::DecodeFrom(&in, &v)) {
            return Status::Corruption("bad group value");
          }
          group_vals.push_back(std::move(v));
        }
        std::vector<AggState> states(aggs.size());
        for (size_t a = 0; a < aggs.size(); ++a) {
          if (!AggState::DecodeFrom(&in, &states[a])) {
            return Status::Corruption("bad agg state");
          }
        }
        std::string key;
        for (const Value& v : group_vals) v.EncodeSortable(&key);
        auto it = groups.find(key);
        if (it == groups.end()) {
          groups.emplace(key,
                         std::make_pair(std::move(group_vals),
                                        std::move(states)));
        } else {
          for (size_t a = 0; a < aggs.size(); ++a) {
            it->second.second[a].Merge(states[a]);
          }
        }
      }
    }
  }

  if (aggs.empty()) return rows;
  // Secondary aggregation: finalize merged states.
  std::vector<Row> out;
  out.reserve(groups.size());
  for (auto& [key, entry] : groups) {
    Row row = std::move(entry.first);
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(entry.second[a].Finalize(aggs[a]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace vedb::query
