#include "query/pushdown.h"

#include <algorithm>
#include <memory>

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

uint64_t PushdownRuntime::ExecutePages(const Fragment& fragment,
                                       const std::vector<Slice>& images,
                                       std::string* response) {
  const bool aggregate = !fragment.aggs.empty();
  GroupTable groups(fragment.group_cols.size(), fragment.aggs.size());
  // The stored bytes of the matching rows. The buffer outlives the call
  // (tasks run one at a time on a thread): grown afresh for every task, it
  // would be unmapped and its pages faulted in again each time.
  thread_local std::string matched;
  matched.clear();
  uint32_t matches = 0;
  uint64_t processed = 0;
  // The task does not know the table's arity, but no row on a page has
  // more columns than the page has bytes.
  const std::vector<bool> wanted =
      ScanColumns(engine::Page::kPageSize, fragment.predicate,
                  fragment.group_cols, fragment.aggs);
  Row row;  // reused: unread columns stay NULL
  for (const Slice& image : images) {
    if (image.size() != engine::Page::kPageSize) continue;
    const engine::PageView page(image.data());
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      Slice bytes;
      if (!page.GetRow(slot, &bytes).ok()) continue;
      if (!engine::DecodeRowColumns(bytes, wanted, &row)) continue;
      processed++;
      if (fragment.predicate != nullptr &&
          !fragment.predicate->EvalBool(row)) {
        continue;
      }
      if (!aggregate) {
        matched.append(bytes.data(), bytes.size());
        matches++;
        continue;
      }
      AggState* states = groups.Find(row, fragment.group_cols);
      for (size_t i = 0; i < fragment.aggs.size(); ++i) {
        states[i].Update(fragment.aggs[i], row);
      }
    }
  }
  if (!aggregate) {
    PutVarint32(response, matches);
    response->append(matched);
    return processed;
  }
  PutVarint32(response, static_cast<uint32_t>(groups.size()));
  for (uint32_t g : groups.SortedGroups()) {
    engine::EncodeRow(groups.key(g), response);
    for (size_t a = 0; a < fragment.aggs.size(); ++a) {
      groups.states(g)[a].EncodeTo(response);
    }
  }
  return processed;
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
  // Where the requested page frames lie in local PMem.
  struct FrameAt {
    uint64_t offset;
    uint64_t size;
  };
  std::vector<FrameAt> frames;
  uint64_t frame_bytes = 0;
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
    frames.push_back({base + offset, ebp::PageFrame::kHeaderSize + len});
    frame_bytes += frames.back().size;
  }
  // Read them, through the device's bounds check and bad regions, into the
  // frame buffer. It is never zero-filled: every byte an image covers is
  // read into it first.
  if (frame_buffer_size_ < frame_bytes) {
    frame_buffer_ = std::make_unique_for_overwrite<char[]>(frame_bytes);
    frame_buffer_size_ = frame_bytes;
  }
  std::vector<Slice> images;
  uint64_t read_bytes = 0;
  for (const FrameAt& frame : frames) {
    char* at = frame_buffer_.get() + read_bytes;
    if (!server->pmem()->Read(frame.offset, frame.size, at).ok()) continue;
    images.emplace_back(at + ebp::PageFrame::kHeaderSize,
                        frame.size - ebp::PageFrame::kHeaderSize);
    read_bytes += frame.size;
  }

  const uint64_t processed = ExecutePages(fragment, images, response);
  // "We can use idle CPU resources and warm data pages in the EBP": the
  // scan reads local PMem, then the executor burns the server's CPU.
  Timestamp t = server->node()->storage()->SubmitAt(start, read_bytes);
  t = server->node()->cpu()->SubmitAt(t, 0,
                                      processed * options_.exec_cpu_per_row);
  *done = t;
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
  std::vector<std::string> pages;
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
      pages.push_back(std::move(image));
    }
    applied_total += applied;
  }
  const std::vector<Slice> images(pages.begin(), pages.end());
  const uint64_t processed = ExecutePages(fragment, images, response);
  // Local SSD reads per page, then executor CPU (incl. any catch-up apply).
  const pagestore::PageStoreCluster::Options& ps = pagestore_->options();
  Timestamp t = node->storage()->SubmitAt(start, pages.size() * ps.page_size);
  t = node->cpu()->SubmitAt(t, 0,
                            processed * options_.exec_cpu_per_row +
                                applied_total * ps.apply_cpu_per_record);
  *done = t;
  return Status::OK();
}

Result<RowBatch> PushdownRuntime::ExecuteFragment(
    ExecContext* ctx, engine::Table* table, const ExprPtr& predicate,
    const std::vector<int>& columns, const std::vector<int>& group_cols,
    const std::vector<AggSpec>& aggs) {
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
  ebp::ExtendedBufferPool::Placement placement;
  for (engine::PageNo page_no : table->PageList()) {
    const uint64_t key = engine::PackPageKey(table->space(), page_no);
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
  RowBatch rows(columns.size());
  GroupTable groups(group_cols.size(), aggs.size());
  for (size_t i = 0; i < statuses.size(); ++i) {
    VEDB_RETURN_IF_ERROR(statuses[i]);
    Slice in(responses[i]);
    uint32_t n = 0;
    if (!GetVarint32(&in, &n)) return Status::Corruption("bad pq response");
    if (aggs.empty()) {
      // Whole stored rows: decode only the scanned columns, straight into
      // the batch.
      for (uint32_t j = 0; j < n; ++j) {
        uint32_t arity = 0;
        if (!GetVarint32(&in, &arity) || arity > in.size()) {
          return Status::Corruption("bad row");
        }
        Value* row = rows.AppendRow();
        size_t decoded = 0;
        for (uint32_t c = 0; c < arity; ++c) {
          const bool scanned = decoded < columns.size() &&
                               columns[decoded] == static_cast<int>(c);
          if (scanned ? !Value::DecodeFrom(&in, &row[decoded++])
                      : !Value::SkipFrom(&in)) {
            return Status::Corruption("bad value");
          }
        }
        if (decoded != columns.size()) {
          return Status::Corruption("row lacks a scanned column");
        }
      }
    } else {
      Row key;  // reused across partial groups; a new group copies it
      std::vector<AggState> states(aggs.size());
      for (uint32_t j = 0; j < n; ++j) {
        uint32_t arity = 0;
        if (!GetVarint32(&in, &arity) || arity > in.size()) {
          return Status::Corruption("bad group");
        }
        key.resize(arity);
        for (Value& v : key) {
          if (!Value::DecodeFrom(&in, &v)) {
            return Status::Corruption("bad group value");
          }
        }
        for (AggState& state : states) {
          state = AggState();
          if (!AggState::DecodeFrom(&in, &state)) {
            return Status::Corruption("bad agg state");
          }
        }
        groups.Merge(key, states);
      }
    }
  }

  if (aggs.empty()) return rows;
  // Secondary aggregation: finalize merged states.
  return groups.Finalize(aggs);
}

}  // namespace vedb::query
