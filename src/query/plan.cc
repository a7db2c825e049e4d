#include "query/plan.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string_view>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/page.h"
#include "query/pushdown.h"

namespace vedb::query {

namespace {
/// Charges DBEngine CPU for `rows` of per-row work, batched to keep device
/// bookkeeping cheap.
void ChargeRows(ExecContext* ctx, uint64_t rows) {
  if (rows == 0 || ctx->engine == nullptr) return;
  ctx->engine->node()->cpu()->Access(0, rows * ctx->cpu_per_row);
}

/// The 8 bytes Value::EncodeSortable writes after a number's tag, as one
/// word. Ints and doubles share that tag, so their words are compared as
/// the bytes are.
uint64_t SortableWord(const Value& v) {
  if (v.is_int()) return static_cast<uint64_t>(v.AsInt()) ^ (1ull << 63);
  const double d = v.AsDouble();
  uint64_t bits;
  memcpy(&bits, &d, 8);
  return (bits & (1ull << 63)) ? ~bits : bits ^ (1ull << 63);
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

bool ValuesKeyEqual(const Value& a, const Value& b) {
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() && a.AsString() == b.AsString();
  }
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return SortableWord(a) == SortableWord(b);
}

/// The key columns `cols` of `row`; null `cols` means every column.
struct KeyRef {
  const Row* row;
  const std::vector<int>* cols;

  size_t size() const { return cols ? cols->size() : row->size(); }
  const Value& operator[](size_t i) const {
    return (*row)[cols ? (*cols)[i] : i];
  }
};

// Join and group key identity: two keys are equal exactly when their
// concatenated EncodeSortable bytes are. NULL equals NULL, strings compare
// by bytes, numbers by their 8-byte sortable image: int 5 and double 5.0
// differ, but int 0 and double 0.0 share 0x80 00..00 and are equal. (Strings
// holding NUL, which keys must not, are the one place the byte rule and
// this one could part.) Neither function builds the bytes.
uint64_t HashKey(KeyRef key) {
  uint64_t h = key.size();
  for (size_t i = 0; i < key.size(); ++i) {
    const Value& v = key[i];
    uint64_t word = 0;
    if (v.is_string()) {
      word = std::hash<std::string_view>()(v.AsString()) + 2;
    } else if (!v.is_null()) {
      word = SortableWord(v) + 1;
    }
    h = Mix(h * 31 + word);
  }
  return h;
}

bool KeysEqual(KeyRef a, KeyRef b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesKeyEqual(a[i], b[i])) return false;
  }
  return true;
}

ColumnMap IdentityMap(size_t arity) {
  ColumnMap map(arity);
  std::iota(map.begin(), map.end(), 0);
  return map;
}

/// Rewrites column references through a pruned input's map.
void RemapColumns(const ColumnMap& map, std::vector<int>* cols) {
  for (int& c : *cols) {
    VEDB_CHECK(map[c] >= 0, "column %d was pruned", c);
    c = map[c];
  }
}

/// Prunes a join's inputs to `needed`, one flag per column of left ++
/// right, and returns the join's column map.
ColumnMap PruneJoinInputs(PlanNode* left, PlanNode* right,
                          const std::vector<bool>& needed) {
  const auto split = needed.begin() + static_cast<ptrdiff_t>(left->Arity());
  ColumnMap map = left->Prune(std::vector<bool>(needed.begin(), split));
  const ColumnMap right_map =
      right->Prune(std::vector<bool>(split, needed.end()));
  const int left_arity = static_cast<int>(left->Arity());
  for (int c : right_map) map.push_back(c < 0 ? -1 : left_arity + c);
  return map;
}
}  // namespace

void PruneColumns(PlanNode* plan) {
  plan->Prune(std::vector<bool>(plan->Arity(), true));
}

void KeyIndex::Grow() {
  slots_.assign(std::max<size_t>(16, slots_.size() * 2), 0);
  const size_t mask = slots_.size() - 1;
  for (size_t id = 0; id < hashes_.size(); ++id) {
    size_t i = hashes_[id] & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(id + 1);
  }
}

AggState* GroupTable::Find(const Row& row, const std::vector<int>& cols) {
  const KeyRef probe{&row, &cols};
  bool inserted = false;
  const uint32_t g = index_.FindOrInsert(
      HashKey(probe),
      [&](uint32_t id) { return KeysEqual(KeyRef{&keys_[id], nullptr}, probe); },
      &inserted);
  if (inserted) {
    Row key;
    key.reserve(cols.size());
    for (int c : cols) key.push_back(row[c]);
    keys_.push_back(std::move(key));
    states_.resize(states_.size() + num_aggs_);
  }
  return states_.data() + g * num_aggs_;
}

void GroupTable::Merge(const Row& key, const std::vector<AggState>& states) {
  const KeyRef probe{&key, nullptr};
  bool inserted = false;
  const uint32_t g = index_.FindOrInsert(
      HashKey(probe),
      [&](uint32_t id) { return KeysEqual(KeyRef{&keys_[id], nullptr}, probe); },
      &inserted);
  if (inserted) {
    keys_.push_back(key);
    states_.insert(states_.end(), states.begin(), states.end());
    return;
  }
  for (size_t a = 0; a < num_aggs_; ++a) {
    states_[g * num_aggs_ + a].Merge(states[a]);
  }
}

std::vector<uint32_t> GroupTable::SortedGroups() const {
  std::vector<std::string> sort_keys(keys_.size());
  std::vector<uint32_t> order(keys_.size());
  for (uint32_t g = 0; g < keys_.size(); ++g) {
    for (const Value& v : keys_[g]) v.EncodeSortable(&sort_keys[g]);
    order[g] = g;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return sort_keys[a] < sort_keys[b];
  });
  return order;
}

std::vector<Row> GroupTable::Finalize(const std::vector<AggSpec>& aggs) {
  std::vector<Row> out;
  out.reserve(keys_.size());
  for (uint32_t g : SortedGroups()) {
    Row row = std::move(keys_[g]);
    row.reserve(row.size() + aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(states_[g * num_aggs_ + a].Finalize(aggs[a]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

void AggState::Update(const AggSpec& spec, const Row& row) {
  count++;
  if (spec.arg == nullptr) return;  // COUNT(*)
  Value scratch;
  const Value& v = spec.arg->Ref(row, &scratch);
  if (v.is_null()) return;
  if (!v.is_string()) sum += v.AsDouble();  // MIN/MAX also take strings
  if (!any || v.Compare(min) < 0) min = v;
  if (!any || v.Compare(max) > 0) max = v;
  any = true;
}

void AggState::Merge(const AggState& other) {
  sum += other.sum;
  count += other.count;
  if (other.any) {
    if (!any || other.min.Compare(min) < 0) min = other.min;
    if (!any || other.max.Compare(max) > 0) max = other.max;
    any = true;
  }
}

Value AggState::Finalize(const AggSpec& spec) const {
  switch (spec.kind) {
    case AggSpec::Kind::kCount: return Value(count);
    case AggSpec::Kind::kSum: return Value(sum);
    case AggSpec::Kind::kMin: return any ? min : Value();
    case AggSpec::Kind::kMax: return any ? max : Value();
    case AggSpec::Kind::kAvg:
      return count == 0 ? Value() : Value(sum / static_cast<double>(count));
  }
  return Value();
}

void AggState::EncodeTo(std::string* out) const {
  Value(sum).EncodeTo(out);
  Value(count).EncodeTo(out);
  out->push_back(any ? 1 : 0);
  if (any) {
    min.EncodeTo(out);
    max.EncodeTo(out);
  }
}

bool AggState::DecodeFrom(Slice* in, AggState* out) {
  Value sum_v, count_v;
  if (!Value::DecodeFrom(in, &sum_v) || !Value::DecodeFrom(in, &count_v)) {
    return false;
  }
  out->sum = sum_v.AsDouble();
  out->count = count_v.AsInt();
  if (in->empty()) return false;
  out->any = (*in)[0] != 0;
  in->RemovePrefix(1);
  if (out->any) {
    if (!Value::DecodeFrom(in, &out->min) ||
        !Value::DecodeFrom(in, &out->max)) {
      return false;
    }
  }
  return true;
}

std::vector<bool> ScanColumns(size_t arity, const ExprPtr& predicate,
                              const std::vector<int>& group_cols,
                              const std::vector<AggSpec>& aggs,
                              const std::vector<int>& kept) {
  std::vector<bool> wanted(arity, false);
  if (predicate != nullptr) predicate->CollectColumns(&wanted);
  for (const AggSpec& agg : aggs) {
    if (agg.arg != nullptr) agg.arg->CollectColumns(&wanted);
  }
  for (const std::vector<int>* cols : {&group_cols, &kept}) {
    for (int c : *cols) {
      VEDB_CHECK(c >= 0 && static_cast<size_t>(c) < arity,
                 "column %d out of range (%zu columns)", c, arity);
      wanted[c] = true;
    }
  }
  return wanted;
}

Result<std::vector<Row>> HashAggregate(const std::vector<Row>& rows,
                                       const std::vector<int>& group_cols,
                                       const std::vector<AggSpec>& aggs) {
  GroupTable groups(aggs.size());
  for (const Row& row : rows) {
    AggState* states = groups.Find(row, group_cols);
    for (size_t i = 0; i < aggs.size(); ++i) states[i].Update(aggs[i], row);
  }
  return groups.Finalize(aggs);
}

ScanNode::ScanNode(engine::Table* table, ExprPtr predicate)
    : table_(table),
      predicate_(std::move(predicate)),
      columns_(IdentityMap(table->schema().columns.size())) {}

size_t ScanNode::Arity() const {
  return has_agg_ ? group_cols_.size() + aggs_.size() : columns_.size();
}

ColumnMap ScanNode::Prune(const std::vector<bool>& needed) {
  if (has_agg_) return IdentityMap(Arity());
  ColumnMap map(columns_.size(), -1);
  std::vector<int> kept;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!needed[i]) continue;
    map[i] = static_cast<int>(kept.size());
    kept.push_back(columns_[i]);
  }
  columns_ = std::move(kept);
  return map;
}

Result<std::vector<Row>> ScanNode::Execute(ExecContext* ctx) {
  if (ctx->enable_pushdown && ctx->pushdown != nullptr) {
    bool push;
    if (ctx->cost_based_pushdown) {
      push = CostModelPrefersPushdown(ctx);
      if (push) {
        ctx->cost_based_pushed++;
      } else {
        ctx->cost_based_kept_local++;
      }
    } else {
      // The shipped heuristic: a plain row-count threshold (Section VI-A).
      push = table_->approximate_row_count() >= ctx->pushdown_row_threshold;
    }
    if (push) {
      return ctx->pushdown->ExecuteFragment(
          ctx, table_, predicate_, columns_, group_cols_,
          has_agg_ ? aggs_ : std::vector<AggSpec>{});
    }
  }
  return ExecuteLocal(ctx);
}

bool ScanNode::CostModelPrefersPushdown(ExecContext* ctx) const {
  // Local cost: each page is a BP hit, an EBP read, or a PageStore RPC,
  // plus per-row processing on the (possibly busy) engine CPU.
  engine::BufferPool* bp = ctx->engine->buffer_pool();
  ebp::ExtendedBufferPool* ebp = ctx->engine->ebp();
  const auto pages = table_->PageList();
  const uint64_t rows = table_->approximate_row_count();
  double local = static_cast<double>(rows) * ctx->cpu_per_row;
  for (engine::PageNo page_no : pages) {
    const uint64_t key = engine::PackPageKey(table_->space(), page_no);
    if (bp->IsResident(key)) {
      local += ctx->cost_bp_hit;
    } else if (ebp != nullptr && ebp->Contains(key)) {
      local += ctx->cost_ebp_read;
    } else {
      local += ctx->cost_pagestore_read;
    }
  }
  // Push-down cost: non-resident pages execute storage-side in parallel
  // across ~6 servers; resident pages still travel (the fragment reads the
  // storage copy), plus task dispatch overhead. Aggregated fragments return
  // tiny results; plain filters ship rows back (estimated selectivity).
  const double parallelism = 6.0;
  double pushed = ctx->cost_pushdown_task_overhead * parallelism +
                  static_cast<double>(pages.size()) *
                      ctx->cost_pushdown_page / parallelism +
                  static_cast<double>(rows) * (ctx->cpu_per_row / 4) /
                      parallelism;
  if (!has_agg_) {
    pushed += static_cast<double>(rows) * 0.2 * 50;  // result transfer
  }
  return pushed < local;
}

Result<std::vector<Row>> ScanNode::ExecuteLocal(ExecContext* ctx) {
  // Page-at-a-time sequential scan through the buffer pool (and thus
  // through EBP/PageStore on misses).
  engine::BufferPool* bp = ctx->engine->buffer_pool();
  std::vector<Row> rows;
  GroupTable groups(aggs_.size());
  uint64_t scanned = 0;
  const std::vector<bool> wanted =
      ScanColumns(table_->schema().columns.size(), predicate_, group_cols_,
                  aggs_, has_agg_ ? std::vector<int>{} : columns_);
  Row row;  // reused: a match moves only its kept values out
  for (engine::PageNo page_no : table_->PageList()) {
    auto frame =
        bp->Pin(engine::PackPageKey(table_->space(), page_no), false);
    if (!frame.ok()) {
      if (frame.status().IsNotFound()) continue;  // never materialized
      return frame.status();
    }
    {
      vedb::MutexLock lk(&(*frame)->mu);
      engine::Page page(&(*frame)->image);
      for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
        Slice bytes;
        if (!page.GetRow(slot, &bytes).ok()) continue;
        if (!engine::DecodeRowColumns(bytes, wanted, &row)) {
          bp->Unpin(*frame, 0);
          return Status::Corruption("bad row in scan");
        }
        scanned++;
        if (predicate_ != nullptr && !predicate_->EvalBool(row)) continue;
        if (has_agg_) {
          AggState* states = groups.Find(row, group_cols_);
          for (size_t i = 0; i < aggs_.size(); ++i) {
            states[i].Update(aggs_[i], row);
          }
        } else {
          Row kept;
          kept.reserve(columns_.size());
          for (int c : columns_) kept.push_back(std::move(row[c]));
          rows.push_back(std::move(kept));
        }
      }
    }
    bp->Unpin(*frame, 0);
  }
  ChargeRows(ctx, scanned);
  ctx->rows_scanned += scanned;
  if (has_agg_) return groups.Finalize(aggs_);
  return rows;
}

ColumnMap FilterNode::Prune(const std::vector<bool>& needed) {
  std::vector<bool> used = needed;
  predicate_->CollectColumns(&used);
  const ColumnMap map = input_->Prune(used);
  predicate_ = predicate_->Remap(map);
  return map;
}

Result<std::vector<Row>> FilterNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  std::vector<Row> out;
  for (Row& row : input) {
    if (predicate_->EvalBool(row)) out.push_back(std::move(row));
  }
  return out;
}

ColumnMap ProjectNode::Prune(const std::vector<bool>& /*needed*/) {
  std::vector<bool> used(input_->Arity(), false);
  for (const ExprPtr& e : exprs_) e->CollectColumns(&used);
  const ColumnMap map = input_->Prune(used);
  for (ExprPtr& e : exprs_) e = e->Remap(map);
  return IdentityMap(exprs_.size());
}

Result<std::vector<Row>> ProjectNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  std::vector<Row> out;
  out.reserve(input.size());
  for (const Row& row : input) {
    Row projected;
    projected.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) projected.push_back(e->Eval(row));
    out.push_back(std::move(projected));
  }
  return out;
}

ColumnMap HashJoinNode::Prune(const std::vector<bool>& needed) {
  const size_t left_arity = left_->Arity();
  std::vector<bool> used = needed;
  for (int c : left_keys_) used[c] = true;
  for (int c : right_keys_) used[left_arity + c] = true;
  const ColumnMap map = PruneJoinInputs(left_.get(), right_.get(), used);
  const int pruned_left_arity = static_cast<int>(left_->Arity());
  RemapColumns(map, &left_keys_);
  for (int& c : right_keys_) c = map[left_arity + c] - pruned_left_arity;
  return map;
}

Result<std::vector<Row>> HashJoinNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> left, left_->Execute(ctx));
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> right, right_->Execute(ctx));
  ChargeRows(ctx, left.size() + right.size());

  // Build: each distinct right key chains its rows in input order.
  constexpr uint32_t kEnd = KeyIndex::kNone;
  KeyIndex index;
  std::vector<uint32_t> first, last, next(right.size(), kEnd);
  for (uint32_t r = 0; r < right.size(); ++r) {
    const KeyRef key{&right[r], &right_keys_};
    bool inserted = false;
    const uint32_t k = index.FindOrInsert(
        HashKey(key),
        [&](uint32_t id) {
          return KeysEqual(KeyRef{&right[first[id]], &right_keys_}, key);
        },
        &inserted);
    if (inserted) {
      first.push_back(r);
      last.push_back(r);
    } else {
      next[last[k]] = r;
      last[k] = r;
    }
  }
  // Probe in left order; the last match takes the left row itself.
  std::vector<Row> out;
  for (Row& lrow : left) {
    const KeyRef key{&lrow, &left_keys_};
    const uint32_t k = index.Find(HashKey(key), [&](uint32_t id) {
      return KeysEqual(KeyRef{&right[first[id]], &right_keys_}, key);
    });
    if (k == kEnd) continue;
    for (uint32_t r = first[k]; r != kEnd; r = next[r]) {
      const Row& rrow = right[r];
      Row joined;
      if (next[r] == kEnd) {
        joined = std::move(lrow);
        joined.reserve(joined.size() + rrow.size());
      } else {
        joined.reserve(lrow.size() + rrow.size());
        joined.insert(joined.end(), lrow.begin(), lrow.end());
      }
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

ColumnMap NestLoopJoinNode::Prune(const std::vector<bool>& needed) {
  std::vector<bool> used = needed;
  if (predicate_ != nullptr) predicate_->CollectColumns(&used);
  const ColumnMap map = PruneJoinInputs(left_.get(), right_.get(), used);
  if (predicate_ != nullptr) predicate_ = predicate_->Remap(map);
  return map;
}

Result<std::vector<Row>> NestLoopJoinNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> left, left_->Execute(ctx));
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> right, right_->Execute(ctx));
  // The quadratic CPU bill is the point of this operator (Fig. 14's
  // plan-change baseline); charge it batched.
  const uint64_t comparisons =
      static_cast<uint64_t>(left.size()) * right.size();
  if (ctx->engine != nullptr && comparisons > 0) {
    // 1/8 of a row-cost per comparison: a compare is cheaper than a full
    // row's processing.
    ctx->engine->node()->cpu()->Access(0,
                                       comparisons * (ctx->cpu_per_row / 8));
  }
  // Each pair is laid out in one reused row for the predicate; only a
  // match is copied out.
  std::vector<Row> out;
  Row pair;
  for (const Row& lrow : left) {
    pair.assign(lrow.begin(), lrow.end());
    for (const Row& rrow : right) {
      pair.resize(lrow.size() + rrow.size());
      std::copy(rrow.begin(), rrow.end(), pair.begin() + lrow.size());
      if (predicate_ == nullptr || predicate_->EvalBool(pair)) {
        out.push_back(pair);
      }
    }
  }
  return out;
}

ColumnMap AggregateNode::Prune(const std::vector<bool>& /*needed*/) {
  std::vector<bool> used(input_->Arity(), false);
  for (int c : group_cols_) used[c] = true;
  for (const AggSpec& agg : aggs_) {
    if (agg.arg != nullptr) agg.arg->CollectColumns(&used);
  }
  const ColumnMap map = input_->Prune(used);
  RemapColumns(map, &group_cols_);
  for (AggSpec& agg : aggs_) {
    if (agg.arg != nullptr) agg.arg = agg.arg->Remap(map);
  }
  return IdentityMap(Arity());
}

Result<std::vector<Row>> AggregateNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  return HashAggregate(input, group_cols_, aggs_);
}

ColumnMap SortNode::Prune(const std::vector<bool>& needed) {
  std::vector<bool> used = needed;
  for (int c : cols_) used[c] = true;
  const ColumnMap map = input_->Prune(used);
  RemapColumns(map, &cols_);
  return map;
}

Result<std::vector<Row>> SortNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  ChargeRows(ctx, input.size());
  std::sort(input.begin(), input.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < cols_.size(); ++i) {
      const int c = cols_[i];
      const bool desc = i < descending_.size() && descending_[i];
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  return input;
}

Result<std::vector<Row>> LimitNode::Execute(ExecContext* ctx) {
  VEDB_ASSIGN_OR_RETURN(std::vector<Row> input, input_->Execute(ctx));
  if (input.size() > limit_) input.resize(limit_);
  return input;
}

}  // namespace vedb::query
