// Physical query plans (materialized execution). veDB processes each query
// on a single thread (Section VI); operators consume whole inputs and
// produce whole outputs, charging the executing node's CPU per row.
//
// ScanNode is the push-down unit: a scan with an optional filter and
// optional partial aggregation over one table. When push-down is enabled
// and the scan qualifies, it is decomposed into per-storage-server tasks by
// the PushdownRuntime instead of pulling pages through the buffer pool.
//
// PruneColumns narrows a plan to the columns its operators read. It changes
// which values rows carry, never how many rows there are, their order, or
// what any operator charges.

#ifndef VEDB_QUERY_PLAN_H_
#define VEDB_QUERY_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "query/expr.h"

namespace vedb::query {

class PushdownRuntime;

/// Aggregate function specification.
struct AggSpec {
  enum class Kind : uint8_t { kCount = 1, kSum = 2, kMin = 3, kMax = 4, kAvg = 5 };
  Kind kind = Kind::kCount;
  /// Argument (ignored for COUNT(*), which may pass null).
  ExprPtr arg;

  static AggSpec Count() { return {Kind::kCount, nullptr}; }
  static AggSpec Sum(ExprPtr e) { return {Kind::kSum, std::move(e)}; }
  static AggSpec Min(ExprPtr e) { return {Kind::kMin, std::move(e)}; }
  static AggSpec Max(ExprPtr e) { return {Kind::kMax, std::move(e)}; }
  static AggSpec Avg(ExprPtr e) { return {Kind::kAvg, std::move(e)}; }
};

/// Per-query execution state and knobs.
struct ExecContext {
  engine::DBEngine* engine = nullptr;
  /// Push-down runtime; null (or enable_pushdown=false) executes locally.
  PushdownRuntime* pushdown = nullptr;
  bool enable_pushdown = false;
  /// Minimum estimated scanned rows before a fragment is pushed down (the
  /// paper's shipped threshold heuristic).
  uint64_t pushdown_row_threshold = 2000;
  /// Cost-based push-down decision (the paper's stated future work,
  /// implemented here): estimate the local plan from page residency
  /// (BP/EBP/PageStore) and compare against the storage-side estimate;
  /// overrides the row threshold when enabled.
  bool cost_based_pushdown = false;
  /// Cost-model constants (virtual ns).
  Duration cost_bp_hit = 3 * kMicrosecond;
  Duration cost_ebp_read = 25 * kMicrosecond;
  Duration cost_pagestore_read = 1100 * kMicrosecond;
  Duration cost_pushdown_page = 10 * kMicrosecond;
  Duration cost_pushdown_task_overhead = 60 * kMicrosecond;

  // Metrics for the cost-based decision.
  uint64_t cost_based_pushed = 0;
  uint64_t cost_based_kept_local = 0;
  /// CPU cost per processed row on the DBEngine.
  Duration cpu_per_row = 150;

  // Metrics filled during execution.
  uint64_t rows_scanned = 0;
  uint64_t pushdown_tasks = 0;
  uint64_t pushdown_pages_from_ebp = 0;
  uint64_t pushdown_pages_from_pagestore = 0;
};

class PlanNode {
 public:
  virtual ~PlanNode() = default;
  virtual Result<std::vector<Row>> Execute(ExecContext* ctx) = 0;
  /// Columns in each output row.
  virtual size_t Arity() const = 0;
  /// Drops the output columns whose `needed` flag (one per column of
  /// Arity()) is false, where this node can, and prunes its inputs to what
  /// it still reads. Kept columns keep their order. Returns the old-to-new
  /// column map; every needed column is kept.
  virtual ColumnMap Prune(const std::vector<bool>& needed) = 0;
};

using PlanPtr = std::unique_ptr<PlanNode>;

/// Prunes every operator of `plan` to the columns its ancestors read; the
/// root keeps all of its output columns.
void PruneColumns(PlanNode* plan);

/// Scan of one table with optional predicate and optional pre-aggregation
/// (group columns refer to the table row layout). The push-down-eligible
/// fragment shape: no joins, no subqueries (Section VI-A).
class ScanNode : public PlanNode {
 public:
  ScanNode(engine::Table* table, ExprPtr predicate);

  /// Folds aggregation into the scan (executed storage-side under
  /// push-down): output rows are group values followed by aggregates.
  void SetAggregation(std::vector<int> group_cols, std::vector<AggSpec> aggs) {
    group_cols_ = std::move(group_cols);
    aggs_ = std::move(aggs);
    has_agg_ = true;
  }

  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override;
  /// A plain scan keeps the needed table columns; an aggregating one keeps
  /// its output.
  ColumnMap Prune(const std::vector<bool>& needed) override;

  engine::Table* table() { return table_; }

 private:
  Result<std::vector<Row>> ExecuteLocal(ExecContext* ctx);
  bool CostModelPrefersPushdown(ExecContext* ctx) const;

  engine::Table* table_;
  ExprPtr predicate_;
  /// The table columns a plain scan emits, ascending; the predicate still
  /// reads table-column positions.
  std::vector<int> columns_;
  bool has_agg_ = false;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanPtr input, ExprPtr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}
  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override { return input_->Arity(); }
  ColumnMap Prune(const std::vector<bool>& needed) override;

 private:
  PlanPtr input_;
  ExprPtr predicate_;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanPtr input, std::vector<ExprPtr> exprs)
      : input_(std::move(input)), exprs_(std::move(exprs)) {}
  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override { return exprs_.size(); }
  /// Keeps every output column; narrows the input to what `exprs` read.
  ColumnMap Prune(const std::vector<bool>& needed) override;

 private:
  PlanPtr input_;
  std::vector<ExprPtr> exprs_;
};

/// Inner hash join: output = left row ++ right row.
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanPtr left, PlanPtr right, std::vector<int> left_keys,
               std::vector<int> right_keys)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)) {}
  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override { return left_->Arity() + right_->Arity(); }
  ColumnMap Prune(const std::vector<bool>& needed) override;

 private:
  PlanPtr left_, right_;
  std::vector<int> left_keys_, right_keys_;
};

/// Inner nested-loop join with an arbitrary predicate over the
/// concatenated row. Deliberately kept for the plan-change experiment of
/// Figure 14 (NL plans block push-down-friendly decomposition and burn
/// DBEngine CPU).
class NestLoopJoinNode : public PlanNode {
 public:
  NestLoopJoinNode(PlanPtr left, PlanPtr right, ExprPtr predicate)
      : left_(std::move(left)),
        right_(std::move(right)),
        predicate_(std::move(predicate)) {}
  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override { return left_->Arity() + right_->Arity(); }
  ColumnMap Prune(const std::vector<bool>& needed) override;

 private:
  PlanPtr left_, right_;
  ExprPtr predicate_;
};

/// Hash aggregation: output = group values ++ aggregate values.
class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanPtr input, std::vector<int> group_cols,
                std::vector<AggSpec> aggs)
      : input_(std::move(input)),
        group_cols_(std::move(group_cols)),
        aggs_(std::move(aggs)) {}
  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override { return group_cols_.size() + aggs_.size(); }
  /// Keeps every output column; narrows the input to the group columns and
  /// aggregate arguments.
  ColumnMap Prune(const std::vector<bool>& needed) override;

 private:
  PlanPtr input_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
};

class SortNode : public PlanNode {
 public:
  /// Sort by the given columns; `descending` parallel to `cols` (missing
  /// entries = ascending).
  SortNode(PlanPtr input, std::vector<int> cols, std::vector<bool> descending)
      : input_(std::move(input)),
        cols_(std::move(cols)),
        descending_(std::move(descending)) {}
  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override { return input_->Arity(); }
  ColumnMap Prune(const std::vector<bool>& needed) override;

 private:
  PlanPtr input_;
  std::vector<int> cols_;
  std::vector<bool> descending_;
};

class LimitNode : public PlanNode {
 public:
  LimitNode(PlanPtr input, size_t limit)
      : input_(std::move(input)), limit_(limit) {}
  Result<std::vector<Row>> Execute(ExecContext* ctx) override;
  size_t Arity() const override { return input_->Arity(); }
  ColumnMap Prune(const std::vector<bool>& needed) override {
    return input_->Prune(needed);
  }

 private:
  PlanPtr input_;
  size_t limit_;
};

// ---- Aggregation machinery shared with the storage-side executor ----

/// Running state for one aggregate.
struct AggState {
  double sum = 0;
  int64_t count = 0;
  Value min, max;
  bool any = false;

  void Update(const AggSpec& spec, const Row& row);
  /// Merges a partial state (push-down secondary aggregation).
  void Merge(const AggState& other);
  Value Finalize(const AggSpec& spec) const;
  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, AggState* out);
};

/// Open-addressing index from key hashes to dense ids 0, 1, 2, ... in
/// first-insertion order. The caller owns the keys and decides equality,
/// so ids, not hashes, fix every output order.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The id whose key has hash `hash` and for which `same(id)` holds, or
  /// kNone.
  template <typename Same>
  uint32_t Find(uint64_t hash, const Same& same) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t s = slots_[i];
      if (s == 0) return kNone;
      if (hashes_[s - 1] == hash && same(s - 1)) return s - 1;
    }
  }

  /// As Find, but registers a new id (the previous size()) when no key
  /// matches; `*inserted` says which happened.
  template <typename Same>
  uint32_t FindOrInsert(uint64_t hash, const Same& same, bool* inserted) {
    if ((hashes_.size() + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t s = slots_[i];
      if (s == 0) {
        hashes_.push_back(hash);
        slots_[i] = static_cast<uint32_t>(hashes_.size());
        *inserted = true;
        return slots_[i] - 1;
      }
      if (hashes_[s - 1] == hash && same(s - 1)) {
        *inserted = false;
        return s - 1;
      }
    }
  }

  size_t size() const { return hashes_.size(); }

 private:
  void Grow();

  std::vector<uint64_t> hashes_;  // by id
  std::vector<uint32_t> slots_;   // id + 1, 0 = empty; a power of two long
};

/// Groups with their running aggregate states; shared by HashAggregate,
/// the storage-side push-down executor and its secondary merge. Two group
/// keys (like two hash-join keys) are equal exactly when their concatenated
/// Value::EncodeSortable bytes are, but lookups hash and compare the typed
/// values; only emission builds those bytes, once per group, and orders
/// groups by them.
class GroupTable {
 public:
  explicit GroupTable(size_t num_aggs) : num_aggs_(num_aggs) {}

  /// The states (num_aggs of them) of the group keyed by columns `cols` of
  /// `row`, creating it with a copy of those values as its key. Valid until
  /// the next insertion.
  AggState* Find(const Row& row, const std::vector<int>& cols);
  /// Folds partial states into the group keyed by all of `key`; a new group
  /// starts as copies of `key` and `states`.
  void Merge(const Row& key, const std::vector<AggState>& states);

  size_t size() const { return keys_.size(); }
  /// Group ids in EncodeSortable order of their keys.
  std::vector<uint32_t> SortedGroups() const;
  const Row& key(uint32_t group) const { return keys_[group]; }
  const AggState* states(uint32_t group) const {
    return states_.data() + group * num_aggs_;
  }

  /// Rows of key values ++ finalized aggregates, in SortedGroups order.
  /// Leaves the table's keys moved-from.
  std::vector<Row> Finalize(const std::vector<AggSpec>& aggs);

 private:
  size_t num_aggs_;
  KeyIndex index_;
  std::vector<Row> keys_;         // by group id
  std::vector<AggState> states_;  // num_aggs_ per group, by group id
};

/// Flags, out of `arity` table columns, the ones a scan reads: its
/// predicate's, its group columns, its aggregate arguments' and `kept`.
/// Scans decode only these (engine::DecodeRowColumns).
std::vector<bool> ScanColumns(size_t arity, const ExprPtr& predicate,
                              const std::vector<int>& group_cols,
                              const std::vector<AggSpec>& aggs,
                              const std::vector<int>& kept = {});

/// Groups rows and computes aggregates (AggregateNode).
Result<std::vector<Row>> HashAggregate(const std::vector<Row>& rows,
                                       const std::vector<int>& group_cols,
                                       const std::vector<AggSpec>& aggs);

}  // namespace vedb::query

#endif  // VEDB_QUERY_PLAN_H_
