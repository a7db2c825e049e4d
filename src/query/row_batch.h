// The currency between plan operators: rows of one arity, stored back to
// back in fixed-size blocks of values, so producing a row allocates nothing
// of its own.

#ifndef VEDB_QUERY_ROW_BATCH_H_
#define VEDB_QUERY_ROW_BATCH_H_

#include <algorithm>
#include <vector>

#include "engine/types.h"

namespace vedb::query {

/// Each row's values are contiguous, and a block holds a whole number of
/// rows. The row count is kept apart from the values, so a batch of
/// zero-column rows still counts its rows.
///
/// Blocks are all one size and come from, and go back to, a per-thread
/// list of free blocks, so the blocks a query frees are the next query's,
/// and a batch never moves its values as it grows. (Batches of one
/// contiguous array each were tried: arrays of a few megabytes, freed to
/// malloc, were unmapped or trimmed and faulted in again by the next query,
/// and their varied sizes fragmented the heap.)
class RowBatch {
 public:
  explicit RowBatch(size_t arity = 0);
  ~RowBatch() { Truncate(0); }
  RowBatch(RowBatch&& other) noexcept;
  RowBatch& operator=(RowBatch&& other) noexcept;
  RowBatch(const RowBatch&) = delete;
  RowBatch& operator=(const RowBatch&) = delete;

  /// A batch holding `rows`, each of which must have `arity` values.
  static RowBatch FromRows(size_t arity, std::vector<engine::Row> rows);
  /// The rows as one vector each; leaves this batch empty.
  std::vector<engine::Row> ToRows() &&;

  size_t arity() const { return arity_; }
  /// Rows in the batch.
  size_t size() const { return rows_; }

  /// Calls `fn(values)`, `values` pointing at a row's arity() values (null
  /// when that is 0), for each row in order. `fn` may move the values out.
  template <typename Fn>
  void ForEachMutableRow(Fn&& fn) {
    if (arity_ == 0) {
      for (size_t i = 0; i < rows_; ++i) {
        fn(static_cast<engine::Value*>(nullptr));
      }
      return;
    }
    size_t left = rows_;
    for (engine::Value* block : blocks_) {
      const size_t n = std::min(left, rows_per_block_);
      for (size_t j = 0; j < n; ++j) fn(block + j * arity_);
      left -= n;
    }
  }
  /// Calls `fn(row)` with a view of each row, in order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    const_cast<RowBatch*>(this)->ForEachMutableRow(
        [&](engine::Value* values) { fn(engine::RowView(values, arity_)); });
  }
  /// As ForEachMutableRow, but frees each block once its rows are visited,
  /// so the batch a consumer builds can take the blocks its input gives up.
  /// Leaves the batch empty.
  template <typename Fn>
  void Drain(Fn&& fn) {
    if (arity_ == 0) {
      ForEachMutableRow(fn);
      rows_ = 0;
      return;
    }
    size_t left = rows_;
    for (engine::Value*& block : blocks_) {
      const size_t n = std::min(left, rows_per_block_);
      for (size_t j = 0; j < n; ++j) fn(block + j * arity_);
      left -= n;
      ReleaseBlock(block, n * arity_);
    }
    blocks_.clear();
    rows_ = 0;
    tail_ = rows_per_block_;
  }

  /// Appends a row of NULLs and returns its values (null when arity() is
  /// 0). They stay where they are until the row is dropped.
  engine::Value* AppendRow() {
    rows_++;
    if (arity_ == 0) return nullptr;
    if (tail_ == rows_per_block_) AddBlock();
    return blocks_.back() + tail_++ * arity_;
  }
  /// Appends a copy of `row`, which must have arity() values.
  void Append(engine::RowView row) {
    std::copy(row.begin(), row.end(), AppendRow());
  }

  /// Keeps, in order, the rows for which `keep(RowView)` holds; the kept
  /// rows move down over the dropped ones.
  template <typename Keep>
  void Filter(Keep&& keep) {
    size_t kept = 0;
    size_t to_block = 0, to_row = 0;  // where the next kept row goes
    ForEachMutableRow([&](engine::Value* values) {
      if (!keep(engine::RowView(values, arity_))) return;
      kept++;
      if (arity_ == 0) return;
      engine::Value* to = blocks_[to_block] + to_row * arity_;
      if (to != values) std::move(values, values + arity_, to);
      if (++to_row == rows_per_block_) {
        to_block++;
        to_row = 0;
      }
    });
    Truncate(kept);
  }

  /// Keeps the first `rows` rows (no more than size()).
  void Truncate(size_t rows);

 private:
  /// Appends an all-NULL block and starts filling it.
  void AddBlock();
  /// Resets the first `used` values of `block` to NULL and frees it.
  void ReleaseBlock(engine::Value* block, size_t used) const;

  size_t arity_;
  size_t rows_per_block_;  // 0 when arity_ is
  size_t rows_ = 0;
  size_t tail_;            // rows in the last block
  std::vector<engine::Value*> blocks_;
};

}  // namespace vedb::query

#endif  // VEDB_QUERY_ROW_BATCH_H_
