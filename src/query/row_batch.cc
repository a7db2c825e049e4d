#include "query/row_batch.h"

#include <sanitizer/asan_interface.h>

#include <iterator>
#include <utility>

#include "common/logging.h"

namespace vedb::query {

namespace {
using engine::Value;

/// Values in a block (32 KiB, below the size malloc serves with mmap).
/// Rows wider than that take a block of their own width, which is not kept
/// for reuse.
constexpr size_t kBlockValues = 2048;
/// The most free blocks a thread keeps (64 MiB); more are freed.
constexpr size_t kMaxFreeBlocks = 2048;

/// All-NULL blocks of kBlockValues values, freed with the thread. Under
/// AddressSanitizer a free block is poisoned, so a row read after its block
/// was freed is reported as it would be without the list.
struct FreeBlocks {
  std::vector<Value*> blocks;
  ~FreeBlocks() {
    for (Value* block : blocks) {
      ASAN_UNPOISON_MEMORY_REGION(block, kBlockValues * sizeof(Value));
      delete[] block;
    }
  }
};
thread_local FreeBlocks free_blocks;
}  // namespace

RowBatch::RowBatch(size_t arity)
    : arity_(arity),
      rows_per_block_(
          arity == 0 ? 0 : std::max<size_t>(1, kBlockValues / arity)),
      tail_(rows_per_block_) {}

RowBatch::RowBatch(RowBatch&& other) noexcept
    : arity_(other.arity_),
      rows_per_block_(other.rows_per_block_),
      rows_(std::exchange(other.rows_, 0)),
      tail_(std::exchange(other.tail_, other.rows_per_block_)),
      blocks_(std::move(other.blocks_)) {}

RowBatch& RowBatch::operator=(RowBatch&& other) noexcept {
  if (this != &other) {
    Truncate(0);
    arity_ = other.arity_;
    rows_per_block_ = other.rows_per_block_;
    rows_ = std::exchange(other.rows_, 0);
    tail_ = std::exchange(other.tail_, other.rows_per_block_);
    blocks_ = std::move(other.blocks_);
  }
  return *this;
}

RowBatch RowBatch::FromRows(size_t arity, std::vector<engine::Row> rows) {
  RowBatch batch(arity);
  for (engine::Row& row : rows) {
    VEDB_CHECK(row.size() == arity, "row of %zu values in a batch of %zu",
               row.size(), arity);
    std::move(row.begin(), row.end(), batch.AppendRow());
  }
  return batch;
}

std::vector<engine::Row> RowBatch::ToRows() && {
  std::vector<engine::Row> rows;
  rows.reserve(rows_);
  Drain([&](Value* values) {
    rows.emplace_back(std::make_move_iterator(values),
                      std::make_move_iterator(values + arity_));
  });
  return rows;
}

void RowBatch::AddBlock() {
  const size_t values = std::max(kBlockValues, arity_);
  Value* block = nullptr;
  if (values == kBlockValues && !free_blocks.blocks.empty()) {
    block = free_blocks.blocks.back();
    free_blocks.blocks.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(block, kBlockValues * sizeof(Value));
  } else {
    block = new Value[values];
  }
  blocks_.push_back(block);
  tail_ = 0;
}

void RowBatch::ReleaseBlock(Value* block, size_t used) const {
  std::fill(block, block + used, Value());
  if (std::max(kBlockValues, arity_) == kBlockValues &&
      free_blocks.blocks.size() < kMaxFreeBlocks) {
    ASAN_POISON_MEMORY_REGION(block, kBlockValues * sizeof(Value));
    free_blocks.blocks.push_back(block);
  } else {
    delete[] block;
  }
}

void RowBatch::Truncate(size_t rows) {
  if (arity_ == 0) {
    rows_ = rows;
    return;
  }
  const size_t keep = (rows + rows_per_block_ - 1) / rows_per_block_;
  if (keep > 0) {
    // The last kept block drops its rows past `rows`.
    const size_t first = (keep - 1) * rows_per_block_;
    const size_t used = std::min(rows_, first + rows_per_block_) - first;
    std::fill(blocks_[keep - 1] + (rows - first) * arity_,
              blocks_[keep - 1] + used * arity_, Value());
  }
  for (size_t b = keep; b < blocks_.size(); ++b) {
    const size_t first = b * rows_per_block_;
    ReleaseBlock(blocks_[b],
                 (std::min(rows_, first + rows_per_block_) - first) * arity_);
  }
  blocks_.resize(keep);
  rows_ = rows;
  tail_ = rows == 0 ? rows_per_block_ : rows - (keep - 1) * rows_per_block_;
}

}  // namespace vedb::query
