// Slotted 16KB data page. Layout:
//   [0,8)    page LSN (last applied record)
//   [8,10)   slot count
//   [10,12)  free-space pointer (offset of next row write)
//   [12,16)  reserved
//   [16,...) row data grows upward
//   [...,end) slot directory grows downward: per slot {offset u16, len u16};
//             offset 0 = tombstone.
//
// Pages are plain byte strings so the identical apply code runs in the
// DBEngine buffer pool, in PageStore replicas, and in the storage-side
// push-down executor.

#ifndef VEDB_ENGINE_PAGE_H_
#define VEDB_ENGINE_PAGE_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace vedb::engine {

/// Read-only access to a kPageSize page image the reader neither owns nor
/// modifies, e.g. one inside a storage-side request buffer.
class PageView {
 public:
  explicit PageView(const char* data) : data_(data) {}

  uint64_t lsn() const;
  uint16_t slot_count() const;
  /// Reads the row in `slot`; NotFound for tombstones/out of range,
  /// Corruption when a damaged directory puts the slot or its row outside
  /// the page.
  Status GetRow(uint16_t slot, Slice* row) const;
  /// True if `slot` holds a live row whose directory entry is in the page.
  bool SlotLive(uint16_t slot) const;

 private:
  const char* data_;
};

class Page {
 public:
  static constexpr uint64_t kPageSize = 16 * 1024;
  static constexpr uint64_t kHeaderSize = 16;
  static constexpr uint64_t kSlotEntrySize = 4;

  /// Formats `buf` as an empty page (resizing it to kPageSize).
  static void Format(std::string* buf);

  /// Wraps an existing page buffer (borrowed; not owned).
  explicit Page(std::string* buf) : buf_(buf) {}

  uint64_t lsn() const { return view().lsn(); }
  void set_lsn(uint64_t lsn);

  uint16_t slot_count() const { return view().slot_count(); }

  /// Bytes still available for one more row of `len` bytes (including its
  /// slot entry if `new_slot`).
  bool HasRoomFor(uint16_t len, bool new_slot) const;
  uint16_t FreeBytes() const;

  /// Writes `row` into slot `slot` (extending the directory as needed).
  /// Used by both fresh inserts and updates; the slot's previous bytes (if
  /// any) become dead space within the page.
  Status PutRow(uint16_t slot, Slice row);

  /// Tombstones a slot.
  Status DeleteRow(uint16_t slot);

  Status GetRow(uint16_t slot, Slice* row) const {
    return view().GetRow(slot, row);
  }
  bool SlotLive(uint16_t slot) const { return view().SlotLive(slot); }

  /// Rewrites the data area keeping only live rows, reclaiming the dead
  /// space left by superseded row versions.
  void Compact();

 private:
  PageView view() const { return PageView(buf_->data()); }
  uint16_t free_ptr() const;
  void set_free_ptr(uint16_t v);
  void set_slot_count(uint16_t v);

  std::string* buf_;
};

}  // namespace vedb::engine

#endif  // VEDB_ENGINE_PAGE_H_
