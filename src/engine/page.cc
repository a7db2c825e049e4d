#include "engine/page.h"

#include "common/coding.h"
#include "common/logging.h"

namespace vedb::engine {

void Page::Format(std::string* buf) {
  buf->assign(kPageSize, '\0');
  Page page(buf);
  page.set_free_ptr(kHeaderSize);
}

namespace {
uint64_t SlotPos(uint16_t slot) {
  return Page::kPageSize - (slot + 1) * Page::kSlotEntrySize;
}

// Slots whose directory entry lies below the header: only a damaged slot
// count reaches them.
constexpr uint64_t kMaxSlots =
    (Page::kPageSize - Page::kHeaderSize) / Page::kSlotEntrySize;
}  // namespace

uint64_t PageView::lsn() const { return DecodeFixed64(data_); }

uint16_t PageView::slot_count() const { return DecodeFixed16(data_ + 8); }

Status PageView::GetRow(uint16_t slot, Slice* row) const {
  if (slot >= slot_count()) return Status::NotFound("no such slot");
  if (slot >= kMaxSlots) return Status::Corruption("slot outside the page");
  const uint16_t off = DecodeFixed16(data_ + SlotPos(slot));
  const uint16_t len = DecodeFixed16(data_ + SlotPos(slot) + 2);
  if (off == 0) return Status::NotFound("tombstoned slot");
  if (off + len > Page::kPageSize) {
    return Status::Corruption("row outside the page");
  }
  *row = Slice(data_ + off, len);
  return Status::OK();
}

bool PageView::SlotLive(uint16_t slot) const {
  if (slot >= slot_count() || slot >= kMaxSlots) return false;
  return DecodeFixed16(data_ + SlotPos(slot)) != 0;
}

void Page::set_lsn(uint64_t lsn) { EncodeFixed64(buf_->data(), lsn); }

void Page::set_slot_count(uint16_t v) { EncodeFixed16(buf_->data() + 8, v); }

uint16_t Page::free_ptr() const { return DecodeFixed16(buf_->data() + 10); }
void Page::set_free_ptr(uint16_t v) { EncodeFixed16(buf_->data() + 10, v); }

uint16_t Page::FreeBytes() const {
  const uint64_t dir_start = kPageSize - slot_count() * kSlotEntrySize;
  const uint64_t fp = free_ptr();
  return dir_start > fp ? static_cast<uint16_t>(dir_start - fp) : 0;
}

bool Page::HasRoomFor(uint16_t len, bool new_slot) const {
  return FreeBytes() >= len + (new_slot ? kSlotEntrySize : 0);
}

Status Page::PutRow(uint16_t slot, Slice row) {
  if (buf_->size() != kPageSize) return Status::Corruption("bad page size");
  const uint16_t count = slot_count();
  // Slots may arrive out of order across transactions (commit LSN order is
  // not reservation order), so allow growth past the current count; the
  // intermediate slots start as tombstones and are filled by their own
  // records later.
  const uint16_t new_slots = slot >= count ? slot - count + 1 : 0;
  const uint64_t dir_start =
      kPageSize - (count + new_slots) * kSlotEntrySize;
  if (dir_start < free_ptr() + row.size()) {
    // Updates leave dead row versions behind — including the current value
    // of the slot being overwritten. Check whether compaction (with the
    // target slot treated as dead) frees enough, then perform it.
    uint64_t live = 0;
    for (uint16_t s = 0; s < count; ++s) {
      if (s == slot) continue;
      const uint16_t off = DecodeFixed16(buf_->data() + SlotPos(s));
      if (off == 0) continue;
      live += DecodeFixed16(buf_->data() + SlotPos(s) + 2);
    }
    if (kHeaderSize + live + row.size() > dir_start) {
      return Status::NoSpace("page full");
    }
    if (slot < count) {
      EncodeFixed16(buf_->data() + SlotPos(slot), 0);  // drop old version
      EncodeFixed16(buf_->data() + SlotPos(slot) + 2, 0);
    }
    Compact();
  }
  const uint16_t off = free_ptr();
  memcpy(buf_->data() + off, row.data(), row.size());
  set_free_ptr(static_cast<uint16_t>(off + row.size()));
  for (uint16_t s = count; s < count + new_slots; ++s) {
    EncodeFixed16(buf_->data() + SlotPos(s), 0);
    EncodeFixed16(buf_->data() + SlotPos(s) + 2, 0);
  }
  if (new_slots > 0) set_slot_count(count + new_slots);
  EncodeFixed16(buf_->data() + SlotPos(slot), off);
  EncodeFixed16(buf_->data() + SlotPos(slot) + 2,
                static_cast<uint16_t>(row.size()));
  return Status::OK();
}

Status Page::DeleteRow(uint16_t slot) {
  if (slot >= slot_count()) return Status::NotFound("no such slot");
  EncodeFixed16(buf_->data() + SlotPos(slot), 0);  // tombstone
  EncodeFixed16(buf_->data() + SlotPos(slot) + 2, 0);
  return Status::OK();
}

void Page::Compact() {
  // Live rows are staged in slot order in a per-thread buffer that keeps
  // its capacity, so compaction allocates nothing after the first call.
  thread_local std::string rows;
  const uint16_t count = slot_count();
  rows.clear();
  for (uint16_t s = 0; s < count; ++s) {
    const uint16_t off = DecodeFixed16(buf_->data() + SlotPos(s));
    if (off == 0) continue;
    const uint16_t len = DecodeFixed16(buf_->data() + SlotPos(s) + 2);
    rows.append(buf_->data() + off, len);
  }
  memcpy(buf_->data() + kHeaderSize, rows.data(), rows.size());
  uint16_t cursor = kHeaderSize;
  for (uint16_t s = 0; s < count; ++s) {
    const uint16_t off = DecodeFixed16(buf_->data() + SlotPos(s));
    const uint16_t len =
        off == 0 ? 0 : DecodeFixed16(buf_->data() + SlotPos(s) + 2);
    EncodeFixed16(buf_->data() + SlotPos(s), off == 0 ? 0 : cursor);
    EncodeFixed16(buf_->data() + SlotPos(s) + 2, len);
    cursor += len;
  }
  set_free_ptr(cursor);
}

}  // namespace vedb::engine
