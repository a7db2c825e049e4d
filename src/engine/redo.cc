#include "engine/redo.h"

#include "common/coding.h"
#include "common/logging.h"
#include "engine/page.h"

namespace vedb::engine {

void RedoRecord::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type));
  PutFixed32(out, space);
  PutFixed32(out, page_no);
  PutFixed16(out, slot);
  PutLengthPrefixedSlice(out, row);
}

bool RedoRecord::DecodeFrom(Slice in, RedoRecord* out) {
  if (in.empty()) return false;
  out->type = static_cast<RedoType>(in[0]);
  in.RemovePrefix(1);
  Slice raw;
  if (!GetFixedBytes(&in, 4, &raw)) return false;
  out->space = DecodeFixed32(raw.data());
  if (!GetFixedBytes(&in, 4, &raw)) return false;
  out->page_no = DecodeFixed32(raw.data());
  if (!GetFixedBytes(&in, 2, &raw)) return false;
  out->slot = DecodeFixed16(raw.data());
  return GetLengthPrefixedSlice(&in, &out->row);
}

void ApplyRedoToPage(Slice redo_payload, uint64_t lsn, std::string* image) {
  RedoRecord rec;
  if (!RedoRecord::DecodeFrom(redo_payload, &rec)) {
    VEDB_LOG(kWarn, "dropping malformed redo record");
    return;
  }
  if (image->empty()) Page::Format(image);
  Page page(image);
  // No LSN-based skip: records for the same slot are ordered by the row
  // locks (engine) or by the shard chain (PageStore), and re-applying the
  // same record is naturally idempotent at slot granularity. Records for
  // *different* slots may legitimately arrive out of LSN order at the
  // engine under group commit, and must all be applied.
  switch (rec.type) {
    case RedoType::kPutRow: {
      Status s = page.PutRow(rec.slot, rec.row);
      if (!s.ok()) {
        VEDB_LOG(kWarn, "redo PutRow failed: %s", s.ToString().c_str());
      }
      break;
    }
    case RedoType::kDeleteRow:
      // discard-ok: replay is idempotent; the slot may already be absent.
      (void)page.DeleteRow(rec.slot);
      break;
  }
  if (lsn > page.lsn()) page.set_lsn(lsn);
}

}  // namespace vedb::engine
