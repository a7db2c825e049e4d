// Physiological REDO records. One record mutates exactly one slot of one
// page, so the identical Apply() runs in the DBEngine buffer pool, in
// PageStore replicas (via the injected ApplyFn), and nowhere needs UNDO:
// the engine logs only at commit (redo-only, deferred apply).

#ifndef VEDB_ENGINE_REDO_H_
#define VEDB_ENGINE_REDO_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "engine/types.h"

namespace vedb::engine {

enum class RedoType : uint8_t {
  kPutRow = 1,     // insert or whole-row update of a slot
  kDeleteRow = 2,  // tombstone a slot
};

/// One REDO record. `row` (the encoded row bytes; empty for deletes) is
/// borrowed: a decoded record points into the payload it was parsed from,
/// and a record being encoded points at the caller's bytes. Either way the
/// bytes must outlive the record.
struct RedoRecord {
  RedoType type = RedoType::kPutRow;
  SpaceId space = 0;
  PageNo page_no = 0;
  uint16_t slot = 0;
  Slice row;

  uint64_t page_key() const { return PackPageKey(space, page_no); }

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice in, RedoRecord* out);
};

/// Applies one REDO payload to a page image. An empty image is formatted
/// first (pages are born by their first record). `lsn` stamps the page.
/// This exact function is handed to PageStoreCluster as its ApplyFn.
void ApplyRedoToPage(Slice redo_payload, uint64_t lsn, std::string* image);

}  // namespace vedb::engine

#endif  // VEDB_ENGINE_REDO_H_
