// OrderedIndex: the engine's one in-memory index structure, an ordered map
// from byte-string keys to Rids. A table's primary-key index maps each PK
// encoding to its row; a secondary index stores one entry per row under the
// key `seckey ++ pk` (its Rid unused), so the rows matching a secondary key
// are the entries that start with it.
//
// Order is std::string's: bytes compared as unsigned, then the shorter key
// first. Entries live in sorted runs of at most kRunBytes bytes, found
// through a small std::map from each run's lower bound (the first run's is
// the empty key) to the run. A run stores the prefix its keys share once,
// and each entry inline as its key suffix followed by a 6-byte Rid, with a
// 2-byte offset per entry for binary search: no heap allocation per key.
// A full run splits in two halves, except that an insert past its last key
// starts a new run holding just that key, so keys appended in order (bulk
// loads, TPC-C's per-district order ids) leave full runs behind. An emptied
// run is dropped. DESIGN.md ("The engine's index") has the rationale.

#ifndef VEDB_ENGINE_ORDERED_INDEX_H_
#define VEDB_ENGINE_ORDERED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/types.h"

namespace vedb::engine {

class OrderedIndex {
 public:
  /// Bytes of entries (suffixes and Rids) a run holds before it splits. A
  /// single entry longer than this gets a run of its own.
  static constexpr size_t kRunBytes = 4096;
  /// Longest key the index takes: a run addresses its bytes with 16 bits.
  static constexpr size_t kMaxKeyBytes = 60000;

  /// Inserts `key`, or points an existing `key` at `rid`.
  void Put(std::string_view key, Rid rid);
  /// Removes `key`; false if it was absent.
  bool Erase(std::string_view key);
  /// Point probe: true and `*rid` set if `key` is present.
  bool Find(std::string_view key, Rid* rid) const;

  /// Calls `fn(key, rid)` for each entry whose key is >= `lo`, in key order,
  /// until `fn` returns false. `key` is valid only during the call, and
  /// `fn` must not modify the index.
  template <typename Fn>
  void ScanFrom(std::string_view lo, Fn&& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t run_count() const { return runs_.size(); }
  /// Heap bytes the index holds, counted as glibc's malloc charges them
  /// (chunk header and 16-byte rounding): the run map's nodes and keys,
  /// and each run's prefix, offsets and entry bytes.
  size_t ByteSize() const;
  void Clear();

 private:
  class Run {
   public:
    size_t size() const { return offsets_.size(); }
    const std::string& prefix() const { return prefix_; }

    /// The suffix (key minus prefix) and Rid of entry `i`.
    std::string_view Suffix(size_t i) const;
    Rid RidAt(size_t i) const;
    /// Appends entry `i`'s full key to `*out`.
    void AppendKey(size_t i, std::string* out) const;

    /// Index of the first entry whose key is >= `key`; `*found` says
    /// whether that entry's key equals `key`.
    size_t LowerBound(std::string_view key, bool* found) const;
    /// Bytes the run would hold after inserting `key`, prefix shrink
    /// included.
    size_t BytesWith(std::string_view key) const;

    /// Inserts `key` at `pos` (its LowerBound), shrinking the prefix if
    /// `key` does not share it.
    void Insert(size_t pos, std::string_view key, Rid rid);
    void SetRid(size_t pos, Rid rid);
    void Remove(size_t pos);
    /// Moves entries [from, size()) into `*tail` (empty), each half then
    /// eliding the longest prefix its keys share.
    void SplitInto(size_t from, Run* tail);

    size_t HeapBytes() const;

   private:
    /// Where entry `i`'s bytes end (its Rid's last byte, plus one).
    size_t End(size_t i) const {
      return i + 1 < offsets_.size() ? offsets_[i + 1] : bytes_.size();
    }
    /// Re-encodes every entry under `prefix`, which every key starts with.
    void Reencode(std::string prefix);
    /// Grows bytes_ to hold `n` bytes, doubling but never past kRunBytes
    /// unless `n` itself is larger.
    void ReserveBytes(size_t n);

    std::string prefix_;            // every key in the run starts with it
    std::vector<uint16_t> offsets_;  // entry i starts at bytes_[offsets_[i]]
    std::vector<char> bytes_;       // per entry: key suffix, then the Rid
  };

  using RunMap = std::map<std::string, Run, std::less<>>;

  /// The run `key` belongs in: the last run whose lower bound is <= key.
  RunMap::iterator RunFor(std::string_view key);
  RunMap::const_iterator RunFor(std::string_view key) const;
  /// Splits the full run at `it`, where `key` (absent) would go at `pos`.
  void Split(RunMap::iterator it, size_t pos, std::string_view key);

  RunMap runs_;
  size_t size_ = 0;
};

template <typename Fn>
void OrderedIndex::ScanFrom(std::string_view lo, Fn&& fn) const {
  if (runs_.empty()) return;
  auto it = RunFor(lo);
  bool found = false;
  size_t pos = it->second.LowerBound(lo, &found);
  std::string key;
  for (; it != runs_.end(); ++it, pos = 0) {
    const Run& run = it->second;
    key.assign(run.prefix());
    for (; pos < run.size(); ++pos) {
      key.resize(run.prefix().size());
      const std::string_view suffix = run.Suffix(pos);
      key.append(suffix.data(), suffix.size());
      if (!fn(std::string_view(key), run.RidAt(pos))) return;
    }
  }
}

}  // namespace vedb::engine

#endif  // VEDB_ENGINE_ORDERED_INDEX_H_
