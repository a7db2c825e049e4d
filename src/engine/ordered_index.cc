#include "engine/ordered_index.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/logging.h"

namespace vedb::engine {

namespace {

// An entry's Rid: page number then slot, little-endian.
constexpr size_t kRidBytes = 6;

void PutRid(Rid rid, char* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(rid.page_no >> (8 * i));
  out[4] = static_cast<char>(rid.slot);
  out[5] = static_cast<char>(rid.slot >> 8);
}

Rid GetRid(const char* in) {
  const auto* p = reinterpret_cast<const unsigned char*>(in);
  Rid rid;
  rid.page_no = static_cast<PageNo>(p[0] | (p[1] << 8) | (p[2] << 16) |
                                    (static_cast<uint32_t>(p[3]) << 24));
  rid.slot = static_cast<uint16_t>(p[4] | (p[5] << 8));
  return rid;
}

size_t CommonPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

// What glibc's malloc takes for an `n`-byte request: the request plus an
// 8-byte header, rounded up to 16 bytes, at least 32.
size_t MallocBytes(size_t n) {
  if (n == 0) return 0;
  return std::max<size_t>(32, (n + 8 + 15) & ~size_t{15});
}

// A std::string's heap allocation (none while it fits the inline buffer).
size_t StringHeapBytes(const std::string& s) {
  return s.capacity() > 15 ? MallocBytes(s.capacity() + 1) : 0;
}

}  // namespace

// ---- Run ----

std::string_view OrderedIndex::Run::Suffix(size_t i) const {
  const size_t start = offsets_[i];
  return std::string_view(bytes_.data() + start, End(i) - start - kRidBytes);
}

Rid OrderedIndex::Run::RidAt(size_t i) const {
  return GetRid(bytes_.data() + End(i) - kRidBytes);
}

void OrderedIndex::Run::AppendKey(size_t i, std::string* out) const {
  const std::string_view suffix = Suffix(i);
  out->append(prefix_);
  out->append(suffix.data(), suffix.size());
}

size_t OrderedIndex::Run::LowerBound(std::string_view key, bool* found) const {
  *found = false;
  const size_t plen = prefix_.size();
  const int c = key.substr(0, plen).compare(prefix_);
  // A key that is a proper prefix of the run's prefix sorts before every
  // key in the run.
  if (c < 0) return 0;
  if (c > 0) return size();
  const std::string_view rest = key.substr(plen);
  size_t lo = 0, hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Suffix(mid) < rest) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo < size() && Suffix(lo) == rest;
  return lo;
}

size_t OrderedIndex::Run::BytesWith(std::string_view key) const {
  if (size() == 0) return kRidBytes;
  const size_t keep = CommonPrefix(prefix_, key);
  return bytes_.size() + (prefix_.size() - keep) * size() + key.size() -
         keep + kRidBytes;
}

void OrderedIndex::Run::ReserveBytes(size_t n) {
  if (n <= bytes_.capacity()) return;
  bytes_.reserve(std::max(n, std::min(2 * bytes_.capacity(), kRunBytes)));
}

void OrderedIndex::Run::Reencode(std::string prefix) {
  const size_t old_len = prefix_.size(), new_len = prefix.size();
  // Bytes that move from the prefix into every suffix (a shorter prefix)
  // or from every suffix into the prefix (a longer one).
  const std::string_view moved =
      std::string_view(prefix_).substr(std::min(old_len, new_len));
  const size_t grow = new_len < old_len ? old_len - new_len : 0;
  const size_t drop = new_len > old_len ? new_len - old_len : 0;
  std::vector<char> bytes;
  bytes.reserve(bytes_.size() + size() * grow - size() * drop);
  for (size_t i = 0; i < size(); ++i) {
    const std::string_view suffix = Suffix(i);
    const char* rid = suffix.data() + suffix.size();
    const size_t start = bytes.size();
    if (grow > 0) bytes.insert(bytes.end(), moved.begin(), moved.end());
    bytes.insert(bytes.end(), suffix.begin() + drop, suffix.end());
    bytes.insert(bytes.end(), rid, rid + kRidBytes);
    offsets_[i] = static_cast<uint16_t>(start);
  }
  bytes_ = std::move(bytes);
  prefix_ = std::move(prefix);
}

void OrderedIndex::Run::Insert(size_t pos, std::string_view key, Rid rid) {
  if (size() == 0) {
    prefix_.assign(key.data(), key.size());
  } else {
    const size_t keep = CommonPrefix(prefix_, key);
    if (keep < prefix_.size()) Reencode(prefix_.substr(0, keep));
  }
  const std::string_view suffix = key.substr(prefix_.size());
  const size_t len = suffix.size() + kRidBytes;
  const size_t at = pos < size() ? offsets_[pos] : bytes_.size();
  VEDB_CHECK(bytes_.size() + len <= UINT16_MAX, "index run overflow");
  ReserveBytes(bytes_.size() + len);
  bytes_.insert(bytes_.begin() + static_cast<ptrdiff_t>(at), len, '\0');
  std::memcpy(bytes_.data() + at, suffix.data(), suffix.size());
  PutRid(rid, bytes_.data() + at + suffix.size());
  offsets_.insert(offsets_.begin() + static_cast<ptrdiff_t>(pos),
                  static_cast<uint16_t>(at));
  for (size_t i = pos + 1; i < offsets_.size(); ++i) {
    offsets_[i] = static_cast<uint16_t>(offsets_[i] + len);
  }
}

void OrderedIndex::Run::SetRid(size_t pos, Rid rid) {
  PutRid(rid, bytes_.data() + End(pos) - kRidBytes);
}

void OrderedIndex::Run::Remove(size_t pos) {
  const size_t start = offsets_[pos];
  const size_t end = End(pos);
  const size_t len = end - start;
  bytes_.erase(bytes_.begin() + static_cast<ptrdiff_t>(start),
               bytes_.begin() + static_cast<ptrdiff_t>(end));
  offsets_.erase(offsets_.begin() + static_cast<ptrdiff_t>(pos));
  for (size_t i = pos; i < offsets_.size(); ++i) {
    offsets_[i] = static_cast<uint16_t>(offsets_[i] - len);
  }
}

void OrderedIndex::Run::SplitInto(size_t from, Run* tail) {
  const size_t at = offsets_[from];
  tail->prefix_ = prefix_;
  tail->bytes_.assign(bytes_.begin() + static_cast<ptrdiff_t>(at),
                      bytes_.end());
  tail->offsets_.reserve(size() - from);
  for (size_t i = from; i < size(); ++i) {
    tail->offsets_.push_back(static_cast<uint16_t>(offsets_[i] - at));
  }
  bytes_.resize(at);
  offsets_.resize(from);
  offsets_.shrink_to_fit();
  // Each half's keys share at least the old prefix, and as sorted runs
  // they share exactly what their first and last keys share.
  for (Run* run : {this, tail}) {
    if (run->size() == 0) {
      run->prefix_.clear();
      run->bytes_ = {};
      continue;
    }
    std::string first, last;
    run->AppendKey(0, &first);
    run->AppendKey(run->size() - 1, &last);
    first.resize(CommonPrefix(first, last));
    run->Reencode(std::move(first));
  }
}

size_t OrderedIndex::Run::HeapBytes() const {
  return StringHeapBytes(prefix_) +
         MallocBytes(offsets_.capacity() * sizeof(uint16_t)) +
         MallocBytes(bytes_.capacity());
}

// ---- OrderedIndex ----

OrderedIndex::RunMap::iterator OrderedIndex::RunFor(std::string_view key) {
  return std::prev(runs_.upper_bound(key));
}

OrderedIndex::RunMap::const_iterator OrderedIndex::RunFor(
    std::string_view key) const {
  return std::prev(runs_.upper_bound(key));
}

void OrderedIndex::Put(std::string_view key, Rid rid) {
  VEDB_CHECK(key.size() <= kMaxKeyBytes, "index key of %zu bytes",
             key.size());
  if (runs_.empty()) runs_.emplace(std::string(), Run());
  auto it = RunFor(key);
  Run& run = it->second;
  bool found = false;
  const size_t pos = run.LowerBound(key, &found);
  if (found) {
    run.SetRid(pos, rid);
    return;
  }
  if (run.size() > 0 && run.BytesWith(key) > kRunBytes) {
    Split(it, pos, key);
    Put(key, rid);
    return;
  }
  run.Insert(pos, key, rid);
  ++size_;
}

void OrderedIndex::Split(RunMap::iterator it, size_t pos,
                         std::string_view key) {
  Run& run = it->second;
  if (pos == run.size()) {
    // Past the run's last key: `key` starts a run of its own, and the full
    // run stays full.
    runs_.emplace_hint(std::next(it), std::string(key), Run());
    return;
  }
  // Halve the run. A one-entry run moves its entry out, leaving `key` the
  // old run to itself; `key` sorts between the two runs' lower bounds.
  const size_t from = run.size() / 2;
  std::string tail_key;
  run.AppendKey(from, &tail_key);
  Run tail;
  run.SplitInto(from, &tail);
  runs_.emplace_hint(std::next(it), std::move(tail_key), std::move(tail));
}

bool OrderedIndex::Erase(std::string_view key) {
  if (runs_.empty()) return false;
  auto it = RunFor(key);
  bool found = false;
  const size_t pos = it->second.LowerBound(key, &found);
  if (!found) return false;
  it->second.Remove(pos);
  --size_;
  if (it->second.size() > 0) return true;
  const bool first = it == runs_.begin();
  it = runs_.erase(it);
  if (first && it != runs_.end()) {
    // The first run's lower bound is the empty key, below every key.
    auto node = runs_.extract(it);
    node.key().clear();
    runs_.insert(std::move(node));
  }
  return true;
}

bool OrderedIndex::Find(std::string_view key, Rid* rid) const {
  if (runs_.empty()) return false;
  const auto it = RunFor(key);
  bool found = false;
  const size_t pos = it->second.LowerBound(key, &found);
  if (found) *rid = it->second.RidAt(pos);
  return found;
}

size_t OrderedIndex::ByteSize() const {
  // A map node: the red-black tree's links and colour, then the key and
  // the run.
  constexpr size_t kNodeBytes = 32 + sizeof(RunMap::value_type);
  size_t bytes = 0;
  for (const auto& [lower, run] : runs_) {
    bytes += MallocBytes(kNodeBytes) + StringHeapBytes(lower) +
             run.HeapBytes();
  }
  return bytes;
}

void OrderedIndex::Clear() {
  runs_.clear();
  size_ = 0;
}

}  // namespace vedb::engine
