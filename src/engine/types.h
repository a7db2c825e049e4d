// Core relational types of the DBEngine: values, rows, schemas, and the
// identifiers shared with the storage layer.

#ifndef VEDB_ENGINE_TYPES_H_
#define VEDB_ENGINE_TYPES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"
#include "common/slice.h"

namespace vedb::engine {

/// Tablespace and page numbering (MySQL-style space/page pair).
using SpaceId = uint32_t;
using PageNo = uint32_t;

/// Packs a page identity into the 64-bit key the storage layer uses.
inline uint64_t PackPageKey(SpaceId space, PageNo page_no) {
  return (static_cast<uint64_t>(space) << 32) | page_no;
}
inline SpaceId PageKeySpace(uint64_t key) {
  return static_cast<SpaceId>(key >> 32);
}
inline PageNo PageKeyPageNo(uint64_t key) {
  return static_cast<PageNo>(key & 0xFFFFFFFFu);
}

/// Row identifier within a table.
struct Rid {
  PageNo page_no = 0;
  uint16_t slot = 0;
  bool operator==(const Rid& o) const {
    return page_no == o.page_no && slot == o.slot;
  }
};

enum class ValueType : uint8_t { kNull = 0, kInt = 1, kDouble = 2, kString = 3 };

/// A dynamically typed SQL value, 16 bytes: an 8-byte payload and a type
/// tag. NULL, int and double values copy, move and destroy as plain data. A
/// string points at an immutable, atomically reference-counted buffer, so a
/// copy shares the bytes and outlives its source. A moved-from Value is
/// NULL. Asking for the wrong type (AsInt of a double, AsString of an int)
/// is a programming error and fails a VEDB_CHECK.
class Value {
 public:
  Value() noexcept : type_(ValueType::kNull) { u_.i = 0; }
  Value(int64_t i) noexcept : type_(ValueType::kInt) { u_.i = i; }   // NOLINT
  Value(int i) noexcept : Value(static_cast<int64_t>(i)) {}          // NOLINT
  Value(uint64_t i) noexcept : Value(static_cast<int64_t>(i)) {}     // NOLINT
  Value(double d) noexcept : type_(ValueType::kDouble) { u_.d = d; }  // NOLINT
  Value(std::string s) : type_(ValueType::kString) {                 // NOLINT
    u_.s = new SharedString(std::move(s));
  }
  Value(const char* s) : Value(std::string(s)) {}                    // NOLINT

  Value(const Value& o) noexcept : u_(o.u_), type_(o.type_) {
    if (is_string()) u_.s->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Value(Value&& o) noexcept : u_(o.u_), type_(o.type_) {
    o.type_ = ValueType::kNull;
  }
  Value& operator=(const Value& o) noexcept {
    if (this != &o) {
      Release();
      u_ = o.u_;
      type_ = o.type_;
      if (is_string()) u_.s->refs.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      Release();
      u_ = o.u_;
      type_ = o.type_;
      o.type_ = ValueType::kNull;
    }
    return *this;
  }
  ~Value() { Release(); }

  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_int() const { return type_ == ValueType::kInt; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_string() const { return type_ == ValueType::kString; }

  int64_t AsInt() const {
    VEDB_CHECK(is_int(), "AsInt of a type-%d value", static_cast<int>(type_));
    return u_.i;
  }
  /// An int widens to double.
  double AsDouble() const {
    if (is_int()) return static_cast<double>(u_.i);
    VEDB_CHECK(is_double(), "AsDouble of a type-%d value",
               static_cast<int>(type_));
    return u_.d;
  }
  const std::string& AsString() const {
    VEDB_CHECK(is_string(), "AsString of a type-%d value",
               static_cast<int>(type_));
    return u_.s->str;
  }

  ValueType type() const { return type_; }

  /// Total order across same-typed values (ints and doubles compare
  /// numerically with each other; NULL sorts first).
  int Compare(const Value& o) const {
    if (is_null() || o.is_null()) {
      return static_cast<int>(!is_null()) - static_cast<int>(!o.is_null());
    }
    if (is_string() && o.is_string()) {
      const int c = AsString().compare(o.AsString());
      return (c > 0) - (c < 0);
    }
    const double a = AsDouble(), b = o.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, Value* out);
  /// Advances `*in` past one encoded value without building it. Fails
  /// exactly where DecodeFrom would.
  static bool SkipFrom(Slice* in);

  /// Appends a binary-comparable encoding (for index keys).
  void EncodeSortable(std::string* out) const;

  std::string ToString() const;

 private:
  struct SharedString {
    explicit SharedString(std::string s) : str(std::move(s)) {}
    std::atomic<uint32_t> refs{1};
    const std::string str;
  };

  void Release() {
    if (is_string() &&
        u_.s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete u_.s;
    }
  }

  union {
    int64_t i;
    double d;
    SharedString* s;
  } u_;
  ValueType type_;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte tagged word");

// Inline: scans step over most of the columns they meet.
inline bool Value::SkipFrom(Slice* in) {
  if (in->empty()) return false;
  const ValueType type = static_cast<ValueType>((*in)[0]);
  in->RemovePrefix(1);
  Slice skipped;
  uint64_t unused = 0;
  switch (type) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return GetVarint64(in, &unused);
    case ValueType::kDouble:
      return GetFixedBytes(in, 8, &skipped);
    case ValueType::kString:
      return GetLengthPrefixedSlice(in, &skipped);
  }
  return false;
}

using Row = std::vector<Value>;

/// A non-owning view of one row's values: `size()` Values at `data()`, such
/// as a Row or one row of a query::RowBatch. Valid while they are.
class RowView {
 public:
  RowView() = default;
  RowView(const Value* data, size_t size) : data_(data), size_(size) {}
  RowView(const Row& row) : data_(row.data()), size_(row.size()) {}  // NOLINT

  const Value* data() const { return data_; }
  size_t size() const { return size_; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

 private:
  const Value* data_ = nullptr;
  size_t size_ = 0;
};

/// Serializes a row (values in order).
void EncodeRow(RowView row, std::string* out);
bool DecodeRow(Slice in, Row* out);
/// Like DecodeRow, but builds only the columns flagged in `wanted` (a
/// column past its end is not wanted) and steps over the others with
/// Value::SkipFrom, so it fails on exactly the rows DecodeRow fails on.
/// `*out` takes the row's arity; an unwanted column keeps what `*out` held
/// there, so a row that starts empty and is reused with the same flags has
/// NULL in every one.
bool DecodeRowColumns(Slice in, const std::vector<bool>& wanted, Row* out);

/// Column metadata.
struct Column {
  std::string name;
  ValueType type = ValueType::kInt;
};

/// Table schema: columns plus the primary-key column indexes (in key
/// order).
struct Schema {
  std::vector<Column> columns;
  std::vector<int> pk;

  int ColumnIndex(const std::string& name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Builds the sortable PK encoding for a row under `schema`.
std::string PkOf(const Schema& schema, const Row& row);
/// Builds the sortable encoding of explicit key values.
std::string MakeKey(const std::vector<Value>& key_values);

/// Hash and equality for hash maps keyed by a (tag, key string) pair, such
/// as (space, PK). Both also take a (tag, std::string_view) probe, so a
/// lookup copies no key.
struct TaggedKeyHash {
  using is_transparent = void;
  template <typename Tag, typename Str>
  size_t operator()(const std::pair<Tag, Str>& k) const {
    return std::hash<std::string_view>()(k.second) * 31 +
           std::hash<Tag>()(k.first);
  }
};
struct TaggedKeyEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a.first == b.first &&
           std::string_view(a.second) == std::string_view(b.second);
  }
};

}  // namespace vedb::engine

#endif  // VEDB_ENGINE_TYPES_H_
