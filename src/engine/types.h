// Core relational types of the DBEngine: values, rows, schemas, and the
// identifiers shared with the storage layer.

#ifndef VEDB_ENGINE_TYPES_H_
#define VEDB_ENGINE_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/coding.h"
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

/// A dynamically typed SQL value.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(int64_t i) : v_(i) {}                      // NOLINT
  Value(int i) : v_(static_cast<int64_t>(i)) {}    // NOLINT
  Value(uint64_t i) : v_(static_cast<int64_t>(i)) {}  // NOLINT
  Value(double d) : v_(d) {}                       // NOLINT
  Value(std::string s) : v_(std::move(s)) {}       // NOLINT
  Value(const char* s) : v_(std::string(s)) {}     // NOLINT

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
    return std::get<double>(v_);
  }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  ValueType type() const {
    if (is_null()) return ValueType::kNull;
    if (is_int()) return ValueType::kInt;
    if (is_double()) return ValueType::kDouble;
    return ValueType::kString;
  }

  /// Total order across same-typed values (ints and doubles compare
  /// numerically with each other; NULL sorts first).
  int Compare(const Value& o) const {
    if (is_null() || o.is_null()) {
      return static_cast<int>(!is_null()) - static_cast<int>(!o.is_null());
    }
    if (is_string() && o.is_string()) {
      const std::string& a = AsString();
      const std::string& b = o.AsString();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble(), b = o.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, Value* out);
  /// Advances `*in` past one encoded value without building it.
  static bool SkipFrom(Slice* in);

  /// Appends a binary-comparable encoding (for index keys).
  void EncodeSortable(std::string* out) const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

using Row = std::vector<Value>;

/// Serializes a row (values in order).
void EncodeRow(const Row& row, std::string* out);
bool DecodeRow(Slice in, Row* out);

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
