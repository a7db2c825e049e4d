#include "engine/types.h"

#include <cstdio>

namespace vedb::engine {

void Value::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      // ZigZag encode.
      const int64_t n = AsInt();
      PutVarint64(out, (static_cast<uint64_t>(n) << 1) ^
                           static_cast<uint64_t>(n >> 63));
      break;
    }
    case ValueType::kDouble: {
      uint64_t bits;
      double d = AsDouble();
      memcpy(&bits, &d, 8);
      PutFixed64(out, bits);
      break;
    }
    case ValueType::kString:
      PutLengthPrefixedSlice(out, Slice(AsString()));
      break;
  }
}

bool Value::DecodeFrom(Slice* in, Value* out) {
  if (in->empty()) return false;
  const ValueType type = static_cast<ValueType>((*in)[0]);
  in->RemovePrefix(1);
  switch (type) {
    case ValueType::kNull:
      *out = Value();
      return true;
    case ValueType::kInt: {
      uint64_t zz = 0;
      if (!GetVarint64(in, &zz)) return false;
      // ZigZag decode.
      int64_t v = static_cast<int64_t>(zz >> 1);
      if (zz & 1) v = ~v;
      *out = Value(v);
      return true;
    }
    case ValueType::kDouble: {
      Slice raw;
      if (!GetFixedBytes(in, 8, &raw)) return false;
      double d;
      uint64_t bits = DecodeFixed64(raw.data());
      memcpy(&d, &bits, 8);
      *out = Value(d);
      return true;
    }
    case ValueType::kString: {
      Slice s;
      if (!GetLengthPrefixedSlice(in, &s)) return false;
      *out = Value(s.ToString());
      return true;
    }
  }
  return false;
}

bool Value::SkipFrom(Slice* in) {
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

void Value::EncodeSortable(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      out->push_back('\x00');
      break;
    case ValueType::kInt: {
      out->push_back('\x01');
      // Big-endian with flipped sign bit sorts like the integer.
      uint64_t u = static_cast<uint64_t>(AsInt()) ^ (1ull << 63);
      for (int shift = 56; shift >= 0; shift -= 8) {
        out->push_back(static_cast<char>((u >> shift) & 0xFF));
      }
      break;
    }
    case ValueType::kDouble: {
      out->push_back('\x01');
      double d = AsDouble();
      uint64_t bits;
      memcpy(&bits, &d, 8);
      // IEEE754 order fix: flip all bits for negatives, sign bit otherwise.
      if (bits & (1ull << 63)) {
        bits = ~bits;
      } else {
        bits ^= (1ull << 63);
      }
      for (int shift = 56; shift >= 0; shift -= 8) {
        out->push_back(static_cast<char>((bits >> shift) & 0xFF));
      }
      break;
    }
    case ValueType::kString:
      out->push_back('\x02');
      out->append(AsString());
      out->push_back('\x00');  // terminator (keys must not contain NUL)
      break;
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

void EncodeRow(const Row& row, std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) v.EncodeTo(out);
}

bool DecodeRow(Slice in, Row* out) {
  uint32_t n = 0;
  // Every value takes at least one byte, so a longer arity cannot parse;
  // failing early keeps a corrupt count from sizing the row.
  if (!GetVarint32(&in, &n) || n > in.size()) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!Value::DecodeFrom(&in, &v)) return false;
    out->push_back(std::move(v));
  }
  return true;
}

bool DecodeRowColumns(Slice in, const std::vector<bool>& wanted, Row* out) {
  uint32_t n = 0;
  if (!GetVarint32(&in, &n) || n > in.size()) return false;
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const bool ok = i < wanted.size() && wanted[i]
                        ? Value::DecodeFrom(&in, &(*out)[i])
                        : Value::SkipFrom(&in);
    if (!ok) return false;
  }
  return true;
}

std::string PkOf(const Schema& schema, const Row& row) {
  std::string key;
  for (int idx : schema.pk) row[idx].EncodeSortable(&key);
  return key;
}

std::string MakeKey(const std::vector<Value>& key_values) {
  std::string key;
  for (const Value& v : key_values) v.EncodeSortable(&key);
  return key;
}

}  // namespace vedb::engine
