// Fixed-width and variable-width integer encoding (little endian), used for
// REDO records, page layouts, plan-fragment serialization, and AStore
// segment headers.

#ifndef VEDB_COMMON_CODING_H_
#define VEDB_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace vedb {

inline void EncodeFixed16(char* dst, uint16_t value) {
  memcpy(dst, &value, sizeof(value));
}
inline void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));
}
inline void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}

inline uint16_t DecodeFixed16(const char* src) {
  uint16_t v;
  memcpy(&v, src, sizeof(v));
  return v;
}
inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v;
  memcpy(&v, src, sizeof(v));
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v;
  memcpy(&v, src, sizeof(v));
  return v;
}

inline void PutFixed16(std::string* dst, uint16_t value) {
  char buf[sizeof(value)];
  EncodeFixed16(buf, value);
  dst->append(buf, sizeof(buf));
}
inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[sizeof(value)];
  EncodeFixed32(buf, value);
  dst->append(buf, sizeof(buf));
}
inline void PutFixed64(std::string* dst, uint64_t value) {
  char buf[sizeof(value)];
  EncodeFixed64(buf, value);
  dst->append(buf, sizeof(buf));
}

/// Varint32/64 encoding, LEB128 style.
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);

/// Appends a varint length prefix followed by the bytes of `value`.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

/// Parses a varint from the front of `input`, advancing it. Returns false on
/// malformed/truncated input.
bool GetVarint32(Slice* input, uint32_t* value);
/// GetVarint64's path for a varint of more than one byte.
bool GetVarint64Slow(Slice* input, uint64_t* value);
/// Reads a one-byte varint, the common case, inline.
inline bool GetVarint64(Slice* input, uint64_t* value) {
  if (!input->empty() && static_cast<unsigned char>((*input)[0]) < 0x80) {
    *value = static_cast<unsigned char>((*input)[0]);
    input->RemovePrefix(1);
    return true;
  }
  return GetVarint64Slow(input, value);
}

/// Reads `n` raw bytes from the front of `input`, advancing it.
inline bool GetFixedBytes(Slice* input, size_t n, Slice* result) {
  if (input->size() < n) return false;
  *result = Slice(input->data(), n);
  input->RemovePrefix(n);
  return true;
}

/// Parses a length-prefixed slice from the front of `input`, advancing it.
inline bool GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint64_t len = 0;
  return GetVarint64(input, &len) && GetFixedBytes(input, len, result);
}

}  // namespace vedb

#endif  // VEDB_COMMON_CODING_H_
