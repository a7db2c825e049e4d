#include "common/coding.h"

namespace vedb {

void PutVarint32(std::string* dst, uint32_t value) {
  unsigned char buf[5];
  int i = 0;
  while (value >= 0x80) {
    buf[i++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[i++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), i);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int i = 0;
  while (value >= 0x80) {
    buf[i++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[i++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), i);
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

namespace {
bool GetVarintCommon(Slice* input, uint64_t* value, int max_bytes) {
  uint64_t result = 0;
  for (int i = 0; i < max_bytes && static_cast<size_t>(i) < input->size();
       ++i) {
    unsigned char byte = static_cast<unsigned char>((*input)[i]);
    result |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      input->RemovePrefix(i + 1);
      *value = result;
      return true;
    }
  }
  return false;
}
}  // namespace

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v = 0;
  if (!GetVarintCommon(input, &v, 5)) return false;
  if (v > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

bool GetVarint64Slow(Slice* input, uint64_t* value) {
  return GetVarintCommon(input, value, 10);
}

}  // namespace vedb
