#include "common/crc32.h"

#include <nmmintrin.h>

#include <array>
#include <cstring>

namespace vedb {

namespace {
std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  const uint32_t poly = 0x82F63B78u;  // CRC32C reflected polynomial
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ poly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

// SSE4.2's crc32 instruction steps the same reflected CRC32C register as
// one table lookup per byte, eight bytes at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++data) {
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*data));
  }
  return ~c32;
}

bool HaveSse42() {
  static const bool have = (__builtin_cpu_init(),
                            __builtin_cpu_supports("sse4.2") != 0);
  return have;
}
}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const char* data, size_t n) {
  const auto& table = Table();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF] ^
          (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t crc, const char* data, size_t n) {
  return HaveSse42() ? Crc32cSse42(crc, data, n)
                    : Crc32cPortable(crc, data, n);
}

}  // namespace vedb
