// CRC32C (Castagnoli) checksum. Protects REDO log records and AStore
// segment headers against torn writes after a simulated crash. Uses SSE4.2's
// crc32 instruction where the CPU has it, a byte-at-a-time table otherwise.

#ifndef VEDB_COMMON_CRC32_H_
#define VEDB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace vedb {

/// Computes/extends a CRC32C. Start with crc=0 for a fresh checksum.
uint32_t Crc32c(uint32_t crc, const char* data, size_t n);

/// The same checksum by the table loop alone: Crc32c's fallback on a CPU
/// without SSE4.2, and the reference its tests check it against.
uint32_t Crc32cPortable(uint32_t crc, const char* data, size_t n);

inline uint32_t Crc32c(const Slice& data) {
  return Crc32c(0, data.data(), data.size());
}

/// Masks a CRC so that a CRC of data containing embedded CRCs stays well
/// distributed (RocksDB/LevelDB trick).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace vedb

#endif  // VEDB_COMMON_CRC32_H_
