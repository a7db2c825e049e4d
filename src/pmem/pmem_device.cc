#include "pmem/pmem_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace vedb::pmem {

PmemDevice::PmemDevice(uint64_t capacity, bool ddio_enabled,
                       uint64_t crash_seed)
    : capacity_(capacity),
      ddio_enabled_(ddio_enabled),
      crash_rng_(crash_seed) {
  void* map = mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  VEDB_CHECK(map != MAP_FAILED, "pmem mmap of %llu bytes failed",
             static_cast<unsigned long long>(capacity_));
  bytes_ = static_cast<char*>(map);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  remote_write_bytes_ = reg.GetCounter("pmem.write_bytes", {{"source", "remote"}});
  local_write_bytes_ = reg.GetCounter("pmem.write_bytes", {{"source", "local"}});
  flushes_ = reg.GetCounter("pmem.flushes");
  flush_bytes_ = reg.GetCounter("pmem.flush_bytes");
  corrupt_bit_flips_ =
      reg.GetCounter("pmem.corruption.injected", {{"kind", "bit_flip"}});
  corrupt_zero_lines_ =
      reg.GetCounter("pmem.corruption.injected", {{"kind", "zero_cacheline"}});
  corrupt_bad_regions_ =
      reg.GetCounter("pmem.corruption.injected", {{"kind", "bad_region"}});
  corrupt_healed_ = reg.GetCounter("pmem.corruption.healed");
}

PmemDevice::~PmemDevice() { munmap(bytes_, capacity_); }

uint64_t PmemDevice::PendingBytesLocked() const {
  uint64_t total = 0;
  for (const auto& [offset, end] : pending_) total += end - offset;
  return total;
}

Status PmemDevice::WriteFromRemote(uint64_t offset, Slice data) {
  if (offset + data.size() > capacity_) {
    return Status::InvalidArgument("pmem write out of bounds");
  }
  {
    MutexLock lk(&mu_);
    memcpy(bytes_ + offset, data.data(), data.size());
    MarkPendingLocked(offset, data.size());
    HealBadRegionsLocked(offset, data.size());
  }
  remote_write_bytes_->Add(data.size());
  checker_.OnWrite(offset, data.size(), /*persistent=*/false);
  return Status::OK();
}

Status PmemDevice::WriteLocal(uint64_t offset, Slice data) {
  if (offset + data.size() > capacity_) {
    return Status::InvalidArgument("pmem write out of bounds");
  }
  {
    MutexLock lk(&mu_);
    memcpy(bytes_ + offset, data.data(), data.size());
    HealBadRegionsLocked(offset, data.size());
  }
  local_write_bytes_->Add(data.size());
  checker_.OnWrite(offset, data.size(), /*persistent=*/true);
  return Status::OK();
}

Status PmemDevice::Read(uint64_t offset, uint64_t len, char* out) const {
  if (offset + len > capacity_) {
    return Status::InvalidArgument("pmem read out of bounds");
  }
  MutexLock lk(&mu_);
  memcpy(out, bytes_ + offset, len);
  // Latent bad regions corrupt on the way out: the stored bytes stay
  // untouched, but every read through the region is damaged (XOR keeps the
  // damage deterministic so seeded runs stay byte-identical).
  if (!bad_regions_.empty()) {
    uint64_t read_end = offset + len;
    for (const auto& [start, region] : bad_regions_) {
      if (start >= read_end) break;
      if (region.end <= offset) continue;
      uint64_t lo = std::max(start, offset);
      uint64_t hi = std::min(region.end, read_end);
      for (uint64_t i = lo; i < hi; ++i) {
        out[i - offset] = static_cast<char>(out[i - offset] ^ 0xA5);
      }
    }
  }
  return Status::OK();
}

void PmemDevice::MarkPendingLocked(uint64_t offset, uint64_t len) {
  // Coalesce with an existing overlapping/adjacent range if present. The
  // ranges are tracking metadata only, so a conservative merge is fine.
  uint64_t end = offset + len;
  auto it = pending_.upper_bound(offset);
  if (it != pending_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= offset) {
      offset = prev->first;
      end = std::max(end, prev->second);
      pending_.erase(prev);
    }
  }
  while (true) {
    auto next = pending_.lower_bound(offset);
    if (next == pending_.end() || next->first > end) break;
    end = std::max(end, next->second);
    pending_.erase(next);
  }
  pending_[offset] = end;
}

void PmemDevice::FlushViaRdmaRead() {
  if (ddio_enabled_) return;  // read hits the LLC; nothing reaches the iMC
  {
    MutexLock lk(&mu_);
    flush_bytes_->Add(PendingBytesLocked());
    pending_.clear();
  }
  flushes_->Add(1);
  checker_.OnFlush();
}

void PmemDevice::PersistAll() {
  {
    MutexLock lk(&mu_);
    flush_bytes_->Add(PendingBytesLocked());
    pending_.clear();
  }
  flushes_->Add(1);
  checker_.OnFlush();
}

void PmemDevice::Crash() {
  {
    MutexLock lk(&mu_);
    for (const auto& [offset, end] : pending_) {
      for (uint64_t i = offset; i < end; ++i) {
        bytes_[i] = static_cast<char>(crash_rng_.Next());
      }
    }
    pending_.clear();
  }
  checker_.OnCrash();
}

size_t PmemDevice::PendingRangeCount() const {
  MutexLock lk(&mu_);
  return pending_.size();
}

Status PmemDevice::CorruptBitFlip(uint64_t offset, int bit) {
  if (offset >= capacity_) {
    return Status::InvalidArgument("pmem corruption out of bounds");
  }
  {
    MutexLock lk(&mu_);
    bytes_[offset] = static_cast<char>(bytes_[offset] ^ (1u << (bit & 7)));
    corruptions_injected_++;
  }
  corrupt_bit_flips_->Add(1);
  return Status::OK();
}

Status PmemDevice::CorruptZeroCacheline(uint64_t offset) {
  if (offset >= capacity_) {
    return Status::InvalidArgument("pmem corruption out of bounds");
  }
  uint64_t line = offset & ~uint64_t{63};
  uint64_t end = std::min(line + 64, capacity_);
  {
    MutexLock lk(&mu_);
    memset(bytes_ + line, 0, end - line);
    corruptions_injected_++;
  }
  corrupt_zero_lines_->Add(1);
  return Status::OK();
}

Status PmemDevice::MarkBadRegion(uint64_t offset, uint64_t len, bool sticky) {
  if (len == 0 || offset + len > capacity_ || offset + len < offset) {
    return Status::InvalidArgument("pmem corruption out of bounds");
  }
  {
    MutexLock lk(&mu_);
    bad_regions_[offset] = BadRegion{offset + len, sticky};
    corruptions_injected_++;
  }
  corrupt_bad_regions_->Add(1);
  return Status::OK();
}

bool PmemDevice::HasBadRegionOverlap(uint64_t offset, uint64_t len) const {
  MutexLock lk(&mu_);
  uint64_t end = offset + len;
  for (const auto& [start, region] : bad_regions_) {
    if (start >= end) break;
    if (region.end > offset) return true;
  }
  return false;
}

uint64_t PmemDevice::CorruptionCount() const {
  MutexLock lk(&mu_);
  return corruptions_injected_;
}

void PmemDevice::HealBadRegionsLocked(uint64_t offset, uint64_t len) {
  if (bad_regions_.empty()) return;
  uint64_t write_end = offset + len;
  uint64_t healed = 0;
  std::map<uint64_t, BadRegion> remnants;
  for (auto it = bad_regions_.begin(); it != bad_regions_.end();) {
    uint64_t start = it->first;
    const BadRegion region = it->second;
    if (region.sticky || start >= write_end || region.end <= offset) {
      ++it;
      continue;
    }
    // The rewrite covers [max(start,offset), min(end,write_end)); keep the
    // uncovered remnants (at most one on each side).
    healed += std::min(region.end, write_end) - std::max(start, offset);
    if (start < offset) remnants[start] = BadRegion{offset, false};
    if (region.end > write_end) {
      remnants[write_end] = BadRegion{region.end, false};
    }
    it = bad_regions_.erase(it);
  }
  bad_regions_.insert(remnants.begin(), remnants.end());
  if (healed > 0) corrupt_healed_->Add(1);
}

}  // namespace vedb::pmem
