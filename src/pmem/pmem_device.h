// Simulated persistent-memory device. Models the Optane/ADR behaviour the
// paper's write path depends on: bytes written by inbound RDMA land in the
// CPU cache (volatile) when Intel DDIO is enabled, or in the memory
// controller's persistence domain when DDIO is disabled and a subsequent
// RDMA READ flushes them. A simulated power failure (Crash) scrambles every
// byte that never reached the persistence domain, which is what the CRC
// checks in SegmentRing recovery must survive.
//
// PmemDevice stores *state only*; timing is charged by callers against the
// owning SimNode's storage/NIC queueing devices, so the same state model
// serves both local access (AStore server code) and remote one-sided RDMA.

#ifndef VEDB_PMEM_PMEM_DEVICE_H_
#define VEDB_PMEM_PMEM_DEVICE_H_

#include <cstdint>
#include <map>

#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "pmem/persist_checker.h"

namespace vedb::pmem {

/// One node's PMem address space.
class PmemDevice {
 public:
  /// `ddio_enabled` mirrors the platform setting: when true, inbound RDMA
  /// writes are volatile until an explicit Persist (the configuration the
  /// paper rejects); when false, an RDMA READ flush moves them into the
  /// persistence domain (the configuration the paper ships).
  PmemDevice(uint64_t capacity, bool ddio_enabled, uint64_t crash_seed = 7);
  ~PmemDevice();

  PmemDevice(const PmemDevice&) = delete;
  PmemDevice& operator=(const PmemDevice&) = delete;

  uint64_t capacity() const { return capacity_; }
  bool ddio_enabled() const { return ddio_enabled_; }

  /// Writes arriving via inbound one-sided RDMA WRITE. Data is readable
  /// immediately but not yet in the persistence domain.
  Status WriteFromRemote(uint64_t offset, Slice data);

  /// Writes by server-local code using proper flush instructions
  /// (CLWB+fence); immediately persistent.
  Status WriteLocal(uint64_t offset, Slice data);

  /// Reads `len` bytes at `offset` into `out`.
  Status Read(uint64_t offset, uint64_t len, char* out) const;

  /// The flushing side effect of a one-sided RDMA READ against this device.
  /// With DDIO disabled this drains all pending remote writes into the
  /// persistence domain; with DDIO enabled it does nothing (data may sit in
  /// the LLC indefinitely).
  void FlushViaRdmaRead();

  /// Explicit full persistence barrier (used by server-local code paths).
  void PersistAll();

  /// Simulates a power failure: every byte range not yet in the persistence
  /// domain is overwritten with garbage, modelling torn/lost cache lines.
  void Crash();

  // ---- Silent corruption (bit rot). Unlike Crash, these damage bytes the
  // device already acknowledged as durable, which is exactly what checksum
  // verification and the scrubber exist to catch. Injections are driven by
  // tests/campaigns (typically planned via sim::FaultInjector's corruption
  // sites) and are invisible to the PersistChecker: a flipped bit does not
  // change what was *claimed* durable, only what is *served*. ----

  /// Flips bit `bit` (0-7) of the byte at `offset`.
  Status CorruptBitFlip(uint64_t offset, int bit = 0);

  /// Zeroes the 64-byte aligned cacheline containing `offset`, modelling a
  /// flush that made it to the media as all-zeros.
  Status CorruptZeroCacheline(uint64_t offset);

  /// Marks [offset, offset+len) as a latent bad region: every Read XORs the
  /// stored bytes with 0xA5 inside it. A non-sticky region heals when the
  /// range is rewritten (read-repair and scrub rewrites genuinely fix it);
  /// a sticky region models failed cells and keeps corrupting after any
  /// rewrite — the only cure is quarantining the replica.
  Status MarkBadRegion(uint64_t offset, uint64_t len, bool sticky);

  /// True when [offset, offset+len) overlaps a (remaining) bad region.
  bool HasBadRegionOverlap(uint64_t offset, uint64_t len) const;

  /// Total silent corruptions injected into this device (all kinds).
  uint64_t CorruptionCount() const;

  /// Number of byte ranges currently outside the persistence domain.
  size_t PendingRangeCount() const;

  /// Validates an ack-path durability claim over [offset, offset+len).
  /// Returns Corruption (and records a checker violation) if any byte is
  /// still outside the persistence domain. `context` names the claimant.
  Status CheckPersisted(uint64_t offset, uint64_t len,
                        std::string_view context) {
    return checker_.CheckPersisted(offset, len, context);
  }

  /// The persistence-ordering validator attached to this device.
  PersistChecker& persist_checker() { return checker_; }
  const PersistChecker& persist_checker() const { return checker_; }

 private:
  struct BadRegion {
    uint64_t end = 0;
    bool sticky = false;
  };

  void MarkPendingLocked(uint64_t offset, uint64_t len) REQUIRES(mu_);

  /// Sums the byte lengths of all pending ranges.
  uint64_t PendingBytesLocked() const REQUIRES(mu_);

  /// Removes the non-sticky parts of bad regions overlapping
  /// [offset, offset+len) — a rewrite heals latent (but not sticky) rot.
  void HealBadRegionsLocked(uint64_t offset, uint64_t len) REQUIRES(mu_);

  const uint64_t capacity_;
  const bool ddio_enabled_;
  mutable Mutex mu_{"pmem.device"};
  // One private anonymous mapping: pages are backed on first touch, and
  // bytes never written read as zero, like a freshly formatted device.
  char* bytes_ PT_GUARDED_BY(mu_) = nullptr;
  // offset -> end of ranges written but not yet persistent.
  std::map<uint64_t, uint64_t> pending_ GUARDED_BY(mu_);
  // offset -> bad-region descriptor (see MarkBadRegion).
  std::map<uint64_t, BadRegion> bad_regions_ GUARDED_BY(mu_);
  uint64_t corruptions_injected_ GUARDED_BY(mu_) = 0;
  Random crash_rng_ GUARDED_BY(mu_);
  PersistChecker checker_;

  // Observability (resolved once at construction; see obs/metrics.h).
  obs::Counter* remote_write_bytes_ = nullptr;
  obs::Counter* local_write_bytes_ = nullptr;
  obs::Counter* flushes_ = nullptr;
  obs::Counter* flush_bytes_ = nullptr;
  obs::Counter* corrupt_bit_flips_ = nullptr;
  obs::Counter* corrupt_zero_lines_ = nullptr;
  obs::Counter* corrupt_bad_regions_ = nullptr;
  obs::Counter* corrupt_healed_ = nullptr;
};

}  // namespace vedb::pmem

#endif  // VEDB_PMEM_PMEM_DEVICE_H_
