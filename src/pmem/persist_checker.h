// PersistChecker: a programmatic pmemcheck for the simulated ADR model.
//
// The paper's whole crash-consistency argument rests on one ordering rule:
// a write may be acknowledged as durable only after it has entered the PMem
// persistence domain (via CLWB+fence locally, or via the DDIO-off RDMA-READ
// flush remotely). PmemDevice already *models* that rule; this checker
// *enforces* it. Every write is recorded with a monotonically increasing
// epoch, every flush/fence event records the epoch it drains up to, and a
// durability claim ("ack") over bytes that have not reached the persistence
// domain is a violation: the ack path reports Corruption instead of success,
// so a persist-ordering bug fails the operation loudly rather than silently
// producing a log that Crash() can tear.
//
// The checker is always compiled and always on (its cost is a range-map
// lookup per ack, negligible next to the simulated RDMA latency). Tests
// assert on violations() and the returned Status; SetAbortOnViolation(true)
// turns a violation into an immediate abort for debugging.

#ifndef VEDB_PMEM_PERSIST_CHECKER_H_
#define VEDB_PMEM_PERSIST_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace vedb::pmem {

/// Tracks write epochs and flush events for one PmemDevice and validates
/// durability claims against them. Thread safe.
class PersistChecker {
 public:
  /// One failed durability claim, kept for diagnostics and tests.
  struct Violation {
    uint64_t offset = 0;       // start of the still-volatile byte range
    uint64_t length = 0;       // length of that range
    uint64_t write_epoch = 0;  // epoch of the offending write
    uint64_t ack_epoch = 0;    // epoch at which the bogus ack was checked
    std::string context;       // who claimed durability ("astore.ack", ...)
  };

  /// Records a write event. `persistent` writes (CLWB+fence local stores)
  /// enter the persistence domain immediately; non-persistent ones (inbound
  /// RDMA writes) stay volatile until the next flush event.
  void OnWrite(uint64_t offset, uint64_t length, bool persistent);

  /// Records a flush/fence event draining every prior write into the
  /// persistence domain (RDMA READ with DDIO off, or an explicit barrier).
  void OnFlush();

  /// Records a power failure: volatile ranges are gone, not pending.
  void OnCrash();

  /// Validates the claim "[offset, offset+length) is durable". Returns OK
  /// when every byte has entered the persistence domain; otherwise records
  /// a Violation and returns Corruption. `context` names the claiming code
  /// path for the diagnostic.
  Status CheckPersisted(uint64_t offset, uint64_t length,
                        std::string_view context);

  /// Total violations recorded so far.
  uint64_t violations() const;

  /// Copies out the recorded violations (tests; capped at 64 entries).
  std::vector<Violation> violation_log() const;

  /// Current write epoch (monotone; one tick per write event).
  uint64_t write_epoch() const;

  /// Epoch up to which writes are known flushed.
  uint64_t flush_epoch() const;

  /// When true, a violation aborts the process (pmemcheck-style fail-fast
  /// for debugging). Default false: the ack path returns Corruption.
  static void SetAbortOnViolation(bool abort_on_violation);

 private:
  static constexpr size_t kMaxLoggedViolations = 64;

  mutable Mutex mu_{"pmem.persist"};
  uint64_t epoch_ GUARDED_BY(mu_) = 0;  // bumped on every write event
  // All writes with epoch <= this are persistent.
  uint64_t flush_epoch_ GUARDED_BY(mu_) = 0;
  // offset -> (end, epoch) for writes outside the persistence domain.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> volatile_ranges_
      GUARDED_BY(mu_);
  uint64_t violation_count_ GUARDED_BY(mu_) = 0;
  std::vector<Violation> violation_log_ GUARDED_BY(mu_);
};

}  // namespace vedb::pmem

#endif  // VEDB_PMEM_PERSIST_CHECKER_H_
