#include "workload/append_storm.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/thread_annotations.h"
#include "sim/clock.h"

namespace vedb::workload {

namespace {

/// Deterministic payload derived from the LSN alone, so two runs of the
/// same storm write byte-identical records.
std::string StormPayload(uint64_t lsn, size_t bytes) {
  std::string out(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>('a' + (lsn + i) % 26);
  }
  return out;
}

}  // namespace

Result<AppendStormResult> RunAppendStorm(sim::SimEnvironment* env,
                                         astore::SegmentRing* ring,
                                         const AppendStormOptions& options) {
  if (options.clients <= 0 || options.appends_per_client <= 0) {
    return Status::InvalidArgument("storm needs at least one append");
  }
  if (options.payload_bytes == 0 || options.first_lsn == 0) {
    return Status::InvalidArgument("storm payloads and LSNs start above 0");
  }

  // LSN assignment and Reserve() share this lock so ring placement matches
  // LSN order (the same discipline the logstore's committer enforces); the
  // commit I/O runs outside it and coalesces across actors.
  vedb::Mutex mu{"workload.storm"};
  uint64_t next_lsn = options.first_lsn;
  AppendStormResult result;

  {
    sim::ActorGroup group(env->clock());
    for (int c = 0; c < options.clients; ++c) {
      group.Spawn([&] {
        for (int i = 0; i < options.appends_per_client; ++i) {
          if (options.think_time > 0) {
            env->clock()->SleepFor(options.think_time);
          }
          // Busy means the reserved segment was replaced under us; take a
          // FRESH LSN for the retry — other actors reserved past the old
          // one, and re-placing it would put the ring out of LSN order.
          bool done = false;
          for (int attempt = 0; attempt < 3 && !done; ++attempt) {
            uint64_t lsn = 0;
            astore::SegmentRing::Reservation reservation;
            {
              vedb::MutexLock lk(&mu);
              lsn = next_lsn;
              Result<astore::SegmentRing::Reservation> r =
                  ring->Reserve(lsn, options.payload_bytes);
              if (!r.ok()) {
                ++result.errors;
                break;
              }
              next_lsn = lsn + 1;
              reservation = std::move(r).value();
            }
            const std::string payload =
                StormPayload(lsn, options.payload_bytes);
            Status s = ring->CommitReserved(reservation, lsn, Slice(payload));
            vedb::MutexLock lk(&mu);
            if (s.ok()) {
              ++result.appended;
              result.locations.push_back(RecordLocation{
                  lsn, reservation.seg->id(), reservation.offset,
                  static_cast<uint32_t>(options.payload_bytes)});
              done = true;
            } else if (s.IsBusy()) {
              ++result.busy_retries;
            } else {
              ++result.errors;
              break;
            }
          }
        }
      });
    }
    group.JoinAll();
  }

  std::sort(result.locations.begin(), result.locations.end(),
            [](const RecordLocation& a, const RecordLocation& b) {
              return a.lsn < b.lsn;
            });
  return result;
}

}  // namespace vedb::workload
