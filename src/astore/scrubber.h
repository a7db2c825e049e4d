// Background integrity scrubber — one per AStore server. Walks the
// server's live segments on the virtual clock at a bounded byte rate (a
// TokenBucket meters every byte read), cross-checks each chunk against
// the other replicas, repairs a locally divergent copy in place from the
// replica majority, and escalates copies that stay bad after a rewrite
// (latent sticky bad regions) to the cluster manager, which quarantines the
// replica and re-replicates the segment elsewhere.
//
// Detection is comparison-based, not checksum-based: the scrubber has no
// knowledge of the application's framing, so two settled reads per replica
// plus a strict majority vote decide which bytes are right. A chunk whose
// two reads of the same replica disagree is being written concurrently and
// is skipped this round — the next pass sees it settled.

#ifndef VEDB_ASTORE_SCRUBBER_H_
#define VEDB_ASTORE_SCRUBBER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "astore/client.h"
#include "astore/server.h"
#include "astore/token_bucket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sim/env.h"

namespace vedb::astore {

class Scrubber {
 public:
  struct Options {
    /// Pause between full passes over the local segment list.
    Duration scrub_period = 100 * kMillisecond;
    /// Bytes compared per vote; also the repair write granularity.
    uint64_t chunk_bytes = 4 * kKiB;
    /// Sustained scrub read rate across ALL replicas' bytes (0 = unpaced).
    /// A token bucket (astore/token_bucket.h) paces the reads to this rate,
    /// so a pass cannot crowd out foreground traffic.
    uint64_t rate_bytes_per_sec = 8 * kMiB;
    uint64_t burst_bytes = 64 * kKiB;
    /// Gap between the two settledness reads of one chunk.
    Duration settle_gap = 500 * kMicrosecond;
  };

  /// `client` is the scrubber's cluster view (routes, per-replica reads,
  /// epoch-guarded repair writes, CM reporting); it should live on the
  /// server's node. `server` is the local server whose copies are scrubbed.
  Scrubber(sim::SimEnvironment* env, AStoreClient* client, AStoreServer* server,
           const Options& options);

  /// Starts the scrub loop actor.
  void StartBackground();

  /// Flags the loop to stop without waiting (flag-all-then-drain teardown).
  void RequestShutdown() { shutdown_.store(true); }

  /// Flags and drains: on return (in virtual time) the scrub actor has
  /// exited its loop.
  void Shutdown();

  /// Runs one full pass over the local segments right now (test hook; scrub
  /// reads advance virtual time, so the caller blocks on the clock).
  void ScrubPassForTest() { ScrubPass(); }

 private:
  // Per-chunk verdict of one cross-replica vote.
  enum class ChunkVerdict {
    kClean,      // every settled replica agrees
    kRepaired,   // local copy diverged; rewritten from majority and re-read
    kIrreparable,  // local copy still bad after rewrite (sticky region)
    kSkipped,    // unsettled (concurrent writer) or no usable majority
  };

  void ScrubLoop();
  void ScrubPass();
  // Scrubs one local segment; returns false when the segment was reported
  // to the CM (its route is moving — stop touching it this pass).
  bool ScrubSegment(SegmentId id);
  ChunkVerdict ScrubChunk(const SegmentHandlePtr& handle,
                          const SegmentRoute& route, size_t local_idx,
                          uint64_t offset, uint64_t len);

  sim::SimEnvironment* env_;
  AStoreClient* client_;
  AStoreServer* server_;
  Options options_;
  TokenBucket bucket_;

  // Lock order contracts (declared in the constructor): astore.scrub is
  // held only around the scrubber's own bookkeeping and always before
  // astore.server / cm.state — never the reverse, and never across an RPC.
  mutable vedb::Mutex mu_{"astore.scrub"};
  uint64_t pass_count_ GUARDED_BY(mu_) = 0;

  std::atomic<bool> shutdown_{false};
  sim::ActorGroup background_;  // the scrub actor; Shutdown joins it

  // Observability (resolved once at construction; labels = {node}).
  obs::Counter* chunks_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* mismatches_ = nullptr;
  obs::Counter* repairs_ = nullptr;
  obs::Counter* reports_ = nullptr;
  obs::Counter* skipped_ = nullptr;
};

}  // namespace vedb::astore

#endif  // VEDB_ASTORE_SCRUBBER_H_
