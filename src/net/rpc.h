// Simulated RPC transport (the TCP/kernel path). Unlike one-sided RDMA, an
// RPC pays kernel and thread-scheduling costs on both ends and occupies the
// server's CPU pool, which is what makes the baseline LogStore's latency
// both higher and spikier than AStore's.

#ifndef VEDB_NET_RPC_H_
#define VEDB_NET_RPC_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/env.h"

namespace vedb::obs {
class Counter;
class HistogramMetric;
}  // namespace vedb::obs

namespace vedb::net {

/// Server-side request handler. Runs on the calling actor's thread but may
/// charge the server's devices (CPU, storage) for the work it performs; the
/// transport has already charged the dispatch cost.
using RpcHandler = std::function<Status(Slice request, std::string* response)>;

/// Data-plane handler used with CallParallel. Must NOT block on the clock;
/// instead it charges devices with SubmitAt(start, ...) and reports the
/// completion time through `*done`, which lets the transport overlap
/// several servers' work in virtual time.
using TimedRpcHandler = std::function<Status(
    Slice request, std::string* response, Timestamp start, Timestamp* done)>;

/// Per-call knobs. A deadline is the client giving up, not the server: the
/// calling actor stops waiting at the deadline and the call reports
/// TimedOut, but a handler that already started still runs to completion
/// (its side effects happen; the response is discarded). Callers should
/// therefore only put deadlines on idempotent or best-effort calls.
struct RpcCallOptions {
  /// Absolute virtual time after which the caller gives up. 0 = no deadline.
  Timestamp deadline = 0;
};

/// Cluster-wide RPC plane. Thread safe.
class RpcTransport {
 public:
  struct Options {
    /// Client-side kernel/syscall cost per call.
    Duration client_overhead = 4 * kMicrosecond;
    /// One-way wire propagation.
    Duration wire_latency = 5 * kMicrosecond;
    /// Mean of the exponential thread-scheduling delay added on the server
    /// before the handler runs (the contention the paper calls out).
    Duration sched_jitter_mean = 12 * kMicrosecond;
    /// Latency burned before reporting a dead target.
    Duration timeout_latency = 1 * kMillisecond;
    uint64_t seed = 99;
  };

  RpcTransport(sim::SimEnvironment* env, const Options& options)
      : env_(env), options_(options), rng_(options.seed) {}
  explicit RpcTransport(sim::SimEnvironment* env)
      : RpcTransport(env, Options()) {}

  /// Registers `handler` under (node, service). Re-registering replaces.
  void RegisterService(sim::SimNode* node, const std::string& service,
                       RpcHandler handler);

  /// Removes a service registration.
  void UnregisterService(sim::SimNode* node, const std::string& service);

  /// Registers a data-plane handler under (node, service) for use with
  /// CallParallel.
  void RegisterTimedService(sim::SimNode* node, const std::string& service,
                            TimedRpcHandler handler);

  /// Performs a synchronous call from `client` to `server`. Blocks the
  /// calling actor for the full round trip, or until `opts.deadline` (see
  /// RpcCallOptions for the exact give-up semantics).
  Status Call(sim::SimNode* client, sim::SimNode* server,
              const std::string& service, Slice request,
              std::string* response, const RpcCallOptions& opts);
  Status Call(sim::SimNode* client, sim::SimNode* server,
              const std::string& service, Slice request,
              std::string* response) {
    return Call(client, server, service, request, response, RpcCallOptions{});
  }

  /// One element of a scatter: an independent request to a timed service.
  struct ScatterCall {
    sim::SimNode* server = nullptr;
    std::string service;
    std::string request;
  };

  /// Issues all `calls` in parallel and blocks until `required_acks` of them
  /// have completed (0 means all). Slower calls finish in the background.
  /// Statuses/responses are index aligned with `calls`. Dead servers report
  /// Unavailable without delaying the quorum. A deadline in `opts` caps the
  /// wait: calls that would complete later report TimedOut and their
  /// responses are dropped.
  std::vector<Status> CallScatter(sim::SimNode* client,
                                  const std::vector<ScatterCall>& calls,
                                  std::vector<std::string>* responses,
                                  int required_acks = 0,
                                  const RpcCallOptions& opts = {});

  /// Fans the same request out to `servers` in parallel; see CallScatter.
  std::vector<Status> CallParallel(sim::SimNode* client,
                                   const std::vector<sim::SimNode*>& servers,
                                   const std::string& service, Slice request,
                                   std::vector<std::string>* responses,
                                   int required_acks = 0);

 private:
  /// Per-service metric handles, resolved on a service's first call.
  struct ServiceMetrics {
    obs::Counter* calls;
    obs::HistogramMetric* latency_ns;
  };

  Duration SchedJitter();
  /// Counts one call to `service` that took `latency`.
  void RecordCall(const std::string& service, Duration latency);

  sim::SimEnvironment* env_;
  Options options_;
  vedb::Mutex mu_{"net.rpc"};
  Random rng_ GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, RpcHandler> services_
      GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, TimedRpcHandler>
      timed_services_ GUARDED_BY(mu_);
  std::unordered_map<std::string, ServiceMetrics> metrics_ GUARDED_BY(mu_);
};

}  // namespace vedb::net

#endif  // VEDB_NET_RPC_H_
