// Deterministic lock-order (deadlock-potential) analysis for the sim
// runtime — the dynamic sibling of the static -Wthread-safety build.
//
// Every vedb::Mutex acquisition is reported here through the MutexObserver
// hook in common/thread_annotations.h. While an actor holds lock A and
// acquires lock B the graph records the directed edge A -> B. A cycle among
// the edges (A -> B somewhere, B -> A somewhere else) means two code paths
// disagree about acquisition order: with the right interleaving they
// deadlock, even if no run so far ever has. Because the sim schedule is
// decided by the virtual clock, the set of edges observed for a given seed
// is identical on every run — a reported inversion reproduces always, and
// the report text is byte-identical across runs.
//
// Like Linux lockdep, the graph works on lock *classes*, not instances: the
// constructor-given name of a vedb::Mutex ("cm.state", "astore.server") is
// the node key. All instances of a class merge, so an inversion between two
// *different* servers' locks is caught the first time either order runs.
// The flip side: acquiring two locks of the SAME class nested would be a
// self-edge, which is ignored (same-class nesting is validated by the
// dynamic race detector and the runtime's actual behavior instead).
//
// Enable per-test with LockOrderGraph::Enable()/Disable(), or process-wide
// with the environment variable VEDB_LOCK_ORDER=1 (checked when the first
// SimEnvironment is constructed; the fault-labeled ctest group runs this
// way). With VEDB_LOCK_ORDER_REPORT=<path> the full report is written to
// <path> at process exit; if any cycle was found the process prints the
// report to stderr and exits with status 65.

#ifndef VEDB_SIM_LOCK_ORDER_H_
#define VEDB_SIM_LOCK_ORDER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace vedb::sim {

/// Process-global acquisition-order graph over vedb::Mutex lock classes.
/// All methods are thread safe; the disabled fast path is one relaxed
/// atomic load (performed by the caller via IsEnabled()).
class LockOrderGraph {
 public:
  static LockOrderGraph& Instance();

  /// Turns tracking on, resetting all recorded edges so a test observes
  /// only its own acquisitions.
  static void Enable();
  static void Disable();
  static bool IsEnabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Called by the clock before it switches away from the running context:
  /// if that context holds a vedb::Mutex, prints the held lock classes and
  /// their acquisition sites and exits 65. The next actor to contend for
  /// such a lock would block the one thread that must run its holder.
  static void CheckNoneHeldAcrossWait();

  // --- hook entry points (called from the installed MutexObserver) ---
  void OnAcquire(const void* mu, const char* cls, const char* file, int line);
  void OnRelease(const void* mu);

  /// Declares the one-way order contract `before` -> `after` (e.g.
  /// "topic.partition" -> "astore.ring"): code may acquire `after` while
  /// holding `before`, never the reverse. Contract edges participate in the
  /// cycle search alongside observed edges, so a single runtime acquisition
  /// in the forbidden direction closes a cycle and fails the gate — the
  /// inversion is caught even if no run ever executes both orders. Contracts
  /// survive Enable()'s reset (they are declarations, not observations) and
  /// registration is idempotent, so subsystem constructors can declare their
  /// contracts unconditionally.
  static void RegisterContract(const std::string& before,
                               const std::string& after);

  /// Number of distinct ordered edges recorded since Enable(). Observed
  /// edges only; declared contracts are counted by contract_count().
  uint64_t edge_count() const;

  /// Number of registered order contracts (process lifetime).
  uint64_t contract_count() const;

  /// Number of strongly connected components with more than one lock class
  /// — i.e. groups of classes whose acquisition orders form a cycle.
  uint64_t CycleCount() const;

  /// Full report: every edge with its acquisition sites, then every cycle
  /// with the edges that close it. Deterministic and byte-identical across
  /// runs of the same seeded workload: edges and sites live in ordered
  /// containers keyed by class name and file:line, never by address, count,
  /// or discovery order.
  std::string Report() const;

 private:
  struct Edge {
    // Each element: "from@site -> to@site [held: a@site, b@site, ...]".
    std::set<std::string> sites;
  };

  LockOrderGraph() = default;

  void ResetLocked();
  // Tarjan SCC over the class graph, deterministic (sorted adjacency).
  std::vector<std::vector<std::string>> CyclesLocked() const;

  static std::atomic<bool> enabled_;

  // Waiver(thread-annotations): the graph's own bookkeeping uses std::mutex
  // — instrumenting it with vedb::Mutex would recurse into these hooks.
  mutable std::mutex mu_;
  std::atomic<uint64_t> epoch_gen_{1};  // bumped on Enable(); resets stacks
  std::map<std::pair<std::string, std::string>, Edge> edges_;
  // Declared one-way contracts; NOT cleared by ResetLocked().
  std::set<std::pair<std::string, std::string>> contracts_;
};

/// Installs the sim runtime's MutexObserver (idempotent): vedb::Mutex
/// acquire/release feed the RaceDetector and the LockOrderGraph whenever
/// the respective detector is enabled. Called from SimEnvironment's
/// constructor and from both detectors' Enable().
void InstallMutexObserver();

/// Reads VEDB_LOCK_ORDER / VEDB_LOCK_ORDER_REPORT and, when set, enables
/// the graph (idempotently — an already-enabled graph is not reset) and
/// registers the at-exit report writer. Called from SimEnvironment's
/// constructor so every test binary honors the environment contract.
void InitLockOrderFromEnv();

}  // namespace vedb::sim

#endif  // VEDB_SIM_LOCK_ORDER_H_
