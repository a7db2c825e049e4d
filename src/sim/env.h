// SimEnvironment: the container for one simulated cluster — the virtual
// clock, the fault injector, and the set of simulated machines (SimNode),
// each with CPU, NIC, and storage-media queueing devices.

#ifndef VEDB_SIM_ENV_H_
#define VEDB_SIM_ENV_H_

#include <map>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/clock.h"
#include "sim/device.h"
#include "sim/fault.h"

namespace vedb::sim {

/// Hardware configuration of one simulated machine.
struct NodeConfig {
  /// CPU pool used for RPC handlers, REDO apply, push-down execution.
  int cpu_cores = 16;
  /// Cost charged to the CPU pool for dispatching one RPC (kernel, thread
  /// scheduling). One-sided RDMA ops never touch the CPU pool.
  Duration rpc_dispatch_cost = 5 * kMicrosecond;
  /// NIC processing units and wire speed.
  int nic_channels = 4;
  double nic_ns_per_byte = 0.32;  // 25 Gbps ~ 3.125 GB/s
  Duration nic_base_latency = 600;
  /// Storage medium attached to this node (SSD or PMem parameters).
  DeviceParams storage;
};

/// Calibrated device parameter presets mirroring Table I of the paper.
struct HardwareProfile {
  /// NVMe SSD behind a distributed blob service: high base latency, large
  /// queue depth, occasional scheduling/GC spikes.
  static DeviceParams NvmeSsd(uint64_t seed);
  /// Intel Optane PMem DIMM set: sub-microsecond access, a handful of iMC
  /// channels so heavy concurrency degrades, modest write bandwidth.
  static DeviceParams OptanePmem(uint64_t seed);
};

/// One simulated machine. Created and owned by SimEnvironment.
class SimNode {
 public:
  SimNode(VirtualClock* clock, std::string name, const NodeConfig& config,
          uint64_t seed);

  const std::string& name() const { return name_; }
  const NodeConfig& config() const { return config_; }

  /// CPU pool (channels = cores).
  QueueingDevice* cpu() { return &cpu_; }
  /// NIC processing pipeline.
  QueueingDevice* nic() { return &nic_; }
  /// Storage medium (SSD or PMem).
  QueueingDevice* storage() { return &storage_; }

  /// Marks the node dead/alive. Dead nodes fail all I/O addressed to them.
  void SetAlive(bool alive) {
    MutexLock lk(&mu_);
    alive_ = alive;
  }
  bool alive() const {
    MutexLock lk(&mu_);
    return alive_;
  }

 private:
  std::string name_;
  NodeConfig config_;
  QueueingDevice cpu_;
  QueueingDevice nic_;
  QueueingDevice storage_;
  mutable Mutex mu_{"sim.node"};
  bool alive_ GUARDED_BY(mu_) = true;
};

/// Owns the clock, fault registry, and nodes of one simulation.
class SimEnvironment {
 public:
  explicit SimEnvironment(uint64_t seed = 2023) : seed_rng_(seed) {}

  VirtualClock* clock() { return &clock_; }
  FaultInjector* faults() { return &faults_; }

  /// Creates a node with the given hardware. Name must be unique.
  SimNode* AddNode(const std::string& name, const NodeConfig& config);

  /// Looks up a node; aborts if absent (topology errors are programming
  /// errors, not runtime conditions).
  SimNode* GetNode(const std::string& name);

  /// Derives a deterministic seed for a subsystem.
  uint64_t NextSeed() {
    MutexLock lk(&mu_);
    return seed_rng_.Next();
  }

 private:
  VirtualClock clock_;
  FaultInjector faults_;
  Mutex mu_{"sim.env"};
  Random seed_rng_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<SimNode>> nodes_ GUARDED_BY(mu_);
};

}  // namespace vedb::sim

#endif  // VEDB_SIM_ENV_H_
