#include "sim/env.h"

namespace vedb::sim {

DeviceParams HardwareProfile::NvmeSsd(uint64_t seed) {
  DeviceParams p;
  p.channels = 8;
  p.base_latency = 70 * kMicrosecond;  // NVMe write into a blob service
  p.ns_per_byte = 0.66;                // ~1.5 GB/s effective per box
  p.jitter_mean = 25 * kMicrosecond;
  p.spike_probability = 0.012;         // background GC / flush stalls
  p.spike_latency = 2 * kMillisecond;
  p.seed = seed;
  return p;
}

DeviceParams HardwareProfile::OptanePmem(uint64_t seed) {
  DeviceParams p;
  p.channels = 6;             // iMC channels: concurrency beyond this queues
  p.base_latency = 300;       // ~0.3us media latency
  p.ns_per_byte = 0.45;       // ~2.2 GB/s sustained write per DIMM set
  p.jitter_mean = 80;
  p.spike_probability = 0.0;  // no scheduling layer in front of PMem
  p.spike_latency = 0;
  p.seed = seed;
  return p;
}

SimNode::SimNode(VirtualClock* clock, std::string name,
                 const NodeConfig& config, uint64_t seed)
    : name_(std::move(name)),
      config_(config),
      cpu_(clock, name_ + ".cpu",
           DeviceParams{.channels = config.cpu_cores,
                        .base_latency = 0,
                        .ns_per_byte = 0,
                        .jitter_mean = 0,
                        .spike_probability = 0,
                        .spike_latency = 0,
                        .seed = seed ^ 0x1}),
      nic_(clock, name_ + ".nic",
           DeviceParams{.channels = config.nic_channels,
                        .base_latency = config.nic_base_latency,
                        .ns_per_byte = config.nic_ns_per_byte,
                        .jitter_mean = 0,
                        .spike_probability = 0,
                        .spike_latency = 0,
                        .seed = seed ^ 0x2}),
      storage_(clock, name_ + ".storage", [&] {
        DeviceParams p = config.storage;
        p.seed = seed ^ 0x3;
        return p;
      }()) {}

SimNode* SimEnvironment::AddNode(const std::string& name,
                                 const NodeConfig& config) {
  MutexLock lk(&mu_);
  VEDB_CHECK(nodes_.find(name) == nodes_.end(), "duplicate node %s",
             name.c_str());
  auto node =
      std::make_unique<SimNode>(&clock_, name, config, seed_rng_.Next());
  SimNode* ptr = node.get();
  nodes_[name] = std::move(node);
  return ptr;
}

SimNode* SimEnvironment::GetNode(const std::string& name) {
  MutexLock lk(&mu_);
  auto it = nodes_.find(name);
  VEDB_CHECK(it != nodes_.end(), "unknown node %s", name.c_str());
  return it->second.get();
}

}  // namespace vedb::sim
