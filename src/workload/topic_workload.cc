#include "workload/topic_workload.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/env.h"
#include "topic/topic.h"

namespace vedb::workload {

namespace {

/// One tenant's live wiring inside the run.
struct TenantRig {
  TopicTenantSpec spec;
  std::unique_ptr<astore::AStoreClient> client;
  std::unique_ptr<topic::Topic> topic;
  vedb::Mutex mu{"workload.topic.tenant"};
  TenantStats stats GUARDED_BY(mu);
};

}  // namespace

Result<TopicWorkloadResult> RunTopicWorkload(
    const TopicWorkloadOptions& options) {
  if (options.tenants.empty()) {
    return Status::InvalidArgument("no tenants configured");
  }

  sim::SimEnvironment env(options.seed);
  auto rpc = std::make_unique<net::RpcTransport>(&env);
  auto fabric = std::make_unique<net::RdmaFabric>(&env);

  sim::NodeConfig cm_cfg;
  cm_cfg.cpu_cores = 8;
  cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
  sim::SimNode* cm_node = env.AddNode("cm", cm_cfg);
  astore::ClusterManager cm(&env, rpc.get(), cm_node,
                            astore::ClusterManager::Options{});

  std::vector<std::unique_ptr<astore::AStoreServer>> servers;
  for (int i = 0; i < options.astore_nodes; ++i) {
    sim::NodeConfig cfg;
    cfg.cpu_cores = 32;
    cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
    sim::SimNode* node = env.AddNode("astore-" + std::to_string(i), cfg);
    astore::AStoreServer::Options opts;
    opts.pmem_capacity = 64 * kMiB;
    servers.push_back(std::make_unique<astore::AStoreServer>(
        &env, rpc.get(), fabric.get(), node, opts));
    cm.RegisterServer(servers.back().get());
  }

  qos::AdmissionController admission(
      env.clock(), qos::AdmissionController::Options{
                       options.total_inflight_bytes});

  std::vector<std::unique_ptr<TenantRig>> rigs;
  for (size_t i = 0; i < options.tenants.size(); ++i) {
    const TopicTenantSpec& spec = options.tenants[i];
    auto rig = std::make_unique<TenantRig>();
    rig->spec = spec;
    rig->stats.tenant = spec.name;
    VEDB_RETURN_IF_ERROR(admission.RegisterTenant(spec.name, spec.limits));

    sim::NodeConfig cfg;
    cfg.cpu_cores = 16;
    cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    sim::SimNode* node = env.AddNode("tenant-" + spec.name, cfg);
    astore::AStoreClient::Options copts;
    if (options.enable_qos) {
      copts.admission = &admission;
      copts.tenant = spec.name;
    }
    rig->client = std::make_unique<astore::AStoreClient>(
        &env, rpc.get(), fabric.get(), cm_node, node,
        /*client_id=*/static_cast<astore::ClientId>(100 + i), copts);
    VEDB_RETURN_IF_ERROR(rig->client->Connect());

    topic::TopicOptions topts;
    topts.name = spec.name;
    topts.partitions = spec.partitions;
    VEDB_ASSIGN_OR_RETURN(rig->topic,
                          topic::Topic::Create(rig->client.get(), topts));
    rigs.push_back(std::move(rig));
  }

  const Timestamp t0 = env.clock()->Now();
  const Timestamp measure_start = t0 + options.warmup;
  const Timestamp end = measure_start + options.duration;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  {
    sim::ActorGroup group(env.clock());
    for (auto& rig_ptr : rigs) {
      TenantRig* rig = rig_ptr.get();
      const TopicTenantSpec& spec = rig->spec;
      const std::string payload(spec.message_bytes, 'v');

      for (int p = 0; p < spec.producers; ++p) {
        group.Spawn([&env, rig, &spec, payload, p, measure_start, end] {
          Histogram local;
          uint64_t produced = 0, errors = 0;
          int partition = p % spec.partitions;
          while (env.clock()->Now() < end) {
            const Timestamp begin = env.clock()->Now();
            auto res = rig->topic->Produce(partition, Slice(payload));
            const Timestamp finish = env.clock()->Now();
            partition = (partition + spec.producers) % spec.partitions;
            if (begin >= measure_start) {
              if (res.ok()) {
                produced++;
                local.Add(finish - begin);
              } else {
                errors++;
              }
            }
            // A local failure (NoSpace before retention catches up) costs
            // no virtual time; always sleep so the loop cannot freeze the
            // clock.
            const Duration pause = res.ok() && spec.produce_interval > 0
                                       ? spec.produce_interval
                                       : std::max<Duration>(
                                             spec.produce_interval,
                                             100 * kMicrosecond);
            env.clock()->SleepFor(pause);
          }
          vedb::MutexLock lk(&rig->mu);
          rig->stats.produced += produced;
          rig->stats.produce_errors += errors;
          rig->stats.produce_latency.Merge(local);
        });
      }

      for (int c = 0; c < spec.consumers; ++c) {
        group.Spawn([&env, rig, &spec, c, measure_start, end] {
          const std::string group_name = "g" + std::to_string(c);
          Histogram local;
          uint64_t consumed = 0, commits = 0;
          // Each consumer owns the partitions congruent to its index, so
          // groups never contend on offsets.
          std::vector<int> owned;
          for (int part = c % spec.consumers; part < spec.partitions;
               part += spec.consumers) {
            owned.push_back(part);
          }
          std::vector<uint64_t> cursor(owned.size(), 1);
          while (env.clock()->Now() < end) {
            const Timestamp begin = env.clock()->Now();
            uint64_t round = 0;
            for (size_t k = 0; k < owned.size(); ++k) {
              auto res = rig->topic->Fetch(owned[k], cursor[k],
                                           spec.fetch_batch);
              if (!res.ok()) continue;
              const std::vector<topic::Message>& msgs = res.value();
              if (msgs.empty()) continue;
              round += msgs.size();
              cursor[k] = msgs.back().lsn + 1;
              if (rig->topic
                      ->CommitOffset(group_name, owned[k], cursor[k])
                      .ok()) {
                commits++;
              }
            }
            const Timestamp finish = env.clock()->Now();
            if (begin >= measure_start) {
              consumed += round;
              local.Add(finish - begin);
            }
            env.clock()->SleepFor(spec.consume_interval > 0
                                      ? spec.consume_interval
                                      : 100 * kMicrosecond);
          }
          vedb::MutexLock lk(&rig->mu);
          rig->stats.consumed += consumed;
          rig->stats.offset_commits += commits;
          rig->stats.consume_latency.Merge(local);
        });
      }

      group.Spawn([&env, rig, &spec, &options, end] {
        // Retention: trim each partition to the committed position of the
        // group that owns it (consumer c owns partitions ≡ c mod consumers).
        if (spec.consumers == 0) return;  // nothing commits, nothing trims
        while (env.clock()->Now() < end) {
          env.clock()->SleepFor(options.retention_interval);
          for (int part = 0; part < spec.partitions; ++part) {
            const std::string group_name =
                "g" + std::to_string(part % spec.consumers);
            const uint64_t committed =
                rig->topic->CommittedOffset(group_name, part);
            if (committed > 1) {
              (void)rig->topic->TrimTo(part, committed);  // discard-ok:
              // best effort; an unavailable trim retries next period.
            }
          }
        }
      });
    }
  }

  TopicWorkloadResult result;
  result.elapsed = options.duration;
  for (auto& rig : rigs) {
    vedb::MutexLock lk(&rig->mu);
    if (options.enable_qos) {
      rig->stats.throttle_events = admission.ThrottleCount(rig->spec.name);
    }
    // Mirror per-tenant latency into the registry so benches export it in
    // the standard snapshot alongside topic.* and qos.*.
    const obs::LabelSet labels = {{"tenant", rig->spec.name}};
    reg.GetHistogram("workload.topic.produce_ns", labels)
        ->Merge(rig->stats.produce_latency);
    reg.GetHistogram("workload.topic.consume_ns", labels)
        ->Merge(rig->stats.consume_latency);
    reg.GetCounter("workload.topic.produced", labels)
        ->Add(rig->stats.produced);
    reg.GetCounter("workload.topic.consumed", labels)
        ->Add(rig->stats.consumed);
    result.tenants.push_back(rig->stats);
  }
  return result;
}

}  // namespace vedb::workload
