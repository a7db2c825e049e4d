// Tests for persistent pub/sub topics on AStore: produce/fetch ordering,
// durable consumer-group offsets, crash-during-offset-commit exactly-once
// visibility (byte-identical across seeded runs), retention trimming, and
// the forbid_overwrite NoSpace backpressure path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "astore/client.h"
#include "astore/cluster_manager.h"
#include "astore/server.h"
#include "common/units.h"
#include "net/rdma.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/env.h"
#include "topic/record.h"
#include "topic/topic.h"

namespace vedb::topic {
namespace {

// Self-contained cluster so the crash test can build the exact same seeded
// world twice in one process.
struct MiniCluster {
  explicit MiniCluster(uint64_t seed, int num_servers = 3) : env(seed) {
    rpc = std::make_unique<net::RpcTransport>(&env);
    fabric = std::make_unique<net::RdmaFabric>(&env);

    sim::NodeConfig cm_cfg;
    cm_cfg.cpu_cores = 8;
    cm_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    cm_node = env.AddNode("cm", cm_cfg);
    cm = std::make_unique<astore::ClusterManager>(
        &env, rpc.get(), cm_node, astore::ClusterManager::Options{});

    for (int i = 0; i < num_servers; ++i) {
      sim::NodeConfig cfg;
      cfg.cpu_cores = 32;
      cfg.storage = sim::HardwareProfile::OptanePmem(env.NextSeed());
      sim::SimNode* node = env.AddNode("astore-" + std::to_string(i), cfg);
      astore::AStoreServer::Options opts;
      opts.pmem_capacity = 64 * kMiB;
      servers.push_back(std::make_unique<astore::AStoreServer>(
          &env, rpc.get(), fabric.get(), node, opts));
      cm->RegisterServer(servers.back().get());
    }

    sim::NodeConfig client_cfg;
    client_cfg.cpu_cores = 16;
    client_cfg.storage = sim::HardwareProfile::NvmeSsd(env.NextSeed());
    client_node = env.AddNode("dbe", client_cfg);
    client = std::make_unique<astore::AStoreClient>(
        &env, rpc.get(), fabric.get(), cm_node, client_node,
        /*client_id=*/1, astore::AStoreClient::Options{});
  }

  sim::SimEnvironment env;
  std::unique_ptr<net::RpcTransport> rpc;
  std::unique_ptr<net::RdmaFabric> fabric;
  sim::SimNode* cm_node = nullptr;
  sim::SimNode* client_node = nullptr;
  std::unique_ptr<astore::ClusterManager> cm;
  std::vector<std::unique_ptr<astore::AStoreServer>> servers;
  std::unique_ptr<astore::AStoreClient> client;
};

TopicOptions SmallTopicOptions(int partitions = 1) {
  TopicOptions o;
  o.name = "t";
  o.partitions = partitions;
  o.data_ring = {16 * kKiB, 4, 3, true};
  o.meta_ring = {16 * kKiB, 4, 3, false};
  return o;
}

TEST(TopicTest, ProduceFetchRoundtripInLsnOrder) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(21);
  ASSERT_TRUE(c.client->Connect().ok());
  auto t = Topic::Create(c.client.get(), SmallTopicOptions(2));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  Topic* topic = t.value().get();

  for (int i = 0; i < 6; ++i) {
    auto lsn = topic->Produce(i % 2, Slice("msg-" + std::to_string(i)));
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  }
  auto msgs = topic->Fetch(0, 1, 100);
  ASSERT_TRUE(msgs.ok()) << msgs.status().ToString();
  ASSERT_EQ(msgs.value().size(), 3u);
  for (size_t i = 0; i < msgs.value().size(); ++i) {
    EXPECT_EQ(msgs.value()[i].lsn, i + 1);
    EXPECT_EQ(msgs.value()[i].payload, "msg-" + std::to_string(2 * i));
  }
  // Partial fetch respects from_lsn and max_messages.
  auto tail = topic->Fetch(1, 2, 1);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.value().size(), 1u);
  EXPECT_EQ(tail.value()[0].payload, "msg-3");

  // Bad inputs are typed errors, not crashes.
  EXPECT_TRUE(topic->Produce(5, Slice("x")).status().IsInvalidArgument());
  EXPECT_TRUE(topic->Produce(0, Slice("")).status().IsInvalidArgument());
  EXPECT_TRUE(
      topic->CommitOffset("g", 9, 1).IsInvalidArgument());
}

TEST(TopicTest, OffsetCommitIsDurableAcrossRecovery) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(22);
  ASSERT_TRUE(c.client->Connect().ok());
  const TopicOptions opts = SmallTopicOptions();
  auto t = Topic::Create(c.client.get(), opts);
  ASSERT_TRUE(t.ok());
  Topic* topic = t.value().get();

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(topic->Produce(0, Slice("m" + std::to_string(i))).ok());
  }
  EXPECT_EQ(topic->CommittedOffset("g", 0), 1u);  // never committed
  ASSERT_TRUE(topic->CommitOffset("g", 0, 5).ok());
  ASSERT_TRUE(topic->CommitOffset("g", 0, 6).ok());  // last wins
  EXPECT_EQ(topic->CommittedOffset("g", 0), 6u);

  const Topic::Manifest manifest = topic->GetManifest();
  t.value().reset();  // "crash" the topic object

  auto rec = Topic::Recover(c.client.get(), manifest, opts);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->CommittedOffset("g", 0), 6u);
  // The consumer resumes exactly at its committed position.
  auto msgs = rec.value()->Fetch(0, rec.value()->CommittedOffset("g", 0), 100);
  ASSERT_TRUE(msgs.ok());
  ASSERT_EQ(msgs.value().size(), 3u);
  EXPECT_EQ(msgs.value()[0].payload, "m5");
  // New produces continue past the recovered tail.
  auto lsn = rec.value()->Produce(0, Slice("after"));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 9u);
}

// Crash between the durable offset append and the ack: the caller sees a
// failure, but recovery replays the meta ring to the committed position —
// the offset is exactly-once-visible. The whole scenario must be
// byte-identical across two seeded executions.
std::string RunCrashDuringCommitScenario(uint64_t seed) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(seed);
  EXPECT_TRUE(c.client->Connect().ok());
  const TopicOptions opts = SmallTopicOptions();
  auto t = Topic::Create(c.client.get(), opts);
  EXPECT_TRUE(t.ok());
  Topic* topic = t.value().get();

  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(topic->Produce(0, Slice("m" + std::to_string(i))).ok());
  }
  EXPECT_TRUE(topic->CommitOffset("g", 0, 4).ok());

  c.env.faults()->Arm("topic.offset.ack", 1.0,
                      Status::IOError("crash before ack"), /*remaining=*/1);
  const Status crashed = topic->CommitOffset("g", 0, 8);
  EXPECT_TRUE(crashed.IsIOError()) << crashed.ToString();
  // The ack never arrived, so the in-memory position did not move...
  EXPECT_EQ(topic->CommittedOffset("g", 0), 4u);

  const Topic::Manifest manifest = topic->GetManifest();
  t.value().reset();
  auto rec = Topic::Recover(c.client.get(), manifest, opts);
  EXPECT_TRUE(rec.ok());
  // ...but the record was durable first: recovery lands on 8, and the
  // consumer re-reads nothing it already processed.
  EXPECT_EQ(rec.value()->CommittedOffset("g", 0), 8u);

  std::string digest;
  digest += "committed=" +
            std::to_string(rec.value()->CommittedOffset("g", 0)) + ";";
  auto msgs = rec.value()->Fetch(0, rec.value()->CommittedOffset("g", 0), 100);
  EXPECT_TRUE(msgs.ok());
  for (const Message& m : msgs.value()) {
    digest += std::to_string(m.lsn) + ":" + m.payload + ";";
  }
  digest += obs::CollectSnapshot(obs::MetricsRegistry::Default(),
                                 c.env.clock()->Now(), "crash")
                .ToJson();
  return digest;
}

TEST(TopicTest, CrashDuringOffsetCommitIsExactlyOnceAndDeterministic) {
  const std::string first = RunCrashDuringCommitScenario(23);
  const std::string second = RunCrashDuringCommitScenario(23);
  EXPECT_EQ(first, second);
}

TEST(TopicTest, RetentionTrimAdvancesWatermarkAndFreesSegments) {
  obs::MetricsRegistry::Default().RemoveAllForTesting();
  MiniCluster c(24);
  ASSERT_TRUE(c.client->Connect().ok());
  TopicOptions opts = SmallTopicOptions();
  opts.data_ring = {8 * kKiB, 4, 3, true};
  auto t = Topic::Create(c.client.get(), opts);
  ASSERT_TRUE(t.ok());
  Topic* topic = t.value().get();

  // 2 KiB payloads, 8 KiB segments: ~3 records per segment; fill the ring.
  const std::string payload(2 * kKiB, 'r');
  Status last = Status::OK();
  int produced = 0;
  for (int i = 0; i < 64 && last.ok(); ++i) {
    last = topic->Produce(0, Slice(payload)).status();
    if (last.ok()) produced++;
  }
  // forbid_overwrite: the ring refuses to eat its own tail.
  ASSERT_TRUE(last.IsNoSpace()) << last.ToString();
  ASSERT_GT(produced, 6);

  // Trim the first two segments' worth; the watermark is durable and the
  // freed slots make room for new records.
  const uint64_t trim_lsn = 7;
  ASSERT_TRUE(topic->TrimTo(0, trim_lsn).ok());
  EXPECT_EQ(topic->TrimWatermark(0), trim_lsn);
  auto msgs = topic->Fetch(0, 1, 100);
  ASSERT_TRUE(msgs.ok());
  ASSERT_FALSE(msgs.value().empty());
  EXPECT_GE(msgs.value()[0].lsn, trim_lsn);

  uint64_t freed = 0;
  obs::MetricsRegistry::Default().VisitCounters(
      [&](const std::string& name, const obs::LabelSet&, uint64_t value) {
        if (name == "topic.segments_freed") freed += value;
      });
  EXPECT_GT(freed, 0u);

  auto lsn = topic->Produce(0, Slice(payload));
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();

  // Trim is monotonic: a stale watermark is a no-op, not a regression.
  ASSERT_TRUE(topic->TrimTo(0, 2).ok());
  EXPECT_EQ(topic->TrimWatermark(0), trim_lsn);
}

TEST(TopicTest, MetaRecordCodecRejectsCorruption) {
  const std::string commit = EncodeOffsetCommit(3, "group-x", 42);
  auto rec = DecodeMetaRecord(Slice(commit));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().type, MetaType::kOffsetCommit);
  EXPECT_EQ(rec.value().partition, 3u);
  EXPECT_EQ(rec.value().group, "group-x");
  EXPECT_EQ(rec.value().next_lsn, 42u);

  const std::string trim = EncodeTrim(1, 99);
  auto trec = DecodeMetaRecord(Slice(trim));
  ASSERT_TRUE(trec.ok());
  EXPECT_EQ(trec.value().type, MetaType::kTrim);
  EXPECT_EQ(trec.value().trim_lsn, 99u);

  // Any single flipped byte must be rejected as a whole.
  for (size_t i = 0; i < commit.size(); ++i) {
    std::string bad = commit;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(DecodeMetaRecord(Slice(bad)).ok()) << "byte " << i;
  }
  EXPECT_TRUE(
      DecodeMetaRecord(Slice("short")).status().IsCorruption());
}

}  // namespace
}  // namespace vedb::topic
