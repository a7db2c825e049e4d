// Regression tests for the REDO shipper's progress rule. When a ship pass
// moves nothing, the shipper must wait for its next period instead of
// looping: a loop that never advances virtual time never gives up the
// thread, so the actor that would fill the gap never runs and the whole simulation
// hangs. The test builds such a gap on purpose; the ctest TIMEOUT turns a
// regression into a failure instead of a hang.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "workload/cluster.h"

namespace vedb::engine {
namespace {

using workload::ClusterOptions;
using workload::VedbCluster;

class ShipperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.use_astore_log = true;
    opts.enable_ebp = false;
    opts.astore_log.ring.segment_size = 256 * kKiB;
    opts.astore_log.ring.ring_size = 4;
    cluster_ = std::make_unique<VedbCluster>(opts);
    cluster_->StartBackground();
    Schema s;
    s.columns = {{"id", ValueType::kInt}, {"v", ValueType::kString}};
    s.pk = {0};
    table_ = engine()->CreateTable("t", s);
  }
  void TearDown() override { cluster_->Shutdown(); }

  sim::SimEnvironment* env() { return cluster_->env(); }
  DBEngine* engine() { return cluster_->engine(); }

  Status Insert(int id) {
    return engine()->RunTransaction([&](Txn* txn) {
      return table_->Insert(txn, {Value(id), Value("row")});
    });
  }

  // Takes an LSN from the log without the engine's on_assigned hook, so no
  // ship record ever exists for it: the shipper's scan stops there for
  // good while later, queued LSNs are already durable.
  void ConsumeLsnWithoutShipRecord() {
    auto gap = engine()->log()->AppendBatch({"no ship record"}, nullptr);
    ASSERT_TRUE(gap.ok()) << gap.status().ToString();
  }

  std::unique_ptr<VedbCluster> cluster_;
  Table* table_ = nullptr;
};

TEST_F(ShipperTest, UnfilledLsnGapDoesNotStallTheClock) {
  ConsumeLsnWithoutShipRecord();
  ASSERT_TRUE(Insert(1).ok());  // queued behind the gap, durable

  // Several shipper periods pass, each finding the gap: virtual time must
  // keep moving and the engine must keep serving.
  const Duration wait = 10 * engine()->options().shipper_period;
  const Timestamp before = env()->clock()->Now();
  env()->clock()->SleepFor(wait);
  EXPECT_EQ(env()->clock()->Now(), before + wait);
  ASSERT_TRUE(Insert(2).ok());
  auto row = table_->Get(nullptr, {Value(1)});
  EXPECT_TRUE(row.ok()) << row.status().ToString();
}

}  // namespace
}  // namespace vedb::engine
