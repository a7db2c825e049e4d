// Full-stack integration drills: multi-client TPC-C under storage-node
// failures, engine crash recovery with invariant checks, shadow-verified
// random workloads through the BP->EBP->PageStore hierarchy, and transient
// fault injection on the redo-shipping path.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "workload/cluster.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace vedb::workload {
namespace {

using engine::Row;
using engine::Schema;
using engine::Table;
using engine::Txn;
using engine::Value;
using engine::ValueType;

Schema KvSchema() {
  Schema s;
  s.columns = {{"k", ValueType::kInt}, {"v", ValueType::kInt},
               {"pad", ValueType::kString}};
  s.pk = {0};
  return s;
}

TEST(IntegrationTest, TpccSurvivesAStoreNodeFailureMidRun) {
  ClusterOptions opts;
  opts.astore_nodes = 4;  // spare capacity for reopened segments
  opts.astore_server.pmem_capacity = 128 * kMiB;
  VedbCluster cluster(opts);
  cluster.StartBackground();

  TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 20;
  scale.items = 100;
  scale.initial_orders_per_district = 5;
  TpccDatabase db(cluster.engine(), scale, 3);
  ASSERT_TRUE(db.Load().ok());

  std::vector<std::unique_ptr<TpccDriver>> drivers;
  for (int i = 0; i < 4; ++i) {
    drivers.push_back(std::make_unique<TpccDriver>(&db, 200 + i));
  }

  // Kill one AStore node one-third into the run; the log segment hosted
  // there freezes, the SDK reopens on healthy nodes, and commits continue.
  std::atomic<bool> killed{false};
  LoadResult result = RunClosedLoop(
      cluster.env(), 4, 20 * kMillisecond, 400 * kMillisecond,
      [&](int c) {
        if (!killed.exchange(true)) {
          cluster.env()->GetNode("pmem-0")->SetAlive(false);
        }
        return drivers[c]->RunMixed(nullptr);
      });
  // A handful of commits may fail during the freeze-and-reopen window or
  // as deadlock victims; the vast majority must succeed.
  EXPECT_GT(result.operations, 100u);
  EXPECT_LT(result.errors, result.operations / 4);

  cluster.Shutdown();
}

TEST(IntegrationTest, TpccInvariantsHoldAcrossEngineCrash) {
  ClusterOptions opts;
  opts.astore_server.pmem_capacity = 128 * kMiB;
  VedbCluster cluster(opts);
  cluster.StartBackground();

  TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 20;
  scale.items = 100;
  scale.initial_orders_per_district = 5;
  auto declare = [](engine::DBEngine* engine) {
    TpccDatabase::DeclareTables(engine, false);
  };
  TpccDatabase db(cluster.engine(), scale, 5);
  ASSERT_TRUE(db.Load().ok());

  TpccDriver driver(&db, 17);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(driver.RunNewOrder().ok());
  }

  ASSERT_TRUE(cluster.CrashAndRecoverEngine(declare).ok());

  // Invariant: every district's next_o_id - 1 equals the max order id in
  // orders for that district, and each order's lines exist.
  Table* district = cluster.engine()->GetTable("district");
  Table* orders = cluster.engine()->GetTable("orders");
  Table* orderline = cluster.engine()->GetTable("orderline");
  ASSERT_TRUE(district
                  ->ScanAll([&](const Row& d) {
                    const int64_t w = d[0].AsInt(), dd = d[1].AsInt();
                    const int64_t next = d[5].AsInt();
                    int64_t max_o = 0;
                    EXPECT_TRUE(orders
                                    ->ScanPkRange(
                        engine::MakeKey({Value(w), Value(dd), Value(0)}),
                        engine::MakeKey(
                            {Value(w), Value(dd), Value(INT32_MAX)}),
                        [&](const Row& o) {
                          max_o = std::max(max_o, o[2].AsInt());
                          return true;
                        })
                                    .ok());
                    EXPECT_EQ(next - 1, max_o)
                        << "district (" << w << "," << dd << ")";
                    return true;
                  })
                  .ok());
  // Every order has at least one line.
  int orders_checked = 0;
  ASSERT_TRUE(orders
                  ->ScanAll([&](const Row& o) {
                    if (orders_checked++ % 7 != 0) return true;  // sample
                    int lines = 0;
                    EXPECT_TRUE(orderline
                                    ->ScanPkRange(
                        engine::MakeKey({o[0], o[1], o[2]}),
                        engine::MakeKey(
                            {o[0], o[1], Value(o[2].AsInt() + 1)}),
                        [&](const Row&) {
                          lines++;
                          return true;
                        })
                                    .ok());
                    EXPECT_GT(lines, 0);
                    return true;
                  })
                  .ok());

  cluster.Shutdown();
}

TEST(IntegrationTest, ShadowVerifiedRandomWorkloadThroughEbp) {
  // Random inserts/updates/deletes against a tiny BP + EBP, verified
  // against an in-memory shadow map at the end (every read travels
  // BP -> EBP -> PageStore).
  ClusterOptions opts;
  opts.enable_ebp = true;
  opts.ebp.capacity = 24 * kMiB;
  opts.engine.buffer_pool.capacity_pages = 16;
  opts.astore_server.pmem_capacity = 128 * kMiB;
  VedbCluster cluster(opts);
  cluster.StartBackground();

  Table* table = cluster.engine()->CreateTable("kv", KvSchema());
  std::map<int64_t, int64_t> shadow;
  Random rng(99);
  const std::string pad(700, 'p');

  for (int op = 0; op < 1500; ++op) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(2500));
    const int64_t value = static_cast<int64_t>(rng.Next() % 100000);
    const uint64_t kind = rng.Uniform(10);
    Status s = cluster.engine()->RunTransaction([&](Txn* txn) -> Status {
      if (kind < 5) {  // upsert
        if (shadow.count(key)) {
          return table->Update(txn, {Value(key)}, [&](Row* row) {
            (*row)[1] = Value(value);
          });
        }
        return table->Insert(txn, {Value(key), Value(value), Value(pad)});
      }
      if (kind < 7) {  // delete
        Status del = table->Delete(txn, {Value(key)});
        return del.IsNotFound() ? Status::OK() : del;
      }
      // read (verified inline)
      auto row = table->Get(txn, {Value(key)});
      if (shadow.count(key)) {
        EXPECT_TRUE(row.ok()) << "key " << key;
        if (row.ok()) {
          EXPECT_EQ((*row)[1].AsInt(), shadow[key]);
        }
      } else {
        EXPECT_TRUE(row.status().IsNotFound()) << "key " << key;
      }
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    // Mirror the committed effect in the shadow.
    if (kind < 5) {
      shadow[key] = value;
    } else if (kind < 7) {
      shadow.erase(key);
    }
  }

  // Final sweep: whole table vs shadow.
  for (const auto& [key, value] : shadow) {
    auto row = table->Get(nullptr, {Value(key)});
    ASSERT_TRUE(row.ok()) << "key " << key;
    EXPECT_EQ((*row)[1].AsInt(), value);
  }
  EXPECT_EQ(table->approximate_row_count(), shadow.size());
  // The tiny BP guarantees the EBP actually served traffic (the async
  // flusher needs churn + time before hits can occur, both present here).
  EXPECT_GT(cluster.engine()->buffer_pool()->stats().ebp_hits, 0u);

  cluster.Shutdown();
}

TEST(IntegrationTest, TransientShipFailuresAreRetried) {
  ClusterOptions opts;
  VedbCluster cluster(opts);
  cluster.StartBackground();

  Table* table = cluster.engine()->CreateTable("kv", KvSchema());
  // 20% of PageStore ship batches fail transiently for a while.
  cluster.env()->faults()->Arm("ps.ship", 0.2,
                               Status::IOError("transient ship fault"), 20);

  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.engine()
                    ->RunTransaction([&](Txn* txn) {
                      return table->Insert(
                          txn, {Value(i), Value(i), Value("x")});
                    })
                    .ok());
  }
  // Give the shipper time to retry everything through.
  cluster.env()->clock()->SleepFor(500 * kMillisecond);
  cluster.engine()->EnsureShipped(cluster.engine()->log()->DurableLsn());

  // All rows must be readable from PageStore alone (drop the BP by
  // crashing and recovering the engine).
  ASSERT_TRUE(cluster.CrashAndRecoverEngine([](engine::DBEngine* engine) {
    engine->CreateTable("kv", KvSchema());
  }).ok());
  Table* recovered = cluster.engine()->GetTable("kv");
  EXPECT_EQ(recovered->approximate_row_count(), 60u);

  cluster.Shutdown();
}

TEST(IntegrationTest, RepeatedStartShutdownHasNoTeardownRace) {
  // Regression: engine shutdown from a non-actor thread used to lose a race
  // between its NotifyAll to the parked EBP flusher and the polling loops
  // (shipper/checkpoint) exiting, aborting with a spurious virtual-time
  // deadlock in roughly one of twenty teardowns. Cycle enough clusters that
  // the old bug would fire with high probability.
  for (int round = 0; round < 25; ++round) {
    ClusterOptions opts;
    opts.enable_ebp = true;
    opts.ebp.capacity = 4 * kMiB;
    VedbCluster cluster(opts);
    cluster.StartBackground();
    ASSERT_TRUE(cluster.engine()
                    ->RunTransaction([&](Txn* /*txn*/) -> Status {
                      return Status::OK();
                    })
                    .ok());
    cluster.Shutdown();
  }
}

// One seeded single-client TPC-C run must leave the same committed state
// whatever the storage configuration: either log backend, the EBP with a
// small buffer pool, and an engine crash and recovery part-way through.
struct DigestConfig {
  const char* name;
  bool astore_log;
  bool ebp;    // with a 12-page buffer pool, so pages cycle through it
  bool crash;  // crash and recover the engine after half the transactions
};

uint32_t TpccStateDigest(const DigestConfig& config) {
  ClusterOptions opts;
  opts.use_astore_log = config.astore_log;
  opts.enable_ebp = config.ebp;
  if (config.ebp) opts.engine.buffer_pool.capacity_pages = 12;
  opts.astore_server.pmem_capacity = 128 * kMiB;
  VedbCluster cluster(opts);
  cluster.StartBackground();

  TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 20;
  scale.items = 100;
  scale.initial_orders_per_district = 5;
  TpccDatabase db(cluster.engine(), scale, 5);
  EXPECT_TRUE(db.Load().ok());
  TpccDriver driver(&db, 23);
  constexpr int kTxns = 600;
  for (int i = 0; i < kTxns; ++i) {
    if (config.crash && i == kTxns / 2) {
      // Re-declaring through the constructor rebinds `db`, which the
      // driver points at, to the recovered engine's tables.
      EXPECT_TRUE(cluster
                      .CrashAndRecoverEngine([&](engine::DBEngine* engine) {
                        db = TpccDatabase(engine, scale, 5);
                      })
                      .ok());
    }
    EXPECT_TRUE(driver.RunMixed(nullptr).ok()) << config.name << " txn " << i;
  }
  auto digest = cluster.engine()->StateDigest();
  EXPECT_TRUE(digest.ok()) << config.name << ": " << digest.status().ToString();
  cluster.Shutdown();
  return digest.ok() ? digest.value() : 0;
}

TEST(IntegrationTest, TpccStateDigestIsTheSameInEveryConfiguration) {
  const DigestConfig configs[] = {
      {"ssd log", false, false, false},
      {"astore log", true, false, false},
      {"ssd log + ebp", false, true, false},
      {"astore log + ebp", true, true, false},
      {"crash, no ebp", true, false, true},
      {"crash + ebp", true, true, true},
  };
  const uint32_t want = TpccStateDigest(configs[0]);
  for (size_t i = 1; i < std::size(configs); ++i) {
    EXPECT_EQ(TpccStateDigest(configs[i]), want) << configs[i].name;
  }
}

}  // namespace
}  // namespace vedb::workload

#include "workload/standby.h"

namespace vedb::workload {
namespace {

TEST(StandbyTest, ServesReadsAndRejectsWrites) {
  ClusterOptions opts;
  opts.enable_ebp = true;
  opts.ebp.capacity = 32 * kMiB;
  opts.engine.buffer_pool.capacity_pages = 32;
  opts.astore_server.pmem_capacity = 128 * kMiB;
  VedbCluster cluster(opts);
  cluster.StartBackground();

  auto declare = [](engine::DBEngine* engine) {
    engine->CreateTable("kv", KvSchema());
  };
  declare(cluster.engine());
  Table* primary_table = cluster.engine()->GetTable("kv");
  const std::string pad(500, 's');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster.engine()
                    ->RunTransaction([&](Txn* txn) {
                      return primary_table->Insert(
                          txn, {Value(i), Value(i * 2), Value(pad)});
                    })
                    .ok());
  }
  // Make sure PageStore has everything the standby will read.
  cluster.engine()->EnsureShipped(cluster.engine()->log()->DurableLsn());

  auto standby = ReadOnlyStandby::Attach(&cluster, declare);
  ASSERT_TRUE(standby.ok()) << standby.status().ToString();
  Table* replica_table = (*standby)->engine()->GetTable("kv");
  ASSERT_NE(replica_table, nullptr);
  EXPECT_EQ(replica_table->approximate_row_count(), 400u);

  // Point reads serve the primary's committed data.
  for (int i = 0; i < 400; i += 37) {
    auto row = replica_table->Get(nullptr, {Value(i)});
    ASSERT_TRUE(row.ok()) << "key " << i;
    EXPECT_EQ((*row)[1].AsInt(), i * 2);
  }

  // Writes are refused.
  auto txn = (*standby)->engine()->Begin();
  ASSERT_TRUE(
      replica_table->Insert(txn.get(), {Value(9999), Value(1), Value(pad)})
          .ok());
  EXPECT_TRUE(
      (*standby)->engine()->Commit(txn.get()).IsNotSupported());

  // New primary commits become visible after a refresh.
  ASSERT_TRUE(cluster.engine()
                  ->RunTransaction([&](Txn* txn2) {
                    return primary_table->Insert(
                        txn2, {Value(5000), Value(42), Value(pad)});
                  })
                  .ok());
  cluster.engine()->EnsureShipped(cluster.engine()->log()->DurableLsn());
  EXPECT_TRUE(
      replica_table->Get(nullptr, {Value(5000)}).status().IsNotFound());
  ASSERT_TRUE((*standby)->RefreshIndexes().ok());
  auto fresh = replica_table->Get(nullptr, {Value(5000)});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)[1].AsInt(), 42);

  cluster.Shutdown();
}

}  // namespace
}  // namespace vedb::workload
