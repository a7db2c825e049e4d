#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "engine/page.h"
#include "workload/cluster.h"

namespace vedb::engine {
namespace {

using workload::ClusterOptions;
using workload::VedbCluster;

Schema AccountSchema() {
  Schema s;
  s.columns = {{"id", ValueType::kInt},
               {"name", ValueType::kString},
               {"balance", ValueType::kDouble}};
  s.pk = {0};
  return s;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.use_astore_log = true;
    opts.enable_ebp = false;
    opts.astore_log.ring.segment_size = 256 * kKiB;
    opts.astore_log.ring.ring_size = 4;
    cluster_ = std::make_unique<VedbCluster>(opts);
    cluster_->StartBackground();
    env()->clock()->RegisterActor();
  }
  void TearDown() override {
    env()->clock()->UnregisterActor();
    cluster_->Shutdown();
  }

  sim::SimEnvironment* env() { return cluster_->env(); }
  DBEngine* engine() { return cluster_->engine(); }

  std::unique_ptr<VedbCluster> cluster_;
};

TEST(PageTest, PutGetDeleteRoundTrip) {
  std::string buf;
  Page::Format(&buf);
  Page page(&buf);
  ASSERT_TRUE(page.PutRow(0, Slice("row-zero")).ok());
  ASSERT_TRUE(page.PutRow(1, Slice("row-one")).ok());
  Slice row;
  ASSERT_TRUE(page.GetRow(0, &row).ok());
  EXPECT_EQ(row.ToString(), "row-zero");
  ASSERT_TRUE(page.DeleteRow(0).ok());
  EXPECT_TRUE(page.GetRow(0, &row).IsNotFound());
  ASSERT_TRUE(page.GetRow(1, &row).ok());
  EXPECT_EQ(row.ToString(), "row-one");
  EXPECT_EQ(page.slot_count(), 2);
}

TEST(PageTest, SparseSlotsTolerated) {
  std::string buf;
  Page::Format(&buf);
  Page page(&buf);
  ASSERT_TRUE(page.PutRow(3, Slice("late")).ok());  // slots 0-2 tombstoned
  EXPECT_EQ(page.slot_count(), 4);
  Slice row;
  EXPECT_TRUE(page.GetRow(0, &row).IsNotFound());
  ASSERT_TRUE(page.PutRow(1, Slice("early")).ok());
  ASSERT_TRUE(page.GetRow(1, &row).ok());
  EXPECT_EQ(row.ToString(), "early");
}

TEST(PageTest, FillsUpThenRejects) {
  std::string buf;
  Page::Format(&buf);
  Page page(&buf);
  std::string row(1000, 'x');
  uint16_t slot = 0;
  while (page.PutRow(slot, Slice(row)).ok()) slot++;
  EXPECT_GT(slot, 10);
  EXPECT_TRUE(page.PutRow(slot, Slice(row)).IsNoSpace());
}

TEST(RedoTest, EncodeDecodeRoundTrip) {
  RedoRecord rec;
  rec.type = RedoType::kPutRow;
  rec.space = 3;
  rec.page_no = 7;
  rec.slot = 11;
  rec.row = "payload";
  std::string bytes;
  rec.EncodeTo(&bytes);
  RedoRecord out;
  ASSERT_TRUE(RedoRecord::DecodeFrom(Slice(bytes), &out));
  EXPECT_EQ(out.space, 3u);
  EXPECT_EQ(out.page_no, 7u);
  EXPECT_EQ(out.slot, 11);
  EXPECT_EQ(out.row, "payload");
}

TEST(RedoTest, ReapplyingSameRecordIsIdempotent) {
  RedoRecord rec;
  rec.type = RedoType::kPutRow;
  rec.slot = 0;
  rec.row = "v1";
  std::string payload;
  rec.EncodeTo(&payload);
  std::string image;
  ApplyRedoToPage(Slice(payload), 5, &image);
  ApplyRedoToPage(Slice(payload), 5, &image);  // recovery re-ship duplicate
  Page page(&image);
  Slice row;
  ASSERT_TRUE(page.GetRow(0, &row).ok());
  EXPECT_EQ(row.ToString(), "v1");
  EXPECT_EQ(page.lsn(), 5u);
  EXPECT_EQ(page.slot_count(), 1);
}

TEST(RedoTest, OutOfLsnOrderDisjointSlotsAllApply) {
  // Under group commit two transactions may apply to the same page out of
  // LSN order; both records must land (their slots are disjoint).
  RedoRecord late;
  late.type = RedoType::kPutRow;
  late.slot = 1;
  late.row = "lsn100";
  RedoRecord early;
  early.type = RedoType::kPutRow;
  early.slot = 0;
  early.row = "lsn90";
  std::string p_late, p_early;
  late.EncodeTo(&p_late);
  early.EncodeTo(&p_early);

  std::string image;
  ApplyRedoToPage(Slice(p_late), 100, &image);  // later record first
  ApplyRedoToPage(Slice(p_early), 90, &image);
  Page page(&image);
  Slice row;
  ASSERT_TRUE(page.GetRow(0, &row).ok());
  EXPECT_EQ(row.ToString(), "lsn90");
  ASSERT_TRUE(page.GetRow(1, &row).ok());
  EXPECT_EQ(row.ToString(), "lsn100");
  EXPECT_EQ(page.lsn(), 100u);  // page LSN is the max applied
}

TEST(ValueTest, SortableEncodingOrders) {
  auto key = [](Value v) {
    std::string k;
    v.EncodeSortable(&k);
    return k;
  };
  EXPECT_LT(key(Value(-5)), key(Value(3)));
  EXPECT_LT(key(Value(3)), key(Value(1000)));
  EXPECT_LT(key(Value(-2.5)), key(Value(1.5)));
  EXPECT_LT(key(Value("abc")), key(Value("abd")));
}

TEST(ValueTest, RowCodecRoundTrip) {
  Row row = {Value(42), Value("hello"), Value(3.25), Value()};
  std::string bytes;
  EncodeRow(row, &bytes);
  Row out;
  ASSERT_TRUE(DecodeRow(Slice(bytes), &out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].AsInt(), 42);
  EXPECT_EQ(out[1].AsString(), "hello");
  EXPECT_DOUBLE_EQ(out[2].AsDouble(), 3.25);
  EXPECT_TRUE(out[3].is_null());
  // Negative ints round-trip through zigzag.
  Row neg = {Value(-12345)};
  bytes.clear();
  EncodeRow(neg, &bytes);
  ASSERT_TRUE(DecodeRow(Slice(bytes), &out));
  EXPECT_EQ(out[0].AsInt(), -12345);
}

TEST_F(EngineTest, InsertCommitGet) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Insert(txn.get(), {Value(1), Value("ann"), Value(10.0)}).ok());
  ASSERT_TRUE(t->Insert(txn.get(), {Value(2), Value("bob"), Value(20.0)}).ok());
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());

  auto row = t->Get(nullptr, {Value(1)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "ann");
  EXPECT_EQ(engine()->stats().commits, 1u);
}

TEST_F(EngineTest, DuplicateInsertRejected) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Insert(txn.get(), {Value(1), Value("a"), Value(1.0)}).ok());
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());
  auto txn2 = engine()->Begin();
  EXPECT_TRUE(t->Insert(txn2.get(), {Value(1), Value("b"), Value(2.0)})
                  .IsAlreadyExists());
  engine()->Abort(txn2.get());
}

TEST_F(EngineTest, UpdateVisibleAfterCommitOnly) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto setup = engine()->Begin();
  ASSERT_TRUE(t->Insert(setup.get(), {Value(1), Value("a"), Value(5.0)}).ok());
  ASSERT_TRUE(engine()->Commit(setup.get()).ok());

  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Update(txn.get(), {Value(1)},
                        [](Row* row) { (*row)[2] = Value(99.0); })
                  .ok());
  // Own write visible inside the transaction...
  auto own = t->Get(txn.get(), {Value(1)});
  ASSERT_TRUE(own.ok());
  EXPECT_DOUBLE_EQ((*own)[2].AsDouble(), 99.0);
  // ...but not to others before commit.
  auto other = t->Get(nullptr, {Value(1)});
  ASSERT_TRUE(other.ok());
  EXPECT_DOUBLE_EQ((*other)[2].AsDouble(), 5.0);
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());
  auto after = t->Get(nullptr, {Value(1)});
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ((*after)[2].AsDouble(), 99.0);
}

TEST_F(EngineTest, AbortDiscardsChanges) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Insert(txn.get(), {Value(7), Value("x"), Value(1.0)}).ok());
  engine()->Abort(txn.get());
  EXPECT_TRUE(t->Get(nullptr, {Value(7)}).status().IsNotFound());
}

TEST_F(EngineTest, DeleteRemovesRow) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Insert(txn.get(), {Value(1), Value("a"), Value(1.0)}).ok());
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());
  auto txn2 = engine()->Begin();
  ASSERT_TRUE(t->Delete(txn2.get(), {Value(1)}).ok());
  ASSERT_TRUE(engine()->Commit(txn2.get()).ok());
  EXPECT_TRUE(t->Get(nullptr, {Value(1)}).status().IsNotFound());
}

TEST_F(EngineTest, SecondaryIndexFollowsUpdates) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  t->CreateIndex("by_name", {1});
  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Insert(txn.get(), {Value(1), Value("ann"), Value(1.0)}).ok());
  ASSERT_TRUE(t->Insert(txn.get(), {Value(2), Value("ann"), Value(2.0)}).ok());
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());

  auto rows = t->IndexLookup("by_name", {Value("ann")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);

  auto txn2 = engine()->Begin();
  ASSERT_TRUE(t->Update(txn2.get(), {Value(2)},
                        [](Row* row) { (*row)[1] = Value("zoe"); })
                  .ok());
  ASSERT_TRUE(engine()->Commit(txn2.get()).ok());
  rows = t->IndexLookup("by_name", {Value("ann")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  rows = t->IndexLookup("by_name", {Value("zoe")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(EngineTest, ScanRangeInPkOrder) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto txn = engine()->Begin();
  for (int i = 9; i >= 0; --i) {
    ASSERT_TRUE(
        t->Insert(txn.get(), {Value(i), Value("n"), Value(1.0 * i)}).ok());
  }
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());

  std::vector<int64_t> seen;
  ASSERT_TRUE(t->ScanPkRange(MakeKey({Value(3)}), MakeKey({Value(7)}),
                             [&](const Row& row) {
                               seen.push_back(row[0].AsInt());
                               return true;
                             })
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 4, 5, 6}));
}

TEST_F(EngineTest, HotRowUpdatesSerialize) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto setup = engine()->Begin();
  ASSERT_TRUE(
      t->Insert(setup.get(), {Value(1), Value("hot"), Value(0.0)}).ok());
  ASSERT_TRUE(engine()->Commit(setup.get()).ok());

  constexpr int kThreads = 8, kPerThread = 10;
  std::atomic<int> failures{0};
  {
    sim::ActorGroup group(env()->clock());
    for (int i = 0; i < kThreads; ++i) {
      group.Spawn([&] {
        for (int j = 0; j < kPerThread; ++j) {
          Status s = engine()->RunTransaction([&](Txn* txn) {
            return t->Update(txn, {Value(1)}, [](Row* row) {
              (*row)[2] = Value(row->at(2).AsDouble() + 1.0);
            });
          });
          if (!s.ok()) failures++;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  auto row = t->Get(nullptr, {Value(1)});
  ASSERT_TRUE(row.ok());
  EXPECT_DOUBLE_EQ((*row)[2].AsDouble(), kThreads * kPerThread);
}

TEST_F(EngineTest, DeadlockResolvedByAbort) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  auto setup = engine()->Begin();
  ASSERT_TRUE(t->Insert(setup.get(), {Value(1), Value("a"), Value(0.0)}).ok());
  ASSERT_TRUE(t->Insert(setup.get(), {Value(2), Value("b"), Value(0.0)}).ok());
  ASSERT_TRUE(engine()->Commit(setup.get()).ok());

  // Two actors lock {1,2} in opposite orders; at least one must abort and
  // retry successfully through RunTransaction.
  std::atomic<int> done{0};
  {
    sim::ActorGroup group(env()->clock());
    for (int dir = 0; dir < 2; ++dir) {
      group.Spawn([&, dir] {
        Status s = engine()->RunTransaction(
            [&](Txn* txn) {
              int first = dir == 0 ? 1 : 2;
              int second = dir == 0 ? 2 : 1;
              VEDB_RETURN_IF_ERROR(t->Update(
                  txn, {Value(first)},
                  [](Row* row) { (*row)[2] = Value(1.0); }));
              env()->clock()->SleepFor(20 * kMillisecond);  // widen window
              return t->Update(txn, {Value(second)},
                               [](Row* row) { (*row)[2] = Value(2.0); });
            },
            /*max_retries=*/5);
        if (s.ok()) done++;
      });
    }
  }
  EXPECT_EQ(done.load(), 2);
}

TEST_F(EngineTest, BulkLoadServesReads) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value(i), Value("bulk"), Value(0.5 * i)});
  }
  ASSERT_TRUE(t->BulkLoad(rows).ok());
  EXPECT_EQ(t->approximate_row_count(), 5000u);
  EXPECT_GT(t->PageList().size(), 5u);

  auto row = t->Get(nullptr, {Value(4321)});
  ASSERT_TRUE(row.ok());
  EXPECT_DOUBLE_EQ((*row)[2].AsDouble(), 0.5 * 4321);
  // Bulk-loaded rows are transactionally updatable.
  ASSERT_TRUE(engine()
                  ->RunTransaction([&](Txn* txn) {
                    return t->Update(txn, {Value(4321)}, [](Row* row) {
                      (*row)[2] = Value(-1.0);
                    });
                  })
                  .ok());
  row = t->Get(nullptr, {Value(4321)});
  ASSERT_TRUE(row.ok());
  EXPECT_DOUBLE_EQ((*row)[2].AsDouble(), -1.0);
}

TEST(EngineChurnTest, WorkingSetLargerThanBufferPoolStillCorrect) {
  // Force buffer-pool churn: many more pages than BP capacity.
  ClusterOptions opts;
  opts.astore_log.ring.segment_size = 256 * kKiB;
  opts.astore_log.ring.ring_size = 4;
  opts.engine.buffer_pool.capacity_pages = 32;
  VedbCluster cluster(opts);
  cluster.StartBackground();
  cluster.env()->clock()->RegisterActor();

  Table* t = cluster.engine()->CreateTable("accounts", AccountSchema());
  std::vector<Row> rows;
  const int kRows = 20000;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Value(i), Value(std::string(100, 'p')), Value(1.0 * i)});
  }
  ASSERT_TRUE(t->BulkLoad(rows).ok());
  ASSERT_GT(t->PageList().size(), 32u * 3);

  // Random-ish point reads across the whole key space.
  for (int i = 0; i < 300; ++i) {
    const int key = (i * 7919) % kRows;
    auto row = t->Get(nullptr, {Value(key)});
    ASSERT_TRUE(row.ok()) << "key " << key;
    EXPECT_DOUBLE_EQ((*row)[2].AsDouble(), 1.0 * key);
  }
  EXPECT_GT(cluster.engine()->buffer_pool()->stats().pagestore_reads, 0u);
  EXPECT_GT(cluster.engine()->buffer_pool()->stats().evictions, 0u);

  cluster.env()->clock()->UnregisterActor();
  cluster.Shutdown();
}

class EngineCrashTest : public ::testing::Test {
 protected:
  static void DeclareCatalog(DBEngine* engine) {
    Table* t = engine->CreateTable("accounts", AccountSchema());
    t->CreateIndex("by_name", {1});
  }
};

TEST_F(EngineCrashTest, CommittedDataSurvivesEngineCrash) {
  ClusterOptions opts;
  opts.use_astore_log = true;
  opts.astore_log.ring.segment_size = 256 * kKiB;
  opts.astore_log.ring.ring_size = 4;
  VedbCluster cluster(opts);
  cluster.StartBackground();
  cluster.env()->clock()->RegisterActor();

  DeclareCatalog(cluster.engine());
  Table* t = cluster.engine()->GetTable("accounts");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.engine()
                    ->RunTransaction([&](Txn* txn) {
                      return t->Insert(
                          txn, {Value(i), Value("crashme"), Value(1.0 * i)});
                    })
                    .ok());
  }

  ASSERT_TRUE(cluster.CrashAndRecoverEngine(DeclareCatalog).ok());
  Table* recovered = cluster.engine()->GetTable("accounts");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->approximate_row_count(), 50u);
  for (int i = 0; i < 50; ++i) {
    auto row = recovered->Get(nullptr, {Value(i)});
    ASSERT_TRUE(row.ok()) << "row " << i << ": " << row.status().ToString();
    EXPECT_DOUBLE_EQ((*row)[2].AsDouble(), 1.0 * i);
  }
  // Secondary index was rebuilt too.
  auto rows = recovered->IndexLookup("by_name", {Value("crashme")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 50u);
  // And the engine keeps serving writes after recovery.
  EXPECT_TRUE(cluster.engine()
                  ->RunTransaction([&](Txn* txn) {
                    return recovered->Insert(
                        txn, {Value(100), Value("after"), Value(0.0)});
                  })
                  .ok());

  cluster.env()->clock()->UnregisterActor();
  cluster.Shutdown();
}

}  // namespace
}  // namespace vedb::engine

namespace vedb::engine {
namespace {

TEST(EbpWarmupTest, RecoveryWarmupPreloadsHotPages) {
  // After a crash+recovery, WarmupFromEbp pulls the EBP's hottest pages
  // into the buffer pool so the first queries do not storm PageStore.
  workload::ClusterOptions opts;
  opts.enable_ebp = true;
  opts.ebp.capacity = 32 * kMiB;
  opts.engine.buffer_pool.capacity_pages = 24;
  opts.astore_server.pmem_capacity = 128 * kMiB;
  workload::VedbCluster cluster(opts);
  cluster.StartBackground();
  cluster.env()->clock()->RegisterActor();

  auto declare = [](DBEngine* engine) {
    Schema s;
    s.columns = {{"id", ValueType::kInt}, {"pad", ValueType::kString}};
    s.pk = {0};
    engine->CreateTable("warm", s);
  };
  declare(cluster.engine());
  Table* t = cluster.engine()->GetTable("warm");
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back({Value(i), Value(std::string(300, 'w'))});
  }
  ASSERT_TRUE(t->BulkLoad(rows).ok());
  // Churn so pages land in the EBP (the flusher runs asynchronously; give
  // it a moment of virtual time to drain).
  for (int i = 0; i < 3000; i += 7) {
    // discard-ok: churn traffic to populate the EBP; misses are fine.
    (void)t->Get(nullptr, {Value(i)});
  }
  cluster.env()->clock()->SleepFor(100 * kMillisecond);
  ASSERT_GT(cluster.ebp()->stats().puts, 0u);

  ASSERT_TRUE(cluster.CrashAndRecoverEngine(declare).ok());
  const size_t warmed = cluster.engine()->WarmupFromEbp(16);
  EXPECT_GT(warmed, 0u);
  EXPECT_EQ(cluster.engine()->buffer_pool()->stats().ebp_hits, warmed);
  EXPECT_GE(cluster.engine()->buffer_pool()->ResidentPages(), warmed);

  cluster.env()->clock()->UnregisterActor();
  cluster.Shutdown();
}

}  // namespace
}  // namespace vedb::engine
