#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "common/coding.h"
#include "common/random.h"
#include "engine/page.h"
#include "query/plan.h"
#include "query/pushdown.h"
#include "workload/cluster.h"

namespace vedb::query {
namespace {

using engine::Schema;
using engine::Table;
using engine::ValueType;
using workload::ClusterOptions;
using workload::VedbCluster;

Schema SalesSchema() {
  Schema s;
  s.columns = {{"id", ValueType::kInt},
               {"region", ValueType::kInt},
               {"amount", ValueType::kDouble},
               {"tag", ValueType::kString}};
  s.pk = {0};
  return s;
}

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.enable_ebp = true;
    opts.ebp.capacity = 8 * kMiB;
    opts.astore_server.pmem_capacity = 64 * kMiB;
    opts.astore_log.ring.segment_size = 256 * kKiB;
    opts.astore_log.ring.ring_size = 4;
    opts.engine.buffer_pool.capacity_pages = 12;
    cluster_ = std::make_unique<VedbCluster>(opts);
    pushdown_ = std::make_unique<PushdownRuntime>(
        cluster_->env(), cluster_->rpc(), cluster_->pagestore(),
        std::vector<sim::SimNode*>{cluster_->env()->GetNode("ps-0"),
                                   cluster_->env()->GetNode("ps-1"),
                                   cluster_->env()->GetNode("ps-2")},
        cluster_->astore_servers(), PushdownRuntime::Options{});
    pushdown_->AttachEbp(cluster_->ebp());
    cluster_->StartBackground();

    table_ = cluster_->engine()->CreateTable("sales", SalesSchema());
    std::vector<engine::Row> rows;
    for (int i = 0; i < kRows; ++i) {
      // Wide pad so the table spans many more pages than the buffer pool.
      rows.push_back({Value(i), Value(i % 8), Value(i * 0.5),
                      Value(std::string(150, i % 2 == 0 ? 'e' : 'o'))});
    }
    ASSERT_TRUE(table_->BulkLoad(rows).ok());
  }
  void TearDown() override { cluster_->Shutdown(); }

  ExecContext Ctx(bool pushdown) {
    ExecContext ctx;
    ctx.engine = cluster_->engine();
    ctx.pushdown = pushdown_.get();
    ctx.enable_pushdown = pushdown;
    ctx.pushdown_row_threshold = 100;
    return ctx;
  }

  static constexpr int kRows = 4000;
  std::unique_ptr<VedbCluster> cluster_;
  std::unique_ptr<PushdownRuntime> pushdown_;
  Table* table_ = nullptr;
};

TEST_F(QueryTest, ExprEvalAndCodec) {
  // (region == 3 AND amount >= 10) encoded/decoded evaluates identically.
  ExprPtr e = Expr::And(Expr::ColCmp(1, CmpOp::kEq, Value(3)),
                        Expr::ColCmp(2, CmpOp::kGe, Value(10.0)));
  std::string bytes;
  e->EncodeTo(&bytes);
  Slice in(bytes);
  ExprPtr decoded;
  ASSERT_TRUE(Expr::DecodeFrom(&in, &decoded));
  engine::Row yes = {Value(1), Value(3), Value(10.5), Value("x")};
  engine::Row no = {Value(1), Value(4), Value(10.5), Value("x")};
  EXPECT_TRUE(decoded->EvalBool(yes));
  EXPECT_FALSE(decoded->EvalBool(no));
}

TEST(ExprColumns, CollectColumnsAndRemap) {
  // (c1 == 3 AND c4 * c2 > 10) OR NOT c4, over six columns.
  const ExprPtr e = Expr::Or(
      Expr::And(Expr::ColCmp(1, CmpOp::kEq, Value(3)),
                Expr::Cmp(CmpOp::kGt,
                          Expr::Arith(ArithOp::kMul, Expr::Col(4),
                                      Expr::Col(2)),
                          Expr::Const(Value(10)))),
      Expr::Not(Expr::Col(4)));
  std::vector<bool> used(6, false);
  e->CollectColumns(&used);
  EXPECT_EQ(used, (std::vector<bool>{false, true, true, false, true, false}));

  const ColumnMap map = {-1, 0, 1, -1, 2, -1};
  const ExprPtr narrow = e->Remap(map);
  std::vector<bool> narrow_used(3, false);
  narrow->CollectColumns(&narrow_used);
  EXPECT_EQ(narrow_used, (std::vector<bool>{true, true, true}));
  // The same expression written against the narrow rows encodes the same.
  const ExprPtr direct = Expr::Or(
      Expr::And(Expr::ColCmp(0, CmpOp::kEq, Value(3)),
                Expr::Cmp(CmpOp::kGt,
                          Expr::Arith(ArithOp::kMul, Expr::Col(2),
                                      Expr::Col(1)),
                          Expr::Const(Value(10)))),
      Expr::Not(Expr::Col(2)));
  std::string got, want;
  narrow->EncodeTo(&got);
  direct->EncodeTo(&want);
  EXPECT_EQ(got, want);
  for (int a : {2, 3}) {
    for (int c : {0, 1, 5}) {
      const engine::Row wide = {Value("x"), Value(a), Value(4), Value(-1.5),
                                Value(c), Value()};
      const engine::Row pruned = {Value(a), Value(4), Value(c)};
      EXPECT_EQ(e->EvalBool(wide), narrow->EvalBool(pruned));
    }
  }
  // Remap builds a new tree: the original still reads column 4.
  std::vector<bool> again(6, false);
  e->CollectColumns(&again);
  EXPECT_EQ(again, used);
}

TEST_F(QueryTest, LocalScanWithFilter) {
  ExecContext ctx = Ctx(false);
  auto scan = std::make_unique<ScanNode>(
      table_, Expr::ColCmp(1, CmpOp::kEq, Value(5)));
  auto rows = scan->Execute(&ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), kRows / 8);
  for (const auto& row : *rows) EXPECT_EQ(row[1].AsInt(), 5);
}

TEST_F(QueryTest, AggregationLocalVsPushdownAgree) {
  auto make_plan = [&]() {
    auto scan = std::make_unique<ScanNode>(
        table_, Expr::ColCmp(0, CmpOp::kLt, Value(2000)));
    scan->SetAggregation({1}, {AggSpec::Count(), AggSpec::Sum(Expr::Col(2)),
                               AggSpec::Avg(Expr::Col(2))});
    return scan;
  };
  ExecContext local_ctx = Ctx(false);
  auto local = make_plan()->Execute(&local_ctx);
  ASSERT_TRUE(local.ok());

  ExecContext pq_ctx = Ctx(true);
  auto pushed = make_plan()->Execute(&pq_ctx);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_GT(pq_ctx.pushdown_tasks, 0u);

  auto sort_rows = [](std::vector<engine::Row>* rows) {
    std::sort(rows->begin(), rows->end(),
              [](const engine::Row& a, const engine::Row& b) {
                return a[0].AsInt() < b[0].AsInt();
              });
  };
  sort_rows(&*local);
  sort_rows(&*pushed);
  ASSERT_EQ(local->size(), pushed->size());
  ASSERT_EQ(local->size(), 8u);
  for (size_t i = 0; i < local->size(); ++i) {
    EXPECT_EQ((*local)[i][0].AsInt(), (*pushed)[i][0].AsInt());
    EXPECT_EQ((*local)[i][1].AsInt(), (*pushed)[i][1].AsInt());       // count
    EXPECT_NEAR((*local)[i][2].AsDouble(), (*pushed)[i][2].AsDouble(),
                1e-6);                                                // sum
    EXPECT_NEAR((*local)[i][3].AsDouble(), (*pushed)[i][3].AsDouble(),
                1e-6);                                                // avg
  }
}

TEST_F(QueryTest, PushdownFilterReturnsSameRows) {
  ExprPtr pred = Expr::ColCmp(0, CmpOp::kLt, Value(50));
  ExecContext local_ctx = Ctx(false);
  auto local = std::make_unique<ScanNode>(table_, pred)->Execute(&local_ctx);
  ASSERT_TRUE(local.ok());
  ExecContext pq_ctx = Ctx(true);
  auto pushed = std::make_unique<ScanNode>(table_, pred)->Execute(&pq_ctx);
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(local->size(), 50u);
  EXPECT_EQ(pushed->size(), 50u);
}

TEST_F(QueryTest, PushdownUsesEbpPagesWhenCached) {
  // Warm the EBP by churning the (small) buffer pool with a full scan,
  // evicting pages into the EBP; the second push-down run must source some
  // pages from AStore servers.
  ExecContext warm_ctx = Ctx(false);
  auto warm = std::make_unique<ScanNode>(table_, nullptr);
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());

  ExecContext pq_ctx = Ctx(true);
  auto scan = std::make_unique<ScanNode>(table_, nullptr);
  scan->SetAggregation({}, {AggSpec::Count()});
  auto result = scan->Execute(&pq_ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0][0].AsInt(), kRows);
  EXPECT_GT(pq_ctx.pushdown_pages_from_ebp, 0u);
}

TEST_F(QueryTest, HashJoinMatchesNestLoopJoin) {
  // Join sales with itself on region (small slices to keep NL cheap).
  auto left = [&] {
    return std::make_unique<ScanNode>(table_,
                                      Expr::ColCmp(0, CmpOp::kLt, Value(64)));
  };
  auto right = [&] {
    return std::make_unique<ScanNode>(
        table_, Expr::And(Expr::ColCmp(0, CmpOp::kGe, Value(64)),
                          Expr::ColCmp(0, CmpOp::kLt, Value(128))));
  };
  ExecContext ctx = Ctx(false);
  auto hash = HashJoinNode(left(), right(), {1}, {1}).Execute(&ctx);
  ASSERT_TRUE(hash.ok());
  auto nl = NestLoopJoinNode(
                left(), right(),
                Expr::Cmp(CmpOp::kEq, Expr::Col(1), Expr::Col(5)))
                .Execute(&ctx);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(hash->size(), nl->size());
  EXPECT_EQ(hash->size(), 64u * 8u);  // 8 matches per region per left row
}

TEST_F(QueryTest, SortAndLimit) {
  ExecContext ctx = Ctx(false);
  auto plan = std::make_unique<LimitNode>(
      std::make_unique<SortNode>(
          std::make_unique<ScanNode>(table_, nullptr), std::vector<int>{2},
          std::vector<bool>{true}),
      3);
  auto rows = plan->Execute(&ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_DOUBLE_EQ((*rows)[0][2].AsDouble(), (kRows - 1) * 0.5);
}

TEST_F(QueryTest, ProjectComputesExpressions) {
  ExecContext ctx = Ctx(false);
  auto plan = std::make_unique<ProjectNode>(
      std::make_unique<ScanNode>(table_, Expr::ColCmp(0, CmpOp::kLt, Value(2))),
      std::vector<ExprPtr>{
          Expr::Col(0),
          Expr::Arith(ArithOp::kMul, Expr::Col(2), Expr::Const(Value(2.0)))});
  auto rows = plan->Execute(&ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_DOUBLE_EQ((*rows)[1][1].AsDouble(), 1.0);
}

}  // namespace
}  // namespace vedb::query

namespace vedb::query {
namespace {

TEST_F(QueryTest, CostBasedPushdownSkipsResidentTables) {
  // Warm the BP with the (small) head of the table... actually warm the
  // whole table into EBP+BP, then compare decisions for a cheap resident
  // probe vs a storage-heavy scan.
  ExecContext warm_ctx = Ctx(false);
  auto warm = std::make_unique<ScanNode>(table_, nullptr);
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());

  // A tiny table: always resident, cost model must keep it local.
  engine::Schema small_schema;
  small_schema.columns = {{"id", engine::ValueType::kInt},
                          {"v", engine::ValueType::kInt}};
  small_schema.pk = {0};
  engine::Table* small =
      cluster_->engine()->CreateTable("small", small_schema);
  {
    std::vector<engine::Row> rows;
    for (int i = 0; i < 50; ++i) rows.push_back({Value(i), Value(i)});
    ASSERT_TRUE(small->BulkLoad(rows).ok());
  }
  // Touch it so it is resident.
  ExecContext touch = Ctx(false);
  ASSERT_TRUE(std::make_unique<ScanNode>(small, nullptr)->Execute(&touch).ok());

  ExecContext ctx = Ctx(true);
  ctx.cost_based_pushdown = true;
  auto small_scan = std::make_unique<ScanNode>(small, nullptr);
  ASSERT_TRUE(small_scan->Execute(&ctx).ok());
  EXPECT_EQ(ctx.cost_based_pushed, 0u);
  EXPECT_EQ(ctx.cost_based_kept_local, 1u);

  // The big table with an aggregation: mostly non-resident (tiny BP), the
  // model must push it down.
  auto big_scan = std::make_unique<ScanNode>(table_, nullptr);
  big_scan->SetAggregation({}, {AggSpec::Count()});
  auto result = big_scan->Execute(&ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ctx.cost_based_pushed, 1u);
  EXPECT_EQ((*result)[0][0].AsInt(), kRows);
}

// ---- Executor semantics the typed keys must keep ----

/// A plan leaf that yields fixed rows, all of one width. Pruned, it keeps
/// the needed columns and records which it was asked for.
class RowsNode : public PlanNode {
 public:
  explicit RowsNode(std::vector<engine::Row> rows) : rows_(std::move(rows)) {
    arity_ = rows_.empty() ? 0 : rows_[0].size();
  }
  Result<RowBatch> Run(ExecContext*) override {
    return RowBatch::FromRows(arity_, rows_);
  }
  size_t Arity() const override { return arity_; }
  ColumnMap Prune(const std::vector<bool>& needed) override {
    EXPECT_EQ(needed.size(), arity_);
    asked_ = needed;
    ColumnMap map(arity_, -1);
    std::vector<size_t> kept;
    for (size_t c = 0; c < arity_; ++c) {
      if (!needed[c]) continue;
      map[c] = static_cast<int>(kept.size());
      kept.push_back(c);
    }
    for (engine::Row& row : rows_) {
      engine::Row narrow;
      for (size_t c : kept) narrow.push_back(row[c]);
      row = std::move(narrow);
    }
    arity_ = kept.size();
    return map;
  }
  /// The `needed` flags of the last Prune.
  const std::vector<bool>& asked() const { return asked_; }

 private:
  std::vector<engine::Row> rows_;
  size_t arity_;
  std::vector<bool> asked_;
};

std::string SortableKey(const engine::Row& row, const std::vector<int>& cols) {
  std::string key;
  for (int c : cols) row[c].EncodeSortable(&key);
  return key;
}

/// Same type and same value, doubles to the bit.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  if (a.is_string()) return a.AsString() == b.AsString();
  if (a.is_int()) return a.AsInt() == b.AsInt();
  const double da = a.AsDouble(), db = b.AsDouble();
  return memcmp(&da, &db, sizeof da) == 0;
}

void ExpectSameRows(const std::vector<engine::Row>& got,
                    const std::vector<engine::Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
    for (size_t c = 0; c < got[i].size(); ++c) {
      EXPECT_TRUE(SameValue(got[i][c], want[i][c]))
          << "row " << i << " col " << c << ": " << got[i][c].ToString()
          << " vs " << want[i][c].ToString();
    }
  }
}

/// The hash join's contract: left rows outer, right rows inner, pairs whose
/// EncodeSortable keys are equal.
std::vector<engine::Row> NaiveJoin(const std::vector<engine::Row>& left,
                                   const std::vector<engine::Row>& right,
                                   const std::vector<int>& lk,
                                   const std::vector<int>& rk) {
  std::vector<engine::Row> out;
  for (const engine::Row& l : left) {
    for (const engine::Row& r : right) {
      if (SortableKey(l, lk) != SortableKey(r, rk)) continue;
      engine::Row joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

void ExpectJoinMatchesNaive(const std::vector<engine::Row>& left,
                            const std::vector<engine::Row>& right,
                            const std::vector<int>& lk,
                            const std::vector<int>& rk) {
  ExecContext ctx;  // no engine: nothing is charged
  auto got = HashJoinNode(std::make_unique<RowsNode>(left),
                          std::make_unique<RowsNode>(right), lk, rk)
                 .Execute(&ctx);
  ASSERT_TRUE(got.ok());
  ExpectSameRows(*got, NaiveJoin(left, right, lk, rk));
}

TEST(HashJoinSemantics, DuplicateKeysOnBothSidesKeepNaiveOrder) {
  std::vector<engine::Row> left, right;
  for (int i = 0; i < 12; ++i) left.push_back({Value(i % 3), Value(i)});
  for (int i = 0; i < 9; ++i) right.push_back({Value(100 + i), Value(i % 4)});
  ExpectJoinMatchesNaive(left, right, {0}, {1});
}

TEST(HashJoinSemantics, TwoColumnKeys) {
  std::vector<engine::Row> left, right;
  for (int i = 0; i < 20; ++i) {
    left.push_back({Value(i % 2), Value(i), Value(i % 5)});
  }
  for (int i = 0; i < 15; ++i) right.push_back({Value(i % 5), Value(i % 2)});
  ExpectJoinMatchesNaive(left, right, {0, 2}, {1, 0});
}

TEST(HashJoinSemantics, StringKeys) {
  const char* names[] = {"", "a", "ab", "b", "a"};
  std::vector<engine::Row> left, right;
  for (int i = 0; i < 10; ++i) left.push_back({Value(names[i % 5]), Value(i)});
  for (int i = 0; i < 7; ++i) right.push_back({Value(names[(i * 3) % 5])});
  ExpectJoinMatchesNaive(left, right, {0}, {0});
}

TEST(HashJoinSemantics, NullKeysJoinEachOther) {
  std::vector<engine::Row> left = {{Value(), Value(1)},
                                   {Value(7), Value(2)},
                                   {Value(), Value(3)}};
  std::vector<engine::Row> right = {{Value()}, {Value(7)}, {Value()}};
  ExpectJoinMatchesNaive(left, right, {0}, {0});
  ExecContext ctx;
  auto got = HashJoinNode(std::make_unique<RowsNode>(left),
                          std::make_unique<RowsNode>(right), {0}, {0})
                 .Execute(&ctx);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 5u);  // 2 NULLs x 2 NULLs, plus 7 = 7
}

TEST(HashJoinSemantics, IntAndDoubleKeysMatchOnlyWhenTheirBytesDo) {
  // int 5 and double 5.0 do not join: their EncodeSortable bytes differ.
  // Ints and doubles share a tag byte, though, so int 0 joins double 0.0
  // (both encode as 0x80 00..00), and so does an int whose sortable bytes
  // are a double's.
  const int64_t bits_of_five = [] {
    const double five = 5.0;
    int64_t i;
    memcpy(&i, &five, sizeof i);
    return i;
  }();
  std::vector<engine::Row> left = {{Value(5)},  {Value(5.0)},
                                   {Value(-2)}, {Value(bits_of_five)},
                                   {Value(0)}};
  std::vector<engine::Row> right = {
      {Value(5.0)}, {Value(-2.0)}, {Value(5)}, {Value(0.0)}, {Value(-0.0)}};
  ExpectJoinMatchesNaive(left, right, {0}, {0});
  ExecContext ctx;
  auto got = HashJoinNode(std::make_unique<RowsNode>(left),
                          std::make_unique<RowsNode>(right), {0}, {0})
                 .Execute(&ctx);
  ASSERT_TRUE(got.ok());
  // 5=5, 5.0=5.0, bits(5.0)=5.0, 0=0.0; never -2=-2.0 or 0=-0.0.
  ASSERT_EQ(got->size(), 4u);
  EXPECT_TRUE((*got)[0][0].is_int() && (*got)[0][1].is_int());
  EXPECT_TRUE((*got)[1][0].is_double() && (*got)[1][1].is_double());
  EXPECT_TRUE((*got)[2][0].is_int() && (*got)[2][1].is_double());
  EXPECT_TRUE((*got)[3][0].is_int() && (*got)[3][1].is_double());
}

TEST(HashAggregateSemantics, GroupsComeOutInEncodeSortableOrder) {
  const Value keys[] = {Value("b"), Value(3),    Value(-1.5), Value(),
                        Value("a"), Value(-7),   Value(3.0),  Value(""),
                        Value(0.0), Value(-0.0), Value(0)};
  std::vector<engine::Row> rows;
  for (int i = 0; i < 66; ++i) {
    rows.push_back({keys[(i * 7) % 11], Value(i % 2), Value(i)});
  }
  const std::vector<int> group_cols = {0, 1};
  const std::vector<AggSpec> aggs = {AggSpec::Count(),
                                     AggSpec::Sum(Expr::Col(2)),
                                     AggSpec::Min(Expr::Col(2))};
  const std::vector<engine::Row> got =
      HashAggregate(RowBatch::FromRows(3, rows), group_cols, aggs).ToRows();

  // Reference: groups keyed by their EncodeSortable bytes, first row's
  // values kept, emitted in byte order.
  std::map<std::string, std::pair<engine::Row, std::vector<AggState>>> ref;
  for (const engine::Row& row : rows) {
    auto& group = ref[SortableKey(row, group_cols)];
    if (group.second.empty()) {
      group.first = {row[0], row[1]};
      group.second.resize(aggs.size());
    }
    for (size_t a = 0; a < aggs.size(); ++a) group.second[a].Update(aggs[a], row);
  }
  std::vector<engine::Row> want;
  for (auto& [key, group] : ref) {
    engine::Row row = group.first;
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(group.second[a].Finalize(aggs[a]));
    }
    want.push_back(std::move(row));
  }
  // int 0 and double 0.0 share their bytes: 10 distinct keys x 2.
  EXPECT_EQ(want.size(), 20u);
  ExpectSameRows(got, want);
}

TEST(HashAggregateSemantics, MinMaxTakeStringsSumAndAvgTakeNumbers) {
  // A string argument feeds MIN/MAX but never the numeric running sum.
  const std::vector<engine::Row> rows = {
      {Value("pear"), Value(3), Value(0.5)},
      {Value("apple"), Value(-4), Value(2.25)},
      {Value(), Value(10), Value(1.0)},
      {Value("zebra"), Value(1), Value(-0.75)}};
  const std::vector<AggSpec> aggs = {
      AggSpec::Min(Expr::Col(0)), AggSpec::Max(Expr::Col(0)),
      AggSpec::Sum(Expr::Col(1)), AggSpec::Avg(Expr::Col(1)),
      AggSpec::Sum(Expr::Col(2)), AggSpec::Avg(Expr::Col(2))};
  const std::vector<engine::Row> got =
      HashAggregate(RowBatch::FromRows(3, rows), {}, aggs).ToRows();
  ASSERT_EQ(got.size(), 1u);
  const engine::Row& r = got[0];
  EXPECT_EQ(r[0].AsString(), "apple");
  EXPECT_EQ(r[1].AsString(), "zebra");
  EXPECT_EQ(r[2].AsDouble(), 10.0);
  EXPECT_EQ(r[3].AsDouble(), 2.5);
  EXPECT_EQ(r[4].AsDouble(), 3.0);
  EXPECT_EQ(r[5].AsDouble(), 0.75);
}

// ---- Column pruning ----

std::vector<engine::Row> Wide(int n) {
  std::vector<engine::Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(i % 4), Value(i * 0.25), Value(std::to_string(i))});
  }
  return rows;
}

/// Executes `make()` as written, and again pruned to `needed`; every needed
/// column of every row must be the same, in the same row order, and the
/// pruned plan's map must be `want_map`. Returns the pruned plan.
template <typename Make>
PlanPtr ExpectPruneKeepsNeeded(const Make& make,
                               const std::vector<bool>& needed,
                               const ColumnMap& want_map) {
  ExecContext ctx;
  PlanPtr whole = make();
  auto want = whole->Execute(&ctx);
  EXPECT_TRUE(want.ok());
  PlanPtr plan = make();
  const ColumnMap map = plan->Prune(needed);
  EXPECT_EQ(map, want_map);
  auto got = plan->Execute(&ctx);
  EXPECT_TRUE(got.ok());
  if (!want.ok() || !got.ok()) return plan;
  EXPECT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size() && i < want->size(); ++i) {
    EXPECT_EQ((*got)[i].size(), plan->Arity());
    for (size_t c = 0; c < needed.size(); ++c) {
      if (!needed[c]) continue;
      EXPECT_TRUE(SameValue((*got)[i][map[c]], (*want)[i][c]))
          << "row " << i << " col " << c;
    }
  }
  return plan;
}

TEST(ColumnPruning, HashJoinKeepsItsKeysAndRemapsThem) {
  RowsNode* left = nullptr;
  RowsNode* right = nullptr;
  auto make = [&] {
    auto l = std::make_unique<RowsNode>(Wide(6));
    auto r = std::make_unique<RowsNode>(Wide(5));
    left = l.get();
    right = r.get();
    return std::make_unique<HashJoinNode>(std::move(l), std::move(r),
                                          std::vector<int>{0},
                                          std::vector<int>{0});
  };
  // Only the left tag and the right double are read above the join.
  PlanPtr plan = ExpectPruneKeepsNeeded(
      make, {false, false, true, false, true, false}, {0, -1, 1, 2, 3, -1});
  EXPECT_EQ(left->asked(), (std::vector<bool>{true, false, true}));
  EXPECT_EQ(right->asked(), (std::vector<bool>{true, true, false}));
  EXPECT_EQ(plan->Arity(), 4u);
}

TEST(ColumnPruning, NestLoopJoinKeepsItsPredicateColumns) {
  RowsNode* left = nullptr;
  RowsNode* right = nullptr;
  auto make = [&] {
    auto l = std::make_unique<RowsNode>(Wide(4));
    auto r = std::make_unique<RowsNode>(Wide(6));
    left = l.get();
    right = r.get();
    return std::make_unique<NestLoopJoinNode>(
        std::move(l), std::move(r),
        Expr::Cmp(CmpOp::kEq, Expr::Col(0), Expr::Col(3)));
  };
  PlanPtr plan = ExpectPruneKeepsNeeded(
      make, {false, false, false, false, false, true}, {0, -1, -1, 1, -1, 2});
  EXPECT_EQ(left->asked(), (std::vector<bool>{true, false, false}));
  EXPECT_EQ(right->asked(), (std::vector<bool>{true, false, true}));
}

TEST(ColumnPruning, FilterSortAndLimitPassTheirInputsMapThrough) {
  RowsNode* leaf = nullptr;
  auto rows = [&] {
    auto node = std::make_unique<RowsNode>(Wide(9));
    leaf = node.get();
    return node;
  };
  // The plan owns `leaf`; keep it while checking what `leaf` was asked.
  PlanPtr plan = ExpectPruneKeepsNeeded(
      [&] {
        return std::make_unique<FilterNode>(
            rows(), Expr::ColCmp(1, CmpOp::kGt, Value(0.5)));
      },
      {false, false, true}, {-1, 0, 1});
  EXPECT_EQ(leaf->asked(), (std::vector<bool>{false, true, true}));

  plan = ExpectPruneKeepsNeeded(
      [&] {
        return std::make_unique<SortNode>(rows(), std::vector<int>{0, 1},
                                          std::vector<bool>{true, false});
      },
      {false, false, true}, {0, 1, 2});
  EXPECT_EQ(leaf->asked(), (std::vector<bool>{true, true, true}));
  plan = ExpectPruneKeepsNeeded(
      [&] {
        return std::make_unique<SortNode>(rows(), std::vector<int>{0},
                                          std::vector<bool>{true});
      },
      {false, false, true}, {0, -1, 1});
  EXPECT_EQ(leaf->asked(), (std::vector<bool>{true, false, true}));

  plan = ExpectPruneKeepsNeeded(
      [&] { return std::make_unique<LimitNode>(rows(), 4); },
      {false, true, false}, {-1, 0, -1});
  EXPECT_EQ(leaf->asked(), (std::vector<bool>{false, true, false}));
}

TEST(ColumnPruning, ProjectAndAggregateNarrowOnlyTheirInput) {
  RowsNode* leaf = nullptr;
  auto rows = [&] {
    auto node = std::make_unique<RowsNode>(Wide(10));
    leaf = node.get();
    return node;
  };
  // The plan owns `leaf`; keep it while checking what `leaf` was asked.
  PlanPtr plan = ExpectPruneKeepsNeeded(
      [&] {
        return std::make_unique<ProjectNode>(
            rows(), std::vector<ExprPtr>{
                        Expr::Col(2), Expr::Arith(ArithOp::kAdd, Expr::Col(0),
                                                  Expr::Col(0))});
      },
      {false, true}, {0, 1});
  EXPECT_EQ(leaf->asked(), (std::vector<bool>{true, false, true}));

  plan = ExpectPruneKeepsNeeded(
      [&] {
        return std::make_unique<AggregateNode>(
            rows(), std::vector<int>{2},
            std::vector<AggSpec>{AggSpec::Sum(Expr::Col(0)),
                                 AggSpec::Count()});
      },
      {true, false, false}, {0, 1, 2});
  EXPECT_EQ(leaf->asked(), (std::vector<bool>{true, false, true}));
}

TEST_F(QueryTest, CountStarOverAScanThatNeedsNoColumn) {
  ExprPtr pred = Expr::ColCmp(1, CmpOp::kEq, Value(5));
  for (bool pushdown : {false, true}) {
    ExecContext ctx = Ctx(pushdown);
    auto scan = std::make_unique<ScanNode>(table_, pred);
    EXPECT_EQ(scan->Prune({false, false, false, false}),
              (ColumnMap{-1, -1, -1, -1}));
    EXPECT_EQ(scan->Arity(), 0u);
    auto plan = std::make_unique<AggregateNode>(
        std::move(scan), std::vector<int>{},
        std::vector<AggSpec>{AggSpec::Count()});
    PruneColumns(plan.get());
    auto rows = plan->Execute(&ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][0].AsInt(), kRows / 8);
    EXPECT_EQ(ctx.pushdown_tasks > 0, pushdown);
  }
}

TEST_F(QueryTest, PrunedScanKeepsTheNeededColumnsLocallyAndPushedDown) {
  ExprPtr pred = Expr::ColCmp(0, CmpOp::kLt, Value(300));
  ExecContext whole_ctx = Ctx(false);
  auto whole = ScanNode(table_, pred).Execute(&whole_ctx);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->size(), 300u);
  for (bool pushdown : {false, true}) {
    ExecContext ctx = Ctx(pushdown);
    ScanNode scan(table_, pred);
    EXPECT_EQ(scan.Prune({false, true, false, true}),
              (ColumnMap{-1, 0, -1, 1}));
    auto rows = scan.Execute(&ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<engine::Row> want;
    for (const engine::Row& row : *whole) want.push_back({row[1], row[3]});
    ExpectSameRows(*rows, want);
    EXPECT_EQ(ctx.pushdown_tasks > 0, pushdown);
  }
}

TEST_F(QueryTest, GroupedPushdownSplitAcrossEbpAndPageStoreKeepsLocalOrder) {
  // Churn part of the table through the tiny buffer pool so that some
  // pages are cached in the EBP and the rest only live on PageStore.
  ExecContext warm_ctx = Ctx(false);
  ASSERT_TRUE(std::make_unique<ScanNode>(table_, nullptr)
                  ->Execute(&warm_ctx)
                  .ok());

  auto make_plan = [&]() {
    auto scan = std::make_unique<ScanNode>(
        table_, Expr::ColCmp(0, CmpOp::kLt, Value(3000)));
    scan->SetAggregation({3, 1},
                         {AggSpec::Count(), AggSpec::Sum(Expr::Col(2)),
                          AggSpec::Min(Expr::Col(0)),
                          AggSpec::Max(Expr::Col(2)),
                          AggSpec::Avg(Expr::Col(2))});
    return scan;
  };
  ExecContext local_ctx = Ctx(false);
  auto local = make_plan()->Execute(&local_ctx);
  ASSERT_TRUE(local.ok());
  ExecContext pq_ctx = Ctx(true);
  auto pushed = make_plan()->Execute(&pq_ctx);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_GT(pq_ctx.pushdown_pages_from_ebp, 0u);
  EXPECT_GT(pq_ctx.pushdown_pages_from_pagestore, 0u);
  EXPECT_GT(pq_ctx.pushdown_tasks, 1u);
  EXPECT_EQ(local->size(), 8u);  // tag parity is region parity
  ExpectSameRows(*pushed, *local);
}

/// Same rows, value for value (SameValue).
bool SameRows(const std::vector<engine::Row>& a,
              const std::vector<engine::Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (!SameValue(a[i][c], b[i][c])) return false;
    }
  }
  return true;
}

TEST_F(QueryTest, PushdownReadsEbpFramesThroughThePmemFaultModel) {
  ExecContext warm_ctx = Ctx(false);
  auto warm = std::make_unique<ScanNode>(table_, nullptr);
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());
  ExecContext local_ctx = Ctx(false);
  auto local = ScanNode(table_, nullptr).Execute(&local_ctx);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(local->size(), static_cast<size_t>(kRows));
  // Push-down returns rows grouped by server: compare them by id.
  const auto by_id = [](std::vector<engine::Row> rows) {
    std::sort(rows.begin(), rows.end(),
              [](const engine::Row& a, const engine::Row& b) {
                return a[0].AsInt() < b[0].AsInt();
              });
    return rows;
  };
  ExecContext clean_ctx = Ctx(true);
  auto clean = ScanNode(table_, nullptr).Execute(&clean_ctx);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_GT(clean_ctx.pushdown_pages_from_ebp, 0u);
  ExpectSameRows(by_id(*clean), *local);

  // A latent bad region over the first row of one EBP-resident page's
  // frame, on the AStore server that holds it.
  ebp::ExtendedBufferPool::Placement placement;
  bool found = false;
  for (engine::PageNo page_no : table_->PageList()) {
    if (cluster_->ebp()->LookupPlacement(
            engine::PackPageKey(table_->space(), page_no), &placement)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  astore::AStoreServer* server = nullptr;
  for (astore::AStoreServer* s : cluster_->astore_servers()) {
    if (s->node()->name() == placement.node) server = s;
  }
  ASSERT_NE(server, nullptr);
  auto segment = server->GetLocalSegment(placement.segment);
  ASSERT_TRUE(segment.ok());
  const uint64_t image_at =
      segment->first + placement.offset + ebp::PageFrame::kHeaderSize;
  std::string image(placement.len, '\0');
  ASSERT_TRUE(
      server->pmem()->Read(image_at, image.size(), image.data()).ok());
  Slice row;
  ASSERT_TRUE(engine::PageView(image.data()).GetRow(0, &row).ok());
  ASSERT_TRUE(server->pmem()
                  ->MarkBadRegion(image_at + (row.data() - image.data()),
                                  row.size(), /*sticky=*/true)
                  .ok());

  ExecContext pq_ctx = Ctx(true);
  auto pushed = ScanNode(table_, nullptr).Execute(&pq_ctx);
  EXPECT_GT(pq_ctx.pushdown_pages_from_ebp, 0u);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_FALSE(SameRows(by_id(*pushed), *local));
  // The damaged row's arity no longer parses: the storage-side executor
  // skips it, and every other row still arrives.
  EXPECT_EQ(pushed->size(), local->size() - 1);
}

TEST_F(QueryTest, PushdownSkipsADamagedEbpFrame) {
  ExecContext warm_ctx = Ctx(false);
  auto warm = std::make_unique<ScanNode>(table_, nullptr);
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());
  ASSERT_TRUE(warm->Execute(&warm_ctx).ok());
  ExecContext local_ctx = Ctx(false);
  auto local = ScanNode(table_, nullptr).Execute(&local_ctx);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(local->size(), static_cast<size_t>(kRows));

  // One EBP-resident page's frame, on the AStore server that holds it.
  ebp::ExtendedBufferPool::Placement placement;
  bool found = false;
  for (engine::PageNo page_no : table_->PageList()) {
    if (cluster_->ebp()->LookupPlacement(
            engine::PackPageKey(table_->space(), page_no), &placement)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  astore::AStoreServer* server = nullptr;
  for (astore::AStoreServer* s : cluster_->astore_servers()) {
    if (s->node()->name() == placement.node) server = s;
  }
  ASSERT_NE(server, nullptr);
  auto segment = server->GetLocalSegment(placement.segment);
  ASSERT_TRUE(segment.ok());
  const uint64_t frame_at = segment->first + placement.offset;
  std::map<int64_t, const engine::Row*> local_by_id;
  for (const engine::Row& row : *local) local_by_id[row[0].AsInt()] = &row;

  // A latent bad region over the frame's header alone, then over the whole
  // frame, slot directory included: the task skips the frame both times.
  for (const uint64_t bad_len :
       {ebp::PageFrame::kHeaderSize,
        ebp::PageFrame::kHeaderSize + placement.len}) {
    ASSERT_TRUE(
        server->pmem()->MarkBadRegion(frame_at, bad_len, /*sticky=*/true).ok());
    ExecContext pq_ctx = Ctx(true);
    auto pushed = ScanNode(table_, nullptr).Execute(&pq_ctx);
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    EXPECT_GT(pq_ctx.pushdown_pages_from_ebp, 0u);
    // The damaged page's rows are lost; nothing else is, and nothing that
    // was never stored comes back.
    EXPECT_LT(pushed->size(), local->size()) << bad_len;
    EXPECT_GT(pushed->size(), 0u);
    for (const engine::Row& row : *pushed) {
      auto want = row[0].is_int() ? local_by_id.find(row[0].AsInt())
                                  : local_by_id.end();
      EXPECT_TRUE(want != local_by_id.end() &&
                  SameRows({row}, {*want->second}))
          << "row with id " << row[0].ToString();
    }
  }
}

// ---- Row batches: what the batch executor must reproduce ----

TEST(RowBatchSemantics, RoundTripKeepsEveryValueAndItsType) {
  const std::vector<engine::Row> rows = {
      {Value(), Value(0), Value(0.0), Value("")},
      {Value(-7), Value(-0.0), Value("x"), Value()},
      {Value(std::string(300, 'w')), Value(INT64_MIN), Value(1e300),
       Value(static_cast<int64_t>(1) << 53)}};
  const std::vector<engine::Row> back =
      RowBatch::FromRows(4, rows).ToRows();
  ExpectSameRows(back, rows);
  const RowBatch again = RowBatch::FromRows(4, back);
  ASSERT_EQ(again.size(), rows.size());
  ASSERT_EQ(again.arity(), 4u);
  size_t r = 0;
  again.ForEachRow([&](RowView row) {
    ASSERT_EQ(row.size(), 4u);
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(SameValue(row[c], rows[r][c])) << "row " << r << " col " << c;
    }
    r++;
  });
  EXPECT_EQ(r, rows.size());
  // Rows of no columns still count.
  const std::vector<engine::Row> empty_rows(5);
  RowBatch none = RowBatch::FromRows(0, empty_rows);
  EXPECT_EQ(none.size(), 5u);
  EXPECT_EQ(std::move(none).ToRows().size(), 5u);
}

/// Rows of an int key, a string key, an int payload and a unique id;
/// keys repeat often, and nothing is NULL.
std::vector<engine::Row> RandomKeyedRows(Random* rng, int n) {
  static const char* kNames[] = {"", "a", "ab", "b", "zz"};
  std::vector<engine::Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(rng->Uniform(4)) - 1),
                    Value(kNames[rng->Uniform(5)]),
                    Value(static_cast<int64_t>(rng->Uniform(1000))),
                    Value(i)});
  }
  return rows;
}

TEST(RowBatchSemantics, HashJoinReturnsTheNestLoopJoinsRowsInItsOrder) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed);
    const auto left = RandomKeyedRows(&rng, 20 + rng.Uniform(40));
    const auto right = RandomKeyedRows(&rng, 20 + rng.Uniform(40));
    // One-column int keys, one-column string keys, and both at once (the
    // right side in the other column order).
    const std::vector<std::pair<std::vector<int>, std::vector<int>>> keys = {
        {{0}, {0}}, {{1}, {1}}, {{0, 1}, {0, 1}}, {{1, 0}, {1, 0}}};
    for (const auto& [lk, rk] : keys) {
      ExprPtr equal;
      for (size_t i = 0; i < lk.size(); ++i) {
        ExprPtr eq = Expr::Cmp(CmpOp::kEq, Expr::Col(lk[i]),
                               Expr::Col(4 + rk[i]));
        equal = equal == nullptr ? eq : Expr::And(equal, eq);
      }
      ExecContext ctx;
      auto hash = HashJoinNode(std::make_unique<RowsNode>(left),
                               std::make_unique<RowsNode>(right), lk, rk)
                      .Execute(&ctx);
      auto nl = NestLoopJoinNode(std::make_unique<RowsNode>(left),
                                 std::make_unique<RowsNode>(right), equal)
                    .Execute(&ctx);
      ASSERT_TRUE(hash.ok() && nl.ok());
      EXPECT_GT(nl->size(), 0u) << "seed " << seed;
      ExpectSameRows(*hash, *nl);
    }
  }
}

TEST(RowBatchSemantics, SortThenLimitMatchesARowSortOnManyTies) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Random rng(seed);
    // Few distinct sort keys, so most rows tie; the id column shows where
    // each tied row ended up.
    const auto rows = RandomKeyedRows(&rng, 50 + rng.Uniform(400));
    const std::vector<int> cols = {0, 1};
    const std::vector<bool> descending = {seed % 2 == 0, seed % 3 == 0};
    const size_t limit = 1 + rng.Uniform(rows.size());
    std::vector<engine::Row> want = rows;
    std::sort(want.begin(), want.end(),
              [&](const engine::Row& a, const engine::Row& b) {
                for (size_t i = 0; i < cols.size(); ++i) {
                  const int cmp = a[cols[i]].Compare(b[cols[i]]);
                  if (cmp != 0) return descending[i] ? cmp > 0 : cmp < 0;
                }
                return false;
              });
    want.resize(limit);
    ExecContext ctx;
    auto got = LimitNode(std::make_unique<SortNode>(
                             std::make_unique<RowsNode>(rows), cols,
                             descending),
                         limit)
                   .Execute(&ctx);
    ASSERT_TRUE(got.ok());
    ExpectSameRows(*got, want);
  }
}

// ---- Selective decode in the storage-side executor ----

/// The storage-side executor with every column of every row decoded: what
/// ExecutePages computed before it decoded only the columns it reads.
uint64_t WholeRowExecutePages(const PushdownRuntime::Fragment& fragment,
                              const std::vector<Slice>& images,
                              std::string* response) {
  GroupTable groups(fragment.group_cols.size(), fragment.aggs.size());
  std::string matched;
  uint32_t matches = 0;
  uint64_t processed = 0;
  for (const Slice& image : images) {
    const engine::PageView page(image.data());
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      Slice bytes;
      engine::Row row;
      if (!page.GetRow(slot, &bytes).ok()) continue;
      if (!engine::DecodeRow(bytes, &row)) continue;
      processed++;
      if (fragment.predicate != nullptr &&
          !fragment.predicate->EvalBool(row)) {
        continue;
      }
      if (fragment.aggs.empty()) {
        matched.append(bytes.data(), bytes.size());
        matches++;
        continue;
      }
      AggState* states = groups.Find(row, fragment.group_cols);
      for (size_t i = 0; i < fragment.aggs.size(); ++i) {
        states[i].Update(fragment.aggs[i], row);
      }
    }
  }
  if (fragment.aggs.empty()) {
    PutVarint32(response, matches);
    response->append(matched);
    return processed;
  }
  PutVarint32(response, static_cast<uint32_t>(groups.size()));
  for (uint32_t g : groups.SortedGroups()) {
    engine::EncodeRow(groups.key(g), response);
    for (size_t a = 0; a < fragment.aggs.size(); ++a) {
      groups.states(g)[a].EncodeTo(response);
    }
  }
  return processed;
}

/// Pages of five-column rows (id, name, amount, region, tag) with a
/// truncated row, a row whose arity overstates its bytes and a deleted
/// slot among them.
std::vector<std::string> MixedPages() {
  std::vector<std::string> pages(3);
  int id = 0;
  for (std::string& buf : pages) {
    engine::Page::Format(&buf);
    engine::Page page(&buf);
    for (uint16_t slot = 0; slot < 60; ++slot, ++id) {
      const engine::Row row = {
          Value(id), Value(std::string(20 + id % 7, 'n')),
          id % 5 == 0 ? Value() : Value(id * 0.75), Value(id % 4),
          Value(id % 3 == 0 ? "hot" : "cold")};
      std::string bytes;
      engine::EncodeRow(row, &bytes);
      if (slot == 17) bytes.resize(bytes.size() - 2);  // truncated tag
      if (slot == 29) bytes[0] = 9;  // arity 9: runs out of values
      EXPECT_TRUE(page.PutRow(slot, Slice(bytes)).ok());
    }
    EXPECT_TRUE(page.DeleteRow(41).ok());
  }
  return pages;
}

void ExpectSelectiveMatchesWholeRow(const PushdownRuntime::Fragment& fragment) {
  const std::vector<std::string> pages = MixedPages();
  const std::vector<Slice> images(pages.begin(), pages.end());
  std::string got, want;
  const uint64_t got_processed =
      PushdownRuntime::ExecutePages(fragment, images, &got);
  const uint64_t want_processed =
      WholeRowExecutePages(fragment, images, &want);
  // Three pages of 60 slots, less a deleted and two unparsable rows each.
  EXPECT_EQ(want_processed, 3u * 57);
  EXPECT_EQ(got_processed, want_processed);
  EXPECT_EQ(got, want);
  Slice in(got);
  uint32_t count = 0;
  ASSERT_TRUE(GetVarint32(&in, &count));
  EXPECT_GT(count, 0u);  // the comparison is between real results
}

TEST(SelectiveDecode, PredicateOnTheFirstColumn) {
  PushdownRuntime::Fragment f;
  f.predicate = Expr::ColCmp(0, CmpOp::kLt, Value(100));
  ExpectSelectiveMatchesWholeRow(f);
}

TEST(SelectiveDecode, PredicateOnTheLastColumn) {
  PushdownRuntime::Fragment f;
  f.predicate = Expr::ColCmp(4, CmpOp::kEq, Value("hot"));
  ExpectSelectiveMatchesWholeRow(f);
}

TEST(SelectiveDecode, GroupColumnsAndAggregateArguments) {
  PushdownRuntime::Fragment f;
  f.predicate = Expr::ColCmp(4, CmpOp::kNe, Value("hot"));
  f.group_cols = {3, 4};
  f.aggs = {AggSpec::Count(), AggSpec::Sum(Expr::Col(2)),
            AggSpec::Min(Expr::Col(0)),
            AggSpec::Max(Expr::Arith(ArithOp::kSub, Expr::Col(0),
                                     Expr::Col(3))),
            AggSpec::Avg(Expr::Col(2))};
  ExpectSelectiveMatchesWholeRow(f);
}

TEST(SelectiveDecode, NoPredicateNoColumns) {
  PushdownRuntime::Fragment f;
  f.aggs = {AggSpec::Count()};
  ExpectSelectiveMatchesWholeRow(f);
}

}  // namespace
}  // namespace vedb::query
