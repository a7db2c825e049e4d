// Property-style parameterized tests: invariants checked across seed/size
// sweeps rather than single examples.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include <atomic>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "engine/lock_manager.h"
#include "engine/page.h"
#include "engine/types.h"
#include "logstore/logstore.h"
#include "query/expr.h"
#include "query/plan.h"

namespace vedb {
namespace {

// ---------- Value encoding properties ----------

class ValueOrderProperty : public ::testing::TestWithParam<uint64_t> {};

engine::Value RandomValue(Random* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      return engine::Value(static_cast<int64_t>(rng->Next()) / 3);
    case 1:
      return engine::Value(rng->NextDouble() * 2e6 - 1e6);
    default:
      return engine::Value(rng->String(0, 12));
  }
}

TEST_P(ValueOrderProperty, SortableEncodingPreservesOrder) {
  // For same-typed values: a < b  <=>  enc(a) < enc(b).
  Random rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    engine::Value a = RandomValue(&rng);
    engine::Value b = RandomValue(&rng);
    if (a.type() != b.type()) continue;
    std::string ea, eb;
    a.EncodeSortable(&ea);
    b.EncodeSortable(&eb);
    EXPECT_EQ(a.Compare(b) < 0, ea < eb)
        << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a.Compare(b) == 0, ea == eb);
  }
}

TEST_P(ValueOrderProperty, RowCodecRoundTripsRandomRows) {
  Random rng(GetParam() ^ 0xABCD);
  for (int i = 0; i < 200; ++i) {
    engine::Row row;
    const int arity = 1 + static_cast<int>(rng.Uniform(8));
    for (int c = 0; c < arity; ++c) row.push_back(RandomValue(&rng));
    std::string bytes;
    engine::EncodeRow(row, &bytes);
    engine::Row out;
    ASSERT_TRUE(engine::DecodeRow(Slice(bytes), &out));
    ASSERT_EQ(out.size(), row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c].Compare(out[c]), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- Slotted page properties ----------

class PageProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageProperty, RandomOpsMatchShadow) {
  // Random put/delete/compact sequences must always agree with a shadow
  // map, and never corrupt other slots.
  Random rng(GetParam());
  std::string image;
  engine::Page::Format(&image);
  engine::Page page(&image);
  std::map<uint16_t, std::string> shadow;
  const uint16_t kSlots = 48;

  for (int op = 0; op < 600; ++op) {
    const uint16_t slot = static_cast<uint16_t>(rng.Uniform(kSlots));
    switch (rng.Uniform(3)) {
      case 0: {  // put (insert or overwrite)
        const std::string row = rng.String(5, 200);
        Status s = page.PutRow(slot, Slice(row));
        if (s.ok()) {
          shadow[slot] = row;
        } else {
          EXPECT_TRUE(s.IsNoSpace());
        }
        break;
      }
      case 1:  // delete
        // discard-ok: deleting a random (possibly absent) slot on purpose.
        (void)page.DeleteRow(slot);
        shadow.erase(slot);
        break;
      default:
        page.Compact();
        break;
    }
    // Full verification every few ops.
    if (op % 37 == 0) {
      for (uint16_t s = 0; s < page.slot_count(); ++s) {
        Slice row;
        const bool live = page.GetRow(s, &row).ok();
        const bool expected = shadow.count(s) != 0;
        ASSERT_EQ(live, expected) << "slot " << s << " op " << op;
        if (live) {
          EXPECT_EQ(row.ToString(), shadow[s]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------- Varint / CRC properties ----------

class CodingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodingProperty, VarintRoundTripsRandom64) {
  Random rng(GetParam());
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 300; ++i) {
    // Bias toward interesting widths.
    const int shift = static_cast<int>(rng.Uniform(64));
    values.push_back(rng.Next() >> shift);
    PutVarint64(&buf, values.back());
  }
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST_P(CodingProperty, CrcDetectsSingleBitFlips) {
  Random rng(GetParam() ^ 0x5A5A);
  std::string data = rng.String(64, 512);
  const uint32_t clean = Crc32c(Slice(data));
  for (int i = 0; i < 50; ++i) {
    std::string corrupt = data;
    const size_t byte = rng.Uniform(corrupt.size());
    corrupt[byte] ^= static_cast<char>(1 << rng.Uniform(8));
    EXPECT_NE(Crc32c(Slice(corrupt)), clean);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodingProperty,
                         ::testing::Values(7, 14, 28, 56));

// ---------- Expression properties ----------

class ExprProperty : public ::testing::TestWithParam<uint64_t> {};

query::ExprPtr RandomExpr(Random* rng, int arity, int depth) {
  using query::Expr;
  if (depth == 0 || rng->Bernoulli(0.4)) {
    if (rng->Bernoulli(0.5)) {
      return Expr::Col(static_cast<int>(rng->Uniform(arity)));
    }
    return Expr::Const(engine::Value(static_cast<int64_t>(rng->Uniform(100))));
  }
  switch (rng->Uniform(4)) {
    case 0:
      return Expr::Cmp(static_cast<query::CmpOp>(rng->Uniform(6)),
                       RandomExpr(rng, arity, depth - 1),
                       RandomExpr(rng, arity, depth - 1));
    case 1:
      return Expr::And(RandomExpr(rng, arity, depth - 1),
                       RandomExpr(rng, arity, depth - 1));
    case 2:
      return Expr::Or(RandomExpr(rng, arity, depth - 1),
                      RandomExpr(rng, arity, depth - 1));
    default:
      return Expr::Arith(static_cast<query::ArithOp>(rng->Uniform(3)),
                         RandomExpr(rng, arity, depth - 1),
                         RandomExpr(rng, arity, depth - 1));
  }
}

TEST_P(ExprProperty, CodecPreservesEvaluation) {
  // Random expression trees evaluate identically after encode/decode.
  Random rng(GetParam());
  const int arity = 5;
  for (int i = 0; i < 100; ++i) {
    query::ExprPtr e = RandomExpr(&rng, arity, 4);
    std::string bytes;
    e->EncodeTo(&bytes);
    Slice in(bytes);
    query::ExprPtr decoded;
    ASSERT_TRUE(query::Expr::DecodeFrom(&in, &decoded));
    EXPECT_TRUE(in.empty());
    for (int r = 0; r < 20; ++r) {
      engine::Row row;
      row.reserve(arity);
      for (int c = 0; c < arity; ++c) {
        // emplace_back: constructing a Value temporary and moving it trips
        // a GCC 12 -Wmaybe-uninitialized false positive in the inlined
        // variant move path.
        row.emplace_back(static_cast<int64_t>(rng.Uniform(100)));
      }
      EXPECT_EQ(e->Eval(row).Compare(decoded->Eval(row)), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty, ::testing::Values(3, 9, 27));

// ---------- Aggregation properties ----------

class AggProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggProperty, MergedPartialsEqualWholeAggregation) {
  // Splitting rows into arbitrary partitions, aggregating each, and merging
  // the states must equal aggregating everything at once — the invariant
  // push-down's secondary aggregation relies on.
  using query::AggSpec;
  using query::AggState;
  Random rng(GetParam());
  std::vector<engine::Row> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back({engine::Value(static_cast<int64_t>(rng.Uniform(6))),
                    engine::Value(rng.NextDouble() * 100)});
  }
  std::vector<AggSpec> aggs = {AggSpec::Count(),
                               AggSpec::Sum(query::Expr::Col(1)),
                               AggSpec::Min(query::Expr::Col(1)),
                               AggSpec::Max(query::Expr::Col(1)),
                               AggSpec::Avg(query::Expr::Col(1))};

  const std::vector<engine::Row> whole =
      query::HashAggregate(query::RowBatch::FromRows(2, rows), {0}, aggs)
          .ToRows();

  // Random partitioning into 1..5 parts, aggregated separately by group,
  // then merged through AggState (with codec round-trip in the middle).
  const int parts = 1 + static_cast<int>(rng.Uniform(5));
  std::map<int64_t, std::vector<AggState>> merged;
  for (int p = 0; p < parts; ++p) {
    std::map<int64_t, std::vector<AggState>> partial;
    for (size_t i = p; i < rows.size(); i += parts) {
      auto& states = partial
                         .try_emplace(rows[i][0].AsInt(),
                                      std::vector<AggState>(aggs.size()))
                         .first->second;
      for (size_t a = 0; a < aggs.size(); ++a) {
        states[a].Update(aggs[a], rows[i]);
      }
    }
    for (auto& [group, states] : partial) {
      auto& into = merged
                       .try_emplace(group,
                                    std::vector<AggState>(aggs.size()))
                       .first->second;
      for (size_t a = 0; a < aggs.size(); ++a) {
        // Round-trip the state through its wire format first.
        std::string bytes;
        states[a].EncodeTo(&bytes);
        Slice in(bytes);
        AggState decoded;
        ASSERT_TRUE(AggState::DecodeFrom(&in, &decoded));
        into[a].Merge(decoded);
      }
    }
  }

  ASSERT_EQ(whole.size(), merged.size());
  for (const engine::Row& row : whole) {
    const int64_t group = row[0].AsInt();
    ASSERT_TRUE(merged.count(group));
    const auto& states = merged[group];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const engine::Value expected = row[1 + a];
      const engine::Value got = states[a].Finalize(aggs[a]);
      if (expected.is_double()) {
        EXPECT_NEAR(expected.AsDouble(), got.AsDouble(), 1e-6);
      } else {
        EXPECT_EQ(expected.Compare(got), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------- Lock manager properties ----------

class LockManagerProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LockManagerProperty, RandomContentionNeverStallsOrLeaksLocks) {
  // N transaction actors grab random key sets in random order while holding
  // each set across virtual time (the shape of a commit's log write).
  // Invariants: every transaction terminates (the wait-for graph turns
  // would-be deadlocks into Aborted), some make progress, and every lock is
  // released at the end.
  sim::VirtualClock clock;
  engine::LockManager::Options lopts;
  lopts.wait_timeout = 5 * kMillisecond;
  engine::LockManager locks(&clock, lopts);
  constexpr int kActors = 8;
  constexpr int kRounds = 30;
  constexpr int kKeys = 6;
  std::atomic<int> committed{0};
  std::atomic<int> aborted{0};
  {
    sim::ActorGroup group(&clock);
    for (int t = 0; t < kActors; ++t) {
      group.Spawn([&, t] {
        Random rng(GetParam() * 97 + t);
        for (int round = 0; round < kRounds; ++round) {
          const engine::TxnId txn = t * 1000 + round + 1;
          bool ok = true;
          const int n = 1 + static_cast<int>(rng.Uniform(4));
          for (int i = 0; i < n; ++i) {
            // Duplicates exercise owner re-entrancy.
            const std::string key = "k" + std::to_string(rng.Uniform(kKeys));
            if (!locks.Lock(txn, 1, key).ok()) {
              ok = false;
              break;
            }
          }
          if (ok) clock.SleepFor(10 * kMicrosecond);
          locks.ReleaseAll(txn);
          (ok ? committed : aborted)++;
        }
      });
    }
  }
  EXPECT_EQ(committed + aborted, kActors * kRounds);
  EXPECT_GT(committed, 0);
  EXPECT_EQ(locks.HeldCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockManagerProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace vedb
