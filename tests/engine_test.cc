#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "engine/engine.h"
#include "engine/lock_manager.h"
#include "engine/ordered_index.h"
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
  }
  void TearDown() override { cluster_->Shutdown(); }

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

// A damaged image (e.g. an EBP frame read through a PMem bad region) may
// claim any slot count and any slot entry: the view must not read outside
// the page for either.
TEST(PageTest, ViewRejectsSlotsOutsideTheImage) {
  std::string buf;
  Page::Format(&buf);
  ASSERT_TRUE(Page(&buf).PutRow(0, Slice("row-zero")).ok());
  EncodeFixed16(buf.data() + 8, 0xFFFF);  // slot count
  const PageView view(buf.data());
  Slice row;
  ASSERT_TRUE(view.GetRow(0, &row).ok());
  EXPECT_EQ(row.ToString(), "row-zero");
  for (uint32_t slot = 4092; slot <= 0xFFFE; slot += 1021) {
    EXPECT_FALSE(view.GetRow(static_cast<uint16_t>(slot), &row).ok()) << slot;
    EXPECT_FALSE(view.SlotLive(static_cast<uint16_t>(slot))) << slot;
  }
  // Slot 0's entry: a row that starts inside the page but runs past it.
  EncodeFixed16(buf.data() + Page::kPageSize - 4, Page::kPageSize - 10);
  EncodeFixed16(buf.data() + Page::kPageSize - 2, 11);
  EXPECT_TRUE(view.GetRow(0, &row).IsCorruption());
  EncodeFixed16(buf.data() + Page::kPageSize - 2, 10);
  ASSERT_TRUE(view.GetRow(0, &row).ok());
  EXPECT_EQ(row.size(), 10u);
}

// Pins the page layout: a seeded mix of puts and deletes that compacts the
// page many times must leave exactly the image the original compaction
// code left (CRC recorded before compaction reused a scratch buffer).
TEST(PageTest, CompactionLayoutIsPinned) {
  std::string buf;
  Page::Format(&buf);
  Page page(&buf);
  Random rng(20230417);
  int compactions = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint16_t slot = static_cast<uint16_t>(rng.Uniform(48));
    if (rng.Uniform(4) == 0) {
      // discard-ok: deleting a slot past the directory is a no-op here.
      (void)page.DeleteRow(slot);
      continue;
    }
    std::string row(50 + rng.Uniform(300), static_cast<char>('a' + i % 26));
    EncodeFixed32(row.data(), static_cast<uint32_t>(i));
    const uint16_t count = page.slot_count();
    const uint64_t new_dir =
        slot >= count ? (slot - count + 1) * Page::kSlotEntrySize : 0;
    const bool must_compact = page.FreeBytes() < row.size() + new_dir;
    if (page.PutRow(slot, Slice(row)).ok() && must_compact) compactions++;
  }
  EXPECT_GE(compactions, 50);
  EXPECT_EQ(Crc32c(Slice(buf)), 0x0842938bu);
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
  EXPECT_EQ(out.row.ToString(), "payload");
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

// ApplyRedoToPage must leave the same bytes as decoding each record and
// applying it through the Page API, whether the image starts empty (the
// page is born by its first record) or already formatted.
TEST(RedoTest, ApplyMatchesDecodedRecord) {
  for (const bool preformatted : {false, true}) {
    std::string applied;
    std::string reference;
    if (preformatted) {
      Page::Format(&applied);
      ASSERT_TRUE(Page(&applied).PutRow(2, Slice("seed-row")).ok());
      reference = applied;
    }
    Random rng(preformatted ? 11 : 12);
    for (uint64_t lsn = 1; lsn <= 400; ++lsn) {
      RedoRecord rec;
      rec.type = rng.Uniform(5) == 0 ? RedoType::kDeleteRow
                                     : RedoType::kPutRow;
      rec.space = 4;
      rec.page_no = 9;
      rec.slot = static_cast<uint16_t>(rng.Uniform(24));
      std::string row_bytes;
      if (rec.type == RedoType::kPutRow) row_bytes = rng.String(20, 700);
      rec.row = Slice(row_bytes);
      std::string payload;
      rec.EncodeTo(&payload);
      ApplyRedoToPage(Slice(payload), lsn, &applied);

      RedoRecord decoded;
      ASSERT_TRUE(RedoRecord::DecodeFrom(Slice(payload), &decoded));
      if (reference.empty()) Page::Format(&reference);
      Page page(&reference);
      if (decoded.type == RedoType::kPutRow) {
        // discard-ok: a full page rejects the row on both sides alike.
        (void)page.PutRow(decoded.slot, decoded.row);
      } else {
        // discard-ok: deleting an absent slot is a no-op on both sides.
        (void)page.DeleteRow(decoded.slot);
      }
      if (lsn > page.lsn()) page.set_lsn(lsn);
      ASSERT_EQ(applied, reference) << "diverged at lsn " << lsn;
    }
  }
}

TEST(LockManagerTest, ReleaseAllFreesEveryKeyAcrossSpaces) {
  sim::SimEnvironment env;
  LockManager locks(env.clock(), LockManager::Options{});
  for (int i = 0; i < 1000; ++i) {
    const std::string key = MakeKey({Value(i / 2)});
    ASSERT_TRUE(locks.Lock(7, /*space=*/1 + i % 2, key).ok());
  }
  EXPECT_EQ(locks.HeldCount(), 1000u);
  locks.ReleaseAll(7);
  EXPECT_EQ(locks.HeldCount(), 0u);
  // Every key is free again: another transaction takes them all at once.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(locks.Lock(8, 1 + i % 2, MakeKey({Value(i / 2)})).ok());
  }
  locks.ReleaseAll(8);
  EXPECT_EQ(locks.HeldCount(), 0u);
}

TEST(LockManagerTest, ReentrantLockIsRecordedOnce) {
  sim::SimEnvironment env;
  LockManager locks(env.clock(), LockManager::Options{});
  const std::string key = MakeKey({Value(42)});
  ASSERT_TRUE(locks.Lock(1, 3, key).ok());
  ASSERT_TRUE(locks.Lock(1, 3, key).ok());
  ASSERT_TRUE(locks.Lock(1, 3, std::string(key)).ok());
  EXPECT_EQ(locks.HeldCount(), 1u);
  // Releasing walks the transaction's lock list once per recorded entry; a
  // duplicate entry would revisit a key that is already gone.
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.HeldCount(), 0u);
  ASSERT_TRUE(locks.Lock(2, 3, key).ok());
  EXPECT_EQ(locks.HeldCount(), 1u);
  locks.ReleaseAll(2);
  locks.ReleaseAll(1);  // nothing left to release
  EXPECT_EQ(locks.HeldCount(), 0u);
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

// ---- The 16-byte tagged Value ----

/// One value of each type; the string is longer than any small-string
/// buffer, so it lives on the heap.
std::vector<Value> OneOfEach() {
  return {Value(), Value(-7), Value(2.5), Value(std::string(100, 's'))};
}

TEST(ValueTest, CopyMoveAndSelfAssignKeepEachType) {
  for (const Value& original : OneOfEach()) {
    SCOPED_TRACE(original.ToString());
    Value copy(original);
    EXPECT_EQ(copy.type(), original.type());
    EXPECT_EQ(copy.Compare(original), 0);

    Value assigned(123);
    assigned = original;
    EXPECT_EQ(assigned.type(), original.type());
    EXPECT_EQ(assigned.Compare(original), 0);

    Value& self = assigned;
    assigned = self;  // self copy-assignment
    EXPECT_EQ(assigned.type(), original.type());
    EXPECT_EQ(assigned.Compare(original), 0);
    assigned = std::move(self);  // self move-assignment keeps the value
    EXPECT_EQ(assigned.type(), original.type());
    EXPECT_EQ(assigned.Compare(original), 0);

    Value moved(std::move(copy));
    EXPECT_EQ(moved.type(), original.type());
    EXPECT_EQ(moved.Compare(original), 0);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)

    Value target("old string that is long enough to be on the heap");
    target = std::move(moved);
    EXPECT_EQ(target.type(), original.type());
    EXPECT_EQ(target.Compare(original), 0);
    EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(ValueTest, StringCopyOutlivesItsSource) {
  Value copy;
  {
    Value source(std::string(1000, 'q'));
    copy = source;
    Value second(source);
    // Copies share the bytes rather than duplicating them.
    EXPECT_EQ(&second.AsString(), &source.AsString());
  }
  ASSERT_TRUE(copy.is_string());
  EXPECT_EQ(copy.AsString(), std::string(1000, 'q'));
  Row rows(8, copy);  // many sharers, released in turn
  rows.clear();
  EXPECT_EQ(copy.AsString().size(), 1000u);
}

TEST(ValueTest, EncodeDecodeSkipRoundTripStrings) {
  for (const std::string& str : {std::string(), std::string(1024, 'k')}) {
    std::string bytes;
    Value(str).EncodeTo(&bytes);
    Value(7).EncodeTo(&bytes);  // what follows must be left intact
    Slice in(bytes);
    Value decoded;
    ASSERT_TRUE(Value::DecodeFrom(&in, &decoded));
    ASSERT_TRUE(decoded.is_string());
    EXPECT_EQ(decoded.AsString(), str);
    Slice skip(bytes);
    ASSERT_TRUE(Value::SkipFrom(&skip));
    EXPECT_EQ(skip.size(), in.size());
    ASSERT_TRUE(Value::DecodeFrom(&in, &decoded));
    EXPECT_EQ(decoded.AsInt(), 7);
    // A truncated string fails both ways.
    Slice cut(bytes.data(), 1 + (str.empty() ? 0 : 2));
    Slice cut2 = cut;
    EXPECT_FALSE(Value::DecodeFrom(&cut, &decoded)) << str.size();
    EXPECT_FALSE(Value::SkipFrom(&cut2)) << str.size();
  }
}

TEST(ValueTest, IntsAndDoublesCompareNumerically) {
  EXPECT_EQ(Value(3).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(2).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(-1.5).Compare(Value(-2)), 0);
  EXPECT_TRUE(Value(4) == Value(4.0));
  EXPECT_TRUE(Value(-3) < Value(-2.75));
  EXPECT_LT(Value().Compare(Value(-100)), 0);  // NULL sorts first
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_DOUBLE_EQ(Value(9).AsDouble(), 9.0);  // an int widens
}

TEST(ValueDeathTest, WrongTypeAccessIsACheckFailure) {
  EXPECT_DEATH(Value(1.5).AsInt(), "CHECK failed at types\\.h:[0-9]+");
  EXPECT_DEATH(Value(1).AsString(), "CHECK failed at types\\.h:[0-9]+");
  EXPECT_DEATH(Value("x").AsDouble(), "CHECK failed at types\\.h:[0-9]+");
}

TEST(ValueTest, DecodeRowColumnsBuildsOnlyTheWantedColumns) {
  const Row row = {Value(1), Value("skipped"), Value(2.5), Value(),
                   Value("kept")};
  std::string bytes;
  EncodeRow(row, &bytes);
  Row out;
  ASSERT_TRUE(DecodeRowColumns(Slice(bytes), {true, false, true, false, true},
                               &out));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].AsInt(), 1);
  EXPECT_TRUE(out[1].is_null());
  EXPECT_DOUBLE_EQ(out[2].AsDouble(), 2.5);
  EXPECT_EQ(out[4].AsString(), "kept");
  // Flags shorter than the row leave the rest unbuilt.
  ASSERT_TRUE(DecodeRowColumns(Slice(bytes), {true}, &out));
  EXPECT_EQ(out[0].AsInt(), 1);
  // It fails on exactly the cuts DecodeRow fails on, whatever it builds.
  for (size_t len = 0; len < bytes.size(); ++len) {
    const Slice cut(bytes.data(), len);
    EXPECT_FALSE(DecodeRow(cut, &out)) << len;
    EXPECT_FALSE(DecodeRowColumns(cut, {}, &out)) << len;
    EXPECT_FALSE(DecodeRowColumns(cut, {true, true, true, true, true}, &out))
        << len;
  }
  // An arity beyond the bytes left fails without sizing the row.
  std::string huge;
  PutVarint32(&huge, 4000000000u);
  huge.push_back(0);
  EXPECT_FALSE(DecodeRow(Slice(huge), &out));
  EXPECT_FALSE(DecodeRowColumns(Slice(huge), {}, &out));
}

// ---- OrderedIndex ----

// Every entry with lo <= key < hi (empty hi = unbounded; lo <= hi).
std::vector<std::pair<std::string, Rid>> IndexRange(const OrderedIndex& index,
                                                    const std::string& lo,
                                                    const std::string& hi) {
  std::vector<std::pair<std::string, Rid>> out;
  index.ScanFrom(lo, [&](std::string_view key, Rid rid) {
    if (!hi.empty() && key >= hi) return false;
    out.emplace_back(std::string(key), rid);
    return true;
  });
  return out;
}

std::vector<std::pair<std::string, Rid>> MapRange(
    const std::map<std::string, Rid>& ref, const std::string& lo,
    const std::string& hi) {
  std::vector<std::pair<std::string, Rid>> out;
  auto end = hi.empty() ? ref.end() : ref.lower_bound(hi);
  for (auto it = ref.lower_bound(lo); it != end; ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

// Keys over a few bytes that sort at the edges (\x00, \xff) and in the
// middle, so keys are often prefixes of one another; now and then a long
// key, and a key longer than a whole run.
std::string RandomIndexKey(Random* rng,
                           const std::vector<std::string>& known) {
  static const char kBytes[] = {'\x00', '\x01', '\x7f', '\x80',
                                '\xfe', '\xff', 'a',    'b'};
  const uint64_t kind = rng->Uniform(100);
  if (kind < 25 && !known.empty()) {
    // A known key cut short or extended: a prefix of, or prefixed by, it.
    std::string key = known[rng->Uniform(known.size())];
    if (rng->Bernoulli(0.5)) {
      key.resize(rng->Uniform(key.size() + 1));
    } else {
      key.push_back(kBytes[rng->Uniform(sizeof(kBytes))]);
    }
    return key;
  }
  size_t len = rng->Uniform(24);
  if (kind == 99) len = 300 + rng->Uniform(3000);
  if (kind == 98 && rng->Bernoulli(0.1)) {
    len = OrderedIndex::kRunBytes + rng->Uniform(2000);
  }
  std::string key;
  for (size_t i = 0; i < len; ++i) {
    key.push_back(kBytes[rng->Uniform(sizeof(kBytes))]);
  }
  return key;
}

// Seeded random inserts, overwrites, erases, point finds and [lo, hi)
// scans, checked against a std::map reference: the index keeps
// std::string's order (unsigned bytes, then length) while runs split,
// shrink their prefixes and empty.
TEST(OrderedIndexTest, MatchesAStdMapReference) {
  for (uint64_t seed : {1, 2, 3}) {
    Random rng(seed);
    OrderedIndex index;
    std::map<std::string, Rid> ref;
    std::vector<std::string> known = {""};
    size_t max_runs = 0;
    auto check_all = [&] {
      ASSERT_EQ(index.size(), ref.size());
      ASSERT_EQ(IndexRange(index, "", ""), MapRange(ref, "", ""))
          << "seed " << seed;
    };
    constexpr int kOps = 40000;
    for (int op = 0; op < kOps; ++op) {
      // The first half mostly inserts; the second mostly erases, so runs
      // split in the first and empty in the second.
      const bool growing = op < kOps / 2;
      const uint64_t dice = rng.Uniform(100);
      std::string key = RandomIndexKey(&rng, known);
      if (dice < (growing ? 60u : 15u)) {
        const Rid rid{static_cast<PageNo>(rng.Next()),
                      static_cast<uint16_t>(rng.Next())};
        index.Put(key, rid);
        ref[key] = rid;
        known.push_back(key);
      } else if (dice < (growing ? 75u : 85u)) {
        if (!ref.empty() && rng.Bernoulli(0.8)) {
          // Erase a present key (the reference's nearest one).
          auto it = ref.lower_bound(key);
          if (it == ref.end()) it = ref.begin();
          key = it->first;
        }
        EXPECT_EQ(index.Erase(key), ref.erase(key) == 1) << "seed " << seed;
      } else if (dice < 97) {
        Rid got;
        auto it = ref.find(key);
        ASSERT_EQ(index.Find(key, &got), it != ref.end()) << "seed " << seed;
        if (it != ref.end()) {
          EXPECT_EQ(got, it->second);
        }
      } else {
        std::string hi = RandomIndexKey(&rng, known);
        if (hi < key) std::swap(key, hi);
        if (rng.Bernoulli(0.1)) hi.clear();
        ASSERT_EQ(IndexRange(index, key, hi), MapRange(ref, key, hi))
            << "seed " << seed;
      }
      max_runs = std::max(max_runs, index.run_count());
      if (op % 5000 == 0) check_all();
    }
    check_all();
    EXPECT_GT(max_runs, 50u) << "seed " << seed;
    // Emptying the index drops every run; it then serves again.
    for (const auto& [key, rid] : std::map<std::string, Rid>(ref)) {
      ASSERT_TRUE(index.Erase(key));
      ref.erase(key);
    }
    EXPECT_EQ(index.run_count(), 0u);
    EXPECT_TRUE(index.empty());
    index.Put("\xff", Rid{7, 7});
    index.Put("", Rid{1, 1});
    ref = {{"", Rid{1, 1}}, {"\xff", Rid{7, 7}}};
    check_all();
  }
}

// 186k TPC-C order-line PKs (w, d, o, ol: 36 bytes each), loaded in PK
// order and then appended district by district in NewOrder order, cost at
// most 48 bytes of heap per entry; a std::map<std::string, Rid> entry costs
// about 128.
TEST(OrderedIndexTest, TpccOrderLineKeysStayCompact) {
  constexpr int kWarehouses = 24, kDistricts = 10, kInitialOrders = 10;
  constexpr size_t kEntries = 186000;
  Random rng(7);
  std::vector<std::string> keys;
  keys.reserve(kEntries);
  auto add_order = [&](int w, int d, int o) {
    const int lines = static_cast<int>(rng.UniformRange(5, 15));
    for (int ol = 1; ol <= lines && keys.size() < kEntries; ++ol) {
      keys.push_back(MakeKey({Value(w), Value(d), Value(o), Value(ol)}));
    }
  };
  std::vector<int> next_order;
  for (int w = 1; w <= kWarehouses; ++w) {
    for (int d = 1; d <= kDistricts; ++d) {
      for (int o = 1; o <= kInitialOrders; ++o) add_order(w, d, o);
      next_order.push_back(kInitialOrders + 1);
    }
  }
  while (keys.size() < kEntries) {
    const size_t district = rng.Uniform(next_order.size());
    add_order(static_cast<int>(district / kDistricts) + 1,
              static_cast<int>(district % kDistricts) + 1,
              next_order[district]++);
  }
  ASSERT_EQ(keys[0].size(), 36u);

  [[maybe_unused]] const size_t heap_before = mallinfo2().uordblks;
  OrderedIndex index;
  for (size_t i = 0; i < keys.size(); ++i) {
    index.Put(keys[i], Rid{static_cast<PageNo>(i / 100),
                           static_cast<uint16_t>(i % 100)});
  }
  [[maybe_unused]] const size_t heap_after = mallinfo2().uordblks;
  ASSERT_EQ(index.size(), kEntries);
  const double per_entry = static_cast<double>(index.ByteSize()) / kEntries;
  std::printf("OrderedIndex: %.1f B per entry over %zu runs\n", per_entry,
              index.run_count());
  EXPECT_LE(per_entry, 48.0);
#ifndef __SANITIZE_ADDRESS__
  // ByteSize counts what malloc charged (ASan's allocator keeps its own
  // books, so only plain builds can compare).
  const double measured = static_cast<double>(heap_after - heap_before);
  EXPECT_NEAR(static_cast<double>(index.ByteSize()), measured,
              0.05 * measured);
#endif
  Rid rid;
  ASSERT_TRUE(index.Find(keys[12345], &rid));
  EXPECT_EQ(rid, (Rid{123, 45}));
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

TEST_F(EngineTest, RedeclaringAnIndexKeepsItsEntries) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  t->CreateIndex("by_name", {1});
  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Insert(txn.get(), {Value(1), Value("ann"), Value(1.0)}).ok());
  ASSERT_TRUE(t->Insert(txn.get(), {Value(2), Value("ann"), Value(2.0)}).ok());
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());

  t->CreateIndex("by_name", {1});
  auto rows = t->IndexLookup("by_name", {Value("ann")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_DEATH(t->CreateIndex("by_name", {2}),
               "index by_name re-declared with different columns");
}

TEST_F(EngineTest, SecondaryIndexFollowsDeletes) {
  Table* t = engine()->CreateTable("accounts", AccountSchema());
  t->CreateIndex("by_name", {1});
  auto txn = engine()->Begin();
  ASSERT_TRUE(t->Insert(txn.get(), {Value(1), Value("ann"), Value(1.0)}).ok());
  ASSERT_TRUE(t->Insert(txn.get(), {Value(2), Value("ann"), Value(2.0)}).ok());
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());

  auto txn2 = engine()->Begin();
  ASSERT_TRUE(t->Delete(txn2.get(), {Value(1)}).ok());
  ASSERT_TRUE(engine()->Commit(txn2.get()).ok());
  auto rows = t->IndexLookup("by_name", {Value("ann")});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 2);
}

// A commit logs one record per touched row in the order the statements
// first touched the rows, whatever order the rows hash or sort in.
TEST_F(EngineTest, CommitLogsInStatementOrder) {
  Table* a = engine()->CreateTable("a", AccountSchema());
  Table* b = engine()->CreateTable("b", AccountSchema());
  auto setup = engine()->Begin();
  for (int id : {40, 41}) {
    ASSERT_TRUE(
        b->Insert(setup.get(), {Value(id), Value("old"), Value(0.0)}).ok());
  }
  ASSERT_TRUE(engine()->Commit(setup.get()).ok());

  // (table, id) in first-touch order; repeated touches add no record.
  const std::vector<std::pair<Table*, int>> want = {
      {a, 5}, {a, 3}, {b, 41}, {a, 9}, {b, 2}, {a, 1}, {b, 40}, {b, 7}};
  const uint64_t first_lsn = engine()->log()->NextLsn();
  auto txn = engine()->Begin();
  ASSERT_TRUE(a->Insert(txn.get(), {Value(5), Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(a->Insert(txn.get(), {Value(3), Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(b->Update(txn.get(), {Value(41)},
                        [](Row* row) { (*row)[1] = Value("new"); })
                  .ok());
  ASSERT_TRUE(a->Insert(txn.get(), {Value(9), Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(a->Update(txn.get(), {Value(5)},
                        [](Row* row) { (*row)[2] = Value(2.0); })
                  .ok());
  ASSERT_TRUE(b->Insert(txn.get(), {Value(2), Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(a->Insert(txn.get(), {Value(1), Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(b->Delete(txn.get(), {Value(40)}).ok());
  ASSERT_TRUE(b->Insert(txn.get(), {Value(7), Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(a->Get(txn.get(), {Value(3)}).ok());
  ASSERT_TRUE(engine()->Commit(txn.get()).ok());

  auto logged = engine()->log()->ReadFrom(first_lsn);
  ASSERT_TRUE(logged.ok());
  ASSERT_EQ(logged->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    RedoRecord rec;
    ASSERT_TRUE(RedoRecord::DecodeFrom(Slice((*logged)[i].payload), &rec));
    EXPECT_EQ((*logged)[i].lsn, first_lsn + i);
    EXPECT_EQ(rec.space, want[i].first->space()) << "record " << i;
    if (want[i] == std::make_pair(b, 40)) {
      EXPECT_EQ(rec.type, RedoType::kDeleteRow);
      continue;
    }
    ASSERT_EQ(rec.type, RedoType::kPutRow) << "record " << i;
    Row row;
    ASSERT_TRUE(DecodeRow(rec.row, &row));
    EXPECT_EQ(row[0].AsInt(), want[i].second) << "record " << i;
  }
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

  cluster.Shutdown();
}

// PK range scans and secondary lookups over 12k rows, spread across many
// index runs by bulk load, transactional inserts in random order, deletes
// and secondary-key updates, return a std::map model's rows in PK order,
// before and after crash recovery rebuilds both indexes from the pages.
TEST_F(EngineCrashTest, ScansAndLookupsAcrossManyRunsSurviveRebuild) {
  ClusterOptions opts;
  opts.use_astore_log = true;
  opts.astore_log.ring.segment_size = 1 * kMiB;
  opts.astore_log.ring.ring_size = 4;
  VedbCluster cluster(opts);
  cluster.StartBackground();
  DeclareCatalog(cluster.engine());
  Table* t = cluster.engine()->GetTable("accounts");

  constexpr int kBulk = 6000, kInserted = 6000, kGroups = 37;
  auto name_of = [](int64_t id, int version) {
    return "g" + std::to_string((id * 7 + version) % kGroups);
  };
  std::map<int64_t, std::string> model;  // id -> name
  std::vector<Row> rows;
  for (int i = 0; i < kBulk; ++i) {
    const int64_t id = 2 * i;  // odd ids come later, between these
    rows.push_back({Value(id), Value(name_of(id, 0)), Value(1.0)});
    model[id] = name_of(id, 0);
  }
  ASSERT_TRUE(t->BulkLoad(rows).ok());

  Random rng(11);
  std::vector<int64_t> odd;
  for (int i = 0; i < kInserted; ++i) odd.push_back(2 * i + 1);
  for (size_t i = odd.size(); i > 1; --i) {
    std::swap(odd[i - 1], odd[rng.Uniform(i)]);
  }
  for (size_t start = 0; start < odd.size(); start += 200) {
    ASSERT_TRUE(cluster.engine()
                    ->RunTransaction([&](Txn* txn) -> Status {
                      for (size_t i = start; i < start + 200; ++i) {
                        VEDB_RETURN_IF_ERROR(t->Insert(
                            txn, {Value(odd[i]), Value(name_of(odd[i], 0)),
                                  Value(2.0)}));
                      }
                      return Status::OK();
                    })
                    .ok());
  }
  for (const int64_t id : odd) model[id] = name_of(id, 0);
  // Delete every 5th id and move every 3rd to another group.
  ASSERT_TRUE(cluster.engine()
                  ->RunTransaction([&](Txn* txn) -> Status {
                    for (int64_t id = 0; id < 2 * kBulk; id += 5) {
                      VEDB_RETURN_IF_ERROR(t->Delete(txn, {Value(id)}));
                    }
                    for (int64_t id = 1; id < 2 * kBulk; id += 3) {
                      if (id % 5 == 0) continue;
                      VEDB_RETURN_IF_ERROR(
                          t->Update(txn, {Value(id)}, [&](Row* row) {
                            (*row)[1] = Value(name_of(id, 1));
                          }));
                    }
                    return Status::OK();
                  })
                  .ok());
  for (int64_t id = 0; id < 2 * kBulk; id += 5) model.erase(id);
  for (int64_t id = 1; id < 2 * kBulk; id += 3) {
    if (id % 5 != 0) model[id] = name_of(id, 1);
  }

  auto check = [&](Table* table) {
    EXPECT_EQ(table->approximate_row_count(), model.size());
    for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
             {-5, 100000}, {0, 1}, {999, 5001}, {7000, 7003}, {11990, 12500}}) {
      std::vector<int64_t> got, want;
      ASSERT_TRUE(table
                      ->ScanPkRange(MakeKey({Value(lo)}), MakeKey({Value(hi)}),
                                    [&](const Row& row) {
                                      got.push_back(row[0].AsInt());
                                      return true;
                                    })
                      .ok());
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first < hi; ++it) {
        want.push_back(it->first);
      }
      EXPECT_EQ(got, want) << "[" << lo << ", " << hi << ")";
    }
    for (int g = 0; g < kGroups; ++g) {
      const std::string name = "g" + std::to_string(g);
      auto found = table->IndexLookup("by_name", {Value(name)});
      ASSERT_TRUE(found.ok());
      std::vector<int64_t> got, want;
      for (const Row& row : *found) got.push_back(row[0].AsInt());
      for (const auto& [id, n] : model) {
        if (n == name) want.push_back(id);
      }
      EXPECT_EQ(got, want) << name;
    }
    // Lookups that name fewer or more columns than the index match nothing.
    auto none = table->IndexLookup("by_name", {});
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none->empty());
  };
  check(t);
  const Status recovered = cluster.CrashAndRecoverEngine(DeclareCatalog);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  check(cluster.engine()->GetTable("accounts"));
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

  cluster.Shutdown();
}

}  // namespace
}  // namespace vedb::engine
