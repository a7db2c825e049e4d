// BufferPool unit tests with scripted callbacks (no cluster): the
// BP->EBP->PageStore fall-through, eviction fencing, rescue of in-flight
// evictions, and single-flight loading.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "engine/buffer_pool.h"
#include "engine/page.h"
#include "sim/env.h"

namespace vedb::engine {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::NodeConfig cfg;
    cfg.cpu_cores = 8;
    cfg.storage = sim::HardwareProfile::NvmeSsd(1);
    node_ = env_.AddNode("dbe", cfg);
  }

  BufferPool::Callbacks ScriptedCallbacks() {
    BufferPool::Callbacks cb;
    cb.ebp_get = [this](uint64_t key, std::string* image, uint64_t* lsn) {
      auto it = ebp_.find(key);
      if (it == ebp_.end()) return Status::NotFound("ebp miss");
      *image = it->second;
      *lsn = 1;
      ebp_gets_++;
      return Status::OK();
    };
    cb.ebp_put = [this](uint64_t key, uint64_t lsn, Slice image) {
      (void)lsn;
      ebp_[key] = image.ToString();
      ebp_puts_++;
    };
    cb.pagestore_read = [this](uint64_t key, std::string* image,
                               uint64_t* lsn) {
      auto it = pagestore_.find(key);
      if (it == pagestore_.end()) return Status::NotFound("no page");
      *image = it->second;
      *lsn = 1;
      ps_reads_++;
      return Status::OK();
    };
    cb.ensure_shipped = [this](uint64_t lsn) { shipped_fences_.insert(lsn); };
    return cb;
  }

  std::string MakePage(char fill) {
    std::string image;
    Page::Format(&image);
    const std::string row(64, fill);
    EXPECT_TRUE(Page(&image).PutRow(0, Slice(row)).ok());
    return image;
  }

  sim::SimEnvironment env_;
  sim::SimNode* node_ = nullptr;
  std::map<uint64_t, std::string> ebp_;
  std::map<uint64_t, std::string> pagestore_;
  std::set<uint64_t> shipped_fences_;
  int ebp_gets_ = 0, ebp_puts_ = 0, ps_reads_ = 0;
};

TEST_F(BufferPoolTest, MissFallsThroughEbpThenPageStore) {
  pagestore_[1] = MakePage('p');
  ebp_[2] = MakePage('e');
  BufferPool::Options opts;
  opts.capacity_pages = 8;
  BufferPool bp(&env_, node_, opts, ScriptedCallbacks());

  auto f1 = bp.Pin(1, false);
  ASSERT_TRUE(f1.ok());
  bp.Unpin(*f1, 0);
  EXPECT_EQ(ps_reads_, 1);

  auto f2 = bp.Pin(2, false);
  ASSERT_TRUE(f2.ok());
  bp.Unpin(*f2, 0);
  EXPECT_EQ(ebp_gets_, 1);
  EXPECT_EQ(ps_reads_, 1);  // EBP hit never reached PageStore

  // Now resident: further pins touch neither.
  auto again = bp.Pin(1, false);
  ASSERT_TRUE(again.ok());
  bp.Unpin(*again, 0);
  EXPECT_EQ(ps_reads_, 1);
  EXPECT_EQ(bp.stats().hits, 1u);
}

TEST_F(BufferPoolTest, MissingPageCreatesWhenAsked) {
  BufferPool::Options opts;
  BufferPool bp(&env_, node_, opts, ScriptedCallbacks());
  EXPECT_TRUE(bp.Pin(42, false).status().IsNotFound());
  auto created = bp.Pin(42, true);
  ASSERT_TRUE(created.ok());
  {
    vedb::MutexLock lk(&(*created)->mu);
    Page page(&(*created)->image);
    EXPECT_EQ(page.slot_count(), 0);
  }
  bp.Unpin(*created, 0);
  EXPECT_EQ(bp.stats().created, 1u);
}

TEST_F(BufferPoolTest, EvictionWritesToEbpAndFencesDirtyPages) {
  for (uint64_t k = 0; k < 12; ++k) pagestore_[k] = MakePage('a' + k);
  BufferPool::Options opts;
  opts.capacity_pages = 4;
  BufferPool bp(&env_, node_, opts, ScriptedCallbacks());

  // Touch page 0 and dirty it at LSN 7.
  auto f0 = bp.Pin(0, false);
  ASSERT_TRUE(f0.ok());
  bp.Unpin(*f0, /*modified_lsn=*/7);
  // Churn through the rest: page 0 eventually evicts.
  for (uint64_t k = 1; k < 12; ++k) {
    auto f = bp.Pin(k, false);
    ASSERT_TRUE(f.ok());
    bp.Unpin(*f, 0);
  }
  EXPECT_GT(bp.stats().evictions, 0u);
  EXPECT_GT(ebp_puts_, 0);
  EXPECT_TRUE(ebp_.count(0));                    // image landed in the EBP
  EXPECT_TRUE(shipped_fences_.count(7));         // dirty eviction fenced
  EXPECT_LE(bp.ResidentPages(), opts.capacity_pages);
}

TEST_F(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  for (uint64_t k = 0; k < 10; ++k) pagestore_[k] = MakePage('x');
  BufferPool::Options opts;
  opts.capacity_pages = 2;
  BufferPool bp(&env_, node_, opts, ScriptedCallbacks());

  auto pinned = bp.Pin(0, false);
  ASSERT_TRUE(pinned.ok());
  for (uint64_t k = 1; k < 10; ++k) {
    auto f = bp.Pin(k, false);
    ASSERT_TRUE(f.ok());
    bp.Unpin(*f, 0);
  }
  // Page 0 stayed resident under churn because it was pinned.
  EXPECT_EQ(ps_reads_, 10);  // 0..9 fetched once each; 0 never refetched
  bp.Unpin(*pinned, 0);
}

TEST_F(BufferPoolTest, ConcurrentPinsSingleFlightTheLoad) {
  pagestore_[5] = MakePage('s');
  BufferPool::Options opts;
  BufferPool bp(&env_, node_, opts, ScriptedCallbacks());
  {
    sim::ActorGroup group(env_.clock());
    for (int i = 0; i < 8; ++i) {
      group.Spawn([&] {
        auto f = bp.Pin(5, false);
        ASSERT_TRUE(f.ok());
        bp.Unpin(*f, 0);
      });
    }
  }
  // All eight pins were served by exactly one PageStore read.
  EXPECT_EQ(ps_reads_, 1);
}

}  // namespace
}  // namespace vedb::engine
