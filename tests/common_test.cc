#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace vedb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing page");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing page");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::NoSpace("x").IsNoSpace());
  EXPECT_TRUE(Status::Stale("x").IsStale());
  EXPECT_TRUE(Status::LeaseExpired("x").IsLeaseExpired());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::DataLoss("x").IsDataLoss());
}

TEST(StatusTest, DataLossIsDistinctFromCorruption) {
  // DataLoss marks a replica that served provably wrong bytes (checksum or
  // completion-length mismatch): non-retriable against that replica, the
  // caller fails over instead. Corruption stays the local-media verdict.
  Status s = Status::DataLoss("page checksum mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss());
  EXPECT_FALSE(s.IsCorruption());
  EXPECT_FALSE(Status::Corruption("x").IsDataLoss());
  EXPECT_EQ(s.ToString(), "DataLoss: page checksum mismatch");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    VEDB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("k");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<int> {
    if (ok) return 5;
    return Status::IOError("nope");
  };
  auto consume = [&](bool ok) -> Status {
    VEDB_ASSIGN_OR_RETURN(int v, produce(ok));
    EXPECT_EQ(v, 5);
    return Status::OK();
  };
  EXPECT_TRUE(consume(true).ok());
  EXPECT_TRUE(consume(false).IsIOError());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abcdef").StartsWith(Slice("abc")));
  EXPECT_FALSE(Slice("ab").StartsWith(Slice("abc")));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutFixed16(&buf, 0x1234u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 4), 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed16(buf.data() + 12), 0x1234u);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1u << 20,
                                  0xFFFFFFFFull, 1ull << 62};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("abc"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  PutLengthPrefixedSlice(&buf, Slice(std::string(1000, 'x')));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "abc");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, GetFixedBytes) {
  std::string buf = "abcdef";
  Slice in(buf);
  Slice out;
  ASSERT_TRUE(GetFixedBytes(&in, 4, &out));
  EXPECT_EQ(out.ToString(), "abcd");
  EXPECT_FALSE(GetFixedBytes(&in, 4, &out));  // only 2 left
}

TEST(RandomTest, DeterministicFromSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, SkewedFavorsHead) {
  Random r(9);
  int head = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (r.Skewed(1000) < 200) head++;
  }
  // 80/20 bias applied recursively: well over half of draws hit the head.
  EXPECT_GT(head, trials / 2);
}

TEST(RandomTest, NonUniformStaysInRange) {
  Random r(11);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.NonUniform(255, 1, 3000);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 3000u);
  }
}

TEST(RandomTest, StringLengthBounds) {
  Random r(13);
  for (int i = 0; i < 100; ++i) {
    std::string s = r.String(3, 9);
    EXPECT_GE(s.size(), 3u);
    EXPECT_LE(s.size(), 9u);
  }
}

TEST(HistogramTest, CountsAndAverage) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Average(), 20.0);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
}

TEST(HistogramTest, PercentileApproximation) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  // Geometric buckets are ~6% wide; allow that slack.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500, 500 * 0.08);
  EXPECT_NEAR(static_cast<double>(h.P95()), 950, 950 * 0.08);
  EXPECT_EQ(h.Percentile(100), 1000u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(5);
  b.Add(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(42);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Crc32Test, KnownValue) {
  // CRC32C("123456789") = 0xE3069283 is the standard check value.
  EXPECT_EQ(Crc32c(Slice("123456789")), 0xE3069283u);
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data(100, 'a');
  uint32_t before = Crc32c(Slice(data));
  data[50] = 'b';
  EXPECT_NE(before, Crc32c(Slice(data)));
}

TEST(Crc32Test, MaskRoundTrip) {
  uint32_t crc = Crc32c(Slice("some record"));
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string data = "hello world, this is a redo record";
  uint32_t one = Crc32c(Slice(data));
  uint32_t inc = Crc32c(0, data.data(), 10);
  inc = Crc32c(inc, data.data() + 10, data.size() - 10);
  // Our Crc32c(crc, ...) continues a previous CRC.
  EXPECT_EQ(one, inc);
}

// The SSE4.2 path (on CPUs that have it) agrees with the table loop on
// every length and alignment, including tails shorter than a word and
// continued checksums.
TEST(Crc32Test, MatchesTheTableLoop) {
  Random rng(42);
  std::string data(20000, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  for (size_t start = 0; start < 9; ++start) {
    for (size_t len : {0, 1, 7, 8, 9, 15, 16, 17, 63, 1000, 16384}) {
      const char* p = data.data() + start;
      EXPECT_EQ(Crc32c(0, p, len), Crc32cPortable(0, p, len))
          << start << "+" << len;
      EXPECT_EQ(Crc32c(0xdeadbeefu, p, len),
                Crc32cPortable(0xdeadbeefu, p, len))
          << start << "+" << len;
    }
  }
  EXPECT_EQ(Crc32cPortable(0, "123456789", 9), 0xE3069283u);
}

// Log and check lines name the source file without its directory, so a
// program's output does not depend on where the tree was checked out.
TEST(LoggingDeathTest, CheckNamesTheFileWithoutItsDirectory) {
  EXPECT_DEATH(VEDB_CHECK(1 + 1 == 3, "arithmetic"),
               "CHECK failed at common_test\\.cc:[0-9]+: 1 \\+ 1 == 3");
}

TEST(LoggingTest, LogNamesTheFileWithoutItsDirectory) {
  ::testing::internal::CaptureStderr();
  VEDB_LOG(kError, "disk %d is on fire", 3);
  const std::string line = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(line.rfind("[kError] common_test.cc:", 0), 0u) << line;
  EXPECT_NE(line.find(": disk 3 is on fire\n"), std::string::npos) << line;
  EXPECT_EQ(line.find('/'), std::string::npos) << line;
}

TEST(LoggingTest, SourceBasenameDropsEveryDirectory) {
  static_assert(SourceBasename("/a/b/c.cc")[0] == 'c');
  EXPECT_STREQ(SourceBasename("/src/common/x.h"), "x.h");
  EXPECT_STREQ(SourceBasename("x.h"), "x.h");
  EXPECT_STREQ(SourceBasename("dir/"), "");
}

}  // namespace
}  // namespace vedb
