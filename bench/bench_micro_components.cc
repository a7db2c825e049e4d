// google-benchmark micro-benchmarks for the hot single-node code paths:
// page codec, REDO apply, expression evaluation, and CRC. These run in real
// time (no simulation) and guard against regressions in the per-row CPU
// work that everything above is built on.

#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "engine/page.h"
#include "engine/redo.h"
#include "engine/types.h"
#include "query/expr.h"

namespace vedb {
namespace {

void BM_RowEncodeDecode(benchmark::State& state) {
  engine::Row row = {engine::Value(12345), engine::Value("customer-name"),
                     engine::Value(3.14159), engine::Value(42)};
  for (auto _ : state) {
    std::string bytes;
    engine::EncodeRow(row, &bytes);
    engine::Row out;
    engine::DecodeRow(Slice(bytes), &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RowEncodeDecode);

void BM_PagePutGet(benchmark::State& state) {
  std::string image;
  engine::Page::Format(&image);
  engine::Page page(&image);
  const std::string row(120, 'r');
  uint16_t slot = 0;
  for (auto _ : state) {
    if (!page.PutRow(slot % 100, Slice(row)).ok()) {
      engine::Page::Format(&image);
    }
    Slice out;
    // discard-ok: timed lookup; the benchmark measures latency only.
    (void)page.GetRow(slot % 100, &out);
    benchmark::DoNotOptimize(out);
    slot++;
  }
}
BENCHMARK(BM_PagePutGet);

void BM_RedoApply(benchmark::State& state) {
  const std::string row(120, 'x');
  engine::RedoRecord rec;
  rec.type = engine::RedoType::kPutRow;
  rec.slot = 0;
  rec.row = Slice(row);
  std::string payload;
  rec.EncodeTo(&payload);
  std::string image;
  uint64_t lsn = 1;
  for (auto _ : state) {
    engine::ApplyRedoToPage(Slice(payload), lsn++, &image);
  }
}
BENCHMARK(BM_RedoApply);

void BM_ExprEval(benchmark::State& state) {
  using namespace query;
  ExprPtr e = Expr::And(Expr::ColCmp(1, CmpOp::kGe, engine::Value(10)),
                        Expr::ColCmp(2, CmpOp::kLt, engine::Value(0.5)));
  engine::Row row = {engine::Value(1), engine::Value(20),
                     engine::Value(0.25)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->EvalBool(row));
  }
}
BENCHMARK(BM_ExprEval);

void BM_Crc32c4K(benchmark::State& state) {
  const std::string data(4096, 'd');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(Slice(data)));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Crc32c4K);

void BM_PageCompact(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::string image;
    engine::Page::Format(&image);
    engine::Page page(&image);
    const std::string row(100, 'r');
    // discard-ok: fixture setup on a freshly formatted page cannot fail.
    for (uint16_t s = 0; s < 80; ++s) (void)page.PutRow(s, Slice(row));
    for (uint16_t s = 0; s < 80; s += 2) (void)page.DeleteRow(s);
    state.ResumeTiming();
    page.Compact();
  }
}
BENCHMARK(BM_PageCompact);

}  // namespace
}  // namespace vedb

BENCHMARK_MAIN();
