// Round-scale benchmarks (google-benchmark): the contiguous upload
// arena at n = 1k / 10k / 100k clients.
//
// Two hot paths, both gated by scripts/check_bench_regression.py:
//
//   BM_RoundUpload      Reset + every worker writing its row in place —
//                       the full upload fan-in. Steady-state must be
//                       allocation-free (the arena is grow-only), so
//                       per-item time must stay flat in n.
//   BM_AggregateArena   Coordinate-median aggregation over the arena
//                       span — the streaming chunked column-major tile
//                       selection (aggregators/median.cc). This is the
//                       rule whose naive form (materialize one n-vector
//                       per coordinate serially) scales worst, so it is
//                       the one the ratchet watches.
//
// Krum is deliberately absent at this scale: it is O(n²·d) in the
// pairwise distance matrix and is benched at protocol sizes in
// bench_micro. See docs/benchmarks.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "aggregators/mean.h"
#include "aggregators/median.h"
#include "aggregators/trimmed_mean.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fl/upload.h"

namespace {

using namespace dpbr;

// Model dimension for the scale benches: big enough that a row write is
// a real memcpy-scale operation, small enough that the 100k arena
// (100k x 256 floats = 100 MiB) fits the CI runner comfortably.
constexpr size_t kDim = 256;

// Writes row i the way a worker does: a keyed per-worker stream, so the
// fill is schedule-independent and rounds are reproducible.
void FillRow(fl::UploadArena& arena, size_t i, uint64_t round) {
  SplitRng rng(17, {round, i});
  rng.FillGaussian(arena.Row(i), arena.dim(), 0.3);
}

void BM_RoundUpload(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  fl::UploadArena arena;
  arena.Reset(n, kDim);  // pre-size: steady state reuses capacity
  uint64_t round = 0;
  for (auto _ : state) {
    arena.Reset(n, kDim);
    ParallelFor(0, n, [&](size_t i) { FillRow(arena, i, round); });
    benchmark::DoNotOptimize(arena.Row(0));
    ++round;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * kDim));
  state.counters["arena_MiB"] =
      static_cast<double>(arena.capacity_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_RoundUpload)->Arg(1000)->Arg(10000)->Arg(100000)->UseRealTime();

void BM_AggregateArena(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  fl::UploadArena arena;
  arena.Reset(n, kDim);
  ParallelFor(0, n, [&](size_t i) { FillRow(arena, i, 0); });
  agg::CoordinateMedianAggregator rule;
  agg::AggregationContext ctx;
  ctx.dim = kDim;
  for (auto _ : state) {
    auto out = rule.Aggregate(arena.span(), ctx);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * kDim));
  state.counters["tile_cols"] =
      static_cast<double>(agg::SelectionTileWidth(n, kDim));
}
BENCHMARK(BM_AggregateArena)->Arg(1000)->Arg(10000)->Arg(100000)->UseRealTime();

// The coordinate-wise rules must aggregate the arena span bitwise
// identically under a one-thread and a hardware-sized pool (the contract
// arena_equivalence_test pins per rule); re-check it here at a
// multi-tile width before timing so a determinism regression fails the
// bench smoke job loudly.
void CheckArenaPoolIdentity() {
  constexpr size_t n = 1000;
  constexpr size_t dim = 1300;  // SelectionTileWidth(1000, 1300) → 16 tiles
  const size_t hw = std::max<size_t>(4, std::thread::hardware_concurrency());
  fl::UploadArena arena;
  arena.Reset(n, dim);
  for (size_t i = 0; i < n; ++i) {
    SplitRng rng(17, {0, i});
    rng.FillGaussian(arena.Row(i), dim, 0.3);
  }
  agg::AggregationContext ctx;
  ctx.dim = dim;
  agg::MeanAggregator mean;
  agg::CoordinateMedianAggregator median;
  agg::TrimmedMeanAggregator trimmed(0.2);
  agg::Aggregator* rules[] = {&mean, &median, &trimmed};
  for (agg::Aggregator* rule : rules) {
    auto run = [&](size_t threads) {
      ThreadPool pool(threads);
      ScopedPoolOverride override(&pool);
      return rule->Aggregate(arena.span(), ctx);
    };
    auto serial = run(1);
    auto wide = run(hw);
    if (!serial.ok() || !wide.ok() ||
        std::memcmp(serial.value().data(), wide.value().data(),
                    dim * sizeof(float)) != 0) {
      std::fprintf(stderr, "FATAL: %s differs between pool 1 and %zu\n",
                   rule->name().c_str(), hw);
      std::exit(1);
    }
  }
  std::fprintf(stderr,
               "arena determinism check: mean/median/trimmed_mean pool 1 "
               "== pool %zu bitwise (n=%zu d=%zu)\n",
               hw, n, dim);
}

}  // namespace

int main(int argc, char** argv) {
  CheckArenaPoolIdentity();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
