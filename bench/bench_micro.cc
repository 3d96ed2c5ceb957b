// Micro-benchmarks (google-benchmark) for the protocol's hot kernels:
// the first-stage KS test, the norm test, the second-stage scoring, the
// baseline aggregators and the RDP accountant.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "aggregators/krum.h"
#include "aggregators/median.h"
#include "aggregators/rfa.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dpbr_aggregator.h"
#include "core/first_stage.h"
#include "dp/rdp_accountant.h"
#include "stats/distributions.h"
#include "stats/kolmogorov.h"
#include "stats/ks_test.h"

namespace {

using namespace dpbr;

// One n x d row-major block of N(0, sigma^2) uploads (row i drawn from
// its own split stream), the layout of the round's upload arena.
std::vector<float> NoiseUploads(size_t n, size_t dim, double sigma) {
  SplitRng rng(1);
  std::vector<float> uploads(n * dim);
  for (size_t i = 0; i < n; ++i) {
    SplitRng w = rng.Split(i);
    w.FillGaussian(uploads.data() + i * dim, dim, sigma);
  }
  return uploads;
}

// --- Bulk Gaussian sampling: the ziggurat production kernel against the
// Box-Muller reference at DP-noise sizes (an e2e reference run draws
// ~3M noise coordinates). items_per_second is draws per second; the CI
// bench gate asserts the ziggurat stays >= 3x the reference per draw.

void BM_FillGaussianZiggurat(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> buf(n);
  SplitRng rng(3, {0xBE});
  for (auto _ : state) {
    rng.FillGaussian(buf.data(), n, 0.3);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FillGaussianZiggurat)->Arg(65536)->Arg(1048576)->UseRealTime();

// The reference side: the sequential scalar Box-Muller fill the bulk
// kernel replaced, one SplitRng::Gaussian() per element.
void BM_FillGaussianBoxMuller(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> buf(n);
  SplitRng rng(3, {0xBE});
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<float>(0.3 * rng.Gaussian());
    }
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FillGaussianBoxMuller)->Arg(65536)->Arg(1048576)->UseRealTime();

// The DP upload perturbation exactly as the worker runs it (AddGaussian
// at a model-sized d).
void BM_AddGaussianUpload(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> upload(d, 0.01f);
  SplitRng rng(5, {0xAD});
  for (auto _ : state) {
    rng.AddGaussian(upload.data(), d, 0.3);
    benchmark::DoNotOptimize(upload.data());
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_AddGaussianUpload)->Arg(35562)->Arg(100000)->UseRealTime();

void BM_KsTestGaussian(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  SplitRng rng(2);
  std::vector<float> u(d);
  rng.FillGaussian(u.data(), d, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::KsTestGaussian(u, 0.3));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
// The MLP d, the CNN d (cnn_gaussian), a wide model and the gated size.
void KsTestArgs(benchmark::internal::Benchmark* b) {
  for (int64_t d : {2410, 5706, 21802, 100000}) b->Arg(d);
}
BENCHMARK(BM_KsTestGaussian)->Apply(KsTestArgs);

// The comparison-sort KS kernel KsTestGaussian replaced: copy the row,
// std::sort it, evaluate Φ into a u array, fold D. Kept here as the
// reference side of the radix-sort ratio gate.
void BM_KsTestGaussianSortReference(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  SplitRng rng(2);
  std::vector<float> u(d);
  rng.FillGaussian(u.data(), d, 0.3);
  for (auto _ : state) {
    std::vector<float> sorted(u);
    std::sort(sorted.begin(), sorted.end());
    double inv_sigma = 1.0 / 0.3;
    std::vector<double> cdf(d);
    for (size_t i = 0; i < d; ++i) {
      cdf[i] = stats::NormalCdf(static_cast<double>(sorted[i]) * inv_sigma);
    }
    double inv_n = 1.0 / static_cast<double>(d);
    double stat = 0.0;
    for (size_t i = 0; i < d; ++i) {
      stat = std::max(stat, static_cast<double>(i + 1) * inv_n - cdf[i]);
      stat = std::max(stat, cdf[i] - static_cast<double>(i) * inv_n);
    }
    benchmark::DoNotOptimize(stats::KsPValue(d, stat));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_KsTestGaussianSortReference)->Apply(KsTestArgs);

void BM_FirstStageApply(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  // The arena layout DpbrAggregator hands the filter; each iteration
  // restores the rows the previous one may have zeroed.
  std::vector<float> arena = NoiseUploads(n, 2410, 0.3);
  std::vector<float> work(arena.size());
  core::FirstStageFilter filter{core::ProtocolOptions{}};
  for (auto _ : state) {
    std::copy(arena.begin(), arena.end(), work.begin());
    benchmark::DoNotOptimize(
        filter.Apply(RowSpan(work.data(), n, 2410), 0.3));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FirstStageApply)->Arg(20)->Arg(50)->Arg(200)->UseRealTime();

void BM_DpbrAggregate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  // The first stage zeroes rejected rows in place, so each iteration
  // restores the block first (the same n x d copy the removed
  // vector-of-vectors entry point made per call).
  std::vector<float> uploads = NoiseUploads(n, 2410, 0.3);
  std::vector<float> work(uploads.size());
  std::vector<float> server_grad(2410, 0.01f);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  ctx.sigma_upload = 0.3;
  ctx.gamma = 0.4;
  ctx.server_gradient = &server_grad;
  core::DpbrAggregator aggregator;
  for (auto _ : state) {
    std::copy(uploads.begin(), uploads.end(), work.begin());
    benchmark::DoNotOptimize(
        aggregator.Aggregate(RowSpan(work.data(), n, 2410), ctx));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DpbrAggregate)->Arg(20)->Arg(50)->Arg(200)->UseRealTime();

void BM_Krum(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> uploads = NoiseUploads(n, 2410, 0.3);
  RowSpan rows(uploads.data(), n, 2410);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  ctx.gamma = 0.6;
  agg::KrumAggregator krum;
  for (auto _ : state) {
    benchmark::DoNotOptimize(krum.Aggregate(rows, ctx));
  }
}
BENCHMARK(BM_Krum)->Arg(20)->Arg(50)->UseRealTime();

// --- Krum serial-vs-parallel comparison at production scale (n=100
// clients, d=100k dims). The thread count is pinned via
// ScopedPoolOverride so the two benchmarks differ only in pool size;
// main() additionally asserts the two aggregates are bit-identical.

constexpr size_t kKrumScaleN = 100;
constexpr size_t kKrumScaleDim = 100000;

size_t ParallelPoolSize() {
  return std::max<size_t>(4, std::thread::hardware_concurrency());
}

void KrumAtScale(benchmark::State& state, size_t pool_size) {
  std::vector<float> uploads = NoiseUploads(kKrumScaleN, kKrumScaleDim, 0.3);
  RowSpan rows(uploads.data(), kKrumScaleN, kKrumScaleDim);
  agg::AggregationContext ctx;
  ctx.dim = kKrumScaleDim;
  ctx.gamma = 0.6;
  agg::KrumAggregator krum;
  ThreadPool pool(pool_size);
  ScopedPoolOverride override(&pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(krum.Aggregate(rows, ctx));
  }
  state.counters["threads"] = static_cast<double>(pool_size);
}

void BM_KrumAtScaleSerial(benchmark::State& state) {
  KrumAtScale(state, 1);
}
BENCHMARK(BM_KrumAtScaleSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_KrumAtScaleParallel(benchmark::State& state) {
  KrumAtScale(state, ParallelPoolSize());
}
BENCHMARK(BM_KrumAtScaleParallel)->Unit(benchmark::kMillisecond)->UseRealTime();

// Serial and parallel Krum must agree bit-for-bit; run before the timing
// loops so a determinism regression fails the bench smoke job loudly.
void CheckKrumSerialParallelIdentity() {
  std::vector<float> uploads = NoiseUploads(kKrumScaleN, kKrumScaleDim, 0.3);
  RowSpan rows(uploads.data(), kKrumScaleN, kKrumScaleDim);
  agg::AggregationContext ctx;
  ctx.dim = kKrumScaleDim;
  ctx.gamma = 0.6;
  agg::KrumAggregator krum;
  std::vector<float> serial, parallel;
  {
    ThreadPool pool(1);
    ScopedPoolOverride override(&pool);
    serial = krum.Aggregate(rows, ctx).value();
  }
  {
    ThreadPool pool(ParallelPoolSize());
    ScopedPoolOverride override(&pool);
    parallel = krum.Aggregate(rows, ctx).value();
  }
  if (serial != parallel) {
    std::fprintf(stderr,
                 "FATAL: serial and parallel Krum aggregates differ\n");
    std::exit(1);
  }
  std::fprintf(stderr,
               "krum determinism check: serial == parallel (n=%zu, d=%zu, "
               "%zu threads)\n",
               kKrumScaleN, kKrumScaleDim, ParallelPoolSize());
}

void BM_CoordinateMedian(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> uploads = NoiseUploads(n, 2410, 0.3);
  RowSpan rows(uploads.data(), n, 2410);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  agg::CoordinateMedianAggregator median;
  for (auto _ : state) {
    benchmark::DoNotOptimize(median.Aggregate(rows, ctx));
  }
}
BENCHMARK(BM_CoordinateMedian)->Arg(20)->Arg(50)->UseRealTime();

void BM_RfaGeometricMedian(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> uploads = NoiseUploads(n, 2410, 0.3);
  RowSpan rows(uploads.data(), n, 2410);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  agg::RfaAggregator rfa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfa.Aggregate(rows, ctx));
  }
}
BENCHMARK(BM_RfaGeometricMedian)->Arg(20)->Arg(50)->UseRealTime();

void BM_RdpEpsilon(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::ComputeEpsilon(0.016, 3.0, 500, 1e-4));
  }
}
BENCHMARK(BM_RdpEpsilon);

void BM_NoiseMultiplierSearch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::NoiseMultiplierFor(0.016, 500, 0.5, 1e-4));
  }
}
BENCHMARK(BM_NoiseMultiplierSearch);

// --- Fork-join overhead: one ParallelFor over 64 indices with an empty
// body, at pool 1 (the inline loop) and at the hardware pool size.
// Report only.
void BM_ParallelForEmpty(benchmark::State& state, bool hw) {
  ThreadPool pool(hw ? ThreadPool::Global().num_threads() : 1);
  ScopedPoolOverride override(&pool);
  for (auto _ : state) {
    ParallelFor(0, 64, [](size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.counters["threads"] = static_cast<double>(pool.num_threads());
}
BENCHMARK_CAPTURE(BM_ParallelForEmpty, pool1, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_ParallelForEmpty, poolhw, true)->UseRealTime();

// FillGaussian must be bit-identical under serial and parallel pools
// (same contract the aggregators obey); run before the timing loops so a
// determinism regression fails the bench smoke job loudly.
void CheckFillGaussianPoolIdentity() {
  const size_t n = 3 * kGaussianFillBlock + 1234;
  std::vector<std::vector<float>> fills;
  for (size_t threads : {size_t{1}, size_t{2}, ParallelPoolSize()}) {
    ThreadPool pool(threads);
    ScopedPoolOverride override(&pool);
    SplitRng rng(23, {5});
    fills.emplace_back(n);
    rng.FillGaussian(fills.back().data(), n, 0.7);
  }
  for (size_t i = 1; i < fills.size(); ++i) {
    if (fills[0] != fills[i]) {
      std::fprintf(stderr,
                   "FATAL: FillGaussian differs across pool sizes\n");
      std::exit(1);
    }
  }
  std::fprintf(stderr,
               "fill-gaussian determinism check: pools {1,2,%zu} "
               "bit-identical (n=%zu)\n",
               ParallelPoolSize(), n);
}

}  // namespace

int main(int argc, char** argv) {
  CheckKrumSerialParallelIdentity();
  CheckFillGaussianPoolIdentity();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
