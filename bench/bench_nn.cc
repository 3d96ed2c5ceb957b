// Micro-benchmarks (google-benchmark) for the nn compute layer: the
// im2col+GEMM Conv2d against the naive reference kernel at the
// CIFAR-like acceptance shape (3→32 channels, 32×32, k=3), raw GEMM
// throughput, batched Linear, and a full DP worker local step
// (HonestDpWorker::ComputeUpdateInto) on both MLP and CNN models.
//
// Every layer bench drives a one-layer Sequential, so it times the same
// stage driver the models use. Before timing, main() asserts the GEMM
// conv is bit-identical under serial and parallel pools at the
// acceptance shape, mirroring bench_micro's Krum determinism check, and
// that the GEMM tile kernels equal the per-row loops they replaced.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/worker.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace {

using namespace dpbr;

// The acceptance shape: 3→32 channels, 32×32 input, k=3, same padding.
constexpr size_t kInCh = 3;
constexpr size_t kOutCh = 32;
constexpr size_t kImg = 32;
constexpr size_t kKernel = 3;
constexpr size_t kPad = 1;

Tensor RandomTensor(std::vector<size_t> shape, uint64_t seed) {
  SplitRng rng(seed);
  Tensor x(std::move(shape));
  x.FillGaussian(&rng, 1.0);
  return x;
}

// One acceptance-shape image as a microbatch of one.
Tensor RandomImage(uint64_t seed) {
  return RandomTensor({1, kInCh, kImg, kImg}, seed);
}

// Layers execute only through a Sequential's plan; a lone layer runs as
// a one-group stage, the same driver every model uses.
std::unique_ptr<nn::Sequential> Solo(nn::LayerPtr layer) {
  auto m = std::make_unique<nn::Sequential>();
  m->Add(std::move(layer));
  SplitRng rng(3);
  m->InitParams(&rng);
  return m;
}

std::unique_ptr<nn::Sequential> MakeConv(nn::Conv2dKernel kernel) {
  return Solo(
      std::make_unique<nn::Conv2d>(kInCh, kOutCh, kKernel, kPad, kernel));
}

// Example `ex` of a batch-leading tensor, as a microbatch of one.
Tensor ExampleOf(const Tensor& batch, size_t ex) {
  size_t feat = batch.size() / batch.dim(0);
  std::vector<size_t> shape = batch.shape();
  shape[0] = 1;
  return Tensor(shape, std::vector<float>(batch.data() + ex * feat,
                                          batch.data() + (ex + 1) * feat));
}

std::vector<Tensor> ExamplesOf(const Tensor& batch) {
  std::vector<Tensor> out;
  for (size_t ex = 0; ex < batch.dim(0); ++ex) {
    out.push_back(ExampleOf(batch, ex));
  }
  return out;
}

// --- Single-example conv: one example per call through the stage
// driver (what a per-example reference costs).

void ConvForward(benchmark::State& state, nn::Conv2dKernel kernel) {
  std::unique_ptr<nn::Sequential> conv = MakeConv(kernel);
  Tensor x = RandomImage(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv->ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * kOutCh * kImg * kImg);
}

void BM_Conv2dForward(benchmark::State& state) {
  ConvForward(state, nn::Conv2dKernel::kGemm);
}
BENCHMARK(BM_Conv2dForward)->Unit(benchmark::kMicrosecond);

void BM_Conv2dForwardNaive(benchmark::State& state) {
  ConvForward(state, nn::Conv2dKernel::kNaive);
}
BENCHMARK(BM_Conv2dForwardNaive)->Unit(benchmark::kMicrosecond);

void ConvBackward(benchmark::State& state, nn::Conv2dKernel kernel) {
  std::unique_ptr<nn::Sequential> conv = MakeConv(kernel);
  Tensor x = RandomImage(5);
  Tensor gy = RandomTensor(conv->ForwardBatch(x).shape(), 7);
  std::vector<float> grads(conv->NumParams());
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv->BackwardBatchTo(gy, 1, grads.data()));
  }
  state.SetItemsProcessed(state.iterations() * kOutCh * kImg * kImg);
}

void BM_Conv2dBackward(benchmark::State& state) {
  ConvBackward(state, nn::Conv2dKernel::kGemm);
}
BENCHMARK(BM_Conv2dBackward)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_Conv2dBackwardNaive(benchmark::State& state) {
  ConvBackward(state, nn::Conv2dKernel::kNaive);
}
BENCHMARK(BM_Conv2dBackwardNaive)->Unit(benchmark::kMicrosecond);

// --- Batched conv forward: one dispatch for the microbatch against the
// same work run as kBatch microbatches of one.

constexpr size_t kBatch = 16;

Tensor RandomBatch(uint64_t seed) {
  return RandomTensor({kBatch, kInCh, kImg, kImg}, seed);
}

void BM_Conv2dForwardBatch(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor x = RandomBatch(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv->ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dForwardBatch)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_Conv2dForwardBatchPerExample(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> conv = MakeConv(nn::Conv2dKernel::kGemm);
  std::vector<Tensor> examples = ExamplesOf(RandomBatch(13));
  for (auto _ : state) {
    for (const Tensor& example : examples) {
      benchmark::DoNotOptimize(conv->ForwardBatch(example));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dForwardBatchPerExample)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// --- Batched conv backward: the single-dispatch microbatch (per-example
// dW/db rows into the sink + dX via col2im) against the same work run
// as microbatches of one. Both sides time a full forward+backward round
// trip (each backward consumes its own forward's caches) — the forward
// work is identical, so the ratio isolates the dispatch shape.

void BM_Conv2dBackwardBatch(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor x = RandomBatch(13);
  Tensor gy = RandomTensor({kBatch, kOutCh, kImg, kImg}, 29);
  std::vector<float> sink(kBatch * conv->NumParams());
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv->ForwardBatch(x));
    benchmark::DoNotOptimize(conv->BackwardBatchTo(gy, kBatch, sink.data()));
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dBackwardBatch)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_Conv2dBackwardBatchPerExample(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> conv = MakeConv(nn::Conv2dKernel::kGemm);
  std::vector<Tensor> examples = ExamplesOf(RandomBatch(13));
  std::vector<Tensor> grads =
      ExamplesOf(RandomTensor({kBatch, kOutCh, kImg, kImg}, 29));
  std::vector<float> row(conv->NumParams());
  for (auto _ : state) {
    for (size_t ex = 0; ex < kBatch; ++ex) {
      benchmark::DoNotOptimize(conv->ForwardBatch(examples[ex]));
      benchmark::DoNotOptimize(
          conv->BackwardBatchTo(grads[ex], 1, row.data()));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dBackwardBatchPerExample)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Batched Linear backward (one dispatch: dW/db sink rows + dX rows) at
// the e2e model shape, against microbatches of one.
void BM_LinearBackwardBatch(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> linear =
      Solo(std::make_unique<nn::Linear>(512, 32));
  Tensor x = RandomTensor({16, 512}, 11);
  Tensor gy = RandomTensor({16, 32}, 12);
  std::vector<float> sink(16 * linear->NumParams());
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear->ForwardBatch(x));
    benchmark::DoNotOptimize(linear->BackwardBatchTo(gy, 16, sink.data()));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 512 * 32);
}
BENCHMARK(BM_LinearBackwardBatch)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_LinearBackwardBatchPerExample(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> linear =
      Solo(std::make_unique<nn::Linear>(512, 32));
  std::vector<Tensor> examples = ExamplesOf(RandomTensor({16, 512}, 11));
  std::vector<Tensor> grads = ExamplesOf(RandomTensor({16, 32}, 12));
  std::vector<float> row(linear->NumParams());
  for (auto _ : state) {
    for (size_t ex = 0; ex < 16; ++ex) {
      benchmark::DoNotOptimize(linear->ForwardBatch(examples[ex]));
      benchmark::DoNotOptimize(
          linear->BackwardBatchTo(grads[ex], 1, row.data()));
    }
  }
  state.SetItemsProcessed(state.iterations() * 16 * 512 * 32);
}
BENCHMARK(BM_LinearBackwardBatchPerExample)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// --- GroupNorm / pooling as one-layer stages: one threaded dispatch per
// microbatch. Shape is the post-conv CNN stage activation:
// (16, 32, 32, 32).

Tensor RandomStageBatch(uint64_t seed) {
  return RandomTensor({kBatch, kOutCh, kImg, kImg}, seed);
}

std::unique_ptr<nn::Sequential> MakeGroupNorm() {
  return Solo(std::make_unique<nn::GroupNorm>(4, kOutCh, 1e-5,
                                              /*affine=*/false));
}

void BM_GroupNormForwardBatch(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> gn = MakeGroupNorm();
  Tensor x = RandomStageBatch(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gn->ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_GroupNormForwardBatch)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_GroupNormBackwardBatch(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> gn = MakeGroupNorm();
  Tensor x = RandomStageBatch(17);
  Tensor gy = RandomTensor(gn->ForwardBatch(x).shape(), 19);
  for (auto _ : state) {
    // No parameters (affine=false): the sink is never touched.
    benchmark::DoNotOptimize(gn->BackwardBatch(gy, {}));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_GroupNormBackwardBatch)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_PoolForwardBatch(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> pool =
      Solo(std::make_unique<nn::AdaptiveAvgPool2d>(4, 4));
  Tensor x = RandomStageBatch(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool->ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_PoolForwardBatch)->Unit(benchmark::kMicrosecond)->UseRealTime();

// Raw GEMM throughput at the conv-lowered shape:
// (32 × 27) · (27 × 1024) per forward.
void BM_GemmConvShape(benchmark::State& state) {
  size_t m = kOutCh, k = kInCh * kKernel * kKernel, n = kImg * kImg;
  SplitRng rng(9);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  rng.FillGaussian(a.data(), a.size(), 1.0);
  rng.FillGaussian(b.data(), b.size(), 1.0);
  for (auto _ : state) {
    nn::GemmNN(m, k, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmConvShape)->Unit(benchmark::kMicrosecond)->UseRealTime();

// --- GEMM tile kernels at the cnn_gaussian conv shapes (its 8→8 conv,
// k = 3, on a 14×14 map), each paired with a bench-side copy of the
// per-row loop the tiles replaced: one axpy_f32 per (i, p) for NN/TN,
// one dot8_f32 per element for NT. Both sides compute the same bits
// (main() checks), so the ratio is the blocking alone.
//   NN (forward):  C (8×196)  = W (8×72) · col (72×196)
//   TN (dX panel): C (72×196) = Wᵀ · gy (8×196)
//   NT (dW):       C (8×72)  += gy (8×196) · colᵀ
constexpr size_t kCnnOut = 8;
constexpr size_t kCnnCol = 72;
constexpr size_t kCnnQ = 196;
constexpr size_t kRowLoopPanelK = 64;  // the old k-panel height
constexpr size_t kRowLoopTileN = 32;   // the old NT j-tile width

void RowLoopNN(size_t m, size_t k, size_t n, const float* a, const float* b,
               float* c) {
  const simd::SimdKernels& kern = simd::Kernels();
  std::fill(c, c + m * n, 0.0f);
  for (size_t p0 = 0; p0 < k; p0 += kRowLoopPanelK) {
    size_t p1 = std::min(k, p0 + kRowLoopPanelK);
    for (size_t i = 0; i < m; ++i) {
      for (size_t p = p0; p < p1; ++p) {
        kern.axpy_f32(a[i * k + p], b + p * n, c + i * n, n);
      }
    }
  }
}

// A is (k×m): C = Aᵀ·B.
void RowLoopTN(size_t m, size_t k, size_t n, const float* a, const float* b,
               float* c) {
  const simd::SimdKernels& kern = simd::Kernels();
  std::fill(c, c + m * n, 0.0f);
  for (size_t p0 = 0; p0 < k; p0 += kRowLoopPanelK) {
    size_t p1 = std::min(k, p0 + kRowLoopPanelK);
    for (size_t i = 0; i < m; ++i) {
      for (size_t p = p0; p < p1; ++p) {
        kern.axpy_f32(a[p * m + i], b + p * n, c + i * n, n);
      }
    }
  }
}

// B is (n×k): C += A·Bᵀ.
void RowLoopNT(size_t m, size_t k, size_t n, const float* a, const float* b,
               float* c) {
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t j0 = 0; j0 < n; j0 += kRowLoopTileN) {
    size_t j1 = std::min(n, j0 + kRowLoopTileN);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = j0; j < j1; ++j) {
        c[i * n + j] += kern.dot8_f32(a + i * k, b + j * k, k);
      }
    }
  }
}

struct CnnGemmOperands {
  std::vector<float> w = Gaussian(kCnnOut * kCnnCol, 41);
  std::vector<float> col = Gaussian(kCnnCol * kCnnQ, 43);
  std::vector<float> gy = Gaussian(kCnnOut * kCnnQ, 47);

  static std::vector<float> Gaussian(size_t n, uint64_t seed) {
    std::vector<float> v(n);
    SplitRng rng(seed);
    rng.FillGaussian(v.data(), n, 1.0);
    return v;
  }
};

void BM_GemmTileNNCnnShape(benchmark::State& state) {
  CnnGemmOperands g;
  std::vector<float> c(kCnnOut * kCnnQ);
  for (auto _ : state) {
    nn::GemmNNSerial(kCnnOut, kCnnCol, kCnnQ, g.w.data(), g.col.data(),
                     c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kCnnOut * kCnnCol * kCnnQ);
}
BENCHMARK(BM_GemmTileNNCnnShape)->Unit(benchmark::kMicrosecond);

void BM_GemmRowLoopNNCnnShape(benchmark::State& state) {
  CnnGemmOperands g;
  std::vector<float> c(kCnnOut * kCnnQ);
  for (auto _ : state) {
    RowLoopNN(kCnnOut, kCnnCol, kCnnQ, g.w.data(), g.col.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kCnnOut * kCnnCol * kCnnQ);
}
BENCHMARK(BM_GemmRowLoopNNCnnShape)->Unit(benchmark::kMicrosecond);

void BM_GemmTileTNCnnShape(benchmark::State& state) {
  CnnGemmOperands g;
  std::vector<float> c(kCnnCol * kCnnQ);
  for (auto _ : state) {
    nn::GemmTNSerial(kCnnCol, kCnnOut, kCnnQ, g.w.data(), g.gy.data(),
                     c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kCnnOut * kCnnCol * kCnnQ);
}
BENCHMARK(BM_GemmTileTNCnnShape)->Unit(benchmark::kMicrosecond);

void BM_GemmRowLoopTNCnnShape(benchmark::State& state) {
  CnnGemmOperands g;
  std::vector<float> c(kCnnCol * kCnnQ);
  for (auto _ : state) {
    RowLoopTN(kCnnCol, kCnnOut, kCnnQ, g.w.data(), g.gy.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kCnnOut * kCnnCol * kCnnQ);
}
BENCHMARK(BM_GemmRowLoopTNCnnShape)->Unit(benchmark::kMicrosecond);

void BM_GemmTileNTCnnShape(benchmark::State& state) {
  CnnGemmOperands g;
  std::vector<float> c(kCnnOut * kCnnCol);
  for (auto _ : state) {
    nn::GemmNTSerial(kCnnOut, kCnnQ, kCnnCol, g.gy.data(), g.col.data(),
                     c.data(), /*accumulate=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kCnnOut * kCnnCol * kCnnQ);
}
BENCHMARK(BM_GemmTileNTCnnShape)->Unit(benchmark::kMicrosecond);

void BM_GemmRowLoopNTCnnShape(benchmark::State& state) {
  CnnGemmOperands g;
  std::vector<float> c(kCnnOut * kCnnCol);
  for (auto _ : state) {
    RowLoopNT(kCnnOut, kCnnQ, kCnnCol, g.gy.data(), g.col.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kCnnOut * kCnnCol * kCnnQ);
}
BENCHMARK(BM_GemmRowLoopNTCnnShape)->Unit(benchmark::kMicrosecond);

// Batched Linear forward at the e2e model shape (batch 16, 512→32).
void BM_LinearForwardBatch(benchmark::State& state) {
  std::unique_ptr<nn::Sequential> linear =
      Solo(std::make_unique<nn::Linear>(512, 32));
  Tensor x = RandomTensor({16, 512}, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear->ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 512 * 32);
}
BENCHMARK(BM_LinearForwardBatch)->Unit(benchmark::kMicrosecond)->UseRealTime();

data::DatasetBundle ImageBundle(size_t side) {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.feature_dim = side * side;
  spec.image_h = side;
  spec.image_w = side;
  spec.train_size = 256;
  spec.val_size = 32;
  spec.test_size = 32;
  auto b = data::GenerateSynthetic(spec, 13);
  if (!b.ok()) {
    std::fprintf(stderr, "FATAL: synthetic bundle: %s\n",
                 b.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(b).value();
}

data::DatasetBundle FlatBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.feature_dim = 64;
  spec.train_size = 256;
  spec.val_size = 32;
  spec.test_size = 32;
  auto b = data::GenerateSynthetic(spec, 13);
  if (!b.ok()) {
    std::fprintf(stderr, "FATAL: synthetic bundle: %s\n",
                 b.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(b).value();
}

// One full DP local step (Algorithm 1 lines 5-11): microbatch gradients,
// momentum, normalization, upload — the per-round unit of worker cost.
void LocalStep(benchmark::State& state, const data::DatasetBundle& bundle,
               nn::ModelFactory factory) {
  fl::WorkerOptions opts;
  opts.batch_size = 16;
  opts.sigma = 0.3;
  fl::HonestDpWorker worker(0, data::DatasetView::All(&bundle.train),
                            factory, opts, 17);
  std::vector<float> params(worker.dim(), 0.01f);
  std::vector<float> upload(worker.dim());
  int round = 1;
  for (auto _ : state) {
    worker.ComputeUpdateInto(params, round++, upload.data());
    benchmark::DoNotOptimize(upload.data());
    benchmark::ClobberMemory();
  }
  state.counters["d"] = static_cast<double>(worker.dim());
  state.SetItemsProcessed(state.iterations() * opts.batch_size);
}

void BM_LocalStepMlp(benchmark::State& state) {
  data::DatasetBundle bundle = FlatBundle();
  LocalStep(state, bundle, nn::MlpFactory(64, 128, 10));
}
BENCHMARK(BM_LocalStepMlp)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LocalStepCnn(benchmark::State& state) {
  data::DatasetBundle bundle = ImageBundle(32);
  LocalStep(state, bundle, nn::CnnFactory(1, kOutCh, kKernel, 10));
}
BENCHMARK(BM_LocalStepCnn)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- One worker round at the benchmark workloads' shapes, bc = 16, per
// momentum mode: the arg is d (2410 = MLP 64-32-10 on flat features,
// 5706 = CNN(1, 8, 3, 10) on 16×16 images). Pool 1, as inside the
// trainer's worker ParallelFor where the nn kernels run inline. Report
// only: the slot pipeline is the part the modes differ in.
void BM_WorkerComputeUpdate(benchmark::State& state, bool persist) {
  const bool mlp = state.range(0) == 2410;
  data::DatasetBundle bundle = mlp ? FlatBundle() : ImageBundle(16);
  nn::ModelFactory factory =
      mlp ? nn::MlpFactory(64, 32, 10) : nn::CnnFactory(1, 8, 3, 10);
  fl::WorkerOptions opts;
  opts.batch_size = 16;
  opts.sigma = 0.3;
  opts.momentum_reset = persist ? fl::MomentumReset::kPersist
                                : fl::MomentumReset::kResetToUpload;
  fl::HonestDpWorker worker(0, data::DatasetView::All(&bundle.train),
                            factory, opts, 17);
  if (worker.dim() != static_cast<size_t>(state.range(0))) {
    std::fprintf(stderr, "FATAL: worker bench d=%zu, expected %lld\n",
                 worker.dim(), static_cast<long long>(state.range(0)));
    std::exit(1);
  }
  ThreadPool pool(1);
  ScopedPoolOverride override_pool(&pool);
  std::vector<float> params(worker.dim(), 0.01f);
  std::vector<float> upload(worker.dim());
  int round = 1;
  for (auto _ : state) {
    worker.ComputeUpdateInto(params, round++, upload.data());
    benchmark::DoNotOptimize(upload.data());
    benchmark::ClobberMemory();
  }
  state.counters["momentum_slots"] =
      static_cast<double>(worker.momentum().size());
}

void WorkerShapes(benchmark::internal::Benchmark* b) {
  b->Arg(2410)->Arg(5706)->Unit(benchmark::kMicrosecond);
}
BENCHMARK_CAPTURE(BM_WorkerComputeUpdate, Reset, false)->Apply(WorkerShapes);
BENCHMARK_CAPTURE(BM_WorkerComputeUpdate, Persist, true)->Apply(WorkerShapes);

// --- Whole-CNN batched step, fused (one stage, one dispatch per
// direction) against one stage per layer (SetFusionEnabled(false)), both
// through the same hooks. Forward-only and forward+loss+backward
// variants; the fused/unfused pairs feed parity-floor ratio gates in
// scripts/check_bench_regression.py. The backward variants time the
// full round trip (the cached-state contract ties each backward to its
// own forward), so the ratio there mixes both directions.

std::unique_ptr<nn::Sequential> StepCnn(bool fused, SplitRng* rng) {
  std::unique_ptr<nn::Sequential> model =
      nn::CnnFactory(1, kOutCh, kKernel, 10)();
  model->SetFusionEnabled(fused);
  model->InitParams(rng);
  return model;
}

void LocalStepCnnForward(benchmark::State& state, bool fused) {
  SplitRng rng(31);
  std::unique_ptr<nn::Sequential> model = StepCnn(fused, &rng);
  constexpr size_t kN = 16;
  Tensor batch({kN, 1, kImg, kImg});
  batch.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->ForwardBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() * kN);
}

void BM_LocalStepCnnForward(benchmark::State& state) {
  LocalStepCnnForward(state, /*fused=*/true);
}
BENCHMARK(BM_LocalStepCnnForward)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LocalStepCnnForwardUnfused(benchmark::State& state) {
  LocalStepCnnForward(state, /*fused=*/false);
}
BENCHMARK(BM_LocalStepCnnForwardUnfused)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The backward-dominated unit of the worker step in isolation: batched
// forward + loss + per-example-gradient backward through the whole CNN.
// This is the surface the stage driver accelerates (BM_LocalStepCnn
// adds clipping, momentum and noise on top).
void LocalStepCnnBackward(benchmark::State& state, bool fused) {
  SplitRng rng(31);
  std::unique_ptr<nn::Sequential> model = StepCnn(fused, &rng);
  constexpr size_t kN = 16;
  Tensor batch({kN, 1, kImg, kImg});
  batch.FillGaussian(&rng, 1.0);
  std::vector<size_t> labels(kN);
  for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % 10;
  size_t dim = model->NumParams();
  std::vector<float> grads(kN * dim);
  for (auto _ : state) {
    Tensor logits = model->ForwardBatch(batch);
    nn::BatchLossGrad lg = nn::SoftmaxCrossEntropyBatch(logits, labels);
    benchmark::DoNotOptimize(
        model->BackwardBatchTo(lg.grad_logits, kN, grads.data()));
  }
  state.counters["d"] = static_cast<double>(dim);
  state.SetItemsProcessed(state.iterations() * kN);
}

void BM_LocalStepCnnBackward(benchmark::State& state) {
  LocalStepCnnBackward(state, /*fused=*/true);
}
BENCHMARK(BM_LocalStepCnnBackward)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_LocalStepCnnBackwardUnfused(benchmark::State& state) {
  LocalStepCnnBackward(state, /*fused=*/false);
}
BENCHMARK(BM_LocalStepCnnBackwardUnfused)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Reports a determinism failure and exits, failing the bench smoke job.
void Fail(const char* what) {
  std::fprintf(stderr, "FATAL: %s\n", what);
  std::exit(1);
}

// GEMM conv must agree with itself bit-for-bit across pool sizes, and
// with the naive kernel to 1e-4 — checked before the timing loops so a
// regression fails the bench smoke job loudly.
void CheckConvDeterminism() {
  size_t hw = std::max<size_t>(4, std::thread::hardware_concurrency());
  Tensor x = RandomImage(5);
  std::vector<Tensor> outs;
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    ThreadPool pool(threads);
    ScopedPoolOverride override_pool(&pool);
    outs.push_back(MakeConv(nn::Conv2dKernel::kGemm)->ForwardBatch(x));
  }
  for (size_t i = 1; i < outs.size(); ++i) {
    for (size_t j = 0; j < outs[0].size(); ++j) {
      if (outs[0][j] != outs[i][j]) Fail("GEMM conv differs across pools");
    }
  }
  Tensor yn = MakeConv(nn::Conv2dKernel::kNaive)->ForwardBatch(x);
  for (size_t j = 0; j < yn.size(); ++j) {
    double scale = std::max(1.0, std::abs(static_cast<double>(yn[j])));
    if (std::abs(static_cast<double>(yn[j]) - outs[0][j]) > 1e-4 * scale) {
      Fail("GEMM conv diverges from naive kernel");
    }
  }
  // The batch forward+backward (one dispatch each) must reproduce its
  // examples run as microbatches of one, bit for bit: output, dX and
  // each example's sink row.
  std::unique_ptr<nn::Sequential> conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor xb = RandomBatch(13);
  Tensor gyb = RandomTensor({kBatch, kOutCh, kImg, kImg}, 37);
  size_t dim = conv->NumParams();
  std::vector<float> sink(kBatch * dim);
  Tensor yb = conv->ForwardBatch(xb);
  Tensor dxb = conv->BackwardBatchTo(gyb, kBatch, sink.data());
  size_t feat = kInCh * kImg * kImg;
  size_t out_stride = kOutCh * kImg * kImg;
  std::vector<float> row(dim);
  for (size_t ex = 0; ex < kBatch; ++ex) {
    Tensor y = conv->ForwardBatch(ExampleOf(xb, ex));
    Tensor dx = conv->BackwardBatchTo(ExampleOf(gyb, ex), 1, row.data());
    for (size_t j = 0; j < out_stride; ++j) {
      if (yb[ex * out_stride + j] != y[j]) {
        Fail("batch conv forward differs from batch-of-1");
      }
    }
    for (size_t j = 0; j < feat; ++j) {
      if (dxb[ex * feat + j] != dx[j]) {
        Fail("batch conv backward dX differs from batch-of-1");
      }
    }
    for (size_t j = 0; j < dim; ++j) {
      if (sink[ex * dim + j] != row[j]) {
        Fail("batch conv backward sink row differs from batch-of-1");
      }
    }
  }
  // The tile kernels and the per-row loops they replaced compute the
  // same bits at the benched shapes.
  CnnGemmOperands g;
  std::vector<float> tile(kCnnCol * kCnnQ), loop(kCnnCol * kCnnQ);
  nn::GemmNNSerial(kCnnOut, kCnnCol, kCnnQ, g.w.data(), g.col.data(),
                   tile.data());
  RowLoopNN(kCnnOut, kCnnCol, kCnnQ, g.w.data(), g.col.data(), loop.data());
  if (!std::equal(tile.begin(), tile.begin() + kCnnOut * kCnnQ,
                  loop.begin())) {
    Fail("NN tile kernel differs from the per-row axpy loop");
  }
  nn::GemmTNSerial(kCnnCol, kCnnOut, kCnnQ, g.w.data(), g.gy.data(),
                   tile.data());
  RowLoopTN(kCnnCol, kCnnOut, kCnnQ, g.w.data(), g.gy.data(), loop.data());
  if (tile != loop) Fail("TN tile kernel differs from the per-row axpy loop");
  std::fill(tile.begin(), tile.end(), 0.5f);
  std::fill(loop.begin(), loop.end(), 0.5f);
  nn::GemmNTSerial(kCnnOut, kCnnQ, kCnnCol, g.gy.data(), g.col.data(),
                   tile.data(), /*accumulate=*/true);
  RowLoopNT(kCnnOut, kCnnQ, kCnnCol, g.gy.data(), g.col.data(), loop.data());
  if (tile != loop) Fail("NT block kernel differs from the dot8 loop");
  std::fprintf(stderr,
               "conv determinism check: pools {1,2,%zu} bit-identical, "
               "naive agreement within 1e-4, batch fwd+bwd == "
               "batch-of-1, GEMM tiles == row loops\n",
               hw);
}

}  // namespace

int main(int argc, char** argv) {
  CheckConvDeterminism();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
