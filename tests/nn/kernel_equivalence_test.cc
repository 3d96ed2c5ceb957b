// Contract tests for the nn compute layer, all through the one
// execution path (Sequential → FusionPlan → layer hooks):
//  * the im2col+GEMM Conv2d agrees with the naive reference kernel to
//    1e-4 relative tolerance (forward, input grads, parameter grads),
//  * results are bit-identical under thread pools of size 1, 2 and
//    hardware concurrency, and across SIMD tiers,
//  * a microbatch of N reproduces its examples run as microbatches of
//    one bit-for-bit, including the per-example parameter gradients the
//    DP protocol clips,
//  * fused and unfused grouping agree bitwise, with the documented
//    dispatch counts, and
//  * the cached-state contract is *checked*: a backward with no forward
//    behind it dies loudly, while legal interleavings (evaluation
//    between training steps) stay bitwise correct.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dpbr {
namespace nn {
namespace {

Tensor RandomTensor(std::vector<size_t> shape, uint64_t seed) {
  SplitRng rng(seed);
  Tensor x(std::move(shape));
  x.FillGaussian(&rng, 1.0);
  return x;
}

void ExpectNear(const Tensor& a, const Tensor& b, double rel_tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (size_t i = 0; i < a.size(); ++i) {
    double av = a[i], bv = b[i];
    double scale = std::max(1.0, std::max(std::abs(av), std::abs(bv)));
    EXPECT_NEAR(av, bv, rel_tol * scale) << "index " << i;
  }
}

void ExpectNear(const std::vector<float>& a, const std::vector<float>& b,
                double rel_tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    double av = a[i], bv = b[i];
    double scale = std::max(1.0, std::max(std::abs(av), std::abs(bv)));
    EXPECT_NEAR(av, bv, rel_tol * scale) << "index " << i;
  }
}

// A one-layer model: the layer runs as a one-group stage.
std::unique_ptr<Sequential> Solo(LayerPtr layer, uint64_t seed = 1) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::move(layer));
  SplitRng rng(seed);
  m->InitParams(&rng);
  return m;
}

std::vector<size_t> WithBatch(size_t n, const std::vector<size_t>& shape) {
  std::vector<size_t> s;
  s.push_back(n);
  for (size_t d : shape) s.push_back(d);
  return s;
}

// Example `ex` of a batch-leading tensor, as a microbatch of one.
Tensor ExampleOf(const Tensor& batch, size_t ex) {
  size_t feat = batch.size() / batch.dim(0);
  std::vector<size_t> shape = batch.shape();
  shape[0] = 1;
  return Tensor(shape, std::vector<float>(batch.data() + ex * feat,
                                          batch.data() + (ex + 1) * feat));
}

// One forward + backward through `model`: output, input gradient and the
// per-example gradient rows (BackwardBatchTo).
struct PassRun {
  Tensor y;
  Tensor dx;
  std::vector<float> rows;
};

PassRun RunPass(Sequential* model, const Tensor& x, const Tensor& gy) {
  PassRun r;
  r.y = model->ForwardBatch(x);
  r.rows.resize(x.dim(0) * model->NumParams());
  r.dx = model->BackwardBatchTo(gy, x.dim(0), r.rows.data());
  return r;
}

// The batch-of-1 == batch-of-N pin on the single path: running `xb` as
// one microbatch must equal running each example as a microbatch of one,
// bitwise — output, input gradient and the example's gradient row.
// `gy_seed` draws the upstream gradient.
void ExpectBatchEqualsSingles(Sequential* model, const Tensor& xb,
                              uint64_t gy_seed) {
  size_t n = xb.dim(0);
  Tensor yb = model->ForwardBatch(xb);
  Tensor gyb = RandomTensor(yb.shape(), gy_seed);
  PassRun all = RunPass(model, xb, gyb);
  size_t dim = model->NumParams();
  size_t in_stride = xb.size() / n;
  size_t out_stride = all.y.size() / n;
  for (size_t ex = 0; ex < n; ++ex) {
    PassRun one = RunPass(model, ExampleOf(xb, ex), ExampleOf(gyb, ex));
    for (size_t i = 0; i < out_stride; ++i) {
      ASSERT_EQ(all.y[ex * out_stride + i], one.y[i])
          << "batch " << n << " ex " << ex << " y[" << i << "]";
    }
    for (size_t i = 0; i < in_stride; ++i) {
      ASSERT_EQ(all.dx[ex * in_stride + i], one.dx[i])
          << "batch " << n << " ex " << ex << " dx[" << i << "]";
    }
    for (size_t i = 0; i < dim; ++i) {
      ASSERT_EQ(all.rows[ex * dim + i], one.rows[i])
          << "batch " << n << " ex " << ex << " param " << i;
    }
  }
}

// A pair of identically-initialized one-conv models, one per kernel.
struct ConvPair {
  std::unique_ptr<Sequential> gemm;
  std::unique_ptr<Sequential> naive;
};

ConvPair MakePair(size_t in_ch, size_t out_ch, size_t k, size_t pad,
                  uint64_t seed) {
  ConvPair p;
  p.gemm = Solo(std::make_unique<Conv2d>(in_ch, out_ch, k, pad,
                                         Conv2dKernel::kGemm),
                seed);
  p.naive = Solo(std::make_unique<Conv2d>(in_ch, out_ch, k, pad,
                                          Conv2dKernel::kNaive),
                 seed);
  return p;
}

struct ConvCase {
  size_t in_ch, out_ch, k, pad, h, w;
};

// CIFAR-like (the acceptance shape), deeper same-padded, and edge cases
// where the padded kernel overhangs most of the input.
const ConvCase kCases[] = {
    {3, 32, 3, 1, 32, 32},
    {16, 16, 3, 1, 8, 8},
    {1, 4, 5, 2, 7, 9},
    {2, 3, 3, 0, 6, 6},
    {4, 8, 1, 0, 5, 5},
    {1, 2, 7, 3, 3, 3},  // kernel overhangs the whole padded input
};

// --- GEMM conv vs the naive reference kernel (the independent oracle):
// forward, input gradients and parameter-gradient rows agree to 1e-4.

TEST(KernelEquivalenceTest, ConvForwardMatchesNaive) {
  for (const ConvCase& c : kCases) {
    ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 11);
    Tensor x = RandomTensor({1, c.in_ch, c.h, c.w}, 21);
    ExpectNear(p.gemm->ForwardBatch(x), p.naive->ForwardBatch(x), 1e-4);
  }
}

TEST(KernelEquivalenceTest, ConvBackwardMatchesNaive) {
  for (size_t batch : {size_t{1}, size_t{3}}) {
    for (const ConvCase& c : kCases) {
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 13);
      Tensor x = RandomTensor({batch, c.in_ch, c.h, c.w}, 23 + batch);
      Tensor gy = RandomTensor(p.gemm->ForwardBatch(x).shape(), 31 + batch);
      PassRun g = RunPass(p.gemm.get(), x, gy);
      PassRun n = RunPass(p.naive.get(), x, gy);
      ExpectNear(g.y, n.y, 1e-4);
      ExpectNear(g.dx, n.dx, 1e-4);
      ExpectNear(g.rows, n.rows, 1e-4);
    }
  }
}

// Runs forward+backward through a GEMM conv under an explicit pool size.
PassRun RunUnderPool(size_t pool_size, const ConvCase& c, size_t batch) {
  ThreadPool pool(pool_size);
  ScopedPoolOverride override_pool(&pool);
  ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 17);
  Tensor x = RandomTensor({batch, c.in_ch, c.h, c.w}, 19);
  Tensor gy = RandomTensor(p.gemm->ForwardBatch(x).shape(), 29);
  return RunPass(p.gemm.get(), x, gy);
}

TEST(KernelEquivalenceTest, GemmBitIdenticalAcrossPoolSizes) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t batch : {size_t{1}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      PassRun r1 = RunUnderPool(1, c, batch);
      for (size_t threads : {size_t{2}, hw}) {
        PassRun rn = RunUnderPool(threads, c, batch);
        ASSERT_EQ(r1.y.shape(), rn.y.shape());
        for (size_t i = 0; i < r1.y.size(); ++i) {
          ASSERT_EQ(r1.y[i], rn.y[i])
              << "pool " << threads << " y[" << i << "]";
        }
        for (size_t i = 0; i < r1.dx.size(); ++i) {
          ASSERT_EQ(r1.dx[i], rn.dx[i])
              << "pool " << threads << " dx[" << i << "]";
        }
        ASSERT_EQ(r1.rows, rn.rows) << "pool " << threads;
      }
    }
  }
}

// Whole-model batch-of-1 == batch-of-N pin: the logits and each
// example's gradient row from one N-example local step equal those of N
// one-example steps, bitwise.
void CheckBatchedMatchesPerExample(std::unique_ptr<Sequential> model,
                                   std::vector<size_t> example_shape,
                                   size_t num_classes, uint64_t seed,
                                   bool fused = true) {
  if (!fused) model->SetFusionEnabled(false);
  SplitRng rng(seed);
  model->InitParams(&rng);
  // 3 and 7 leave ragged parallel blocks in the stage dispatches.
  for (size_t batch_n : {size_t{3}, size_t{7}}) {
    Tensor batch = RandomTensor(WithBatch(batch_n, example_shape),
                                seed + 1 + batch_n);
    std::vector<size_t> labels(batch_n);
    for (size_t ex = 0; ex < batch_n; ++ex) labels[ex] = ex % num_classes;

    Tensor logits = model->ForwardBatch(batch);
    ASSERT_EQ(logits.dim(0), batch_n);
    BatchLossGrad lg = SoftmaxCrossEntropyBatch(logits, labels);
    size_t dim = model->NumParams();
    std::vector<float> grads(batch_n * dim);
    model->BackwardBatchTo(lg.grad_logits, batch_n, grads.data());

    size_t classes = logits.dim(1);
    for (size_t ex = 0; ex < batch_n; ++ex) {
      Tensor one_logits = model->ForwardBatch(ExampleOf(batch, ex));
      BatchLossGrad one_lg =
          SoftmaxCrossEntropyBatch(one_logits, {labels[ex]});
      std::vector<float> one_grads(dim);
      model->BackwardBatchTo(one_lg.grad_logits, 1, one_grads.data());
      for (size_t c = 0; c < classes; ++c) {
        ASSERT_EQ(logits[ex * classes + c], one_logits[c])
            << "batch " << batch_n << " example " << ex << " class " << c;
      }
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(grads[ex * dim + i], one_grads[i])
            << "batch " << batch_n << " example " << ex << " param " << i;
      }
    }
  }
}

// --- One-layer stages: each layer's microbatch equals its examples run
// one at a time — including odd batch sizes that leave ragged blocks —
// at every pool size.

TEST(KernelEquivalenceTest, FusedBatchForwardMatchesPerExampleBitwise) {
  for (size_t batch : {size_t{3}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 53);
      Tensor xb = RandomTensor({batch, c.in_ch, c.h, c.w}, 59 + batch);
      Tensor yb = p.gemm->ForwardBatch(xb);
      size_t out_stride = yb.size() / batch;
      for (size_t ex = 0; ex < batch; ++ex) {
        Tensor y = p.gemm->ForwardBatch(ExampleOf(xb, ex));
        ASSERT_EQ(y.size(), out_stride);
        for (size_t i = 0; i < y.size(); ++i) {
          ASSERT_EQ(yb[ex * out_stride + i], y[i])
              << "batch " << batch << " example " << ex << " index " << i;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, FusedBatchForwardMatchesNaiveBatch) {
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 61);
      Tensor xb = RandomTensor({batch, c.in_ch, c.h, c.w}, 67 + batch);
      ExpectNear(p.gemm->ForwardBatch(xb), p.naive->ForwardBatch(xb), 1e-4);
    }
  }
}

TEST(KernelEquivalenceTest, FusedBatchForwardPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const ConvCase& c : kCases) {
    std::vector<Tensor> outs;
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      ScopedPoolOverride override_pool(&pool);
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 71);
      Tensor xb = RandomTensor({7, c.in_ch, c.h, c.w}, 73);
      outs.push_back(p.gemm->ForwardBatch(xb));
    }
    for (size_t i = 1; i < outs.size(); ++i) {
      ASSERT_EQ(outs[0].shape(), outs[i].shape());
      for (size_t j = 0; j < outs[0].size(); ++j) {
        ASSERT_EQ(outs[0][j], outs[i][j]) << "pool run " << i;
      }
    }
  }
}

TEST(KernelEquivalenceTest, ConvBackwardBatchMatchesPerExampleBitwise) {
  for (size_t batch : {size_t{3}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 193);
      ExpectBatchEqualsSingles(
          p.gemm.get(),
          RandomTensor({batch, c.in_ch, c.h, c.w}, 197 + batch),
          199 + batch);
      ExpectBatchEqualsSingles(
          p.naive.get(),
          RandomTensor({batch, c.in_ch, c.h, c.w}, 197 + batch),
          199 + batch);
    }
  }
}

TEST(KernelEquivalenceTest, LinearBackwardBatchMatchesPerExampleBitwise) {
  for (size_t batch : {size_t{3}, size_t{7}}) {
    std::unique_ptr<Sequential> m = Solo(std::make_unique<Linear>(13, 5), 211);
    ExpectBatchEqualsSingles(m.get(), RandomTensor({batch, 13}, 223 + batch),
                             227 + batch);
  }
}

TEST(KernelEquivalenceTest, ConvBackwardBatchPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const ConvCase& c : kCases) {
    std::vector<std::vector<float>> outs;  // dx ++ rows per pool size
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      ScopedPoolOverride override_pool(&pool);
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 229);
      Tensor xb = RandomTensor({7, c.in_ch, c.h, c.w}, 233);
      Tensor gyb = RandomTensor(p.gemm->ForwardBatch(xb).shape(), 239);
      PassRun r = RunPass(p.gemm.get(), xb, gyb);
      std::vector<float> all(r.dx.data(), r.dx.data() + r.dx.size());
      all.insert(all.end(), r.rows.begin(), r.rows.end());
      outs.push_back(std::move(all));
    }
    for (size_t i = 1; i < outs.size(); ++i) {
      ASSERT_EQ(outs[0], outs[i]) << "pool run " << i;
    }
  }
}

// The single-dispatch contract, proven rather than asserted in prose:
// with a multi-thread pool and a multi-example microbatch, a one-layer
// stage fans work out to the pool exactly once per direction.
TEST(KernelEquivalenceTest, ConvAndLinearBatchedPassesAreOneDispatch) {
  ThreadPool pool(4);
  ScopedPoolOverride override_pool(&pool);
  constexpr size_t kN = 9;
  struct Case {
    const char* name;
    std::unique_ptr<Sequential> model;
    std::vector<size_t> ex_shape;
  };
  Case cases[] = {
      {"conv", Solo(std::make_unique<Conv2d>(3, 8, 3, 1), 241), {3, 9, 9}},
      {"linear", Solo(std::make_unique<Linear>(48, 10), 241), {48}},
  };
  for (Case& c : cases) {
    Tensor xb = RandomTensor(WithBatch(kN, c.ex_shape), 251);
    uint64_t before = ParallelDispatchCount();
    Tensor yb = c.model->ForwardBatch(xb);
    EXPECT_EQ(ParallelDispatchCount() - before, 1u) << c.name << " forward";
    Tensor gyb = RandomTensor(yb.shape(), 257);
    std::vector<float> rows(kN * c.model->NumParams());
    before = ParallelDispatchCount();
    c.model->BackwardBatchTo(gyb, kN, rows.data());
    EXPECT_EQ(ParallelDispatchCount() - before, 1u) << c.name << " backward";
  }
}

// A one-example pass runs its stage inline, and nothing inside a
// per-example task fans out on its own: the conv anchors' GEMMs and
// col2im are serial kernels, so a batch-1 pass makes no dispatch at all.
TEST(KernelEquivalenceTest, ConvBatchOnePassesMakeNoDispatch) {
  ThreadPool pool(4);
  ScopedPoolOverride override_pool(&pool);
  std::unique_ptr<Sequential> model =
      Solo(std::make_unique<Conv2d>(3, 8, 3, 1), 241);
  Tensor x = RandomTensor({1, 3, 9, 9}, 251);
  uint64_t before = ParallelDispatchCount();
  Tensor y = model->ForwardBatch(x);
  EXPECT_EQ(ParallelDispatchCount() - before, 0u) << "forward";
  Tensor gy = RandomTensor(y.shape(), 257);
  std::vector<float> rows(model->NumParams());
  before = ParallelDispatchCount();
  model->BackwardBatchTo(gy, 1, rows.data());
  EXPECT_EQ(ParallelDispatchCount() - before, 0u) << "backward";
}

// Fusion is on by default, so these three pin the fused grouping; the
// Unfused* variants pin the one-stage-per-layer grouping, and the
// stage-fusion section pins fused == unfused directly.

TEST(KernelEquivalenceTest, BatchedCnnMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeCnn(1, 8, 3, 4), {1, 8, 8}, 4, 41);
}

TEST(KernelEquivalenceTest, BatchedResidualCnnMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeResidualCnn(1, 8, 3, 4), {1, 8, 8}, 4,
                                43);
}

TEST(KernelEquivalenceTest, BatchedMlpMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeMlp(20, 8, 5), {20}, 5, 47);
}

TEST(KernelEquivalenceTest, UnfusedBatchedCnnMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeCnn(1, 8, 3, 4), {1, 8, 8}, 4, 41,
                                /*fused=*/false);
}

TEST(KernelEquivalenceTest, UnfusedBatchedResidualCnnMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeResidualCnn(1, 8, 3, 4), {1, 8, 8}, 4, 43,
                                /*fused=*/false);
}

TEST(KernelEquivalenceTest, UnfusedBatchedMlpMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeMlp(20, 8, 5), {20}, 5, 47,
                                /*fused=*/false);
}

// --- Stage fusion (nn/fusion.h): with fusion on, the plan folds every
// run of layers between residual boundaries into one single-dispatch
// stage; with fusion off, each layer is its own stage. Both groupings
// run the same hooks, so fused == unfused bitwise on every input, at
// every pool size, on every SIMD tier — and the dispatch-count gates
// below prove the fusion actually collapses the pool barriers instead
// of merely claiming to.

struct FusionModelCase {
  const char* name;
  std::function<std::unique_ptr<Sequential>()> make;
  std::vector<size_t> example_shape;
  size_t num_classes;
};

std::vector<FusionModelCase> FusionModelCases() {
  return {
      {"cnn", [] { return MakeCnn(1, 8, 3, 4); }, {1, 8, 8}, 4},
      {"residual_cnn",
       [] { return MakeResidualCnn(1, 8, 3, 4); },
       {1, 8, 8},
       4},
      {"mlp", [] { return MakeMlp(20, 8, 5); }, {20}, 5},
  };
}

struct LocalStepRun {
  Tensor logits;
  std::vector<float> grads;
};

LocalStepRun RunLocalStep(Sequential* model, const Tensor& batch,
                          const std::vector<size_t>& labels) {
  LocalStepRun r;
  r.logits = model->ForwardBatch(batch);
  BatchLossGrad lg = SoftmaxCrossEntropyBatch(r.logits, labels);
  r.grads.resize(batch.dim(0) * model->NumParams());
  model->BackwardBatchTo(lg.grad_logits, batch.dim(0), r.grads.data());
  return r;
}

TEST(KernelEquivalenceTest, FusedMatchesUnfusedBitwiseAcrossPools) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const FusionModelCase& mc : FusionModelCases()) {
    for (size_t batch_n : {size_t{1}, size_t{3}, size_t{7}}) {
      for (size_t threads : {size_t{1}, size_t{2}, hw}) {
        SCOPED_TRACE(std::string(mc.name) + " batch " +
                     std::to_string(batch_n) + " pool " +
                     std::to_string(threads));
        ThreadPool pool(threads);
        ScopedPoolOverride override_pool(&pool);
        std::unique_ptr<Sequential> fused = mc.make();
        std::unique_ptr<Sequential> unfused = mc.make();
        unfused->SetFusionEnabled(false);
        SplitRng rng_a(277), rng_b(277);
        fused->InitParams(&rng_a);
        unfused->InitParams(&rng_b);
        Tensor batch =
            RandomTensor(WithBatch(batch_n, mc.example_shape), 281 + batch_n);
        std::vector<size_t> labels(batch_n);
        for (size_t ex = 0; ex < batch_n; ++ex) {
          labels[ex] = ex % mc.num_classes;
        }
        LocalStepRun a = RunLocalStep(fused.get(), batch, labels);
        LocalStepRun b = RunLocalStep(unfused.get(), batch, labels);
        ASSERT_EQ(a.logits.shape(), b.logits.shape());
        for (size_t i = 0; i < a.logits.size(); ++i) {
          ASSERT_EQ(a.logits[i], b.logits[i]) << "logit " << i;
        }
        ASSERT_EQ(a.grads, b.grads);
      }
    }
  }
}

TEST(KernelEquivalenceTest, FusedMatchesUnfusedBitwiseAcrossSimdTiers) {
  constexpr size_t kN = 7;
  for (simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
        simd::IsaLevel::kAvx512}) {
    if (simd::KernelsFor(level) == nullptr) continue;
    simd::ScopedForceIsa force(level);
    for (const FusionModelCase& mc : FusionModelCases()) {
      SCOPED_TRACE(std::string(mc.name) + " on " + simd::IsaName(level));
      std::unique_ptr<Sequential> fused = mc.make();
      std::unique_ptr<Sequential> unfused = mc.make();
      unfused->SetFusionEnabled(false);
      SplitRng rng_a(293), rng_b(293);
      fused->InitParams(&rng_a);
      unfused->InitParams(&rng_b);
      Tensor batch = RandomTensor(WithBatch(kN, mc.example_shape), 307);
      std::vector<size_t> labels(kN);
      for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % mc.num_classes;
      LocalStepRun a = RunLocalStep(fused.get(), batch, labels);
      LocalStepRun b = RunLocalStep(unfused.get(), batch, labels);
      ASSERT_EQ(a.logits.shape(), b.logits.shape());
      for (size_t i = 0; i < a.logits.size(); ++i) {
        ASSERT_EQ(a.logits[i], b.logits[i]) << "logit " << i;
      }
      ASSERT_EQ(a.grads, b.grads);
    }
  }
}

// Dispatch accounting for a whole local step, with a multi-thread pool
// and a multi-example microbatch so every dispatch is a real fan-out.
struct StepDispatchCounts {
  uint64_t forward = 0;
  uint64_t backward = 0;
};

StepDispatchCounts CountStepDispatches(Sequential* model, const Tensor& batch,
                                       const std::vector<size_t>& labels) {
  StepDispatchCounts c;
  uint64_t before = ParallelDispatchCount();
  Tensor logits = model->ForwardBatch(batch);
  c.forward = ParallelDispatchCount() - before;
  BatchLossGrad lg = SoftmaxCrossEntropyBatch(logits, labels);
  std::vector<float> grads(batch.dim(0) * model->NumParams());
  before = ParallelDispatchCount();
  model->BackwardBatchTo(lg.grad_logits, batch.dim(0), grads.data());
  c.backward = ParallelDispatchCount() - before;
  return c;
}

// The dispatch-count guarantee, proven by counter: one dispatch per
// stage per direction. The fused CNN and MLP local steps are one stage
// each (pooling and Flatten run inside it); the residual CNN is 3 — the
// stage before the Residual, the Residual's body, and the stage after
// it (the skip-add is serial). Unfused grouping must be strictly more
// expensive.
TEST(KernelEquivalenceTest, FusedLocalStepDispatchCounts) {
  ThreadPool pool(4);
  ScopedPoolOverride override_pool(&pool);
  constexpr size_t kN = 9;
  struct Expect {
    const char* name;
    uint64_t forward, backward;
  };
  const Expect kExpect[] = {
      {"cnn", 1, 1},
      {"residual_cnn", 3, 3},
      {"mlp", 1, 1},
  };
  for (const FusionModelCase& mc : FusionModelCases()) {
    SCOPED_TRACE(mc.name);
    const Expect* want = nullptr;
    for (const Expect& e : kExpect) {
      if (std::string(e.name) == mc.name) want = &e;
    }
    ASSERT_NE(want, nullptr);
    std::unique_ptr<Sequential> fused = mc.make();
    std::unique_ptr<Sequential> unfused = mc.make();
    unfused->SetFusionEnabled(false);
    SplitRng rng_a(311), rng_b(311);
    fused->InitParams(&rng_a);
    unfused->InitParams(&rng_b);
    Tensor batch = RandomTensor(WithBatch(kN, mc.example_shape), 313);
    std::vector<size_t> labels(kN);
    for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % mc.num_classes;
    StepDispatchCounts f = CountStepDispatches(fused.get(), batch, labels);
    StepDispatchCounts u = CountStepDispatches(unfused.get(), batch, labels);
    EXPECT_EQ(f.forward, want->forward) << "fused forward";
    EXPECT_EQ(f.backward, want->backward) << "fused backward";
    EXPECT_GT(u.forward, f.forward) << "unfused forward not more expensive";
    EXPECT_GT(u.backward, f.backward) << "unfused backward not more expensive";
  }
}

TEST(KernelEquivalenceTest, WorkspaceReusesAndGrowsBuffers) {
  Workspace ws;
  float* a = ws.Get(0, 64);
  ASSERT_NE(a, nullptr);
  // Same-or-smaller requests return the same storage.
  EXPECT_EQ(ws.Get(0, 64), a);
  EXPECT_EQ(ws.Get(0, 16), a);
  // Distinct slots never alias.
  float* b = ws.Get(1, 64);
  EXPECT_NE(b, a);
  a[0] = 7.0f;
  b[0] = 9.0f;
  EXPECT_EQ(ws.Get(0, 64)[0], 7.0f);
  EXPECT_EQ(ws.Get(1, 64)[0], 9.0f);
  // Double slots live in their own index space and are grow-only: no
  // clearing on reuse (GroupNorm's 1/std slot relies on that).
  double* d = ws.GetDouble(0, 8);
  ASSERT_NE(d, nullptr);
  d[0] = 3.5;
  EXPECT_EQ(ws.GetDouble(0, 8), d);
  EXPECT_EQ(ws.GetDouble(0, 4)[0], 3.5);
  EXPECT_EQ(ws.Get(0, 64)[0], 7.0f);  // float slot 0 untouched
}

// --- One-layer GroupNorm / pooling / activation / flatten stages: each
// must equal its examples run one at a time, bitwise, at N = 3, 7.

TEST(KernelEquivalenceTest, GroupNormBatchedMatchesPerExampleBitwise) {
  for (size_t batch : {size_t{3}, size_t{7}}) {
    // affine=true so the per-example sink rows are exercised too.
    std::unique_ptr<Sequential> m =
        Solo(std::make_unique<GroupNorm>(2, 6, 1e-5, /*affine=*/true), 101);
    ExpectBatchEqualsSingles(m.get(), RandomTensor({batch, 6, 5, 4}, 103),
                             107 + batch);
  }
}

TEST(KernelEquivalenceTest, PoolBatchedMatchesPerExampleBitwise) {
  for (size_t batch : {size_t{3}, size_t{7}}) {
    std::unique_ptr<Sequential> m =
        Solo(std::make_unique<AdaptiveAvgPool2d>(4, 4));
    ExpectBatchEqualsSingles(m.get(), RandomTensor({batch, 5, 9, 7}, 109),
                             113 + batch);
  }
}

TEST(KernelEquivalenceTest, ActivationBatchedMatchesPerExampleBitwise) {
  constexpr size_t kFeat = 300;
  for (size_t batch : {size_t{3}, size_t{7}}) {
    Tensor xb = RandomTensor({batch, kFeat}, 127 + batch);
    std::unique_ptr<Sequential> elu = Solo(std::make_unique<Elu>());
    std::unique_ptr<Sequential> relu = Solo(std::make_unique<Relu>());
    std::unique_ptr<Sequential> flat = Solo(std::make_unique<Flatten>());
    ExpectBatchEqualsSingles(elu.get(), xb, 131 + batch);
    ExpectBatchEqualsSingles(relu.get(), xb, 131 + batch);
    ExpectBatchEqualsSingles(flat.get(), RandomTensor({batch, 3, 4, 5}, 137),
                             139 + batch);
  }
}

// The whole batched model path (conv, GroupNorm, pooling, activations,
// linear — every new dispatch) must be bit-identical under pool sizes
// 1, 2 and hardware concurrency.

struct BatchedModelRun {
  Tensor logits;
  std::vector<float> grads;
};

BatchedModelRun RunBatchedModelUnderPool(size_t pool_size) {
  ThreadPool pool(pool_size);
  ScopedPoolOverride override_pool(&pool);
  std::unique_ptr<Sequential> model = MakeCnn(1, 8, 3, 4);
  SplitRng rng(137);
  model->InitParams(&rng);
  constexpr size_t kN = 7;
  Tensor batch = RandomTensor({kN, 1, 8, 8}, 139);
  std::vector<size_t> labels(kN);
  for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % 4;
  BatchedModelRun r;
  r.logits = model->ForwardBatch(batch);
  BatchLossGrad lg = SoftmaxCrossEntropyBatch(r.logits, labels);
  r.grads.resize(kN * model->NumParams());
  model->BackwardBatchTo(lg.grad_logits, kN, r.grads.data());
  return r;
}

// The SIMD dispatch contract, end to end: the whole batched model path
// (GEMM microkernel, activations, GroupNorm, pooling) must be
// bit-identical between the scalar reference tier and every vector tier
// the host can run — under pool sizes 1, 2 and hardware concurrency.
TEST(KernelEquivalenceTest, BatchedModelPathBitwiseAcrossSimdTiers) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    BatchedModelRun want;
    {
      simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
      want = RunBatchedModelUnderPool(threads);
    }
    for (simd::IsaLevel level :
         {simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
      if (simd::KernelsFor(level) == nullptr) continue;
      simd::ScopedForceIsa force(level);
      BatchedModelRun got = RunBatchedModelUnderPool(threads);
      ASSERT_EQ(want.logits.shape(), got.logits.shape());
      for (size_t i = 0; i < want.logits.size(); ++i) {
        ASSERT_EQ(want.logits[i], got.logits[i])
            << simd::IsaName(level) << " pool " << threads << " logit " << i;
      }
      ASSERT_EQ(want.grads, got.grads)
          << simd::IsaName(level) << " pool " << threads;
    }
  }
}

TEST(KernelEquivalenceTest, BatchedModelPathPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  BatchedModelRun r1 = RunBatchedModelUnderPool(1);
  for (size_t threads : {size_t{2}, hw}) {
    BatchedModelRun rn = RunBatchedModelUnderPool(threads);
    ASSERT_EQ(r1.logits.shape(), rn.logits.shape());
    for (size_t i = 0; i < r1.logits.size(); ++i) {
      ASSERT_EQ(r1.logits[i], rn.logits[i]) << "pool " << threads;
    }
    ASSERT_EQ(r1.grads, rn.grads) << "pool " << threads;
  }
}

// --- Cached-state contract: legal interleavings stay bitwise correct...

// Simulates Server::EvaluateAccuracy between two worker training steps
// on one model instance: a 3-example step, a one-example step, then the
// 3-example step again. Every result must equal a never-interleaved run
// of the same pass.
TEST(KernelEquivalenceTest, InterleavedPerExampleAndBatchedStayBitwise) {
  auto make_model = [] {
    std::unique_ptr<Sequential> model = MakeCnn(1, 8, 3, 4);
    SplitRng rng(149);
    model->InitParams(&rng);
    return model;
  };
  constexpr size_t kN = 3;
  Tensor batch = RandomTensor({kN, 1, 8, 8}, 151);
  Tensor x0 = ExampleOf(batch, 0);
  std::vector<size_t> labels = {0, 1, 2};

  auto pass = [](Sequential* model, const Tensor& x,
                 const std::vector<size_t>& y) {
    Tensor logits = model->ForwardBatch(x);
    BatchLossGrad lg = SoftmaxCrossEntropyBatch(logits, y);
    std::vector<float> out(x.dim(0) * model->NumParams());
    model->BackwardBatchTo(lg.grad_logits, x.dim(0), out.data());
    out.insert(out.end(), logits.data(), logits.data() + logits.size());
    return out;
  };

  // Reference runs, one model per pass (no interleaving anywhere).
  std::unique_ptr<Sequential> ref_batched = make_model();
  std::vector<float> want_batched = pass(ref_batched.get(), batch, labels);
  std::unique_ptr<Sequential> ref_one = make_model();
  std::vector<float> want_one = pass(ref_one.get(), x0, {labels[0]});

  // Interleaved: batch → one → batch → one, all on one instance whose
  // layers reuse their cache slots across microbatch sizes.
  std::unique_ptr<Sequential> model = make_model();
  EXPECT_EQ(pass(model.get(), batch, labels), want_batched);
  EXPECT_EQ(pass(model.get(), x0, {labels[0]}), want_one);
  EXPECT_EQ(pass(model.get(), batch, labels), want_batched);
  EXPECT_EQ(pass(model.get(), x0, {labels[0]}), want_one);
}

// ... and a backward with nothing to consume dies loudly.

TEST(KernelEquivalenceDeathTest, BackwardWithoutForwardDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::unique_ptr<Sequential> gn = Solo(std::make_unique<GroupNorm>(2, 4));
  Tensor gy = RandomTensor({1, 4, 5, 5}, 191);
  std::vector<float> rows(gn->NumParams());
  EXPECT_DEATH(gn->BackwardBatchTo(gy, 1, rows.data()), "no forward has run");
}

TEST(KernelEquivalenceDeathTest, FusedBackwardWithoutFusedForwardDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Toggling fusion drops the plan, and the rebuilt plan's stages have
  // recorded no forward geometry: a backward across the toggle must
  // fail loudly, not misdrive the panels.
  constexpr size_t kN = 3;
  auto model = MakeCnn(1, 8, 3, 4);
  model->SetFusionEnabled(false);
  SplitRng rng(397);
  model->InitParams(&rng);
  Tensor xb = RandomTensor({kN, 1, 8, 8}, 401);
  Tensor logits = model->ForwardBatch(xb);
  Tensor gy = RandomTensor(logits.shape(), 409);
  std::vector<float> grads(kN * model->NumParams(), 0.0f);
  model->SetFusionEnabled(true);
  EXPECT_DEATH(model->BackwardBatchTo(gy, kN, grads.data()),
               "cached-state contract violated");
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
