// Golden digests of the nn stack's production job: one microbatch local
// step (ForwardBatch, softmax cross-entropy, BackwardBatchTo) through the
// model zoo's networks, driven only through the public Sequential API.
//
// Each digest is a 64-bit FNV-1a hash over the bytes of the logits, the
// per-example gradient rows and dL/d(input), in that order. The
// constants were recorded from an independent build of the layer stack
// (per-layer batched bodies and fused stages side by side), so they pin
// the single execution path against numbers it did not produce itself.
// They must hold under every pool size and on the scalar SIMD tier (the
// vector tiers are bitwise equal to it; kernel_equivalence_test pins
// that). Running this binary with DPBR_FORCE_SCALAR=1 checks the
// environment override end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/sequential.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kBatch = 9;

uint64_t Fnv1a(uint64_t h, const float* data, size_t n) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenCase {
  const char* name;
  std::function<std::unique_ptr<Sequential>()> make;
  std::vector<size_t> example_shape;
  size_t num_classes;
  uint64_t digest;
};

std::vector<GoldenCase> GoldenCases() {
  return {
      {"mlp",
       [] { return MakeMlp(20, 8, 5); },
       {20},
       5,
       0x7ec05a8f41313bedULL},
      // Same data seen as an image: the leading Flatten maps the shape
      // only, so the digest equals the flat case.
      {"mlp_image",
       [] { return MakeMlp(20, 8, 5); },
       {1, 4, 5},
       5,
       0x7ec05a8f41313bedULL},
      {"cnn",
       [] { return MakeCnn(1, 8, 3, 4); },
       {1, 9, 9},
       4,
       0x5d9b498320044d14ULL},
      {"residual_cnn",
       [] { return MakeResidualCnn(1, 8, 3, 4); },
       {1, 9, 9},
       4,
       0x853992700117f61fULL},
  };
}

// One local step on a fresh, fixed-seed model; returns its digest.
uint64_t StepDigest(const GoldenCase& c, bool fused) {
  std::unique_ptr<Sequential> model = c.make();
  model->SetFusionEnabled(fused);
  SplitRng init(2023);
  model->InitParams(&init);
  std::vector<size_t> shape = {kBatch};
  shape.insert(shape.end(), c.example_shape.begin(), c.example_shape.end());
  Tensor x(shape);
  SplitRng data(7);
  x.FillGaussian(&data, 1.0);
  std::vector<size_t> labels(kBatch);
  for (size_t ex = 0; ex < kBatch; ++ex) labels[ex] = ex % c.num_classes;

  Tensor logits = model->ForwardBatch(x);
  BatchLossGrad lg = SoftmaxCrossEntropyBatch(logits, labels);
  std::vector<float> grads(kBatch * model->NumParams());
  Tensor dx = model->BackwardBatchTo(lg.grad_logits, kBatch, grads.data());
  EXPECT_EQ(dx.shape(), shape);

  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, logits.data(), logits.size());
  h = Fnv1a(h, grads.data(), grads.size());
  h = Fnv1a(h, dx.data(), dx.size());
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void ExpectGoldenUnderPool(size_t threads, bool fused = true) {
  ThreadPool pool(threads);
  ScopedPoolOverride override_pool(&pool);
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(std::string(c.name) + " pool " + std::to_string(threads) +
                 (fused ? " fused" : " unfused"));
    EXPECT_EQ(Hex(StepDigest(c, fused)), Hex(c.digest));
  }
}

size_t HardwarePool() {
  return std::max<size_t>(2, std::thread::hardware_concurrency());
}

TEST(GoldenDigestTest, PoolOne) { ExpectGoldenUnderPool(1); }

TEST(GoldenDigestTest, PoolTwo) { ExpectGoldenUnderPool(2); }

TEST(GoldenDigestTest, PoolHardware) { ExpectGoldenUnderPool(HardwarePool()); }

// Fusion off regroups the layers (one stage per layer) but runs the same
// hooks, so it must land on the same bits.
TEST(GoldenDigestTest, UnfusedEveryPool) {
  for (size_t threads : {size_t{1}, size_t{2}, HardwarePool()}) {
    ExpectGoldenUnderPool(threads, /*fused=*/false);
  }
}

TEST(GoldenDigestTest, ScalarTierEveryPool) {
  simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
  for (size_t threads : {size_t{1}, size_t{2}, HardwarePool()}) {
    ExpectGoldenUnderPool(threads);
  }
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
