// Golden digest of the honest worker's upload stream: the bytes
// ComputeUpdateInto writes, round after round, for the MLP and CNN
// shapes the benchmarks run (d = 2410 and d = 5706), every batch size
// in {1, 3, 8, 16}, both MomentumReset modes and σ in {0, 1.5}. Each
// worker's parameters move by its own upload after every round, so
// later rounds see new gradients and the carried momentum.
//
// The digest is a 64-bit FNV-1a hash over every upload row, in
// (round, worker) order. The constants were recorded from the
// five-pass-per-slot worker that stored bc momentum rows under both
// modes, so they pin the two-pass pipeline and the single reset row to
// the stream they replaced. Workers run through one ParallelFor per
// round, and the digest must hold at pool sizes 1 / 2 / hardware and on
// the scalar SIMD tier. Running this binary with DPBR_FORCE_SCALAR=1
// checks the environment override end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/worker.h"
#include "nn/model_zoo.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {
namespace {

constexpr int kRounds = 6;
constexpr float kStep = 0.05f;

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
  nn::ModelFactory factory;
  data::SyntheticSpec spec;
  uint64_t digest;
};

data::SyntheticSpec MlpSpec() {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.feature_dim = 64;
  spec.train_size = 120;
  spec.val_size = 10;
  spec.test_size = 10;
  return spec;
}

data::SyntheticSpec CnnSpec() {
  data::SyntheticSpec spec = MlpSpec();
  spec.image_h = 16;
  spec.image_w = 16;
  spec.feature_dim = 16 * 16;
  return spec;
}

std::vector<GoldenCase> GoldenCases() {
  return {
      {"mlp", nn::MlpFactory(64, 32, 10), MlpSpec(),
       0xe524dcefb7b90f1fULL},
      {"cnn", nn::CnnFactory(1, 8, 3, 10), CnnSpec(),
       0x8e5a2c5cf9a6129dULL},
  };
}

// Runs every (bc, mode, σ) worker for kRounds rounds on one shard and
// hashes the upload stream.
uint64_t StreamDigest(const GoldenCase& c) {
  Result<data::DatasetBundle> bundle = data::GenerateSynthetic(c.spec, 5);
  EXPECT_TRUE(bundle.ok());
  if (!bundle.ok()) return 0;
  const data::Dataset* train = &bundle.value().train;

  std::unique_ptr<nn::Sequential> model = c.factory();
  SplitRng init(2023);
  model->InitParams(&init);
  const std::vector<float> initial = model->FlatParams();
  const size_t dim = initial.size();

  std::vector<std::unique_ptr<HonestDpWorker>> workers;
  for (int bc : {1, 3, 8, 16}) {
    for (MomentumReset mode :
         {MomentumReset::kResetToUpload, MomentumReset::kPersist}) {
      for (double sigma : {0.0, 1.5}) {
        WorkerOptions o;
        o.batch_size = bc;
        o.sigma = sigma;
        o.momentum_reset = mode;
        int id = static_cast<int>(workers.size());
        workers.push_back(std::make_unique<HonestDpWorker>(
            id, data::DatasetView::All(train), c.factory, o, 100 + id));
      }
    }
  }
  std::vector<std::vector<float>> params(workers.size(), initial);
  std::vector<float> arena(workers.size() * dim);

  uint64_t h = 0xcbf29ce484222325ULL;
  for (int round = 1; round <= kRounds; ++round) {
    ParallelFor(0, workers.size(), [&](size_t i) {
      workers[i]->ComputeUpdateInto(params[i], round, arena.data() + i * dim);
    });
    for (size_t i = 0; i < workers.size(); ++i) {
      const float* row = arena.data() + i * dim;
      h = Fnv1a(h, row, dim);
      ops::Axpy(-kStep, row, params[i].data(), dim);
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

size_t HardwarePool() {
  return std::max<size_t>(2, std::thread::hardware_concurrency());
}

void ExpectGoldenEveryPool() {
  for (size_t threads : {size_t{1}, size_t{2}, HardwarePool()}) {
    ThreadPool pool(threads);
    ScopedPoolOverride override_pool(&pool);
    for (const GoldenCase& c : GoldenCases()) {
      SCOPED_TRACE(std::string(c.name) + " pool " + std::to_string(threads));
      EXPECT_EQ(Hex(StreamDigest(c)), Hex(c.digest));
    }
  }
}

TEST(WorkerGoldenDigestTest, EveryPool) { ExpectGoldenEveryPool(); }

TEST(WorkerGoldenDigestTest, ScalarTierEveryPool) {
  simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
  ExpectGoldenEveryPool();
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
