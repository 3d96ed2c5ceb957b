#include "fl/worker.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {
namespace {

data::DatasetBundle SmallBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 200;
  spec.val_size = 40;
  spec.test_size = 40;
  spec.class_separation = 3.0;
  spec.noise_std = 0.5;
  auto b = data::GenerateSynthetic(spec, 5);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

// One round's upload, written through ComputeUpdateInto as the trainer
// writes a worker's arena row.
std::vector<float> Upload(HonestDpWorker& w, const std::vector<float>& params,
                          int round) {
  std::vector<float> u(w.dim());
  w.ComputeUpdateInto(params, round, u.data());
  return u;
}

WorkerOptions Opts(double sigma) {
  WorkerOptions o;
  o.batch_size = 8;
  o.beta = 0.1;
  o.sigma = sigma;
  return o;
}

TEST(WorkerTest, UploadDimensionMatchesModel) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, Opts(0.0), 1);
  EXPECT_EQ(w.dim(), f()->NumParams());
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  std::vector<float> u = Upload(w, params, 1);
  EXPECT_EQ(u.size(), w.dim());
}

TEST(WorkerTest, DeterministicPerRound) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();

  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  HonestDpWorker b(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  EXPECT_EQ(Upload(a, params, 1), Upload(b, params, 1));
  EXPECT_EQ(Upload(a, params, 2), Upload(b, params, 2));
}

TEST(WorkerTest, DifferentSeedsProduceDifferentUploads) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  HonestDpWorker b(1, data::DatasetView::All(&bundle.train), f, Opts(1.0), 8);
  EXPECT_NE(Upload(a, params, 1), Upload(b, params, 1));
}

TEST(WorkerTest, NoNoiseUploadIsBoundedByOne) {
  // Without DP noise the upload is (1/bc)·Σ of bc unit vectors: ‖·‖ <= 1.
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(2);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, Opts(0.0), 3);
  for (int round = 1; round <= 5; ++round) {
    std::vector<float> u = Upload(w, params, round);
    EXPECT_LE(ops::Norm(u), 1.0 + 1e-5);
    EXPECT_GT(ops::Norm(u), 0.0);
  }
}

TEST(WorkerTest, DpNoiseDominatesUploadNorm) {
  // With σ large, ‖upload‖ ≈ σ·√d/bc (paper §4.3 "DP noise dominates").
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  size_t d = f()->NumParams();
  auto model = f();
  SplitRng rng(3);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  double sigma = 8.0;
  WorkerOptions o = Opts(sigma);
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, o, 4);
  std::vector<float> u = Upload(w, params, 1);
  double expected = sigma * std::sqrt(static_cast<double>(d)) / o.batch_size;
  EXPECT_NEAR(ops::Norm(u), expected, 0.15 * expected);
}

TEST(WorkerTest, MomentumModesDiverge) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(4);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();

  WorkerOptions reset = Opts(1.0);
  reset.momentum_reset = MomentumReset::kResetToUpload;
  WorkerOptions persist = Opts(1.0);
  persist.momentum_reset = MomentumReset::kPersist;

  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, reset, 9);
  HonestDpWorker b(0, data::DatasetView::All(&bundle.train), f, persist, 9);
  // Round 1 is identical (momentum starts at zero in both modes)...
  EXPECT_EQ(Upload(a, params, 1), Upload(b, params, 1));
  // ...but the modes diverge from round 2 on.
  EXPECT_NE(Upload(a, params, 2), Upload(b, params, 2));
}

// Memory contract: under kResetToUpload every slot equals the last
// upload, so the worker stores one momentum row; kPersist keeps bc.
TEST(WorkerTest, MomentumSlotsPerMode) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(4);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();

  WorkerOptions reset = Opts(1.0);
  reset.momentum_reset = MomentumReset::kResetToUpload;
  WorkerOptions persist = Opts(1.0);
  persist.momentum_reset = MomentumReset::kPersist;
  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, reset, 9);
  HonestDpWorker b(0, data::DatasetView::All(&bundle.train), f, persist, 9);
  ASSERT_EQ(a.momentum().size(), 1u);
  ASSERT_EQ(b.momentum().size(), static_cast<size_t>(persist.batch_size));
  for (int round = 1; round <= 3; ++round) {
    std::vector<float> upload = Upload(a, params, round);
    Upload(b, params, round);
    ASSERT_EQ(a.momentum().size(), 1u);
    // The one reset row is the upload (Algorithm 1 line 11).
    EXPECT_EQ(a.momentum()[0], upload);
    EXPECT_EQ(b.momentum().size(), static_cast<size_t>(persist.batch_size));
  }
}

TEST(WorkerTest, RestoreRejectsSlotCountOfTheOtherMode) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  WorkerOptions reset = Opts(0.0);
  reset.batch_size = 16;
  reset.momentum_reset = MomentumReset::kResetToUpload;
  WorkerOptions persist = reset;
  persist.momentum_reset = MomentumReset::kPersist;
  HonestDpWorker r(0, data::DatasetView::All(&bundle.train), f, reset, 9);
  HonestDpWorker p(0, data::DatasetView::All(&bundle.train), f, persist, 9);
  const std::vector<float> row(r.dim(), 0.25f);

  // A 16-slot (persist or version-1) snapshot into a reset worker.
  Status s = r.RestoreMomentum(std::vector<std::vector<float>>(16, row));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  // A 1-slot (reset) snapshot into a persist worker.
  s = p.RestoreMomentum(std::vector<std::vector<float>>(1, row));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  // A rejected restore leaves the state untouched.
  EXPECT_EQ(r.momentum(),
            std::vector<std::vector<float>>(1, std::vector<float>(r.dim())));

  // The matching shapes restore.
  EXPECT_TRUE(r.RestoreMomentum({row}).ok());
  EXPECT_EQ(r.momentum()[0], row);
  EXPECT_TRUE(
      p.RestoreMomentum(std::vector<std::vector<float>>(16, row)).ok());
  // Wrong slot dimension is rejected too.
  s = r.RestoreMomentum({std::vector<float>(r.dim() + 1)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(WorkerTest, TinyShardFallsBackToWithReplacement) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(5);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  // Shard of 3 examples with batch size 8.
  data::DatasetView shard(&bundle.train, {0, 1, 2});
  HonestDpWorker w(0, shard, f, Opts(0.0), 11);
  std::vector<float> u = Upload(w, params, 1);
  EXPECT_GT(ops::Norm(u), 0.0);
}

TEST(WorkerTest, FlippedShardGivesDifferentUpload) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(6);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  data::DatasetView shard = data::DatasetView::All(&bundle.train);
  HonestDpWorker clean(0, shard, f, Opts(0.0), 13);
  HonestDpWorker poisoned(0, shard.WithFlippedLabels(), f, Opts(0.0), 13);
  std::vector<float> uc = Upload(clean, params, 1);
  std::vector<float> up = Upload(poisoned, params, 1);
  EXPECT_NE(uc, up);
  // Poisoned gradients point against the clean descent direction.
  EXPECT_LT(ops::Dot(uc, up) / (ops::Norm(uc) * ops::Norm(up)), 0.5);
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
