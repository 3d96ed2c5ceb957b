#include "core/first_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "stats/distributions.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {
namespace {

constexpr size_t kDim = 2410;  // d of the default experiment MLP
constexpr double kSigmaUp = 0.3;

std::vector<float> HonestLikeUpload(uint64_t seed, double signal = 0.05) {
  // g = g̃ + z with ‖z‖ ≫ ‖g̃‖, as the DP protocol produces.
  SplitRng rng(seed);
  std::vector<float> u(kDim);
  rng.FillGaussian(u.data(), kDim, kSigmaUp);
  std::vector<float> dir(kDim);
  rng.FillGaussian(dir.data(), kDim, 1.0);
  ops::NormalizeInPlace(dir.data(), kDim);
  ops::Axpy(static_cast<float>(signal), dir.data(), u.data(), kDim);
  return u;
}

TEST(NormWindowTest, MatchesPaperFormula) {
  FirstStageFilter f{ProtocolOptions{}};
  auto [lo, hi] = f.NormWindow(kDim, kSigmaUp);
  double s2 = kSigmaUp * kSigmaUp;
  double d = static_cast<double>(kDim);
  EXPECT_NEAR(lo, s2 * d - 3.0 * s2 * std::sqrt(2.0 * d), 1e-9);
  EXPECT_NEAR(hi, s2 * d + 3.0 * s2 * std::sqrt(2.0 * d), 1e-9);
  EXPECT_GT(lo, 0.0);
}

TEST(FirstStageTest, HonestUploadsPass) {
  FirstStageFilter f{ProtocolOptions{}};
  int accepted = 0;
  const int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    FirstStageVerdict v = f.Test(HonestLikeUpload(1000 + t), kSigmaUp);
    if (v.accepted()) ++accepted;
  }
  // Norm test: 99.7% band; KS at 5% significance; small signal shifts are
  // negligible at d = 2410 → expect ≥ 85% joint acceptance.
  EXPECT_GE(accepted, 85);
}

TEST(FirstStageTest, PureNoiseUploadsPassAtNominalRate) {
  FirstStageFilter f{ProtocolOptions{}};
  int rejected_ks = 0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<float> u(kDim);
    SplitRng rng(5000 + t);
    rng.FillGaussian(u.data(), kDim, kSigmaUp);
    FirstStageVerdict v = f.Test(u, kSigmaUp);
    if (!v.passed_ks) ++rejected_ks;
  }
  // KS false-rejection ≈ 5%: generous 3-sigma bound.
  EXPECT_LE(rejected_ks, 22);
}

TEST(FirstStageTest, WrongScaleFailsNormTest) {
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<float> u(kDim);
  SplitRng rng(1);
  rng.FillGaussian(u.data(), kDim, 2.0 * kSigmaUp);  // 2x too loud
  FirstStageVerdict v = f.Test(u, kSigmaUp);
  EXPECT_FALSE(v.passed_norm);
  rng.FillGaussian(u.data(), kDim, 0.5 * kSigmaUp);  // 2x too quiet
  v = f.Test(u, kSigmaUp);
  EXPECT_FALSE(v.passed_norm);
}

TEST(FirstStageTest, NormCamouflagedNonGaussianFailsKs) {
  // A ±c "Rademacher" vector with exactly the right norm passes the norm
  // test but has the wrong shape: KS kills it.
  FirstStageFilter f{ProtocolOptions{}};
  double c = kSigmaUp;  // per-coordinate magnitude → ‖u‖² = σ²d exactly
  std::vector<float> u(kDim);
  SplitRng rng(2);
  for (auto& v : u) {
    v = static_cast<float>(rng.Uniform() < 0.5 ? c : -c);
  }
  FirstStageVerdict v = f.Test(u, kSigmaUp);
  EXPECT_TRUE(v.passed_norm);
  EXPECT_FALSE(v.passed_ks);
  EXPECT_FALSE(v.accepted());
}

TEST(FirstStageTest, ZeroUploadRejected) {
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<float> zeros(kDim, 0.0f);
  FirstStageVerdict v = f.Test(zeros, kSigmaUp);
  EXPECT_FALSE(v.passed_norm);
  EXPECT_FALSE(v.accepted());
}

TEST(FirstStageTest, LargeOutlierCoordinateFailsKs) {
  // A benign-looking vector with a handful of huge coordinates (a sparse
  // poisoning attempt) keeps its norm near legal but fails KS... or the
  // norm window. Either way it must be rejected.
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<float> u(kDim);
  SplitRng rng(3);
  rng.FillGaussian(u.data(), kDim, kSigmaUp * 0.9);
  for (size_t i = 0; i < 5; ++i) {
    u[i] = static_cast<float>(kSigmaUp * std::sqrt(kDim / 10.0));
  }
  FirstStageVerdict v = f.Test(u, kSigmaUp);
  EXPECT_FALSE(v.accepted());
}

TEST(FirstStageTest, ApplyZeroesRejectsAndReports) {
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<std::vector<float>> uploads;
  uploads.push_back(HonestLikeUpload(11));
  uploads.push_back(std::vector<float>(kDim, 0.0f));  // rejected by norm
  std::vector<float> loud(kDim);
  SplitRng rng(4);
  rng.FillGaussian(loud.data(), kDim, 3.0 * kSigmaUp);
  uploads.push_back(loud);

  std::vector<float> arena;
  for (const auto& u : uploads) arena.insert(arena.end(), u.begin(), u.end());
  RowSpan rows(arena.data(), uploads.size(), kDim);
  FirstStageReport report;
  auto verdicts = f.Apply(rows, kSigmaUp, &report);
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_TRUE(verdicts[0].accepted());
  EXPECT_FALSE(verdicts[1].accepted());
  EXPECT_FALSE(verdicts[2].accepted());
  EXPECT_EQ(report.total, 3u);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.rejected_norm, 2u);
  // Rejected uploads are zeroed in place (Algorithm 2's g ← 0).
  EXPECT_EQ(ops::Norm(rows.Row(1), kDim), 0.0);
  EXPECT_EQ(ops::Norm(rows.Row(2), kDim), 0.0);
  EXPECT_GT(ops::Norm(rows.Row(0), kDim), 0.0);
}

TEST(EnvelopeTest, IntervalsAreOrderedAndContainGaussianQuantiles) {
  FirstStageFilter f{ProtocolOptions{}};
  const size_t d = 1000;
  double d_ks = f.KsStatisticBound(d);
  EXPECT_GT(d_ks, 0.0);
  EXPECT_LT(d_ks, 0.1);
  for (size_t k : {size_t{1}, size_t{100}, size_t{500}, size_t{999},
                   size_t{1000}}) {
    auto [lo, hi] = FirstStageFilter::EnvelopeInterval(k, d, d_ks, kSigmaUp);
    EXPECT_LT(lo, hi) << "k=" << k;
    // Theorem 2: the k-th Gaussian order statistic's typical location
    // σΦ⁻¹((k-1/2)/d) lies inside the envelope.
    double typical =
        kSigmaUp * stats::NormalQuantile((static_cast<double>(k) - 0.5) / d);
    EXPECT_GE(typical, lo) << "k=" << k;
    EXPECT_LE(typical, hi) << "k=" << k;
  }
}

TEST(EnvelopeTest, TailsAreUnbounded) {
  const size_t d = 1000;
  double d_ks = 0.05;
  auto [lo1, hi1] = FirstStageFilter::EnvelopeInterval(1, d, d_ks, 1.0);
  EXPECT_TRUE(std::isinf(lo1));
  EXPECT_LT(lo1, 0.0);  // -inf: smallest coordinate may be arbitrarily low
  auto [lod, hid] = FirstStageFilter::EnvelopeInterval(d, d, d_ks, 1.0);
  EXPECT_TRUE(std::isinf(hid));
  EXPECT_GT(hid, 0.0);
  (void)hi1;
  (void)lod;
}

TEST(EnvelopeTest, SortedCoordinatesOfPassingUploadRespectEnvelope) {
  // Property (Theorem 2): every upload accepted by the KS test has its
  // k-th sorted coordinate inside EnvelopeInterval(k).
  FirstStageFilter f{ProtocolOptions{}};
  const size_t d = 500;
  double d_ks = f.KsStatisticBound(d);
  std::vector<float> u(d);
  SplitRng rng(6);
  rng.FillGaussian(u.data(), d, 1.0);
  FirstStageVerdict v = f.Test(u, 1.0);
  if (v.passed_ks) {
    std::sort(u.begin(), u.end());
    for (size_t k = 1; k <= d; ++k) {
      auto [lo, hi] = FirstStageFilter::EnvelopeInterval(k, d, d_ks, 1.0);
      EXPECT_GE(u[k - 1], lo - 1e-6) << "k=" << k;
      EXPECT_LE(u[k - 1], hi + 1e-6) << "k=" << k;
    }
  }
}

TEST(FirstStageTest, OptionValidation) {
  ProtocolOptions bad;
  bad.ks_significance = 0.0;
  EXPECT_FALSE(ValidateProtocolOptions(bad).ok());
  bad = ProtocolOptions{};
  bad.norm_window_sigmas = -1.0;
  EXPECT_FALSE(ValidateProtocolOptions(bad).ok());
  bad = ProtocolOptions{};
  bad.enable_first_stage = false;
  bad.enable_second_stage = false;
  EXPECT_FALSE(ValidateProtocolOptions(bad).ok());
}

}  // namespace
}  // namespace core
}  // namespace dpbr
