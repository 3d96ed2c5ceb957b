#include "stats/ks_test.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stats/distributions.h"

namespace dpbr {
namespace stats {
namespace {

TEST(KsTestTest, HandComputedStatistic) {
  // Sample {0.1, 0.2, 0.3} against U(0,1) CDF F(x) = x:
  // D = max over i of max(i/3 - x_(i), x_(i) - (i-1)/3)
  //   i=1: max(1/3-0.1, 0.1-0)   = 0.2333...
  //   i=2: max(2/3-0.2, 0.2-1/3) = 0.4666...
  //   i=3: max(1-0.3, 0.3-2/3)   = 0.7
  KsResult r = KsTest({0.1, 0.2, 0.3}, [](double x) { return x; });
  EXPECT_NEAR(r.statistic, 0.7, 1e-12);
  EXPECT_EQ(r.n, 3u);
}

TEST(KsTestTest, PerfectFitHasHighPValue) {
  // Deterministic quantile sample: x_i = F^{-1}((i-0.5)/n) gives D = 1/(2n).
  const size_t kN = 100;
  std::vector<double> sample;
  for (size_t i = 0; i < kN; ++i) {
    sample.push_back(
        NormalQuantile((static_cast<double>(i) + 0.5) / kN));
  }
  KsResult r = KsTest(sample, [](double x) { return NormalCdf(x); });
  EXPECT_NEAR(r.statistic, 0.005, 1e-9);
  EXPECT_GT(r.p_value, 0.999);
}

TEST(KsTestGaussianTest, GaussianSamplePassesAtNominalRate) {
  // Draws from the null should be rejected ~5% of the time at α = 0.05.
  SplitRng rng(17);
  const int kTrials = 200;
  const size_t kN = 500;
  int rejections = 0;
  std::vector<float> buf(kN);
  for (int t = 0; t < kTrials; ++t) {
    rng.FillGaussian(buf.data(), kN, 2.5);
    KsResult r = KsTestGaussian(buf, 2.5);
    if (r.p_value < 0.05) ++rejections;
  }
  // Binomial(200, 0.05): mean 10, std ≈ 3.1. Accept within ±5 std.
  EXPECT_LE(rejections, 26);
}

TEST(KsTestGaussianTest, WrongScaleIsRejected) {
  SplitRng rng(18);
  std::vector<float> buf(2000);
  rng.FillGaussian(buf.data(), buf.size(), 2.0);
  // Tested against a 30% smaller σ: decisively rejected.
  KsResult r = KsTestGaussian(buf, 1.4);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTestGaussianTest, UniformSampleIsRejected) {
  SplitRng rng(19);
  std::vector<float> buf(2000);
  for (auto& v : buf) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  KsResult r = KsTestGaussian(buf, 1.0);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTestGaussianTest, ShiftedMeanIsRejected) {
  SplitRng rng(20);
  std::vector<float> buf(2000);
  for (auto& v : buf) v = static_cast<float>(rng.Gaussian(0.3, 1.0));
  KsResult r = KsTestGaussian(buf, 1.0);
  EXPECT_LT(r.p_value, 1e-4);
}

TEST(KsTestGaussianTest, ZeroVectorIsRejected) {
  std::vector<float> zeros(1000, 0.0f);
  KsResult r = KsTestGaussian(zeros, 1.0);
  // ECDF jumps 0→1 at 0 while Φ(0) = 0.5, so D = 0.5.
  EXPECT_NEAR(r.statistic, 0.5, 1e-6);
  EXPECT_LT(r.p_value, 1e-10);
}

class KsSigmaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(KsSigmaSweepTest, NullSamplesPass) {
  double sigma = GetParam();
  SplitRng rng(21 + static_cast<uint64_t>(sigma * 1000));
  std::vector<float> buf(2410);  // d of the default experiment MLP
  rng.FillGaussian(buf.data(), buf.size(), sigma);
  KsResult r = KsTestGaussian(buf, sigma);
  EXPECT_GT(r.p_value, 0.001) << "sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(Sigmas, KsSigmaSweepTest,
                         ::testing::Values(0.01, 0.1, 0.29, 1.0, 4.4, 19.0));

// --- Bitwise oracle: KsTestGaussian against the generic std::sort-based
// KsTest on a double copy of the row, with the CDF written in the same
// expression order (x·(1/σ), then Φ). Equal multisets sort to equal
// sequences up to the order of ±0, and Φ(±0) = 0.5 exactly, so both must
// produce the same doubles for D and the p-value.

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

enum class RowKind {
  kGaussian,
  kSignedZeroMix,
  kHeavyTies,
  kDenormal,
  kFltMax,
  kInfinities,
  kAllZero,
  kTinyScaled,
  kNumKinds,
};

std::vector<float> CorpusRow(RowKind kind, size_t n, double sigma,
                             uint64_t seed) {
  SplitRng rng(seed);
  std::vector<float> row(n);
  rng.FillGaussian(row.data(), n, sigma);
  const float kMax = std::numeric_limits<float>::max();
  const float kInf = std::numeric_limits<float>::infinity();
  const float kDenormMin = std::numeric_limits<float>::denorm_min();
  for (size_t i = 0; i < n; ++i) {
    float& v = row[i];
    switch (kind) {
      case RowKind::kGaussian:
        break;
      case RowKind::kSignedZeroMix:
        if (i % 3 == 0) v = 0.0f;
        if (i % 5 == 0) v = -0.0f;
        break;
      case RowKind::kHeavyTies:
        // Five levels, so every value repeats ~n/5 times.
        v = static_cast<float>(sigma * (static_cast<int>(i * 7 % 5) - 2));
        if (i % 4 == 1) v = -v;
        break;
      case RowKind::kDenormal:
        v *= 1e-39f;
        if (i % 7 == 0) v = (i % 2 == 0) ? kDenormMin : -kDenormMin;
        break;
      case RowKind::kFltMax:
        if (i % 6 == 0) v = (i % 4 == 0) ? kMax : -kMax;
        break;
      case RowKind::kInfinities:
        if (i % 9 == 0) v = (i % 2 == 0) ? kInf : -kInf;
        break;
      case RowKind::kAllZero:
        v = 0.0f;
        break;
      case RowKind::kTinyScaled:
        v *= 1e-30f;
        break;
      case RowKind::kNumKinds:
        break;
    }
  }
  return row;
}

KsResult OracleKs(const std::vector<float>& row, double sigma) {
  std::vector<double> sample(row.begin(), row.end());
  double inv_sigma = 1.0 / sigma;
  auto cdf = [inv_sigma](double x) { return NormalCdf(x * inv_sigma); };
  return KsTest(sample, cdf);
}

TEST(KsTestGaussianOracleTest, BitwiseEqualToSortReference) {
  const size_t kSizes[] = {1, 2, 3, 7, 2047, 2048, 2049, 2410, 5706, 100000};
  const double kSigmas[] = {0.01, 0.3, 19.0};
  int cases = 0;
  uint64_t seed = 100;
  for (size_t n : kSizes) {
    for (int k = 0; k < static_cast<int>(RowKind::kNumKinds); ++k) {
      RowKind kind = static_cast<RowKind>(k);
      for (double sigma : kSigmas) {
        std::vector<float> row = CorpusRow(kind, n, sigma, ++seed);
        KsResult want = OracleKs(row, sigma);
        KsResult got = KsTestGaussian(row, sigma);
        SCOPED_TRACE("kind " + std::to_string(k) + " n=" + std::to_string(n) +
                     " sigma=" + std::to_string(sigma));
        EXPECT_EQ(got.n, n);
        EXPECT_EQ(Bits(got.statistic), Bits(want.statistic));
        EXPECT_EQ(Bits(got.p_value), Bits(want.p_value));
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 240);
}

// --- Non-finite coordinates: the order is defined (NaNs with the sign
// bit clear sort above +inf, with it set below -inf) and a NaN's Φ is
// NaN, which never raises D.

TEST(KsTestGaussianTest, NanCoordinatesAreDefinedAndContributeNothing) {
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> all_nan(64, kNan);
  for (size_t i = 0; i < all_nan.size(); i += 2) all_nan[i] = -kNan;
  KsResult r = KsTestGaussian(all_nan, 1.0);
  EXPECT_EQ(r.statistic, 0.0);
  EXPECT_EQ(r.p_value, 1.0);

  // The NaNs take the two end ranks, so the zero sits at rank 2 of 3:
  // D = max(2/3 - Φ(0), Φ(0) - 1/3) with Φ(0) = 0.5.
  KsResult mixed = KsTestGaussian({kNan, 0.0f, -kNan}, 1.0);
  const double kInvN = 1.0 / 3.0;
  EXPECT_EQ(Bits(mixed.statistic),
            Bits(std::max(2.0 * kInvN - 0.5, 0.5 - 1.0 * kInvN)));

  // Repeated calls on the same NaN-laden row agree bit for bit.
  std::vector<float> row = CorpusRow(RowKind::kGaussian, 2410, 0.3, 7);
  for (size_t i = 0; i < row.size(); i += 11) row[i] = kNan;
  for (size_t i = 5; i < row.size(); i += 13) row[i] = -kNan;
  KsResult first = KsTestGaussian(row, 0.3);
  KsResult again = KsTestGaussian(row, 0.3);
  EXPECT_EQ(Bits(first.statistic), Bits(again.statistic));
  EXPECT_EQ(Bits(first.p_value), Bits(again.p_value));
}

// --- Scratch reuse: the sort runs in grow-only per-thread scratch, so a
// call after larger or smaller ones must equal the same call made first
// in a fresh thread.

KsResult InFreshThread(const std::vector<float>& row, double sigma) {
  KsResult r;
  std::thread t([&] { r = KsTestGaussian(row, sigma); });
  t.join();
  return r;
}

TEST(KsTestGaussianTest, InterleavedSizesMatchFreshThreadCalls) {
  const size_t kSizes[] = {5706, 2410, 1, 100000, 2410};
  uint64_t seed = 900;
  for (size_t n : kSizes) {
    std::vector<float> row = CorpusRow(RowKind::kGaussian, n, 0.3, ++seed);
    KsResult got = KsTestGaussian(row, 0.3);
    KsResult want = InFreshThread(row, 0.3);
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_EQ(Bits(got.statistic), Bits(want.statistic));
    EXPECT_EQ(Bits(got.p_value), Bits(want.p_value));
  }
}

}  // namespace
}  // namespace stats
}  // namespace dpbr
