#include "dp/gaussian_mechanism.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace dpbr {
namespace dp {
namespace {

TEST(ClassicSigmaTest, KnownFormula) {
  // σ = Δ√(2 ln(1.25/δ))/ε.
  auto s = ClassicGaussianSigma(2.0, 0.5, 1e-5);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.value(), 2.0 * std::sqrt(2.0 * std::log(1.25e5)) / 0.5,
              1e-12);
}

TEST(ClassicSigmaTest, Validation) {
  EXPECT_FALSE(ClassicGaussianSigma(0.0, 0.5, 1e-5).ok());
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 0.0, 1e-5).ok());
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 1.5, 1e-5).ok());  // ε > 1
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 0.5, 0.0).ok());
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 0.5, 1.0).ok());
}

TEST(ClassicSigmaTest, LinearInSensitivity) {
  // σ = Δ√(2 ln(1.25/δ))/ε is linear in Δ: σ(cΔ) = c·σ(Δ) for any fixed
  // (ε, δ) — the property that lets clipping bounds rescale noise.
  double base = ClassicGaussianSigma(1.0, 0.5, 1e-5).value();
  for (double c : {0.25, 0.5, 2.0, 10.0, 1000.0}) {
    auto scaled = ClassicGaussianSigma(c, 0.5, 1e-5);
    ASSERT_TRUE(scaled.ok());
    EXPECT_NEAR(scaled.value(), c * base, 1e-9 * c * base);
  }
}

// The DP noise itself is SplitRng::AddGaussian: these pin the magnitude
// and scaling the mechanism's σ calibration relies on.
TEST(AddGaussianTest, AddsNoiseOfRightMagnitude) {
  // Moments around a non-zero base: the noise adds to the data.
  SplitRng rng(5);
  std::vector<float> v(20000, 1.0f);
  rng.AddGaussian(v.data(), v.size(), 2.0);
  double sum = 0.0, sum2 = 0.0;
  for (float x : v) {
    sum += x;
    sum2 += static_cast<double>(x) * x;
  }
  double mean = sum / v.size();
  double var = sum2 / v.size() - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(AddGaussianTest, NoiseScalesLinearlyWithSigma) {
  // Same stream state, σ and 3σ: every noise coordinate scales by
  // exactly the σ ratio (draws are computed in double, so the float
  // results agree to rounding).
  const double sigma = 0.7;
  SplitRng a(9), b(9);
  std::vector<float> va(5000, 0.0f), vb(5000, 0.0f);
  a.AddGaussian(va.data(), va.size(), sigma);
  b.AddGaussian(vb.data(), vb.size(), 3.0 * sigma);
  for (size_t i = 0; i < va.size(); ++i) {
    double scale =
        std::max(1e-6, std::abs(3.0 * static_cast<double>(va[i])));
    ASSERT_NEAR(vb[i], 3.0 * static_cast<double>(va[i]), 1e-6 * scale)
        << "index " << i;
  }
}

}  // namespace
}  // namespace dp
}  // namespace dpbr
