// Parameterized robustness properties. With a Byzantine minority sending
// enormous uploads, every robust rule must stay near the benign mean
// while the plain mean is dragged away. This is the textbook behaviour
// the paper's Table 1 row "✗ for > 50%" presumes in the minority regime.
// Degenerate cohorts (one or two rows, identical rows, a constant column,
// denormal-only rows, finite rows near ±FLT_MAX whose squares overflow
// float) must give every rule a result or a Status, never an abort:
// today only Krum refuses (fewer than 3 rows), and the rest return
// finite updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "aggregators/fltrust.h"
#include "aggregators/krum.h"
#include "aggregators/median.h"
#include "aggregators/mean.h"
#include "aggregators/norm_bound.h"
#include "aggregators/rfa.h"
#include "aggregators/sign_sgd.h"
#include "aggregators/trimmed_mean.h"
#include "common/rng.h"
#include "core/dpbr_aggregator.h"
#include "support/pack_arena.h"
#include "tensor/ops.h"

namespace dpbr {
namespace agg {
namespace {

using testutil::PackArena;

struct RobustCase {
  std::string name;
  std::function<AggregatorPtr()> make;
};

class MinorityByzantineTest : public ::testing::TestWithParam<RobustCase> {};

TEST_P(MinorityByzantineTest, StaysNearBenignMean) {
  const size_t kDim = 32, kHonest = 15, kByz = 5;
  SplitRng rng(42);
  std::vector<std::vector<float>> uploads;
  std::vector<float> benign_center(kDim);
  for (auto& v : benign_center) v = static_cast<float>(rng.Gaussian());
  for (size_t i = 0; i < kHonest; ++i) {
    std::vector<float> u = benign_center;
    for (auto& v : u) v += static_cast<float>(rng.Gaussian(0.0, 0.1));
    uploads.push_back(std::move(u));
  }
  for (size_t i = 0; i < kByz; ++i) {
    uploads.emplace_back(kDim, 1000.0f);
  }

  AggregationContext ctx;
  ctx.dim = kDim;
  ctx.gamma = static_cast<double>(kHonest) / (kHonest + kByz);

  AggregatorPtr robust = GetParam().make();
  auto r = robust.get()->Aggregate(PackArena(uploads).span(), ctx);
  ASSERT_TRUE(r.ok());
  std::vector<float> diff = ops::Sub(r.value(), benign_center);
  EXPECT_LT(ops::Norm(diff), 1.0) << GetParam().name;

  // The non-robust mean is dragged far away by the same uploads.
  MeanAggregator mean;
  auto m = mean.Aggregate(PackArena(uploads).span(), ctx);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(ops::Norm(ops::Sub(m.value(), benign_center)), 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    RobustRules, MinorityByzantineTest,
    ::testing::Values(
        RobustCase{"krum", [] { return std::make_unique<KrumAggregator>(); }},
        RobustCase{"median",
                   [] {
                     return std::make_unique<CoordinateMedianAggregator>();
                   }},
        RobustCase{"trimmed_mean",
                   [] {
                     return std::make_unique<TrimmedMeanAggregator>(0.3);
                   }},
        RobustCase{"rfa", [] { return std::make_unique<RfaAggregator>(64); }}),
    [](const ::testing::TestParamInfo<RobustCase>& info) {
      return info.param.name;
    });

// The complementary fact motivating the paper: the same rules FAIL under
// a Byzantine MAJORITY (they have no > 50% resilience).
class MajorityByzantineTest : public ::testing::TestWithParam<RobustCase> {};

TEST_P(MajorityByzantineTest, ClassicalRulesAreOverwhelmed) {
  const size_t kDim = 16, kHonest = 5, kByz = 15;
  SplitRng rng(43);
  std::vector<std::vector<float>> uploads;
  for (size_t i = 0; i < kHonest; ++i) {
    std::vector<float> u(kDim, 0.0f);
    for (auto& v : u) v += static_cast<float>(rng.Gaussian(0.0, 0.1));
    uploads.push_back(std::move(u));
  }
  // A coordinated majority at a bogus location.
  for (size_t i = 0; i < kByz; ++i) {
    std::vector<float> u(kDim, 5.0f);
    for (auto& v : u) v += static_cast<float>(rng.Gaussian(0.0, 0.1));
    uploads.push_back(std::move(u));
  }
  AggregationContext ctx;
  ctx.dim = kDim;
  // Even an accurate belief cannot save distance-based rules here.
  ctx.gamma = static_cast<double>(kHonest) / (kHonest + kByz);
  AggregatorPtr rule = GetParam().make();
  auto r = rule.get()->Aggregate(PackArena(uploads).span(), ctx);
  ASSERT_TRUE(r.ok());
  // Output lands near the Byzantine cluster (‖·‖ ≈ 5·√16 = 20), far from
  // the honest origin.
  EXPECT_GT(ops::Norm(r.value()), 10.0) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    ClassicalRules, MajorityByzantineTest,
    ::testing::Values(
        RobustCase{"krum", [] { return std::make_unique<KrumAggregator>(); }},
        RobustCase{"median",
                   [] {
                     return std::make_unique<CoordinateMedianAggregator>();
                   }},
        RobustCase{"rfa", [] { return std::make_unique<RfaAggregator>(64); }}),
    [](const ::testing::TestParamInfo<RobustCase>& info) {
      return info.param.name;
    });

// --- Aggregation boundaries: degenerate cohorts ---

constexpr size_t kBoundaryDim = 6;

struct BoundaryShape {
  std::string name;
  std::vector<std::vector<float>> rows;
};

std::vector<BoundaryShape> BoundaryShapes() {
  SplitRng rng(44);
  auto row = [&rng] {
    std::vector<float> r(kBoundaryDim);
    for (auto& v : r) v = static_cast<float>(rng.Gaussian());
    return r;
  };
  std::vector<BoundaryShape> shapes;
  shapes.push_back({"n1", {row()}});
  shapes.push_back({"n2", {row(), row()}});
  shapes.push_back({"identical", std::vector<std::vector<float>>(5, row())});
  BoundaryShape flat{"zero_variance_column", {}};
  for (int i = 0; i < 5; ++i) {
    flat.rows.push_back(row());
    flat.rows.back()[2] = 0.75f;
  }
  shapes.push_back(flat);
  // Both extremes pass Server::Step's finite-value sanitizer, so a
  // Byzantine client can send them. ldexp(g, -130) is a denormal for
  // every Gaussian draw |g| < 16.
  BoundaryShape denormal{"denormal_only", {}};
  for (int i = 0; i < 5; ++i) {
    denormal.rows.push_back(row());
    for (float& v : denormal.rows.back()) v = std::ldexp(v, -130);
  }
  shapes.push_back(denormal);
  // |v| in [2.5e38, 3.3e38] with mixed signs: finite, but v·v and the
  // sum of two same-signed values overflow float.
  BoundaryShape huge{"near_float_max", {}};
  for (int i = 0; i < 5; ++i) {
    huge.rows.push_back(row());
    for (float& v : huge.rows.back()) {
      float mag = 2.5e38f + 0.8e38f * static_cast<float>(rng.Uniform());
      v = v < 0.0f ? -mag : mag;
    }
  }
  shapes.push_back(huge);
  return shapes;
}

class BoundaryTest : public ::testing::TestWithParam<RobustCase> {};

TEST_P(BoundaryTest, DegenerateCohortsYieldResultOrStatus) {
  const std::string& rule_name = GetParam().name;
  std::vector<float> server_grad(kBoundaryDim, 0.5f);
  for (const BoundaryShape& shape : BoundaryShapes()) {
    SCOPED_TRACE(shape.name);
    size_t n = shape.rows.size();
    AggregationContext ctx;
    ctx.dim = kBoundaryDim;
    ctx.sigma_upload = 1.0;
    ctx.server_gradient = &server_grad;
    AggregatorPtr rule = GetParam().make();
    auto r = rule->Aggregate(PackArena(shape.rows).span(), ctx);
    if (rule_name == "krum" && n < 3) {
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    // Every other rule answers these cohorts with a finite update.
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().size(), kBoundaryDim);
    for (float v : r.value()) EXPECT_TRUE(std::isfinite(v));
    if (rule_name == "median" || rule_name == "trimmed_mean") {
      for (size_t k = 0; k < kBoundaryDim; ++k) {
        float lo = shape.rows[0][k], hi = shape.rows[0][k];
        for (const auto& u : shape.rows) {
          lo = std::min(lo, u[k]);
          hi = std::max(hi, u[k]);
        }
        EXPECT_GE(r.value()[k], lo) << "coordinate " << k;
        EXPECT_LE(r.value()[k], hi) << "coordinate " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryRule, BoundaryTest,
    ::testing::Values(
        RobustCase{"mean", [] { return std::make_unique<MeanAggregator>(); }},
        RobustCase{"median",
                   [] {
                     return std::make_unique<CoordinateMedianAggregator>();
                   }},
        RobustCase{"trimmed_mean",
                   [] {
                     return std::make_unique<TrimmedMeanAggregator>(0.2);
                   }},
        RobustCase{"krum", [] { return std::make_unique<KrumAggregator>(); }},
        RobustCase{"rfa", [] { return std::make_unique<RfaAggregator>(); }},
        RobustCase{"fltrust",
                   [] { return std::make_unique<FlTrustAggregator>(); }},
        RobustCase{"sign_sgd",
                   [] { return std::make_unique<SignSgdAggregator>(); }},
        RobustCase{"norm_bound",
                   [] { return std::make_unique<NormBoundAggregator>(); }},
        RobustCase{"dpbr",
                   [] { return AggregatorPtr(new core::DpbrAggregator()); }}),
    [](const ::testing::TestParamInfo<RobustCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace agg
}  // namespace dpbr
