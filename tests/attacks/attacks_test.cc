#include <gtest/gtest.h>

#include <cmath>

#include "aggregators/aggregator.h"
#include "attacks/a_little.h"
#include "attacks/adaptive.h"
#include "attacks/attacks_common.h"
#include "attacks/gaussian_attack.h"
#include "attacks/inner_product.h"
#include "attacks/label_flip.h"
#include "attacks/opt_lmp.h"
#include "fl/upload.h"
#include "support/pack_arena.h"
#include "tensor/ops.h"

namespace dpbr {
namespace attacks {
namespace {

// Synthesizes a round's worth of honest uploads g = g̃ + z as the DP
// protocol produces them. `honest` keeps per-upload vectors for test
// assertions; the context views the same values through a packed arena
// block, as the trainer provides them.
struct Scenario {
  std::vector<std::vector<float>> honest;
  fl::UploadArena honest_arena;
  fl::UploadArena poisoned_arena;
  std::vector<float> params;
  SplitRng rng{123};
  fl::AttackContext ctx;

  Scenario(size_t n_honest, size_t dim, double sigma_upload,
           double signal = 0.05) {
    SplitRng gen(9);
    std::vector<float> direction(dim);
    gen.FillGaussian(direction.data(), dim, 1.0);
    ops::NormalizeInPlace(direction.data(), dim);
    for (size_t i = 0; i < n_honest; ++i) {
      std::vector<float> u(dim);
      SplitRng w = gen.Split(i);
      w.FillGaussian(u.data(), dim, sigma_upload);
      ops::Axpy(static_cast<float>(signal), direction.data(), u.data(), dim);
      honest.push_back(std::move(u));
    }
    honest_arena = testutil::PackArena(honest);
    params.assign(dim, 0.0f);
    ctx.honest_uploads = honest_arena.cspan();
    ctx.global_params = &params;
    ctx.dim = dim;
    ctx.sigma_upload = sigma_upload;
    ctx.round = 5;
    ctx.total_rounds = 100;
    ctx.rng = &rng;
  }

  /// Packs data-poisoning uploads and points the context at them.
  void SetPoisoned(const std::vector<std::vector<float>>& rows) {
    poisoned_arena = testutil::PackArena(rows);
    ctx.poisoned_uploads = poisoned_arena.cspan();
  }

  /// Forges `num_byzantine` rows into a fresh arena through ForgeInto, as
  /// the trainer does, and copies them out for per-row assertions.
  std::vector<std::vector<float>> Forge(fl::Attack& attack,
                                        size_t num_byzantine) {
    fl::UploadArena arena;
    arena.Reset(num_byzantine, ctx.dim);
    attack.ForgeInto(ctx, arena.span());
    std::vector<std::vector<float>> rows;
    for (size_t b = 0; b < num_byzantine; ++b) {
      rows.emplace_back(arena.Row(b), arena.Row(b) + ctx.dim);
    }
    return rows;
  }
};

TEST(GaussianAttackTest, MatchesDpNoiseStatistics) {
  Scenario s(10, 2000, 0.3);
  GaussianAttack attack;
  auto forged = s.Forge(attack, 4);
  ASSERT_EQ(forged.size(), 4u);
  for (const auto& f : forged) {
    ASSERT_EQ(f.size(), 2000u);
    // ‖f‖ ≈ σ_up·√d.
    double expected = 0.3 * std::sqrt(2000.0);
    EXPECT_NEAR(ops::Norm(f), expected, 0.1 * expected);
  }
  // Distinct draws per Byzantine worker.
  EXPECT_NE(forged[0], forged[1]);
}

TEST(GaussianAttackTest, FallbackScaleWithoutDp) {
  Scenario s(5, 500, 0.0);
  s.ctx.sigma_upload = 0.0;
  GaussianAttack attack(2.0);
  auto forged = s.Forge(attack, 1);
  double expected = 2.0 * std::sqrt(500.0);
  EXPECT_NEAR(ops::Norm(forged[0]), expected, 0.15 * expected);
}

TEST(OptLmpTest, InvertsBenignDirection) {
  Scenario s(16, 1000, 0.3);
  OptLmpAttack attack;
  size_t mn = 24;  // 60% of 40: Mn = 24 > √16 = 4
  auto forged = s.Forge(attack, mn);
  ASSERT_EQ(forged.size(), mn);
  // All Byzantine uploads are identical (Eq. 10).
  EXPECT_EQ(forged[0], forged[1]);
  std::vector<float> benign_sum = SumOfHonestUploads(s.ctx);
  // Negative alignment with the benign sum.
  EXPECT_LT(ops::Dot(forged[0], benign_sum), 0.0);
  // Total: Σ g_M = -(1+λ)·Σ g_B → aggregate sum = -λ·Σ g_B (inverted).
  std::vector<float> total = benign_sum;
  for (const auto& f : forged) total = ops::Add(total, f);
  EXPECT_LT(ops::Dot(total, benign_sum), 0.0);
}

TEST(OptLmpTest, ForgedNormCamouflagesAsBenign) {
  // With λ = Mn/√Bm − 1 each forged upload's norm lands near the benign
  // upload norm σ_up√d (this is what defeats naive norm filtering).
  Scenario s(16, 4000, 0.3, /*signal=*/0.01);
  OptLmpAttack attack;
  auto forged = s.Forge(attack, 24);
  double benign_norm = ops::Norm(s.honest[0]);
  EXPECT_NEAR(ops::Norm(forged[0]), benign_norm, 0.15 * benign_norm);
}

TEST(OptLmpTest, FewAttackersFallBackGracefully) {
  Scenario s(16, 500, 0.3);
  OptLmpAttack attack;
  // Mn = 2 < √16 = 4: λ clamps to 0, attack still points against benign.
  auto forged = s.Forge(attack, 2);
  std::vector<float> benign_sum = SumOfHonestUploads(s.ctx);
  EXPECT_LT(ops::Dot(forged[0], benign_sum), 0.0);
}

TEST(ALittleTest, SitsWithinBenignSpread) {
  Scenario s(20, 800, 0.3);
  ALittleAttack attack;
  auto forged = s.Forge(attack, 10);
  ASSERT_EQ(forged.size(), 10u);
  EXPECT_EQ(forged[0], forged[9]);
  // μ - z·s stays within ~3 std of the benign mean per coordinate:
  // overall norm comparable to a benign upload, not orders larger.
  double benign_norm = ops::Norm(s.honest[0]);
  EXPECT_LT(ops::Norm(forged[0]), 4.0 * benign_norm);
  EXPECT_GT(ops::Norm(forged[0]), 0.2 * benign_norm);
}

TEST(ALittleTest, ZOverrideControlsDeviation) {
  Scenario s(20, 800, 0.3);
  ALittleAttack small(0.5), large(3.0);
  auto f_small = s.Forge(small, 4);
  auto f_large = s.Forge(large, 4);
  // Larger z → farther from the benign mean.
  std::vector<float> mean = agg::MeanOfAllRows(s.ctx.honest_uploads);
  EXPECT_GT(ops::Norm(ops::Sub(f_large[0], mean)),
            ops::Norm(ops::Sub(f_small[0], mean)));
}

TEST(InnerProductTest, NegatesTheMean) {
  Scenario s(8, 300, 0.2);
  InnerProductAttack attack(1.0);
  auto forged = s.Forge(attack, 3);
  std::vector<float> mean = agg::MeanOfAllRows(s.ctx.honest_uploads);
  for (size_t k = 0; k < 300; ++k) {
    EXPECT_NEAR(forged[0][k], -mean[k], 1e-5);
  }
}

TEST(LabelFlipTest, ForwardsPoisonedUploads) {
  Scenario s(4, 100, 0.2);
  s.SetPoisoned({std::vector<float>(100, 1.0f),
                 std::vector<float>(100, 2.0f)});
  LabelFlipAttack attack;
  EXPECT_TRUE(attack.wants_poisoned_uploads());
  auto forged = s.Forge(attack, 2);
  ASSERT_EQ(forged.size(), 2u);
  EXPECT_FLOAT_EQ(forged[0][0], 1.0f);
  EXPECT_FLOAT_EQ(forged[1][0], 2.0f);
}

TEST(AdaptiveTest, CamouflagesBeforeTtbbThenAttacks) {
  Scenario s(6, 200, 0.2);
  AdaptiveAttack attack(std::make_unique<InnerProductAttack>(), 0.5);
  EXPECT_EQ(attack.name(), "adaptive(inner_product)");

  // Round 5 of 100 < TTBB·T = 50: copies of honest uploads.
  s.ctx.round = 5;
  auto camo = s.Forge(attack, 3);
  for (const auto& f : camo) {
    bool is_copy = false;
    for (const auto& h : s.honest) {
      if (f == h) is_copy = true;
    }
    EXPECT_TRUE(is_copy);
  }

  // Round 80 > 50: delegates to the inner attack.
  s.ctx.round = 80;
  auto hostile = s.Forge(attack, 3);
  std::vector<float> mean = agg::MeanOfAllRows(s.ctx.honest_uploads);
  EXPECT_NEAR(hostile[0][0], -mean[0], 1e-5);
}

TEST(AdaptiveTest, PropagatesPoisonedUploadRequirement) {
  AdaptiveAttack flip(std::make_unique<LabelFlipAttack>(), 0.2);
  EXPECT_TRUE(flip.wants_poisoned_uploads());
  AdaptiveAttack gauss(std::make_unique<GaussianAttack>(), 0.2);
  EXPECT_FALSE(gauss.wants_poisoned_uploads());
}

TEST(AttackNamesTest, AreStable) {
  EXPECT_EQ(GaussianAttack().name(), "gaussian");
  EXPECT_EQ(LabelFlipAttack().name(), "label_flip");
  EXPECT_EQ(OptLmpAttack().name(), "opt_lmp");
  EXPECT_EQ(ALittleAttack().name(), "a_little");
  EXPECT_EQ(InnerProductAttack().name(), "inner_product");
}

}  // namespace
}  // namespace attacks
}  // namespace dpbr
