// Arena invariants for EVERY aggregation rule: aggregating a zero-copy
// span view of a contiguous UploadArena is bitwise invariant to the
// thread-pool size, identity client ids are indistinguishable from
// positional ones, and the coordinate-selection tile width follows its
// documented shape rule.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "aggregators/fltrust.h"
#include "aggregators/krum.h"
#include "aggregators/mean.h"
#include "aggregators/median.h"
#include "aggregators/norm_bound.h"
#include "aggregators/rfa.h"
#include "aggregators/sign_sgd.h"
#include "aggregators/trimmed_mean.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dpbr_aggregator.h"
#include "fl/upload.h"
#include "support/pack_arena.h"

namespace dpbr {
namespace agg {
namespace {

using testutil::PackArena;

// kDim > 1024 so the coordinate-selection rules split into several
// column tiles (SelectionTileWidth(12, 2050) is 683 columns).
constexpr size_t kN = 12;
constexpr size_t kDim = 2050;
constexpr int kRounds = 3;

std::vector<std::vector<float>> MakeUploads(size_t n, size_t dim,
                                            uint64_t seed) {
  std::vector<std::vector<float>> uploads(n, std::vector<float>(dim));
  for (size_t i = 0; i < n; ++i) {
    SplitRng rng(seed, {0xA3E4A, i});
    rng.FillGaussian(uploads[i].data(), dim, 1.0);
  }
  return uploads;
}

struct Rule {
  std::string name;
  std::function<AggregatorPtr()> make;
};

std::vector<Rule> AllRules() {
  std::vector<Rule> rules;
  rules.push_back({"mean", [] { return std::make_unique<MeanAggregator>(); }});
  rules.push_back({"median", [] {
                     return std::make_unique<CoordinateMedianAggregator>();
                   }});
  rules.push_back({"trimmed_mean", [] {
                     return std::make_unique<TrimmedMeanAggregator>(0.2);
                   }});
  rules.push_back({"krum", [] { return std::make_unique<KrumAggregator>(3); }});
  rules.push_back({"rfa", [] { return std::make_unique<RfaAggregator>(); }});
  rules.push_back(
      {"fltrust", [] { return std::make_unique<FlTrustAggregator>(); }});
  rules.push_back(
      {"sign_sgd", [] { return std::make_unique<SignSgdAggregator>(); }});
  rules.push_back(
      {"norm_bound", [] { return std::make_unique<NormBoundAggregator>(); }});
  rules.push_back({"dpbr", [] {
                     return AggregatorPtr(new core::DpbrAggregator());
                   }});
  return rules;
}

AggregationContext Ctx(const std::vector<float>* server_grad, int round) {
  AggregationContext ctx;
  ctx.dim = kDim;
  ctx.gamma = 0.5;
  ctx.sigma_upload = 0.1;
  ctx.round = round;
  ctx.server_gradient = server_grad;
  return ctx;
}

TEST(ArenaEquivalenceTest, EveryRulePoolSizeInvariantOnArena) {
  // The span outputs must not depend on how many threads aggregate them.
  // Reference outputs under a single-thread pool...
  std::vector<std::vector<std::vector<float>>> ref;
  {
    ThreadPool pool(1);
    ScopedPoolOverride override(&pool);
    for (const Rule& rule : AllRules()) {
      AggregatorPtr agg = rule.make();
      std::vector<float> server_grad(kDim, 0.25f);
      ref.push_back({});
      for (int round = 1; round <= kRounds; ++round) {
        fl::UploadArena arena = PackArena(
            MakeUploads(kN, kDim, 2000 + static_cast<uint64_t>(round)));
        auto r = agg->Aggregate(arena.span(), Ctx(&server_grad, round));
        ASSERT_TRUE(r.ok()) << rule.name;
        ref.back().push_back(std::move(r).value());
      }
    }
  }
  // ...must reproduce bit-for-bit under a wide pool.
  {
    ThreadPool pool(8);
    ScopedPoolOverride override(&pool);
    std::vector<Rule> rules = AllRules();
    for (size_t k = 0; k < rules.size(); ++k) {
      AggregatorPtr agg = rules[k].make();
      std::vector<float> server_grad(kDim, 0.25f);
      for (int round = 1; round <= kRounds; ++round) {
        fl::UploadArena arena = PackArena(
            MakeUploads(kN, kDim, 2000 + static_cast<uint64_t>(round)));
        auto r = agg->Aggregate(arena.span(), Ctx(&server_grad, round));
        ASSERT_TRUE(r.ok()) << rules[k].name;
        EXPECT_EQ(0, std::memcmp(ref[k][round - 1].data(), r.value().data(),
                                 kDim * sizeof(float)))
            << rules[k].name << " depends on pool size at round " << round;
      }
    }
  }
}

TEST(ArenaEquivalenceTest, IdentityClientIdsMatchPositionalPath) {
  // Passing client_ids == {0, 1, ..., n-1} must be indistinguishable from
  // passing none: positions ARE the ids in the full-participation round.
  std::vector<float> server_grad(kDim, 0.25f);
  std::vector<int> ids(kN);
  std::iota(ids.begin(), ids.end(), 0);

  AggregatorPtr positional(new core::DpbrAggregator());
  AggregatorPtr id_keyed(new core::DpbrAggregator());
  for (int round = 1; round <= kRounds; ++round) {
    std::vector<std::vector<float>> uploads =
        MakeUploads(kN, kDim, 3000 + static_cast<uint64_t>(round));
    fl::UploadArena a = PackArena(uploads);
    fl::UploadArena b = PackArena(uploads);
    AggregationContext ctx = Ctx(&server_grad, round);
    auto ref = positional->Aggregate(a.span(), ctx);
    ctx.client_ids = &ids;
    auto got = id_keyed->Aggregate(b.span(), ctx);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(0, std::memcmp(ref.value().data(), got.value().data(),
                             kDim * sizeof(float)))
        << "round " << round;
  }
}

TEST(ArenaEquivalenceTest, TileWidthShrinksWithClientCount) {
  // The column-tile budget keeps gather scratch bounded (~4 MiB) as the
  // client count grows; the width must stay within [1, 1024] columns.
  constexpr size_t kWide = size_t{1} << 20;
  EXPECT_EQ(SelectionTileWidth(1, kWide), 1024u);
  EXPECT_EQ(SelectionTileWidth(1024, kWide), 1024u);
  EXPECT_EQ(SelectionTileWidth(10000, kWide), (size_t{1} << 20) / 10000);
  EXPECT_EQ(SelectionTileWidth(100000, kWide), 10u);
  EXPECT_GE(SelectionTileWidth(size_t{1} << 40, kWide), 1u);
  EXPECT_GE(SelectionTileWidth(size_t{1} << 40, 1), 1u);
  EXPECT_GE(SelectionTileWidth(0, 0), 1u);
  EXPECT_EQ(SelectionTileWidth(12, kDim), 683u);
}

TEST(ArenaEquivalenceTest, TileWidthFansOutSmallDims) {
  // d <= 1024 still splits into the minimum tile count when each tile
  // keeps enough rows of work: n = 1000, d = 256 is 16 tiles of 16.
  EXPECT_EQ(SelectionTileWidth(1000, 256), 16u);
  EXPECT_EQ(SelectionTileWidth(10000, 256), 16u);
  // Too few rows for 16 worthwhile tiles: tiles keep >= 8192 floats.
  EXPECT_EQ(SelectionTileWidth(100, 256), 82u);
  EXPECT_EQ(SelectionTileWidth(5, 10), 1024u);
}

}  // namespace
}  // namespace agg
}  // namespace dpbr
