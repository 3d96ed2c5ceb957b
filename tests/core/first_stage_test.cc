#include "core/first_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
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

// --- Verdict digest: FNV-1a over every row's passed_norm/passed_ks flags
// and the bits of its norm and KS p-value. The constant was recorded
// from the comparison-sort KS implementation, so it pins the radix-sorted
// kernel to the verdicts it replaced, at every pool size and on the
// scalar SIMD tier. Running this binary with DPBR_FORCE_SCALAR=1 checks
// the environment override end to end.

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t VerdictDigest(const std::vector<FirstStageVerdict>& verdicts) {
  uint64_t h = kFnvOffset;
  for (const FirstStageVerdict& v : verdicts) {
    const unsigned char flags[2] = {v.passed_norm, v.passed_ks};
    h = Fnv1a(h, flags, sizeof(flags));
    h = Fnv1a(h, &v.norm, sizeof(v.norm));
    h = Fnv1a(h, &v.ks_p_value, sizeof(v.ks_p_value));
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

// A fixed-seed round of 32 uploads, interleaving four kinds: honest noise
// rows, norm-camouflaged ±σ rows (right norm, wrong shape), wrongly
// scaled rows and zero rows.
std::vector<float> MixedArena(size_t* rows) {
  const size_t kRows = 32;
  std::vector<float> arena;
  arena.reserve(kRows * kDim);
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<float> u(kDim, 0.0f);
    SplitRng rng(700 + i);
    switch (i % 4) {
      case 0:
      case 1:
        u = HonestLikeUpload(600 + i);
        break;
      case 2:
        for (auto& v : u) {
          v = static_cast<float>(rng.Uniform() < 0.5 ? kSigmaUp : -kSigmaUp);
        }
        break;
      case 3:
        if (i % 8 != 7) {
          double scale = (i % 16 == 3) ? 2.0 : (i % 16 == 11 ? 0.5 : 1.1);
          rng.FillGaussian(u.data(), kDim, scale * kSigmaUp);
        }
        break;
    }
    arena.insert(arena.end(), u.begin(), u.end());
  }
  *rows = kRows;
  return arena;
}

uint64_t MixedArenaDigest(size_t threads) {
  ThreadPool pool(threads);
  ScopedPoolOverride override_pool(&pool);
  size_t rows = 0;
  std::vector<float> arena = MixedArena(&rows);
  FirstStageFilter f{ProtocolOptions{}};
  return VerdictDigest(f.Apply(RowSpan(arena.data(), rows, kDim), kSigmaUp));
}

constexpr uint64_t kMixedArenaDigest = 0xeac30e9c7ba03b2aULL;

TEST(FirstStageDigestTest, MixedArenaEveryPool) {
  for (size_t threads : {size_t{1}, size_t{2}, HardwarePool()}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    EXPECT_EQ(Hex(MixedArenaDigest(threads)), Hex(kMixedArenaDigest));
  }
}

TEST(FirstStageDigestTest, ScalarTierEveryPool) {
  simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
  for (size_t threads : {size_t{1}, size_t{2}, HardwarePool()}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    EXPECT_EQ(Hex(MixedArenaDigest(threads)), Hex(kMixedArenaDigest));
  }
}

TEST(FirstStageDigestTest, MixedArenaCoversEveryOutcome) {
  size_t rows = 0;
  std::vector<float> arena = MixedArena(&rows);
  FirstStageFilter f{ProtocolOptions{}};
  FirstStageReport report;
  f.Apply(RowSpan(arena.data(), rows, kDim), kSigmaUp, &report);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.rejected_norm, 0u);
  EXPECT_GT(report.rejected_ks, 0u);
}

// --- Non-finite uploads: Apply does not sanitize, so NaN and ±inf
// coordinates reach the KS sort. Their order is defined, the rows are
// rejected, and the verdicts do not depend on the pool size.

bool SameVerdictBits(const FirstStageVerdict& a, const FirstStageVerdict& b) {
  return a.passed_norm == b.passed_norm && a.passed_ks == b.passed_ks &&
         std::memcmp(&a.norm, &b.norm, sizeof(a.norm)) == 0 &&
         std::memcmp(&a.ks_p_value, &b.ks_p_value, sizeof(a.ks_p_value)) == 0;
}

TEST(FirstStageTest, NonFiniteRowsRejectedPoolInvariant) {
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const size_t kRows = 6;
  std::vector<float> arena;
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<float> u = HonestLikeUpload(800 + i);
    for (size_t j = i; j < kDim; j += 97) {
      if (i == 1) u[j] = (j % 2 == 0) ? kNan : -kNan;
      if (i == 2) u[j] = kInf;
      if (i == 3) u[j] = -kInf;
      if (i == 4) u[j] = (j % 3 == 0) ? kNan : (j % 3 == 1 ? kInf : -kInf);
    }
    arena.insert(arena.end(), u.begin(), u.end());
  }
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<std::vector<FirstStageVerdict>> runs;
  for (size_t threads : {size_t{1}, size_t{2}, HardwarePool()}) {
    ThreadPool pool(threads);
    ScopedPoolOverride override_pool(&pool);
    std::vector<float> copy = arena;
    runs.push_back(f.Apply(RowSpan(copy.data(), kRows, kDim), kSigmaUp));
    for (size_t i = 1; i <= 4; ++i) {
      EXPECT_FALSE(runs.back()[i].accepted()) << "row " << i;
      EXPECT_EQ(ops::Norm(copy.data() + i * kDim, kDim), 0.0) << "row " << i;
    }
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    for (size_t i = 0; i < kRows; ++i) {
      EXPECT_TRUE(SameVerdictBits(runs[0][i], runs[r][i]))
          << "run " << r << " row " << i;
    }
  }
}

// --- Scratch reuse across pool workers: arenas of different widths in
// sequence leave each worker's grow-only sort scratch at a different
// high-water mark. Every verdict must equal the same row tested first
// in a fresh thread.

FirstStageVerdict TestInFreshThread(const FirstStageFilter& f,
                                    const std::vector<float>& row) {
  FirstStageVerdict v;
  std::thread t([&] { v = f.Test(row.data(), row.size(), kSigmaUp); });
  t.join();
  return v;
}

TEST(FirstStageTest, ApplyAcrossWidthsMatchesFreshThreadTests) {
  FirstStageFilter f{ProtocolOptions{}};
  const size_t kWidths[] = {5706, 2410, 1, 100000, 2410};
  const size_t kRows = 4;
  ThreadPool pool(HardwarePool());
  ScopedPoolOverride override_pool(&pool);
  uint64_t seed = 4000;
  for (size_t width : kWidths) {
    std::vector<float> arena;
    std::vector<FirstStageVerdict> want;
    for (size_t i = 0; i < kRows; ++i) {
      std::vector<float> u(width);
      SplitRng rng(++seed);
      // One wrongly scaled row per arena exercises the zeroing path.
      rng.FillGaussian(u.data(), width, (i == 2 ? 1.5 : 1.0) * kSigmaUp);
      want.push_back(TestInFreshThread(f, u));
      arena.insert(arena.end(), u.begin(), u.end());
    }
    std::vector<FirstStageVerdict> got =
        f.Apply(RowSpan(arena.data(), kRows, width), kSigmaUp);
    for (size_t i = 0; i < kRows; ++i) {
      EXPECT_TRUE(SameVerdictBits(got[i], want[i]))
          << "width " << width << " row " << i;
    }
  }
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
