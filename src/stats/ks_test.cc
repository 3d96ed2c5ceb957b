#include "stats/ks_test.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "stats/distributions.h"
#include "stats/kolmogorov.h"

namespace dpbr {
namespace stats {
namespace {

// Computes D from the CDF values u_i = F(x_(i)) of the sorted sample,
// u_at(i) for i in [0, n):
//   D = max_i max( i/n - u_i, u_i - (i-1)/n ).
template <typename UAt>
double DStatistic(size_t n, UAt u_at) {
  double d = 0.0;
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    double u = u_at(i);
    double above = static_cast<double>(i + 1) * inv_n - u;
    double below = u - static_cast<double>(i) * inv_n;
    if (above > d) d = above;
    if (below > d) d = below;
  }
  return d;
}

// Maps a float to a uint32 whose unsigned order is the float order:
// negatives have every bit flipped, non-negatives get the sign bit set.
// -0 maps just below +0, and NaNs land beyond ±inf by their sign bit.
uint32_t OrderKey(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  uint32_t mask = (0u - (bits >> 31)) | 0x80000000u;
  return bits ^ mask;
}

float FromOrderKey(uint32_t key) {
  uint32_t mask = ((key >> 31) - 1u) | 0x80000000u;
  uint32_t bits = key ^ mask;
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

uint32_t* SortScratch(size_t n) {
  // One grow-only buffer per thread (pool workers test disjoint rows), so
  // steady-state calls allocate nothing. It stays at the thread's largest
  // 2·d keys, 8·d bytes.
  static thread_local std::vector<uint32_t> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

}  // namespace

KsResult KsTest(const std::vector<double>& sample,
                const std::function<double(double)>& cdf) {
  DPBR_CHECK_GT(sample.size(), 0u);
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  auto u_at = [&](size_t i) { return cdf(sorted[i]); };
  KsResult r;
  r.n = sample.size();
  r.statistic = DStatistic(r.n, u_at);
  r.p_value = KsPValue(r.n, r.statistic);
  return r;
}

KsResult KsTestGaussian(const float* data, size_t n, double stddev) {
  DPBR_CHECK_GT(n, 0u);
  DPBR_CHECK_GT(stddev, 0.0);
  DPBR_CHECK_LE(n, size_t{UINT32_MAX});
  // Three stable counting passes over 11-bit digits of the order keys
  // (bits 0-10, 11-21, 22-31). All three histograms are counted while
  // the keys are built.
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr int kPasses = 3;
  uint32_t* keys = SortScratch(2 * n);
  uint32_t* other = keys + n;
  uint32_t offsets[kPasses][kBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = OrderKey(data[i]);
    keys[i] = k;
    for (int p = 0; p < kPasses; ++p) {
      ++offsets[p][(k >> (p * kDigitBits)) & (kBuckets - 1)];
    }
  }
  for (int p = 0; p < kPasses; ++p) {
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      uint32_t count = offsets[p][b];
      offsets[p][b] = sum;
      sum += count;
    }
    int shift = p * kDigitBits;
    for (size_t i = 0; i < n; ++i) {
      uint32_t k = keys[i];
      other[offsets[p][(k >> shift) & (kBuckets - 1)]++] = k;
    }
    std::swap(keys, other);
  }
  // One pass over the sorted keys evaluates u_i = Φ(x_(i)/σ) and folds D
  // (Φ is monotone, so sorting the raw values sorts the u_i).
  double inv_sigma = 1.0 / stddev;
  auto u_at = [&](size_t i) {
    return NormalCdf(static_cast<double>(FromOrderKey(keys[i])) * inv_sigma);
  };
  KsResult r;
  r.n = n;
  r.statistic = DStatistic(n, u_at);
  r.p_value = KsPValue(n, r.statistic);
  return r;
}

KsResult KsTestGaussian(const std::vector<float>& data, double stddev) {
  return KsTestGaussian(data.data(), data.size(), stddev);
}

}  // namespace stats
}  // namespace dpbr
