// One-sample two-sided Kolmogorov-Smirnov test.
//
// The first-stage aggregation treats the d coordinates of an upload as a
// sample and tests the null hypothesis that they are drawn from
// N(0, σ_up²) (paper §4.3).

#ifndef DPBR_STATS_KS_TEST_H_
#define DPBR_STATS_KS_TEST_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace dpbr {
namespace stats {

/// Outcome of a one-sample KS test.
struct KsResult {
  double statistic = 0.0;  ///< D = sup_x |ECDF(x) - F(x)|
  double p_value = 1.0;    ///< Pr(D_n >= statistic) under the null
  size_t n = 0;            ///< sample size
};

/// Tests `sample` against an arbitrary continuous CDF. The sample is copied
/// and sorted internally with std::sort, so it must hold no NaN. Tests use
/// it as the reference for KsTestGaussian.
KsResult KsTest(const std::vector<double>& sample,
                const std::function<double(double)>& cdf);

/// Tests float data (gradient coordinates) against N(0, stddev²) without
/// converting the container. This is the hot path of FirstAgg.
///
/// The coordinates are radix-sorted as order-preserving 32-bit keys in a
/// grow-only per-thread scratch (8·n bytes), so steady-state calls
/// allocate nothing. D and the p-value are bitwise equal to
/// KsTest(double copy, x ↦ NormalCdf(x · (1/stddev))): the only floats
/// that compare equal with different bits are ±0, and Φ(±0) = 0.5.
///
/// Every input has a defined result. ±inf sort to the ends (Φ = 0 or 1).
/// NaNs sort past them by sign bit (-NaN first, +NaN last), keep their
/// ranks in n, and contribute nothing to D, since Φ(NaN) is NaN and every
/// comparison with it is false.
KsResult KsTestGaussian(const float* data, size_t n, double stddev);

/// Convenience overload.
KsResult KsTestGaussian(const std::vector<float>& data, double stddev);

}  // namespace stats
}  // namespace dpbr

#endif  // DPBR_STATS_KS_TEST_H_
