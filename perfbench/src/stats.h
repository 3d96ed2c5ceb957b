// Order statistics for the benchmark's timings.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace dpbr {
namespace perfbench {

/// Median of `values` (mean of the middle two for even counts); 0 for an
/// empty sample.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the value of rank ceil(q * n) (1-based) in
/// the sorted sample, q in (0, 1]. 0 for an empty sample.
double NearestRankPercentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples:
/// n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// A timing percentile is reported only when at least this many samples
/// lie beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// True when the q-percentile of n samples leaves kMinSamplesBeyond
/// samples beyond it (p95 needs n >= 200).
bool PercentileReportable(size_t n, double q);

/// Fewest samples for which the q-percentile is reportable; q < 1.
size_t MinSamplesForPercentile(double q);

}  // namespace perfbench
}  // namespace dpbr

#endif  // PERFBENCH_STATS_H_
