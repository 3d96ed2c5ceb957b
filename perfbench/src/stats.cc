#include "stats.h"

#include <algorithm>
#include <cmath>

namespace dpbr {
namespace perfbench {
namespace {

// ceil(q * n) with the product rounded first, so q = 0.95, n = 200 gives
// rank 190 rather than 191 from the binary representation of 0.95.
size_t Rank(size_t n, double q) {
  double r = std::round(q * static_cast<double>(n) * 1e9) / 1e9;
  return static_cast<size_t>(std::ceil(r));
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  size_t n = values.size();
  std::sort(values.begin(), values.end());
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NearestRankPercentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = std::max<size_t>(1, std::min(values.size(),
                                             Rank(values.size(), q)));
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  size_t rank = std::min(n, Rank(n, q));
  return n - rank;
}

bool PercentileReportable(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

size_t MinSamplesForPercentile(double q) {
  size_t n = 1;
  while (!PercentileReportable(n, q)) ++n;
  return n;
}

}  // namespace perfbench
}  // namespace dpbr
