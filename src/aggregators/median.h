// Coordinate-wise median (Yin et al. 2018), paper supp. A.3.

#ifndef DPBR_AGGREGATORS_MEDIAN_H_
#define DPBR_AGGREGATORS_MEDIAN_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

/// out[j] = median(uploads[0][j], ..., uploads[n-1][j]).
///
/// Streams over the row-major arena in column tiles: each task gathers a
/// `W x n` column-major tile into scratch (W sized so the tile fits a
/// fixed float budget even at n = 100k) and runs an independent
/// nth_element per column. Per-column selection depends only on the
/// column's values, so the result is pool-size invariant.
class CoordinateMedianAggregator : public Aggregator {
 public:
  std::string name() const override { return "coordinate_median"; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;
};

/// Shape-only tile width for the column-major gather used by the
/// coordinate-selection rules over n rows of d coordinates: at most as
/// many columns as fit the scratch budget (n floats per column) and
/// 1024, and narrow enough that d splits into at least 16 tiles unless
/// a tile would then gather fewer than 8192 floats. Depends on (n, d)
/// only, never on data or pool size. Exposed for tests.
size_t SelectionTileWidth(size_t n, size_t d);

/// The calling thread's grow-only selection tile scratch, at least `n`
/// floats. Valid until the thread's next call; dispatch bodies use it
/// for their gathered tile instead of allocating.
float* SelectionScratch(size_t n);

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_MEDIAN_H_
