#include "aggregators/median.h"

#include <algorithm>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace agg {

size_t SelectionTileWidth(size_t n, size_t d) {
  // Scratch cap: ~4 MB per task (1M floats). At n = 100k this is a
  // 10-column tile, and never more than 1024 columns.
  constexpr size_t kTileFloatBudget = size_t{1} << 20;
  // Fan-out floor: a shape yields at least kMinTiles tiles, unless that
  // would shrink a tile below kMinTileFloats gathered elements (too
  // little selection work to pay for a task).
  constexpr size_t kMinTiles = 16;
  constexpr size_t kMinTileFloats = size_t{1} << 13;
  n = std::max<size_t>(n, 1);
  size_t cap = std::max<size_t>(1, std::min<size_t>(kTileFloatBudget / n,
                                                    1024));
  size_t spread = (d + kMinTiles - 1) / kMinTiles;
  size_t narrowest = (kMinTileFloats + n - 1) / n;
  return std::max<size_t>(1, std::min(cap, std::max(spread, narrowest)));
}

float* SelectionScratch(size_t n) {
  // Grow-only per thread (tasks run inline or on distinct pool workers,
  // and a tile's scratch is dead when its task ends), so steady-state
  // aggregation allocates nothing inside its dispatch bodies.
  static thread_local std::vector<float> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

Result<std::vector<float>> CoordinateMedianAggregator::Aggregate(
    RowSpan uploads, const AggregationContext& ctx) {
  DPBR_RETURN_NOT_OK(ValidateUploads(uploads, ctx));
  size_t n = uploads.rows;
  std::vector<float> out(ctx.dim);
  // Chunked column-major selection: gather a tile of `width` columns
  // (each column contiguous in scratch), then select per column. The
  // gather reads each arena row once per tile; the selects then run on
  // cache-resident columns. Coordinates are independent, so the blocked
  // split is shape-only.
  size_t width = SelectionTileWidth(n, ctx.dim);
  const simd::SimdKernels& kern = simd::Kernels();
  ParallelForBlocked(ctx.dim, width, [&](size_t lo, size_t hi_end) {
    size_t cols = hi_end - lo;
    float* tile = SelectionScratch(cols * n);
    // The gather is a strided transpose (pure data movement, bitwise by
    // construction): row i's columns [lo, hi) land in tile column j - lo.
    kern.transpose_f32(uploads.Row(0) + lo, uploads.dim, n, cols, tile, n);
    for (size_t j = lo; j < hi_end; ++j) {
      float* column = tile + (j - lo) * n;
      size_t mid = n / 2;
      std::nth_element(column, column + mid, column + n);
      float hi = column[mid];
      if (n % 2 == 1) {
        out[j] = hi;
      } else {
        std::nth_element(column, column + mid - 1, column + n);
        out[j] = 0.5f * (hi + column[mid - 1]);
      }
    }
  });
  return out;
}

}  // namespace agg
}  // namespace dpbr
