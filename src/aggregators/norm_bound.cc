#include "aggregators/norm_bound.h"

#include <algorithm>
#include <numeric>

#include "common/thread_pool.h"
#include "stats/summary.h"
#include "tensor/ops.h"

namespace dpbr {
namespace agg {

Result<std::vector<float>> NormBoundAggregator::Aggregate(
    RowSpan uploads, const AggregationContext& ctx) {
  DPBR_RETURN_NOT_OK(ValidateUploads(uploads, ctx));
  size_t n = uploads.rows;
  // Per-upload norms are independent full-vector reductions; compute them
  // once, in parallel, and reuse for both the median bound and clipping.
  std::vector<double> norms(n);
  ParallelFor(0, n,
              [&](size_t i) { norms[i] = ops::Norm(uploads.Row(i), ctx.dim); });
  double bound = bound_;
  if (bound <= 0.0) {
    bound = stats::Median(std::vector<double>(norms));
    if (bound == 0.0) return std::vector<float>(ctx.dim, 0.0f);
  }
  std::vector<float> scale(n);
  for (size_t i = 0; i < n; ++i) {
    scale[i] = (norms[i] > bound) ? static_cast<float>(bound / norms[i])
                                  : 1.0f;
  }
  std::vector<float> out(ctx.dim, 0.0f);
  ParallelForBlocked(ctx.dim, 4096, [&](size_t lo, size_t hi) {
    for (size_t i = 0; i < n; ++i) {
      ops::Axpy(scale[i], uploads.Row(i) + lo, out.data() + lo, hi - lo);
    }
  });
  ops::Scale(1.0f / static_cast<float>(n), out.data(), ctx.dim);
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  RedoOverflowedMean(uploads, rows, scale.data(), out.data(), 0, ctx.dim);
  return out;
}

}  // namespace agg
}  // namespace dpbr
