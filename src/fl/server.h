// The federated server: global model state, auxiliary-data gradient
// (Algorithm 3 line 4), aggregation dispatch and model update.

#ifndef DPBR_FL_SERVER_H_
#define DPBR_FL_SERVER_H_

#include <memory>
#include <vector>

#include "aggregators/aggregator.h"
#include "common/span.h"
#include "common/status.h"
#include "data/dataset.h"
#include "nn/sequential.h"

namespace dpbr {
namespace fl {

class Server {
 public:
  /// `aux` is the small server-held labeled set D_p (2 per class by
  /// default); may be empty when the aggregator never asks for a server
  /// gradient. `seed` controls model initialization.
  Server(nn::ModelFactory factory, agg::AggregatorPtr aggregator,
         data::DatasetView aux, uint64_t seed);

  const std::vector<float>& params() const { return params_; }
  size_t dim() const { return params_.size(); }
  agg::Aggregator* aggregator() { return aggregator_.get(); }

  /// Replaces the global model with snapshotted parameters (checkpoint
  /// restore). Rejects dimension mismatches.
  Status SetParams(std::vector<float> params);

  /// \brief Runs one aggregation + update step:
  /// w ← w − η·Aggregate(uploads).
  ///
  /// Zero-copy: `uploads` is a mutable view of the round's UploadArena.
  /// The sanitize pass zeroes rows containing non-finite values *in
  /// place* (g ← 0, as the first-stage filter does), and the aggregator
  /// may zero further rows; all-finite rounds touch nothing. Computes
  /// the auxiliary gradient on demand and injects it into `ctx`.
  Status Step(RowSpan uploads, double lr, agg::AggregationContext ctx);

  /// ∇f(D_p; w): mean per-example gradient over the auxiliary data at the
  /// current parameters (no noise, no normalization — Algorithm 3 line 4).
  Result<std::vector<float>> ComputeServerGradient();

  /// Top-1 accuracy of the current model over `view`.
  double EvaluateAccuracy(const data::DatasetView& view);

 private:
  // The server holds no resident model: params_ is the source of truth,
  // and inference paths clone per-block models from factory_.
  nn::ModelFactory factory_;
  agg::AggregatorPtr aggregator_;
  data::DatasetView aux_;
  std::vector<float> params_;
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_SERVER_H_
