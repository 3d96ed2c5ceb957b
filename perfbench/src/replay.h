// Traced replay of FederatedTrainer::Run(): the same setup and round
// sequence rebuilt from the library's public calls, with a span around
// every call into a layer. The replay must end with the same parameters
// as the untraced Run(), bitwise; the benchmark checks that on every run.
//
// Stages that are only reachable inside another call (the server
// gradient, the first and second aggregation stages, one nn forward and
// backward) are timed by side calls on copies, placed outside the round
// span so they never add to round time.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace.h"
#include "workloads.h"

namespace dpbr {
namespace perfbench {

struct ReplayOutput {
  std::vector<float> final_params;
  int total_rounds = 0;
  double epsilon_configured = 0.0;
  double epsilon_spent = 0.0;
  /// Every side-call re-selection matched the aggregator's own G_s.
  bool side_calls_consistent = true;
  std::string inconsistency;
  std::vector<Span> spans;
  /// Per-layer metrics, by name without the pool suffix.
  std::map<std::string, double> layer;
  /// Share of round time per span name (see DeriveLayerMetrics).
  std::map<std::string, double> shares;
  /// Median round span, ms.
  double round_ms_median = 0.0;
};

/// Replays workload `w` under the ambient thread pool (the caller sets it
/// through ScopedPoolOverride). `checkpoint_dir` must be an empty or
/// missing directory for durable workloads and is ignored otherwise.
Result<ReplayOutput> RunTracedReplay(const Workload& w,
                                     const DerivedSeeds& seeds,
                                     const std::string& checkpoint_dir);

/// Median over rounds of the per-round sum (or mean, when `mean` is set)
/// of the durations, in ms, of the spans named `name`. Rounds without
/// such a span do not contribute.
double PerRoundMedianMs(const std::vector<Span>& spans, const char* name,
                        bool mean = false);

}  // namespace perfbench
}  // namespace dpbr

#endif  // PERFBENCH_REPLAY_H_
