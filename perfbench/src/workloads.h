// The benchmark's fixed training workloads and the pass-through decorators
// that observe the real trainer without changing a bit of its output.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "common/status.h"
#include "core/dpbr_aggregator.h"
#include "data/synthetic.h"
#include "fl/attack_interface.h"
#include "fl/trainer.h"
#include "nn/sequential.h"

namespace dpbr {
namespace perfbench {

enum class ModelKind { kMlp, kCnn };

/// One fixed training workload. Everything but the seeds is constant; the
/// benchmark seed only picks which data and which randomness the run sees.
struct Workload {
  std::string name;
  data::SyntheticSpec spec;
  ModelKind model = ModelKind::kMlp;
  /// core::MakeAttack name ("label_flip", "gaussian", "a_little").
  std::string attack;
  /// Seed-independent trainer options (seed and checkpoint_dir are set
  /// per run).
  fl::TrainerOptions options;
  /// > 0: the measured run is interrupted after this round (a checkpoint
  /// is written) and resumed by a second trainer on the same directory.
  int interrupt_after_round = -1;
};

/// The workload named `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// The data-generation and trainer seeds derived from a benchmark seed.
struct DerivedSeeds {
  uint64_t data = 0;
  uint64_t trainer = 0;
};
DerivedSeeds DeriveSeeds(uint64_t bench_seed);

nn::ModelFactory ModelFactoryFor(const Workload& w);
Result<fl::AttackPtr> AttackFor(const Workload& w);
/// The dpbr rule with the paper's protocol options (RunExperiment's).
std::unique_ptr<core::DpbrAggregator> MakeDpbr();

/// Model builds Setup() makes: one per honest worker, one per poisoned
/// worker, and last the server model.
int SetupModelBuilds(const Workload& w, const fl::Attack* attack);

/// True when `a` and `b` hold the same floats bit for bit.
bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b);

/// Byzantine rows among the selected rows of one round. The trainer lays
/// out the cohort's honest rows first and the Byzantine rows after them,
/// so a selected index is Byzantine iff it is >= rows - num_byzantine.
struct SelectionTally {
  uint64_t selected = 0;
  uint64_t byzantine = 0;
};
SelectionTally TallySelection(const std::vector<size_t>& selected,
                              size_t rows, size_t num_byzantine);

/// Forwards every Aggregator call to an inner rule.
class ForwardingAggregator : public agg::Aggregator {
 public:
  explicit ForwardingAggregator(std::unique_ptr<core::DpbrAggregator> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  bool NeedsServerGradient() const override {
    return inner_->NeedsServerGradient();
  }
  using agg::Aggregator::Aggregate;
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const agg::AggregationContext& ctx) override {
    return inner_->Aggregate(uploads, ctx);
  }
  void Reset() override { inner_->Reset(); }
  Status SaveState(std::string* out) const override {
    return inner_->SaveState(out);
  }
  Status RestoreState(const std::string& blob) override {
    return inner_->RestoreState(blob);
  }

 protected:
  std::unique_ptr<core::DpbrAggregator> inner_;
};

/// What the untraced run observes per round.
struct RoundLog {
  /// Steady-clock time at which each round's aggregation returned.
  std::vector<int64_t> marks_ns;
  SelectionTally selection;
};

/// Pass-through decorator marking round boundaries: one clock read per
/// round, plus the selection tally read from the rule's diagnostics.
class RoundClockAggregator : public ForwardingAggregator {
 public:
  RoundClockAggregator(std::unique_ptr<core::DpbrAggregator> inner,
                       size_t num_byzantine, RoundLog* log)
      : ForwardingAggregator(std::move(inner)),
        num_byzantine_(num_byzantine),
        log_(log) {}
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const agg::AggregationContext& ctx) override;

 private:
  size_t num_byzantine_;
  RoundLog* log_;
};

/// Records the steady-clock and CPU time of Setup()'s last model build
/// (the server model), which is where the trainer's Setup ends.
struct SetupMarker {
  explicit SetupMarker(int target_builds) : target(target_builds) {}
  std::atomic<int> builds{0};
  const int target;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  bool seen() const { return builds.load() >= target; }
};

/// Pass-through ModelFactory decorator feeding `marker` (which must
/// outlive every copy of the returned factory).
nn::ModelFactory MarkSetupEnd(nn::ModelFactory inner, SetupMarker* marker);

}  // namespace perfbench
}  // namespace dpbr

#endif  // PERFBENCH_WORKLOADS_H_
