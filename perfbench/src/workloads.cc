#include "workloads.h"

#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "data/registry.h"
#include "nn/model_zoo.h"
#include "trace.h"

namespace dpbr {
namespace perfbench {
namespace {

constexpr uint64_t kDataSeedStream = 0xDA7A;
constexpr uint64_t kTrainerSeedStream = 0x7EA1;

data::SyntheticSpec MnistSpec() {
  Result<data::BenchmarkInfo> info = data::GetBenchmark("synth_mnist");
  DPBR_CHECK_OK(info.status());
  return info.value().spec;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> all;
  // The quickstart shape: the first-stage KS filter and the honest and
  // poisoned worker loops dominate; nn is small.
  {
    Workload w;
    w.name = "mlp_labelflip60";
    w.spec = MnistSpec();
    w.model = ModelKind::kMlp;
    w.attack = "label_flip";
    w.options.num_honest = 20;
    w.options.num_byzantine = 30;
    w.options.epsilon = 1.0;
    w.options.epochs = 8;
    // RunExperiment's default (see core::ExperimentConfig).
    w.options.momentum_reset = fl::MomentumReset::kPersist;
    all.push_back(w);
  }
  // CNN local steps: the worker fan-out and nn dominate round wall and the
  // KS filter is small, so the pool and the nn path show here. The wide
  // class separation keeps final accuracy steady across seeds.
  {
    Workload w;
    w.name = "cnn_gaussian";
    w.spec.num_classes = 10;
    w.spec.image_h = 16;
    w.spec.image_w = 16;
    w.spec.feature_dim = 16 * 16;
    w.spec.train_size = 4000;
    w.spec.val_size = 500;
    w.spec.test_size = 500;
    w.spec.class_separation = 10.0;
    w.spec.noise_std = 1.0;
    w.spec.label_noise = 0.02;
    w.spec.data_space_seed = 23;
    w.model = ModelKind::kCnn;
    w.attack = "gaussian";
    w.options.num_honest = 10;
    w.options.num_byzantine = 2;
    w.options.epsilon = 2.0;
    w.options.epochs = 8;
    w.options.momentum_reset = fl::MomentumReset::kResetToUpload;
    all.push_back(w);
  }
  // 100 clients sampled at q_c=0.5, checkpoints, an interrupt and a
  // resume: durability writes and reads dominate and workers are cheap.
  {
    Workload w;
    w.name = "mlp_subsampled_durable";
    w.spec = MnistSpec();
    w.model = ModelKind::kMlp;
    w.attack = "a_little";
    w.options.num_honest = 100;
    w.options.num_byzantine = 50;
    w.options.epsilon = 2.0;
    w.options.epochs = 8;
    w.options.client_sampling_rate = 0.5;
    w.options.momentum_reset = fl::MomentumReset::kResetToUpload;
    w.options.checkpoint_every_n_rounds = 10;
    // 8 epochs x 200-example shards / (bc 16 x q_c 0.5) = 200 rounds.
    w.interrupt_after_round = 100;
    all.push_back(w);
  }
  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload>* all =
      new std::vector<Workload>(BuildWorkloads());
  for (const Workload& w : *all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

DerivedSeeds DeriveSeeds(uint64_t bench_seed) {
  DerivedSeeds s;
  s.data = SplitRng(bench_seed, {kDataSeedStream}).Next64();
  s.trainer = SplitRng(bench_seed, {kTrainerSeedStream}).Next64();
  return s;
}

nn::ModelFactory ModelFactoryFor(const Workload& w) {
  if (w.model == ModelKind::kCnn) {
    return nn::CnnFactory(1, 8, 3, w.spec.num_classes);
  }
  return nn::MlpFactory(w.spec.feature_dim, 32, w.spec.num_classes);
}

Result<fl::AttackPtr> AttackFor(const Workload& w) {
  core::ExperimentConfig config;
  config.attack = w.attack;
  return core::MakeAttack(config);
}

std::unique_ptr<core::DpbrAggregator> MakeDpbr() {
  return std::make_unique<core::DpbrAggregator>(core::ProtocolOptions{});
}

int SetupModelBuilds(const Workload& w, const fl::Attack* attack) {
  int poisoned = attack != nullptr && attack->wants_poisoned_uploads()
                     ? w.options.num_byzantine
                     : 0;
  return w.options.num_honest + poisoned + 1;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

SelectionTally TallySelection(const std::vector<size_t>& selected,
                              size_t rows, size_t num_byzantine) {
  SelectionTally t;
  size_t first_byz = rows >= num_byzantine ? rows - num_byzantine : 0;
  for (size_t i : selected) {
    ++t.selected;
    if (i >= first_byz) ++t.byzantine;
  }
  return t;
}

Result<std::vector<float>> RoundClockAggregator::Aggregate(
    RowSpan uploads, const agg::AggregationContext& ctx) {
  Result<std::vector<float>> out = inner_->Aggregate(uploads, ctx);
  log_->marks_ns.push_back(NowNs());
  SelectionTally t = TallySelection(inner_->last_round().selected,
                                    uploads.rows, num_byzantine_);
  log_->selection.selected += t.selected;
  log_->selection.byzantine += t.byzantine;
  return out;
}

nn::ModelFactory MarkSetupEnd(nn::ModelFactory inner, SetupMarker* marker) {
  return [inner = std::move(inner), marker] {
    std::unique_ptr<nn::Sequential> model = inner();
    if (marker->builds.fetch_add(1) + 1 == marker->target) {
      marker->wall_ns = NowNs();
      marker->cpu_ns = ProcessCpuNs();
    }
    return model;
  };
}

}  // namespace perfbench
}  // namespace dpbr
