#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/first_stage.h"
#include "core/second_stage.h"
#include "data/partition.h"
#include "dp/privacy_params.h"
#include "dp/spent_ledger.h"
#include "durability/checkpoint.h"
#include "durability/io.h"
#include "durability/wal.h"
#include "fl/round_state.h"
#include "fl/server.h"
#include "fl/upload.h"
#include "fl/worker.h"
#include "nn/loss.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace perfbench {
namespace {

// The trainer's RNG stream tags (src/fl/trainer.cc). The replay derives
// every stream the way Setup() and Run() do; the bitwise final-parameter
// check fails if either side changes its derivation.
constexpr uint64_t kPartitionStream = 0x9a57;
constexpr uint64_t kAuxStream = 0xa0c5;
constexpr uint64_t kByzShardStream = 0xb125;
constexpr uint64_t kAttackStream = 0xa77c;
constexpr uint64_t kWorkerStream = 0x3011;
constexpr uint64_t kClientSampleStream = 0xc1a7;

// Side-call repetitions for the one-off stages (resume).
constexpr int kOneOffRepeats = 3;
// Per-round side calls run on every kSideCallEvery-th round (1, 1 + k,
// ...): enough rounds for a median while keeping the replay short.
constexpr int kSideCallEvery = 4;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Pass-through decorator opening a span around the rule's Aggregate.
class SpanAggregator : public ForwardingAggregator {
 public:
  SpanAggregator(std::unique_ptr<core::DpbrAggregator> inner, Tracer* tracer)
      : ForwardingAggregator(std::move(inner)), tracer_(tracer) {}
  void SetParent(int parent, int round) {
    parent_ = parent;
    round_ = round;
  }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const agg::AggregationContext& ctx) override {
    ScopedSpan span(tracer_, "dpbr.aggregate", parent_, round_);
    return inner_->Aggregate(uploads, ctx);
  }

 private:
  Tracer* tracer_;
  int parent_ = kNoParent;
  int round_ = 0;
};

// One bc-sized microbatch for the nn side call: the first bc examples of
// the first shard, shaped like a worker's batch.
struct NnBatch {
  Tensor x{std::vector<size_t>{1}};
  std::vector<size_t> labels;
};

NnBatch MakeNnBatch(const data::DatasetView& shard, size_t bc) {
  const data::Dataset* base = shard.base();
  size_t feature_dim = base->feature_dim();
  std::vector<size_t> shape{bc};
  for (size_t d : base->example_shape()) shape.push_back(d);
  NnBatch b;
  b.x = Tensor(std::move(shape));
  b.labels.resize(bc);
  for (size_t j = 0; j < bc; ++j) {
    size_t i = j % shard.size();
    std::memcpy(b.x.data() + j * feature_dim, shard.FeaturesAt(i),
                feature_dim * sizeof(float));
    b.labels[j] = static_cast<size_t>(shard.LabelAt(i));
  }
  return b;
}

// Per-round medians and the other layer metrics, derived from the spans.
void DeriveLayerMetrics(const std::vector<Span>& spans, size_t threads,
                        const std::set<int>& checkpoint_rounds,
                        ReplayOutput* out) {
  std::map<std::string, double>& m = out->layer;
  m["worker.step_ms"] = PerRoundMedianMs(spans, "worker.step", true);
  m["worker.phase_ms"] = PerRoundMedianMs(spans, "worker.phase");
  m["worker.poisoned_phase_ms"] =
      PerRoundMedianMs(spans, "worker.poisoned_phase");
  m["nn.fwd_bwd_ms"] = PerRoundMedianMs(spans, "nn.fwd_bwd");
  m["dpbr.aggregate_ms"] = PerRoundMedianMs(spans, "dpbr.aggregate");
  m["first_stage.apply_ms"] = PerRoundMedianMs(spans, "first_stage.apply");
  m["second_stage.select_ms"] =
      PerRoundMedianMs(spans, "second_stage.select");
  m["attack.forge_ms"] = PerRoundMedianMs(spans, "attack.forge");
  m["server.step_ms"] = PerRoundMedianMs(spans, "server.step");
  m["server.grad_ms"] = PerRoundMedianMs(spans, "server.grad");
  m["server.eval_ms"] = PerRoundMedianMs(spans, "server.eval");
  m["wal.append_ms"] = PerRoundMedianMs(spans, "wal.append");
  // One-off stages outside any round: the median of their spans.
  for (const char* name :
       {"durability.resume", "dp.calibrate", "data.generate"}) {
    std::vector<double> v;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, name) == 0) v.push_back(Ms(s.duration_ns()));
    }
    m[std::string(name) + "_ms"] = Median(v);
  }
  out->round_ms_median = PerRoundMedianMs(spans, "round");

  // Rounds that wrote a checkpoint when there are any; otherwise the
  // (empty) commit branch of every round.
  std::vector<double> ckpt;
  std::vector<double> ckpt_all;
  std::vector<double> eff;
  std::vector<double> round_dispatches;
  std::vector<double> nn_dispatches;
  std::map<int, int64_t> step_sum;
  std::map<int, int64_t> phase;
  for (const Span& s : spans) {
    std::string name = s.name;
    if (name == "checkpoint.write") {
      ckpt_all.push_back(Ms(s.duration_ns()));
      if (checkpoint_rounds.count(s.round) > 0) {
        ckpt.push_back(Ms(s.duration_ns()));
      }
    } else if (name == "worker.step") {
      step_sum[s.round] += s.duration_ns();
    } else if (name == "worker.phase") {
      phase[s.round] = s.duration_ns();
    } else if (name == "round") {
      round_dispatches.push_back(static_cast<double>(s.dispatches));
    } else if (name == "nn.fwd_bwd") {
      nn_dispatches.push_back(static_cast<double>(s.dispatches));
    }
  }
  for (const auto& [round, wall] : phase) {
    if (wall > 0) {
      eff.push_back(static_cast<double>(step_sum[round]) /
                    (static_cast<double>(wall) *
                     static_cast<double>(threads)));
    }
  }
  m["checkpoint.write_ms"] = Median(ckpt.empty() ? ckpt_all : ckpt);
  m["worker.phase_efficiency"] = Median(eff);
  m["pool.dispatches_per_round"] = Median(round_dispatches);
  m["nn.dispatches_per_step"] = Median(nn_dispatches);

  // Each layer's share of round time: its mean time per round over the
  // mean round span. In-round spans average over every round; side calls
  // (roots outside the round span) over the rounds that made them.
  int64_t round_total = 0;
  int64_t round_count = 0;
  std::map<std::string, int64_t> total;
  std::map<std::string, std::set<int>> side_rounds;
  for (const Span& s : spans) {
    if (s.round == 0) continue;
    if (std::strcmp(s.name, "round") == 0) {
      round_total += s.duration_ns();
      ++round_count;
    } else if (std::strcmp(s.name, "worker.step") != 0 &&
               std::strcmp(s.name, "worker.poisoned_step") != 0) {
      total[s.name] += s.duration_ns();
      if (s.parent == kNoParent) side_rounds[s.name].insert(s.round);
    }
  }
  if (round_total > 0) {
    const double mean_round = static_cast<double>(round_total) /
                              static_cast<double>(round_count);
    for (const auto& [name, ns] : total) {
      auto side = side_rounds.find(name);
      double per_round =
          static_cast<double>(ns) /
          static_cast<double>(side == side_rounds.end() ? round_count
                                                        : side->second.size());
      out->shares[name] = per_round / mean_round;
    }
  }
}

}  // namespace

double PerRoundMedianMs(const std::vector<Span>& spans, const char* name,
                        bool mean) {
  std::map<int, std::pair<int64_t, int64_t>> per_round;  // sum, count
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    auto& acc = per_round[s.round];
    acc.first += s.duration_ns();
    ++acc.second;
  }
  std::vector<double> values;
  for (const auto& [round, acc] : per_round) {
    double v = Ms(acc.first);
    if (mean) v /= static_cast<double>(acc.second);
    values.push_back(v);
  }
  return Median(values);
}

Result<ReplayOutput> RunTracedReplay(const Workload& w,
                                     const DerivedSeeds& seeds,
                                     const std::string& checkpoint_dir) {
  const fl::TrainerOptions& o = w.options;
  if (!o.iid || o.gamma >= 0.0 || o.aux_source_override != nullptr) {
    return Status::Unimplemented(
        "replay mirrors only iid runs with the truthful gamma and the "
        "validation split as auxiliary data");
  }
  const uint64_t seed = seeds.trainer;
  const bool durable = w.interrupt_after_round > 0;
  const size_t threads = ThreadPool::Ambient().num_threads();
  ReplayOutput out;
  Tracer tr;

  // --- Setup, mirroring FederatedTrainer::Setup(). ---
  int setup = tr.Begin("setup", kNoParent, 0);
  int gen = tr.Begin("data.generate", setup, 0);
  DPBR_ASSIGN_OR_RETURN(data::DatasetBundle bundle,
                        data::GenerateSynthetic(w.spec, seeds.data));
  tr.End(gen);

  nn::ModelFactory factory = ModelFactoryFor(w);
  DPBR_ASSIGN_OR_RETURN(fl::AttackPtr attack, AttackFor(w));
  auto dpbr_owned = MakeDpbr();
  const core::DpbrAggregator* dpbr = dpbr_owned.get();
  auto traced_agg = std::make_unique<SpanAggregator>(std::move(dpbr_owned),
                                                     &tr);
  SpanAggregator* agg = traced_agg.get();

  size_t n_honest = static_cast<size_t>(o.num_honest);
  size_t n_byz = static_cast<size_t>(o.num_byzantine);
  double gamma = static_cast<double>(n_honest) /
                 static_cast<double>(n_honest + n_byz);

  SplitRng part_rng(seed, {kPartitionStream});
  DPBR_ASSIGN_OR_RETURN(
      std::vector<std::vector<size_t>> partition,
      data::PartitionIid(bundle.train.size(), n_honest, &part_rng));
  std::vector<data::DatasetView> shards =
      data::MakeShards(&bundle.train, partition);
  size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());

  dp::PrivacySpec spec;
  spec.epsilon = o.epsilon;
  spec.delta = o.delta;
  spec.dataset_size = static_cast<int>(min_shard);
  spec.batch_size = std::min<int>(o.batch_size, static_cast<int>(min_shard));
  spec.epochs = o.epochs;
  spec.client_sampling_rate = o.client_sampling_rate;
  int cal = tr.Begin("dp.calibrate", setup, 0);
  DPBR_ASSIGN_OR_RETURN(dp::PrivacyParams privacy, dp::CalibratePrivacy(spec));
  double lr = o.base_lr;
  if (privacy.dp_enabled && o.transfer_base_epsilon > 0.0) {
    dp::PrivacySpec base_spec = spec;
    base_spec.epsilon = o.transfer_base_epsilon;
    DPBR_ASSIGN_OR_RETURN(dp::PrivacyParams base_privacy,
                          dp::CalibratePrivacy(base_spec));
    lr = o.base_lr * base_privacy.sigma / privacy.sigma;
  }
  tr.End(cal);
  const int total_rounds = static_cast<int>(
      std::ceil(static_cast<double>(o.epochs) * min_shard /
                (spec.batch_size * o.client_sampling_rate)));
  const int rounds_per_epoch = std::max(1, total_rounds / o.epochs);

  fl::WorkerOptions wopts;
  wopts.batch_size = spec.batch_size;
  wopts.beta = o.beta;
  wopts.sigma = privacy.dp_enabled ? privacy.sigma : 0.0;
  wopts.momentum_reset = o.momentum_reset;
  std::vector<std::unique_ptr<fl::HonestDpWorker>> workers;
  for (size_t i = 0; i < n_honest; ++i) {
    workers.push_back(std::make_unique<fl::HonestDpWorker>(
        static_cast<int>(i), shards[i], factory, wopts,
        SplitRng(seed, {kWorkerStream, i}).Next64()));
  }
  const bool poisoned = n_byz > 0 && attack->wants_poisoned_uploads();
  std::vector<std::unique_ptr<fl::HonestDpWorker>> poisoned_workers;
  if (poisoned) {
    SplitRng byz_rng(seed, {kByzShardStream});
    for (size_t b = 0; b < n_byz; ++b) {
      std::vector<size_t> idx = byz_rng.SampleWithoutReplacement(
          bundle.train.size(), std::min(min_shard, bundle.train.size()));
      data::DatasetView shard(&bundle.train, std::move(idx));
      poisoned_workers.push_back(std::make_unique<fl::HonestDpWorker>(
          static_cast<int>(n_honest + b), shard.WithFlippedLabels(), factory,
          wopts, SplitRng(seed, {kWorkerStream, n_honest + b}).Next64()));
    }
  }
  SplitRng aux_rng(seed, {kAuxStream});
  DPBR_ASSIGN_OR_RETURN(
      std::vector<size_t> aux_idx,
      data::SampleAuxiliaryIndices(bundle.val.labels(),
                                   bundle.val.num_classes(),
                                   static_cast<size_t>(o.aux_per_class),
                                   &aux_rng));
  fl::Server server(factory, std::move(traced_agg),
                    data::DatasetView(&bundle.val, std::move(aux_idx)), seed);
  const size_t dim = server.dim();
  tr.End(setup);

  // --- Run(), round by round. ---
  fl::TrainingHistory history;
  history.epsilon = privacy.epsilon;
  history.sigma = privacy.sigma;
  history.learning_rate = lr;
  history.total_rounds = total_rounds;
  dp::SpentLedger ledger(o.client_sampling_rate, privacy.sampling_rate,
                         privacy.noise_multiplier, privacy.delta);
  durability::WalWriter wal;
  if (durable) {
    DPBR_RETURN_NOT_OK(durability::EnsureDir(checkpoint_dir));
    DPBR_ASSIGN_OR_RETURN(
        wal, durability::WalWriter::Open(fl::WalPath(checkpoint_dir),
                                         /*truncate=*/true));
  }
  fl::RoundStateFingerprint fp;
  fp.seed = seed;
  fp.num_honest = o.num_honest;
  fp.num_byzantine = o.num_byzantine;
  fp.epochs = o.epochs;
  fp.batch_size = o.batch_size;
  fp.total_rounds = total_rounds;
  fp.dim = dim;
  fp.epsilon = o.epsilon;
  fp.client_sampling_rate = o.client_sampling_rate;
  fp.momentum_reset = o.momentum_reset == fl::MomentumReset::kPersist ? 1 : 0;
  fp.iid = 1;

  data::DatasetView test = data::DatasetView::All(&bundle.test);
  const int eval_every = std::max(
      1, static_cast<int>(std::lround(o.eval_every_epochs *
                                      rounds_per_epoch)));
  const double q_c = o.client_sampling_rate;
  const bool subsampled = q_c < 1.0;
  const double sigma_upload = privacy.dp_enabled ? privacy.sigma_upload : 0.0;

  fl::UploadArena arena;
  fl::UploadArena poisoned_arena;
  std::vector<float> arena_copy;
  std::vector<float> stage_scratch;
  std::vector<size_t> cohort;
  std::vector<int> client_ids;
  std::vector<int64_t> step_start(n_honest + n_byz);
  std::vector<int64_t> step_end(n_honest + n_byz);
  std::unique_ptr<nn::Sequential> nn_model = factory();
  NnBatch nn_batch = MakeNnBatch(shards[0], wopts.batch_size);
  std::vector<float> nn_grads(static_cast<size_t>(wopts.batch_size) * dim);
  core::FirstStageFilter first_stage(dpbr->options());
  std::set<int> checkpoint_rounds;
  uint64_t ks_tested = 0;
  uint64_t ks_wasted = 0;

  for (int round = 1; round <= total_rounds; ++round) {
    const std::vector<float>& params = server.params();

    // Side calls before the round: stages Server::Step and the workers
    // reach internally, on the round's starting parameters and state.
    const bool side_calls = (round - 1) % kSideCallEvery == 0;
    core::SecondStageAggregator second_stage;
    std::vector<float> server_grad;
    if (side_calls) {
      second_stage = dpbr->second_stage();
      ScopedSpan s(&tr, "server.grad", kNoParent, round);
      DPBR_ASSIGN_OR_RETURN(server_grad, server.ComputeServerGradient());
    }
    if (side_calls) {
      ScopedSpan s(&tr, "server.grad", kNoParent, round);
      DPBR_ASSIGN_OR_RETURN(server_grad, server.ComputeServerGradient());
    }
    {
      nn_model->SetParamsFrom(params.data());
      ScopedSpan s(&tr, "nn.fwd_bwd", kNoParent, round);
      Tensor logits = nn_model->ForwardBatch(nn_batch.x);
      nn::BatchLossGrad lg =
          nn::SoftmaxCrossEntropyBatch(logits, nn_batch.labels);
      nn_model->BackwardBatchTo(lg.grad_logits, nn_batch.labels.size(),
                                nn_grads.data());
    }

    const int rs = tr.Begin("round", kNoParent, round);
    cohort.clear();
    if (subsampled) {
      SplitRng sample_rng(seed,
                          {kClientSampleStream, static_cast<uint64_t>(round)});
      for (size_t i = 0; i < n_honest; ++i) {
        if (sample_rng.Uniform() < q_c) cohort.push_back(i);
      }
    } else {
      for (size_t i = 0; i < n_honest; ++i) cohort.push_back(i);
    }
    history.round_participants.push_back(static_cast<int>(cohort.size()));

    size_t n_round = cohort.size() + n_byz;
    if (!cohort.empty()) {
      arena.Reset(n_round, dim);
      {
        ScopedSpan phase(&tr, "worker.phase", rs, round);
        ParallelFor(0, cohort.size(), [&](size_t i) {
          step_start[i] = NowNs();
          workers[cohort[i]]->ComputeUpdateInto(params, round, arena.Row(i));
          step_end[i] = NowNs();
        });
        for (size_t i = 0; i < cohort.size(); ++i) {
          tr.Add("worker.step", phase.id(), round, step_start[i],
                 step_end[i]);
        }
      }
      {
        ScopedSpan phase(&tr, "worker.poisoned_phase", rs, round);
        if (poisoned) {
          poisoned_arena.Reset(n_byz, dim);
          ParallelFor(0, n_byz, [&](size_t b) {
            step_start[b] = NowNs();
            poisoned_workers[b]->ComputeUpdateInto(params, round,
                                                   poisoned_arena.Row(b));
            step_end[b] = NowNs();
          });
          for (size_t b = 0; b < n_byz; ++b) {
            tr.Add("worker.poisoned_step", phase.id(), round, step_start[b],
                   step_end[b]);
          }
        }
      }
      if (n_byz > 0) {
        ScopedSpan s(&tr, "attack.forge", rs, round);
        SplitRng attack_rng(seed,
                            {kAttackStream, static_cast<uint64_t>(round)});
        fl::AttackContext actx;
        actx.honest_uploads = arena.cspan().Slice(0, cohort.size());
        if (poisoned) actx.poisoned_uploads = poisoned_arena.cspan();
        actx.global_params = &params;
        actx.dim = dim;
        actx.sigma_upload = sigma_upload;
        actx.round = round;
        actx.total_rounds = total_rounds;
        actx.rng = &attack_rng;
        attack->ForgeInto(actx, arena.span().Slice(cohort.size(), n_round));
      }
      if (side_calls) {
        // The first stage zeroes rejected rows in place; keep the forged
        // arena for the after-round side calls.
        ScopedSpan s(&tr, "bench.arena_copy", rs, round);
        const float* a = arena.Row(0);
        arena_copy.assign(a, a + n_round * dim);
      }
      agg::AggregationContext ctx;
      ctx.round = round;
      ctx.dim = dim;
      ctx.sigma_upload = sigma_upload;
      ctx.gamma = gamma;
      if (subsampled) {
        client_ids.clear();
        for (size_t i : cohort) client_ids.push_back(static_cast<int>(i));
        for (size_t b = 0; b < n_byz; ++b) {
          client_ids.push_back(static_cast<int>(n_honest + b));
        }
        ctx.client_ids = &client_ids;
      }
      ScopedSpan s(&tr, "server.step", rs, round);
      agg->SetParent(s.id(), round);
      DPBR_RETURN_NOT_OK(server.Step(arena.span(), lr, ctx));
    }

    bool evaluated = round % eval_every == 0 || round == total_rounds;
    if (evaluated) {
      ScopedSpan s(&tr, "server.eval", rs, round);
      fl::EvalPoint p;
      p.round = round;
      p.epoch = static_cast<double>(round) / rounds_per_epoch;
      p.test_accuracy = server.EvaluateAccuracy(test);
      history.evals.push_back(p);
      history.best_accuracy = std::max(history.best_accuracy,
                                       p.test_accuracy);
    }
    {
      ScopedSpan s(&tr, "ledger.charge", rs, round);
      ledger.ChargeRound(round);
    }
    history.completed_rounds = round;
    const bool final_round = round == total_rounds;
    {
      ScopedSpan s(&tr, "wal.append", rs, round);
      if (durable) {
        fl::RoundCommitRecord rec;
        rec.round = round;
        rec.participants = static_cast<int64_t>(cohort.size());
        rec.has_eval = evaluated ? 1 : 0;
        if (evaluated) {
          rec.eval_epoch = history.evals.back().epoch;
          rec.eval_accuracy = history.evals.back().test_accuracy;
        }
        DPBR_RETURN_NOT_OK(wal.Append(rec.Encode()));
      }
    }
    {
      ScopedSpan s(&tr, "checkpoint.write", rs, round);
      if (durable &&
          (final_round || round % o.checkpoint_every_n_rounds == 0)) {
        fl::PersistentRoundState state;
        state.fingerprint = fp;
        state.completed_round = round;
        state.model_params = server.params();
        for (const auto& wk : workers) {
          state.honest_momentum.push_back(wk->momentum());
          state.worker_rng_keys.push_back(wk->rng_key());
        }
        for (const auto& wk : poisoned_workers) {
          state.poisoned_momentum.push_back(wk->momentum());
          state.worker_rng_keys.push_back(wk->rng_key());
        }
        DPBR_RETURN_NOT_OK(
            server.aggregator()->SaveState(&state.aggregator_state));
        state.ledger = ledger;
        state.history = history;
        std::string payload = fl::EncodeRoundState(state);
        DPBR_RETURN_NOT_OK(
            durability::WriteCheckpoint(checkpoint_dir, round, payload));
        checkpoint_rounds.insert(round);
        out.layer["checkpoint.bytes"] = static_cast<double>(payload.size());
      }
    }
    tr.End(rs);

    // Side calls after the round, on copies of the forged arena and of the
    // second stage's pre-round state.
    if (side_calls && !cohort.empty()) {
      stage_scratch = arena_copy;
      RowSpan rows(stage_scratch.data(), n_round, dim);
      core::FirstStageReport report;
      {
        ScopedSpan s(&tr, "first_stage.apply", kNoParent, round);
        first_stage.Apply(rows, sigma_upload, &report);
      }
      Result<std::vector<size_t>> reselected = [&] {
        ScopedSpan s(&tr, "second_stage.select", kNoParent, round);
        return second_stage.SelectWorkers(
            rows, server_grad, gamma, subsampled ? &client_ids : nullptr);
      }();
      if (!reselected.ok() ||
          reselected.value() != dpbr->last_round().selected) {
        if (out.side_calls_consistent) {
          out.inconsistency = "second-stage side call disagrees with the "
                              "aggregator's selection in round " +
                              std::to_string(round);
        }
        out.side_calls_consistent = false;
      }
    }
    if (!cohort.empty()) {
      const core::FirstStageReport& fs = dpbr->last_round().first_stage;
      ks_tested += fs.total;
      ks_wasted += fs.rejected_norm;
    }
  }
  if (durable) DPBR_RETURN_NOT_OK(wal.Close());

  // Resume cost: reading back the newest snapshot and the WAL, as Run()
  // does when it finds a durable directory.
  for (int k = 0; k < kOneOffRepeats; ++k) {
    ScopedSpan s(&tr, "durability.resume", kNoParent, 0);
    if (durable) {
      DPBR_ASSIGN_OR_RETURN(fl::DurableRunState state,
                            fl::LoadDurableState(checkpoint_dir));
      if (!state.has_snapshot || state.snapshot.completed_round !=
                                     static_cast<int64_t>(total_rounds)) {
        return Status::Internal("replay: final snapshot not readable");
      }
    }
  }

  out.final_params = server.params();
  out.total_rounds = total_rounds;
  out.epsilon_configured = o.epsilon;
  DPBR_ASSIGN_OR_RETURN(out.epsilon_spent, ledger.CurrentEpsilon());
  if (out.layer.count("checkpoint.bytes") == 0) {
    out.layer["checkpoint.bytes"] = 0.0;
  }
  out.layer["first_stage.ks_wasted_frac"] =
      ks_tested == 0 ? 0.0
                     : static_cast<double>(ks_wasted) /
                           static_cast<double>(ks_tested);
  DeriveLayerMetrics(tr.spans(), threads, checkpoint_rounds, &out);
  out.spans = tr.spans();
  return out;
}

}  // namespace perfbench
}  // namespace dpbr
