#include "fl/worker.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {
namespace {

// Slot j's rows in pass 1: φ_j is updated in place; it starts as g_j's
// gradient row under kResetToUpload (base_j is the one stored momentum
// row) and as the slot's own momentum row under kPersist (base_j = φ_j).
struct SlotRows {
  const float* g;
  const float* base;
  float* phi;
};

// Pass 1 walks d in blocks that stay in L1.
constexpr size_t kPassBlock = 512;
// Slots whose squared-norm chains run interleaved.
constexpr size_t kNormChains = 8;

// Pass 1 for N slots: φ_j[k] = (1−β)·g_j[k] + β·base_j[k] in float,
// then each slot's ‖φ_j‖² as its own sequential double chain in k — the
// order ops::SquaredNorm sums in, and float×float is exact in double, so
// the norms are bitwise those of ops::Norm. The N chains are independent,
// so they overlap in the pipeline instead of serializing.
template <size_t N>
void MomentumAndSquaredNorms(const SlotRows* slots, size_t dim, bool reset,
                             float omb, float b, double* sq) {
  double acc[N] = {};
  for (size_t k0 = 0; k0 < dim; k0 += kPassBlock) {
    size_t len = std::min(kPassBlock, dim - k0);
    for (size_t c = 0; c < N; ++c) {
      // One input aliases φ, so each loop names just two rows and
      // vectorizes.
      float* phi = slots[c].phi + k0;
      if (reset) {
        const float* base = slots[c].base + k0;
        for (size_t k = 0; k < len; ++k) phi[k] = omb * phi[k] + b * base[k];
      } else {
        const float* g = slots[c].g + k0;
        for (size_t k = 0; k < len; ++k) phi[k] = omb * g[k] + b * phi[k];
      }
    }
    for (size_t k = k0; k < k0 + len; ++k) {
      for (size_t c = 0; c < N; ++c) {
        double v = slots[c].phi[k];
        acc[c] += v * v;
      }
    }
  }
  for (size_t c = 0; c < N; ++c) sq[c] = acc[c];
}

}  // namespace

HonestDpWorker::HonestDpWorker(int id, data::DatasetView shard,
                               nn::ModelFactory factory,
                               const WorkerOptions& options, uint64_t seed)
    : id_(id),
      shard_(std::move(shard)),
      model_(factory()),
      options_(options),
      seed_(seed) {
  DPBR_CHECK(!shard_.empty());
  DPBR_CHECK_GT(options_.batch_size, 0);
  DPBR_CHECK_GE(options_.beta, 0.0);
  DPBR_CHECK_LT(options_.beta, 1.0);
  dim_ = model_->NumParams();
  size_t slots = options_.momentum_reset == MomentumReset::kResetToUpload
                     ? 1
                     : static_cast<size_t>(options_.batch_size);
  momentum_.assign(slots, std::vector<float>(dim_, 0.0f));
  per_example_grads_.assign(static_cast<size_t>(options_.batch_size) * dim_,
                            0.0f);
}

void HonestDpWorker::ComputeUpdateInto(
    const std::vector<float>& global_params, int round, float* out) {
  DPBR_CHECK_EQ(global_params.size(), dim_);
  model_->SetParamsFrom(global_params.data());

  SplitRng rng(seed_, {0xF00, static_cast<uint64_t>(round)});
  size_t bc = static_cast<size_t>(options_.batch_size);

  // Line 5: sample a size-bc mini-batch (without replacement when the
  // shard allows; tiny shards fall back to with-replacement draws).
  std::vector<size_t> batch;
  if (shard_.size() >= bc) {
    batch = rng.SampleWithoutReplacement(shard_.size(), bc);
  } else {
    batch.resize(bc);
    for (auto& b : batch) b = rng.UniformInt(shard_.size());
  }

  // Lines 6-9: per-example gradients, computed as one microbatch through
  // the batched kernels — a single forward/backward invocation per layer
  // with each example's flat gradient landing in its own row of
  // per_example_grads_ — then folded into the per-slot momentum list.
  const data::Dataset* base = shard_.base();
  size_t feature_dim = base->feature_dim();
  std::vector<size_t> batch_shape;
  batch_shape.push_back(bc);
  for (size_t d : base->example_shape()) batch_shape.push_back(d);
  Tensor x(std::move(batch_shape));
  std::vector<size_t> labels(bc);
  for (size_t j = 0; j < bc; ++j) {
    std::memcpy(x.data() + j * feature_dim, shard_.FeaturesAt(batch[j]),
                feature_dim * sizeof(float));
    labels[j] = static_cast<size_t>(shard_.LabelAt(batch[j]));
  }
  Tensor logits = model_->ForwardBatch(x);
  nn::BatchLossGrad lg = nn::SoftmaxCrossEntropyBatch(logits, labels);
  model_->BackwardBatchTo(lg.grad_logits, bc, per_example_grads_.data());

  // Pass 1: the momentum update and every slot's squared norm. Under
  // reset all slots share the one stored row as base, and φ_j lands over
  // g_j's own gradient row; under persist φ_j updates in place.
  const bool reset = options_.momentum_reset == MomentumReset::kResetToUpload;
  std::vector<SlotRows> slots(bc);
  for (size_t j = 0; j < bc; ++j) {
    float* g = per_example_grads_.data() + j * dim_;
    float* phi = reset ? g : momentum_[j].data();
    slots[j] = {g, reset ? momentum_[0].data() : phi, phi};
  }
  const float omb = static_cast<float>(1.0 - options_.beta);
  const float b = static_cast<float>(options_.beta);
  std::vector<double> sq(bc);
  size_t j = 0;
  for (; j + kNormChains <= bc; j += kNormChains) {
    MomentumAndSquaredNorms<kNormChains>(&slots[j], dim_, reset, omb, b,
                                         &sq[j]);
  }
  for (; j < bc; ++j) {
    MomentumAndSquaredNorms<1>(&slots[j], dim_, reset, omb, b, &sq[j]);
  }

  // Pass 2 (line 10): sum of normalized slots, in ascending j, directly
  // into the caller's row (no per-upload allocation); then perturbed and
  // averaged. The per-slot scale is ops::NormalizeInPlace's.
  std::fill(out, out + dim_, 0.0f);
  for (j = 0; j < bc; ++j) {
    double denom = std::max(std::sqrt(sq[j]), 1e-12);
    ops::Axpy(static_cast<float>(1.0 / denom), slots[j].phi, out, dim_);
  }
  if (options_.sigma > 0.0) {
    // Bulk perturbation (~d draws per round): the blocked sampler is both
    // the hot-path win and pool-size invariant, so the upload stream does
    // not depend on how the trainer schedules workers.
    rng.AddGaussian(out, dim_, options_.sigma);
  }
  ops::Scale(1.0f / static_cast<float>(bc), out, dim_);

  // Line 11: momentum handling after upload (see MomentumReset). Every
  // slot would hold the same upload, so the one stored row takes it.
  if (reset) momentum_[0].assign(out, out + dim_);
}

Status HonestDpWorker::RestoreMomentum(
    const std::vector<std::vector<float>>& momentum) {
  if (momentum.size() != momentum_.size()) {
    return Status::InvalidArgument(
        "momentum restore: snapshot has " +
        std::to_string(momentum.size()) + " slots, worker expects " +
        std::to_string(momentum_.size()));
  }
  for (const auto& slot : momentum) {
    if (slot.size() != dim_) {
      return Status::InvalidArgument(
          "momentum restore: slot dimension " +
          std::to_string(slot.size()) + " != model dimension " +
          std::to_string(dim_));
    }
  }
  momentum_ = momentum;
  return Status::OK();
}

}  // namespace fl
}  // namespace dpbr
