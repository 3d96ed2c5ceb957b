#include "nn/linear.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "tensor/ops.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kInputSlot = 0;  // cached forward input(s)

}  // namespace

Linear::Linear(size_t in_features, size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0f),
      bias_(out_features, 0.0f) {
  DPBR_CHECK_GT(in_, 0u);
  DPBR_CHECK_GT(out_, 0u);
}

std::vector<size_t> Linear::FuseForwardPrepare(
    size_t batch, const std::vector<size_t>& in_shape) {
  DPBR_CHECK_EQ(in_shape.size(), 1u);
  DPBR_CHECK_EQ(in_shape[0], in_);
  in_cache_ = ws_.Get(kInputSlot, batch * in_);
  state_.SetBatched({batch, in_});
  return {out_};
}

void Linear::FuseForwardAnchor(size_t ex, const float* x, float* y,
                               EpilogueChain chain) {
  // Cache the input row, then one serial NT row plus the bias, then the
  // group's post-ops while the row is hot.
  float* cached = in_cache_ + ex * in_;
  std::memcpy(cached, x, in_ * sizeof(float));
  GemmNTSerial(1, in_, out_, cached, weight_.data(), y);
  for (size_t r = 0; r < out_; ++r) y[r] += bias_[r];
  chain.Apply(ex, y);
}

void Linear::FuseBackwardPrepare() {
  const std::vector<size_t>& in = RequireBatchedState();
  in_cache_ = ws_.Get(kInputSlot, in[0] * in_);
}

void Linear::FuseBackwardAnchor(size_t ex, const float* gy, float* gx,
                                const PerExampleGradSink& sink) {
  // dW row += dy ⊗ x, db row += dy, dx = dy · W.
  float* wgrad = sink.Slot(ex);
  ops::Ger(1.0f, gy, in_cache_ + ex * in_, wgrad, out_, in_);
  ops::Axpy(1.0f, gy, wgrad + weight_.size(), out_);
  GemmNNSerial(1, out_, in_, gy, weight_.data(), gx);
}

std::vector<ParamView> Linear::Params() {
  return {
      {weight_.data(), weight_.size()},
      {bias_.data(), bias_.size()},
  };
}

void Linear::InitParams(SplitRng* rng) {
  // He-uniform: U(-b, b) with b = sqrt(6 / fan_in).
  double bound = std::sqrt(6.0 / static_cast<double>(in_));
  for (auto& w : weight_) {
    w = static_cast<float>(rng->Uniform(-bound, bound));
  }
  for (auto& b : bias_) b = 0.0f;
}

}  // namespace nn
}  // namespace dpbr
