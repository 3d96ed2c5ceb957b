#include "nn/activations.h"

#include <cstring>

#include "common/simd.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kOutSlot = 0;  // cached output(s)

// Shared forward prepare of the elementwise epilogues: sizes the output
// cache for `batch` examples of `in_shape` and records the state.
std::vector<size_t> PrepareElementwise(size_t batch,
                                       const std::vector<size_t>& in_shape,
                                       Workspace* ws, BatchState* state,
                                       size_t* n, float** cache) {
  *n = 1;
  for (size_t d : in_shape) *n *= d;
  *cache = ws->Get(kOutSlot, batch * *n);
  std::vector<size_t> shape;
  shape.reserve(in_shape.size() + 1);
  shape.push_back(batch);
  shape.insert(shape.end(), in_shape.begin(), in_shape.end());
  state->SetBatched(shape);
  return in_shape;
}

// Shared backward prepare: re-derives the element count and cache.
void PrepareElementwiseBackward(const std::vector<size_t>& in, Workspace* ws,
                                size_t* n, float** cache) {
  *n = 1;
  for (size_t i = 1; i < in.size(); ++i) *n *= in[i];
  *cache = ws->Get(kOutSlot, in[0] * *n);
}

}  // namespace

std::vector<size_t> Elu::FuseForwardPrepare(
    size_t batch, const std::vector<size_t>& in_shape) {
  return PrepareElementwise(batch, in_shape, &ws_, &state_, &n_, &cache_);
}

void Elu::FuseForwardEpilogue(size_t ex, float* block) {
  float a = static_cast<float>(alpha_);
  simd::Kernels().elu_f32(block, n_, a);
  std::memcpy(cache_ + ex * n_, block, n_ * sizeof(float));
}

void Elu::FuseBackwardPrepare() {
  PrepareElementwiseBackward(RequireBatchedState(), &ws_, &n_, &cache_);
}

void Elu::FuseBackwardEpilogue(size_t ex, float* block,
                               const PerExampleGradSink& /*sink*/) {
  float a = static_cast<float>(alpha_);
  simd::Kernels().elu_grad_f32(block, cache_ + ex * n_, n_, a);
}

std::vector<size_t> Relu::FuseForwardPrepare(
    size_t batch, const std::vector<size_t>& in_shape) {
  return PrepareElementwise(batch, in_shape, &ws_, &state_, &n_, &cache_);
}

void Relu::FuseForwardEpilogue(size_t ex, float* block) {
  simd::Kernels().relu_f32(block, n_);
  std::memcpy(cache_ + ex * n_, block, n_ * sizeof(float));
}

void Relu::FuseBackwardPrepare() {
  PrepareElementwiseBackward(RequireBatchedState(), &ws_, &n_, &cache_);
}

void Relu::FuseBackwardEpilogue(size_t ex, float* block,
                                const PerExampleGradSink& /*sink*/) {
  simd::Kernels().relu_grad_f32(block, cache_ + ex * n_, n_);
}

}  // namespace nn
}  // namespace dpbr
