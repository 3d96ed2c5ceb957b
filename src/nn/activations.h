// Elementwise activation layers: ELU (the paper's networks) and ReLU,
// both stage epilogues (nn/layer.h) that transform the block in place.
//
// Both cache only their *output*: each function's derivative is
// recoverable from the output sign (x <= 0 ⟺ y <= 0 for ELU, y == 0 for
// ReLU), which halves the cached state. The cached outputs live in a
// grow-only Workspace slot at each example's offset.

#ifndef DPBR_NN_ACTIVATIONS_H_
#define DPBR_NN_ACTIVATIONS_H_

#include <string>

#include "nn/gemm.h"
#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// ELU(x) = x for x > 0, α(eˣ - 1) otherwise.
class Elu : public Layer {
 public:
  explicit Elu(double alpha = 1.0) : alpha_(alpha) {}

  std::string name() const override { return "ELU"; }

  // Stage epilogue: elu_f32 / elu_grad_f32 on the example's block.
  FusionInfo fusion_info() const override {
    return {/*anchor=*/false, /*epilogue=*/true};
  }
  std::vector<size_t> FuseForwardPrepare(
      size_t batch, const std::vector<size_t>& in_shape) override;
  void FuseForwardEpilogue(size_t ex, float* block) override;
  void FuseBackwardPrepare() override;
  void FuseBackwardEpilogue(size_t ex, float* block,
                            const PerExampleGradSink& sink) override;

 private:
  double alpha_;
  Workspace ws_;  // slot 0: cached output(s)
  // Per-example element count and cache pointer (stashed by the serial
  // prepare hooks; in-dispatch hooks never grow the Workspace).
  size_t n_ = 0;
  float* cache_ = nullptr;
};

/// ReLU(x) = max(x, 0).
class Relu : public Layer {
 public:
  std::string name() const override { return "ReLU"; }

  // Stage epilogue (see Elu).
  FusionInfo fusion_info() const override {
    return {/*anchor=*/false, /*epilogue=*/true};
  }
  std::vector<size_t> FuseForwardPrepare(
      size_t batch, const std::vector<size_t>& in_shape) override;
  void FuseForwardEpilogue(size_t ex, float* block) override;
  void FuseBackwardPrepare() override;
  void FuseBackwardEpilogue(size_t ex, float* block,
                            const PerExampleGradSink& sink) override;

 private:
  Workspace ws_;  // slot 0: cached output(s)
  size_t n_ = 0;
  float* cache_ = nullptr;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_ACTIVATIONS_H_
