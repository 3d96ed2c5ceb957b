// Adaptive average pooling and flattening. Both cache only the input
// *shape* (never activations). AdaptiveAvgPool2d is a stage anchor built
// on one plane kernel per (channel) plane; Flatten is a shape-only stage
// epilogue (nn/layer.h) whose per-example hooks do nothing.

#ifndef DPBR_NN_POOLING_H_
#define DPBR_NN_POOLING_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// AdaptiveAvgPool2d: averages a (C, H, W) input into (C, out_h, out_w)
/// using PyTorch's region convention
///   start = floor(i·H/out_h), end = ceil((i+1)·H/out_h).
class AdaptiveAvgPool2d : public Layer {
 public:
  AdaptiveAvgPool2d(size_t out_h, size_t out_w);

  std::string name() const override { return "AdaptiveAvgPool2d"; }

  // Stage anchor.
  FusionInfo fusion_info() const override {
    return {/*anchor=*/true, /*epilogue=*/false};
  }
  std::vector<size_t> FuseForwardPrepare(
      size_t batch, const std::vector<size_t>& in_shape) override;
  void FuseForwardAnchor(size_t ex, const float* x, float* y,
                         EpilogueChain chain) override;
  void FuseBackwardPrepare() override;
  void FuseBackwardAnchor(size_t ex, const float* gy, float* gx,
                          const PerExampleGradSink& sink) override;

 private:
  /// Pools one (H, W) plane; the backward scatter-adds the gradient.
  void PlaneForward(const float* plane, float* out_plane) const;
  void PlaneBackward(const float* gy_plane, float* dx_plane) const;

  size_t out_h_;
  size_t out_w_;
  // Per-example input geometry, stashed by the serial prepare hooks.
  size_t c_ = 0, h_ = 0, w_ = 0;
};

/// Flattens each example to 1-d: (d1, ..., dk) → (d1·...·dk). The stage
/// driver restores the input shape on the way back.
class Flatten : public Layer {
 public:
  std::string name() const override { return "Flatten"; }

  // Shape-only stage epilogue.
  FusionInfo fusion_info() const override {
    return {/*anchor=*/false, /*epilogue=*/true};
  }
  std::vector<size_t> FuseForwardPrepare(
      size_t batch, const std::vector<size_t>& in_shape) override;
  void FuseForwardEpilogue(size_t /*ex*/, float* /*block*/) override {}
  void FuseBackwardPrepare() override;
  void FuseBackwardEpilogue(size_t /*ex*/, float* /*block*/,
                            const PerExampleGradSink& /*sink*/) override {}
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_POOLING_H_
