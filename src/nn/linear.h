// Fully connected layer: y = W x + b, a stage anchor (nn/layer.h) on the
// serial row GEMM primitives (src/nn/gemm.h) with workspace-cached
// inputs. The backward anchor writes the example's dW/db row into its
// PerExampleGradSink row (a rank-1 Ger plus an Axpy) and its dX row.

#ifndef DPBR_NN_LINEAR_H_
#define DPBR_NN_LINEAR_H_

#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Dense affine map from `in_features` to `out_features`.
class Linear : public Layer {
 public:
  Linear(size_t in_features, size_t out_features);

  std::vector<ParamView> Params() override;

  /// He-uniform weights (suits the ELU/ReLU nets used here), zero bias.
  void InitParams(SplitRng* rng) override;

  std::string name() const override { return "Linear"; }

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

  size_t in_features() const { return in_; }
  size_t out_features() const { return out_; }

 private:
  size_t in_;
  size_t out_;
  std::vector<float> weight_;       // out x in, row-major
  std::vector<float> bias_;         // out
  // Workspace-cached inputs from the last forward pass.
  Workspace ws_;
  // Cache pointer stashed by the prepare hooks (the in-dispatch hooks
  // never touch the Workspace, which must not grow concurrently).
  float* in_cache_ = nullptr;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LINEAR_H_
