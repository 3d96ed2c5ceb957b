// 2-d convolution on (C, H, W) examples, a stage anchor (nn/layer.h).
//
// The production kernel lowers each example's convolution to im2col +
// register-blocked GEMM (src/nn/gemm.h): the forward anchor is one
// GemmNNSerial, the backward anchor a GemmNTSerial (dW into the
// example's PerExampleGradSink row) plus a GemmTNSerial scattered by
// col2im (dX). Both run serially inside the stage's per-example task,
// with the column panel in per-thread scratch. The
// original direct loop nest is kept as an independent reference kernel
// (`Conv2dKernel::kNaive`) behind the same hooks, which
// tests/nn/kernel_equivalence_test.cc checks the GEMM kernel against.

#ifndef DPBR_NN_CONV2D_H_
#define DPBR_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Kernel implementation selector (tests compare the two paths).
enum class Conv2dKernel {
  kGemm,   ///< im2col + blocked GEMM (production)
  kNaive,  ///< direct quintuple loop (reference)
};

/// Conv2d with stride 1 and symmetric zero padding.
class Conv2d : public Layer {
 public:
  Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
         size_t padding = 0, Conv2dKernel kernel = Conv2dKernel::kGemm);

  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;
  std::string name() const override { return "Conv2d"; }

  // Stage anchor, for both kernels.
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

  size_t out_channels() const { return out_ch_; }

 private:
  float& W(size_t oc, size_t ic, size_t kh, size_t kw) {
    return weight_[((oc * in_ch_ + ic) * k_ + kh) * k_ + kw];
  }
  /// Sets the per-example geometry for an (in_ch, h, w) input.
  void SetGeometry(size_t h, size_t w);

  /// The reference kernel for one example; the backward accumulates
  /// into `wgrad`/`bgrad`/`dx`.
  void NaiveForwardOne(const float* x, size_t h, size_t w, float* y);
  void NaiveBackwardOne(const float* x, const float* gy, size_t h, size_t w,
                        float* wgrad, float* bgrad, float* dx);

  size_t in_ch_;
  size_t out_ch_;
  size_t k_;
  size_t pad_;
  Conv2dKernel kernel_;
  std::vector<float> weight_;  // (out, in, k, k)
  std::vector<float> bias_;    // (out)
  // The cached forward inputs of the whole microbatch.
  Workspace ws_;
  // Geometry and cache pointer, stashed by the serial prepare hooks so
  // the in-dispatch hooks never touch the Workspace (which must not
  // grow concurrently).
  float* in_cache_ = nullptr;
  size_t h_ = 0, w_ = 0, oh_ = 0, ow_ = 0;
  size_t q_ = 0, kk_ = 0;
  size_t in_stride_ = 0;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_CONV2D_H_
