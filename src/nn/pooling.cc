#include "nn/pooling.h"

#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace dpbr {
namespace nn {
namespace {

inline size_t RegionStart(size_t i, size_t in, size_t out) {
  return (i * in) / out;
}

inline size_t RegionEnd(size_t i, size_t in, size_t out) {
  return ((i + 1) * in + out - 1) / out;  // ceil
}

size_t ShapeProduct(const std::vector<size_t>& shape) {
  size_t p = 1;
  for (size_t d : shape) p *= d;
  return p;
}

}  // namespace

AdaptiveAvgPool2d::AdaptiveAvgPool2d(size_t out_h, size_t out_w)
    : out_h_(out_h), out_w_(out_w) {
  DPBR_CHECK_GT(out_h_, 0u);
  DPBR_CHECK_GT(out_w_, 0u);
}

void AdaptiveAvgPool2d::PlaneForward(const float* plane,
                                     float* out_plane) const {
  for (size_t i = 0; i < out_h_; ++i) {
    size_t h0 = RegionStart(i, h_, out_h_), h1 = RegionEnd(i, h_, out_h_);
    for (size_t j = 0; j < out_w_; ++j) {
      size_t w0 = RegionStart(j, w_, out_w_), w1 = RegionEnd(j, w_, out_w_);
      double s = 0.0;
      for (size_t a = h0; a < h1; ++a) {
        for (size_t b = w0; b < w1; ++b) s += plane[a * w_ + b];
      }
      out_plane[i * out_w_ + j] =
          static_cast<float>(s / static_cast<double>((h1 - h0) * (w1 - w0)));
    }
  }
}

void AdaptiveAvgPool2d::PlaneBackward(const float* gy_plane,
                                      float* dx_plane) const {
  // Broadcast-add per row segment is element-wise (one add per element),
  // so the SIMD path is bitwise equal to the scalar loop. The forward
  // region sums stay sequential scalar.
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t i = 0; i < out_h_; ++i) {
    size_t h0 = RegionStart(i, h_, out_h_), h1 = RegionEnd(i, h_, out_h_);
    for (size_t j = 0; j < out_w_; ++j) {
      size_t w0 = RegionStart(j, w_, out_w_), w1 = RegionEnd(j, w_, out_w_);
      float g = gy_plane[i * out_w_ + j] /
                static_cast<float>((h1 - h0) * (w1 - w0));
      for (size_t a = h0; a < h1; ++a) {
        kern.add_scalar_f32(g, dx_plane + a * w_ + w0, w1 - w0);
      }
    }
  }
}

std::vector<size_t> AdaptiveAvgPool2d::FuseForwardPrepare(
    size_t batch, const std::vector<size_t>& in_shape) {
  DPBR_CHECK_EQ(in_shape.size(), 3u);
  c_ = in_shape[0];
  h_ = in_shape[1];
  w_ = in_shape[2];
  DPBR_CHECK_GE(h_, out_h_);
  DPBR_CHECK_GE(w_, out_w_);
  state_.SetBatched({batch, c_, h_, w_});
  return {c_, out_h_, out_w_};
}

void AdaptiveAvgPool2d::FuseForwardAnchor(size_t ex, const float* x,
                                          float* y, EpilogueChain chain) {
  for (size_t ch = 0; ch < c_; ++ch) {
    PlaneForward(x + ch * h_ * w_, y + ch * out_h_ * out_w_);
  }
  chain.Apply(ex, y);
}

void AdaptiveAvgPool2d::FuseBackwardPrepare() {
  const std::vector<size_t>& in = RequireBatchedState();
  c_ = in[1];
  h_ = in[2];
  w_ = in[3];
}

void AdaptiveAvgPool2d::FuseBackwardAnchor(
    size_t /*ex*/, const float* gy, float* gx,
    const PerExampleGradSink& /*sink*/) {
  // The scatter-add accumulates, so every plane starts from zero.
  std::memset(gx, 0, c_ * h_ * w_ * sizeof(float));
  for (size_t ch = 0; ch < c_; ++ch) {
    PlaneBackward(gy + ch * out_h_ * out_w_, gx + ch * h_ * w_);
  }
}

std::vector<size_t> Flatten::FuseForwardPrepare(
    size_t batch, const std::vector<size_t>& in_shape) {
  std::vector<size_t> shape = {batch};
  shape.insert(shape.end(), in_shape.begin(), in_shape.end());
  state_.SetBatched(shape);
  return {ShapeProduct(in_shape)};
}

void Flatten::FuseBackwardPrepare() { RequireBatchedState(); }

}  // namespace nn
}  // namespace dpbr
