#include "nn/conv2d.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kInputSlot = 0;  // cached forward inputs, batch-sized

// db[oc] += Σ_i gy[oc·q + i], accumulated in double.
void AccumulateBiasRowSums(const float* gy, size_t out_ch, size_t q,
                           float* bgrad) {
  for (size_t oc = 0; oc < out_ch; ++oc) {
    const float* row = gy + oc * q;
    double s = 0.0;
    for (size_t i = 0; i < q; ++i) s += row[i];
    bgrad[oc] += static_cast<float>(s);
  }
}

}  // namespace

Conv2d::Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
               size_t padding, Conv2dKernel kernel)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel_size),
      pad_(padding),
      kernel_(kernel),
      weight_(out_channels * in_channels * kernel_size * kernel_size, 0.0f),
      bias_(out_channels, 0.0f) {
  DPBR_CHECK_GT(in_ch_, 0u);
  DPBR_CHECK_GT(out_ch_, 0u);
  DPBR_CHECK_GT(k_, 0u);
}

void Conv2d::SetGeometry(size_t h, size_t w) {
  DPBR_CHECK_GE(h + 2 * pad_ + 1, k_);
  DPBR_CHECK_GE(w + 2 * pad_ + 1, k_);
  h_ = h;
  w_ = w;
  oh_ = h + 2 * pad_ - k_ + 1;
  ow_ = w + 2 * pad_ - k_ + 1;
  q_ = oh_ * ow_;
  kk_ = in_ch_ * k_ * k_;
  in_stride_ = in_ch_ * h * w;
}

void Conv2d::NaiveForwardOne(const float* x, size_t h, size_t w, float* y) {
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  for (size_t oc = 0; oc < out_ch_; ++oc) {
    for (size_t i = 0; i < oh; ++i) {
      for (size_t j = 0; j < ow; ++j) {
        double s = bias_[oc];
        for (size_t ic = 0; ic < in_ch_; ++ic) {
          for (size_t kh = 0; kh < k_; ++kh) {
            // Input row index with padding offset; skip out-of-bounds rows.
            long long ih = static_cast<long long>(i + kh) -
                           static_cast<long long>(pad_);
            if (ih < 0 || ih >= static_cast<long long>(h)) continue;
            for (size_t kw = 0; kw < k_; ++kw) {
              long long iw = static_cast<long long>(j + kw) -
                             static_cast<long long>(pad_);
              if (iw < 0 || iw >= static_cast<long long>(w)) continue;
              s += static_cast<double>(W(oc, ic, kh, kw)) *
                   x[(ic * h + static_cast<size_t>(ih)) * w +
                     static_cast<size_t>(iw)];
            }
          }
        }
        y[(oc * oh + i) * ow + j] = static_cast<float>(s);
      }
    }
  }
}

void Conv2d::NaiveBackwardOne(const float* x, const float* gy, size_t h,
                              size_t w, float* wgrad, float* bgrad,
                              float* dx) {
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  for (size_t oc = 0; oc < out_ch_; ++oc) {
    for (size_t i = 0; i < oh; ++i) {
      for (size_t j = 0; j < ow; ++j) {
        float g = gy[(oc * oh + i) * ow + j];
        if (g == 0.0f) continue;
        bgrad[oc] += g;
        for (size_t ic = 0; ic < in_ch_; ++ic) {
          for (size_t kh = 0; kh < k_; ++kh) {
            long long ih = static_cast<long long>(i + kh) -
                           static_cast<long long>(pad_);
            if (ih < 0 || ih >= static_cast<long long>(h)) continue;
            for (size_t kw = 0; kw < k_; ++kw) {
              long long iw = static_cast<long long>(j + kw) -
                             static_cast<long long>(pad_);
              if (iw < 0 || iw >= static_cast<long long>(w)) continue;
              size_t in_idx = (ic * h + static_cast<size_t>(ih)) * w +
                              static_cast<size_t>(iw);
              wgrad[((oc * in_ch_ + ic) * k_ + kh) * k_ + kw] += g * x[in_idx];
              dx[in_idx] += g * W(oc, ic, kh, kw);
            }
          }
        }
      }
    }
  }
}

std::vector<size_t> Conv2d::FuseForwardPrepare(
    size_t batch, const std::vector<size_t>& in_shape) {
  DPBR_CHECK_EQ(in_shape.size(), 3u);
  DPBR_CHECK_EQ(in_shape[0], in_ch_);
  SetGeometry(in_shape[1], in_shape[2]);
  // Grown here, serially — the in-dispatch hooks only read the pointer.
  in_cache_ = ws_.Get(kInputSlot, batch * in_stride_);
  state_.SetBatched({batch, in_ch_, h_, w_});
  return {out_ch_, oh_, ow_};
}

void Conv2d::FuseForwardAnchor(size_t ex, const float* x, float* y,
                               EpilogueChain chain) {
  // Cache this example's input slice (upstream groups hand panels whose
  // contents die with the task); the backward re-expands im2col from it.
  float* cached = in_cache_ + ex * in_stride_;
  std::memcpy(cached, x, in_stride_ * sizeof(float));
  if (kernel_ == Conv2dKernel::kNaive) {
    NaiveForwardOne(cached, h_, w_, y);
  } else {
    // Serial im2col + GEMM inside the stage's task: the column panel is
    // per-thread scratch, consumed while hot.
    float* col = ThreadPanel(kPanelSlotConvCol, kk_ * q_);
    Im2Col(cached, in_ch_, h_, w_, k_, pad_, col);
    GemmNNSerial(out_ch_, kk_, q_, weight_.data(), col, y, bias_.data());
  }
  // The group's post-ops, on the output block while its tiles are hot.
  chain.Apply(ex, y);
}

void Conv2d::FuseBackwardPrepare() {
  const std::vector<size_t>& in = RequireBatchedState();
  SetGeometry(in[2], in[3]);
  // No growth: the forward prepare sized the cache at this shape.
  in_cache_ = ws_.Get(kInputSlot, in[0] * in_stride_);
}

void Conv2d::FuseBackwardAnchor(size_t ex, const float* gy, float* gx,
                                const PerExampleGradSink& sink) {
  const float* x_ex = in_cache_ + ex * in_stride_;
  float* wgrad = sink.Slot(ex);
  // Both kernels accumulate dX onto `gx`, so it starts from zero.
  std::memset(gx, 0, in_stride_ * sizeof(float));
  if (kernel_ == Conv2dKernel::kNaive) {
    NaiveBackwardOne(x_ex, gy, h_, w_, wgrad, wgrad + weight_.size(), gx);
    return;
  }
  // dW row (gy · im2colᵀ onto the sink row), bias row sums, then the dX
  // column gradient Wᵀ · gy — written over the dead im2col panel — which
  // col2im scatters onto gx. All serial, inside the stage's task.
  float* col = ThreadPanel(kPanelSlotConvCol, kk_ * q_);
  Im2Col(x_ex, in_ch_, h_, w_, k_, pad_, col);
  GemmNTSerial(out_ch_, q_, kk_, gy, col, wgrad, /*accumulate=*/true);
  AccumulateBiasRowSums(gy, out_ch_, q_, wgrad + weight_.size());
  GemmTNSerial(kk_, out_ch_, q_, weight_.data(), gy, col);
  Col2ImAccumulate(col, in_ch_, h_, w_, k_, pad_, gx);
}

std::vector<ParamView> Conv2d::Params() {
  return {
      {weight_.data(), weight_.size()},
      {bias_.data(), bias_.size()},
  };
}

void Conv2d::InitParams(SplitRng* rng) {
  double fan_in = static_cast<double>(in_ch_ * k_ * k_);
  double bound = std::sqrt(6.0 / fan_in);
  for (auto& w : weight_) {
    w = static_cast<float>(rng->Uniform(-bound, bound));
  }
  for (auto& b : bias_) b = 0.0f;
}

}  // namespace nn
}  // namespace dpbr
