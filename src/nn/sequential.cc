#include "nn/sequential.h"

#include <algorithm>

#include "common/logging.h"
#include "nn/fusion.h"

namespace dpbr {
namespace nn {

Sequential::Sequential() = default;
Sequential::~Sequential() = default;

Sequential& Sequential::Add(LayerPtr layer) {
  DPBR_CHECK(layer != nullptr);
  // Parameter counts are fixed at construction, so the offset table can
  // be maintained incrementally here instead of per backward call.
  param_offsets_.push_back(total_params_);
  total_params_ += layer->NumParams();
  layers_.push_back(std::move(layer));
  plan_.reset();  // stale against the new layer list
  return *this;
}

void Sequential::SetFusionEnabled(bool enabled) {
  fusion_enabled_ = enabled;
  plan_.reset();
  for (auto& l : layers_) l->SetFusionEnabled(enabled);
}

FusionPlan* Sequential::plan() {
  if (!plan_) plan_ = FusionPlan::Build(this, fusion_enabled_);
  return plan_.get();
}

Tensor Sequential::ForwardBatch(const Tensor& x) {
  return plan()->ForwardBatch(x);
}

Tensor Sequential::BackwardBatch(const Tensor& grad_out,
                                 const PerExampleGradSink& sink) {
  return plan()->BackwardBatch(grad_out, sink);
}

Tensor Sequential::BackwardBatchTo(const Tensor& grad_out, size_t batch,
                                   float* grads) {
  size_t dim = total_params_;
  // Guards the Add()-time offset cache against any future layer whose
  // parameter count changes after registration: a stale table would
  // misalign every downstream sink row silently.
  DPBR_CHECK_EQ(dim, NumParams());
  DPBR_CHECK_EQ(grad_out.dim(0), batch);
  // The rows are zeroed inside the backward dispatch, each by the task
  // that then accumulates into it, not serially here: a row cleared on
  // this thread would cross cores to the worker that fills it.
  PerExampleGradSink sink{grads, dim, 0};
  return plan()->BackwardBatch(grad_out, sink, /*zero_rows=*/true);
}

std::vector<ParamView> Sequential::Params() {
  std::vector<ParamView> all;
  for (auto& l : layers_) {
    for (auto& p : l->Params()) all.push_back(p);
  }
  return all;
}

void Sequential::InitParams(SplitRng* rng) {
  // Each layer gets its own derived stream so adding layers does not
  // reshuffle earlier layers' initialization.
  uint64_t idx = 0;
  for (auto& l : layers_) {
    SplitRng child = rng->Split(idx++);
    l->InitParams(&child);
  }
}

void Sequential::CopyParamsTo(float* out) {
  size_t off = 0;
  for (auto& p : Params()) {
    for (size_t i = 0; i < p.size; ++i) out[off + i] = p.value[i];
    off += p.size;
  }
}

void Sequential::SetParamsFrom(const float* in) {
  size_t off = 0;
  for (auto& p : Params()) {
    for (size_t i = 0; i < p.size; ++i) p.value[i] = in[off + i];
    off += p.size;
  }
}

std::vector<float> Sequential::FlatParams() {
  std::vector<float> v(NumParams());
  CopyParamsTo(v.data());
  return v;
}

Residual::Residual(std::unique_ptr<Sequential> body)
    : body_(std::move(body)) {
  DPBR_CHECK(body_ != nullptr);
}

void Residual::SetFusionEnabled(bool enabled) {
  body_->SetFusionEnabled(enabled);
}

std::vector<ParamView> Residual::Params() { return body_->Params(); }

void Residual::InitParams(SplitRng* rng) { body_->InitParams(rng); }

}  // namespace nn
}  // namespace dpbr
