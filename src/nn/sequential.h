// Sequential container and residual block; plus the flat parameter-vector
// bridge the FL protocol needs (models are broadcast and updated as flat
// float vectors of dimension d).

#ifndef DPBR_NN_SEQUENTIAL_H_
#define DPBR_NN_SEQUENTIAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

class FusionPlan;

/// Chain of layers applied in order.
///
/// The batched passes run through a lazily built FusionPlan
/// (nn/fusion.h), the only driver of the layer hooks: runs of layers
/// (Conv2d→ELU→GroupNorm, Linear→ReLU, ...) execute as single-dispatch
/// stages. The plan is an execution overlay only — `layers_`, parameter
/// offsets and InitParams streams are never restructured by it.
class Sequential : public Layer {
 public:
  // Out of line: FusionPlan is incomplete here (unique_ptr member).
  Sequential();
  ~Sequential() override;

  /// Appends a layer (builder style). Invalidates the fusion plan.
  Sequential& Add(LayerPtr layer);

  /// Forward pass over a microbatch whose leading dimension is the batch
  /// size. Caches what the next backward needs.
  Tensor ForwardBatch(const Tensor& x);

  /// Backward pass after ForwardBatch: returns dL/d(input) with leading
  /// batch dimension and accumulates each example's parameter gradient
  /// into its own row of `sink` (rows pre-zeroed by the caller).
  Tensor BackwardBatch(const Tensor& grad_out, const PerExampleGradSink& sink);

  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;
  std::string name() const override { return "Sequential"; }

  Sequential* AsSequential() override { return this; }

  /// Toggles stage fusion (default on), recursively through nested
  /// containers, and drops any built plan. With fusion off every layer
  /// runs as its own one-group stage (one dispatch per layer) through
  /// the same hooks, so results are bitwise unchanged.
  void SetFusionEnabled(bool enabled) override;
  bool fusion_enabled() const { return fusion_enabled_; }

  /// Batched backward writing example j's full flat parameter gradient
  /// (dimension NumParams()) to grads + j·NumParams(). Zeroes each row
  /// before filling it (inside the example's task); returns dL/d(input)
  /// with leading batch dimension. This is the per-example gradient
  /// entry point the DP worker clips against.
  Tensor BackwardBatchTo(const Tensor& grad_out, size_t batch, float* grads);

  size_t num_layers() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_[i].get(); }

  /// Flat-parameter offset of sublayer `i` (the fusion planner addresses
  /// PerExampleGradSink rows through it).
  size_t param_offset(size_t i) const { return param_offsets_[i]; }

  // --- flat parameter bridge (dimension d = NumParams()) ---

  /// Copies all parameters into `out` (size must be NumParams()).
  void CopyParamsTo(float* out);

  /// Overwrites all parameters from `in`.
  void SetParamsFrom(const float* in);

  /// Convenience vector version of CopyParamsTo.
  std::vector<float> FlatParams();

 private:
  /// The plan the batched passes execute (built on first use).
  FusionPlan* plan();

  std::vector<LayerPtr> layers_;
  // Flat-parameter offset of each sublayer (maintained by Add, so the
  // per-microbatch backward never re-derives or reallocates it).
  std::vector<size_t> param_offsets_;
  size_t total_params_ = 0;
  // Lazily built execution overlay for the batched passes.
  std::unique_ptr<FusionPlan> plan_;
  bool fusion_enabled_ = true;
};

/// Residual wrapper: y = x + body(x). Requires body to preserve shape
/// (the paper's Colorectal CNN uses one residual connection). The
/// enclosing plan runs it as its own step: the body's plan, then the
/// serial skip-add.
class Residual : public Layer {
 public:
  explicit Residual(std::unique_ptr<Sequential> body);

  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;
  std::string name() const override { return "Residual"; }

  Residual* AsResidual() override { return this; }
  void SetFusionEnabled(bool enabled) override;

  Sequential* body() { return body_.get(); }

 private:
  std::unique_ptr<Sequential> body_;
};

/// Factory producing fresh, identically-structured models; each federated
/// worker instantiates its own copy and syncs parameters by flat vector.
using ModelFactory = std::function<std::unique_ptr<Sequential>()>;

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_SEQUENTIAL_H_
