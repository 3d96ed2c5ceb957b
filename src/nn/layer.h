// The layer contract: per-example hooks, driven by nn::FusionPlan.
//
// The DP protocol (Algorithm 1) clips each example's gradient, so the nn
// stack has one production job: run a microbatch forward and write every
// example's parameter gradient to its own row of a (batch × d) sink. A
// layer implements that job exactly once, as the per-example hooks
// below, and nn::FusionPlan (nn/fusion.h) is their only driver. The plan
// folds a Sequential's layers into groups and stages and runs each stage
// as ONE dispatch over examples; the task for example ex calls the hooks
// for ex only. A lone layer runs as a one-group stage, so disabling
// fusion changes how layers are grouped, never which code runs.
//
// Each leaf layer advertises one role (FusionInfo):
//   * an anchor maps an example's input block to its output block and
//     owns the group's kernel (Conv2d, Linear, AdaptiveAvgPool2d);
//   * an epilogue transforms the block in place and keeps its element
//     count (ELU, ReLU, GroupNorm, and Flatten, which maps the shape
//     only).
// A group is an optional anchor followed by epilogues; a group without
// an anchor starts from a copy of its input block.
//
// Cached state: the serial prepare hooks size each layer's grow-only
// caches for the whole microbatch and record the input shape in a
// BatchState; the in-dispatch hooks read and write only their example's
// slices. A layer instance serves one microbatch at a time (each
// federated worker owns a private model copy), and a backward with no
// forward behind it fails loudly instead of reading stale caches.

#ifndef DPBR_NN_LAYER_H_
#define DPBR_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/rng.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace nn {

class Residual;
class Sequential;

/// Shape record for a layer's cached forward state.
///
/// Each forward prepare records its batched input shape; each backward
/// prepare reads it back to re-derive the geometry of the caches it
/// consumes. A backward before any forward DPBR_CHECK-fails loudly
/// instead of reading uninitialized caches.
class BatchState {
 public:
  /// Records a forward; `shape`'s leading dimension is the batch.
  void SetBatched(const std::vector<size_t>& shape) { shape_ = shape; }

  /// Returns the recorded shape (dim 0 = batch size); fails fatally
  /// (naming `layer`) when no forward has run.
  const std::vector<size_t>& RequireBatched(const char* layer) const;

 private:
  // Empty until the first forward; assigned (not reallocated, after the
  // first call of equal rank) each forward.
  std::vector<size_t> shape_;
};

/// Mutable view into one parameter tensor.
struct ParamView {
  float* value = nullptr;
  size_t size = 0;
};

/// Destination for per-example parameter gradients during a backward.
/// Example j's gradient for this layer's parameter p lands at
/// base[j * stride + offset + p]; rows must be zeroed by the caller
/// before the backward pass (layers accumulate into them).
///
/// Row ownership: layers write sink rows from inside a stage's backward
/// dispatch, where the task handling example j owns row j exclusively
/// (examples are split across tasks by the shape only, and no two
/// examples share a row), so the writes are race-free and the row
/// contents are independent of the pool size — the TSan-tier case in
/// tests/aggregators/determinism_test.cc pins this.
struct PerExampleGradSink {
  float* base = nullptr;
  size_t stride = 0;  ///< model dimension d
  size_t offset = 0;  ///< first flat-parameter coordinate of this layer

  float* Slot(size_t example) const { return base + example * stride + offset; }

  /// The same sink shifted to a sublayer whose parameters start
  /// `delta` coordinates further into the flat vector.
  PerExampleGradSink Shifted(size_t delta) const {
    return {base, stride, offset + delta};
  }
};

/// One post-op applied to an example's output block while cache-hot:
/// op(ex, block) transforms example `ex`'s block in place. Non-owning
/// (FunctionRef) — callables live in a stable side array for the
/// duration of the stage.
using EpilogueOp = FunctionRef<void(size_t ex, float* block)>;

/// The ordered epilogues of one group, which an anchor applies to its
/// output block right after computing it. A default-constructed chain is
/// empty.
struct EpilogueChain {
  const EpilogueOp* ops = nullptr;
  size_t count = 0;

  void Apply(size_t ex, float* block) const {
    for (size_t i = 0; i < count; ++i) ops[i](ex, block);
  }
};

/// A layer's role in a group (see the header comment). Containers and
/// Residual advertise neither; the planner looks through them.
struct FusionInfo {
  bool anchor = false;    ///< starts a group (Conv2d, Linear, pooling)
  bool epilogue = false;  ///< in-place post-op (ELU, ReLU, GN, Flatten)
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  // --- execution hooks (driven by nn::FusionPlan) ----------------------
  //
  // All hooks default to a fatal error; layers implement exactly the
  // subset their fusion_info() advertises. Prepare hooks run serially
  // before the stage dispatch (the only place workspace may grow); the
  // per-example hooks run inside the dispatch, one call per example,
  // and must therefore neither allocate nor touch shared mutable state
  // outside their example's slices.

  /// This layer's role ({} = a container, never executed directly).
  virtual FusionInfo fusion_info() const { return {}; }

  /// Serial: asserts the per-example input shape, grows caches for
  /// `batch` examples, records the batched state. Returns the
  /// per-example output shape (an epilogue's keeps the element count).
  virtual std::vector<size_t> FuseForwardPrepare(
      size_t batch, const std::vector<size_t>& in_shape);

  /// Anchor, in-dispatch: full per-example forward from `x` (this
  /// example's input slice or panel) into `y` (its output slice or
  /// panel), then applies `chain` to the output block while cache-hot.
  virtual void FuseForwardAnchor(size_t ex, const float* x, float* y,
                                 EpilogueChain chain);

  /// Epilogue, in-dispatch: in-place post-op on example ex's block
  /// (size = the group's per-example output size), caching whatever its
  /// backward needs at example ex's offsets.
  virtual void FuseForwardEpilogue(size_t ex, float* block);

  /// Serial, before the backward dispatch (reverse layer order):
  /// asserts a forward has run and re-derives the cache geometry.
  virtual void FuseBackwardPrepare();

  /// Epilogue, in-dispatch: in-place transform of example ex's gradient
  /// block (dL/d(output) → dL/d(input) of this layer), accumulating any
  /// parameter gradient into `sink` row ex (sink pre-shifted to this
  /// layer).
  virtual void FuseBackwardEpilogue(size_t ex, float* block,
                                    const PerExampleGradSink& sink);

  /// Anchor, in-dispatch: per-example backward — parameter gradients
  /// into `sink` row ex, input gradient written to `gx` (fully
  /// overwritten; callers need not pre-zero).
  virtual void FuseBackwardAnchor(size_t ex, const float* gy, float* gx,
                                  const PerExampleGradSink& sink);

  // --- structure --------------------------------------------------------

  /// Containers the planner flattens return themselves.
  virtual Sequential* AsSequential() { return nullptr; }

  /// A Residual returns itself: the planner runs it as its own step.
  virtual Residual* AsResidual() { return nullptr; }

  /// Enables/disables stage fusion in this layer and every container it
  /// owns (Sequential and Residual propagate; leaves ignore it).
  virtual void SetFusionEnabled(bool /*enabled*/) {}

  /// Views over this layer's parameters (empty for stateless layers).
  virtual std::vector<ParamView> Params() { return {}; }

  /// Initializes parameters (weights: layer-appropriate scheme; biases: 0).
  virtual void InitParams(SplitRng* /*rng*/) {}

  /// Total number of scalar parameters.
  size_t NumParams();

  virtual std::string name() const = 0;

 protected:
  /// Asserts a forward has run (naming this layer) and returns its
  /// recorded input shape (dim 0 = batch).
  const std::vector<size_t>& RequireBatchedState() const;

  /// The input shape the last forward prepare recorded.
  BatchState state_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LAYER_H_
