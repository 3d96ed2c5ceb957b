// Stage execution: the one driver of the layer hooks (nn/layer.h). It
// runs every batched forward and backward, so a whole CNN local step
// costs a handful of pool barriers per microbatch instead of one per
// layer.
//
// A *group* is an optional anchor layer (Conv2d, Linear,
// AdaptiveAvgPool2d — the layer that maps the example's block to a new
// block) followed by zero or more epilogue layers (ELU, ReLU, GroupNorm,
// Flatten — in-place post-ops applied to the anchor's output block while
// it is still cache-hot in the producing thread). A group without an
// anchor starts from a copy of its input block. A *stage* is a run of
// consecutive groups executed as ONE ParallelFor dispatch per direction:
// each example's task walks its groups in order, streaming intermediate
// activations through per-thread ping-pong panels (ThreadPanel slots
// kPanelSlotFusedFwd*/Bwd*) that never leave the thread. A Residual is a
// plan step of its own: its body's plan, then the serial skip-add
// (stages do not cross the residual boundary).
//
// Grouping: with fusion on, each anchor opens a group that absorbs the
// epilogues after it, a leading epilogue opens an anchor-less group, and
// all groups between residual boundaries form one stage. With fusion
// off, every layer is its own one-group stage. Both settings run the
// same hooks on the same per-example data, so they are bitwise equal;
// only the dispatch count differs.
//
// Determinism: examples are split across tasks by the shape only, and
// each task runs its example's hooks in layer order on that example's
// slices, so every result is bitwise independent of the pool size and
// of the batch an example sits in.
//
// The plan is an execution overlay over Sequential: it never
// restructures `layers_` (parameter offsets, InitParams streams and the
// flat-vector bridge are untouched), it only decides how the batched
// passes traverse them. Nested Sequential containers are flattened into
// the parent plan so stages cross block boundaries.

#ifndef DPBR_NN_FUSION_H_
#define DPBR_NN_FUSION_H_

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// A run of groups executed as one dispatch per direction.
class FusedStage {
 public:
  /// One planned layer: the layer plus its flat-parameter offset from
  /// the plan root (PerExampleGradSink rows are addressed through it).
  struct Item {
    Layer* layer = nullptr;
    size_t offset = 0;
  };

  /// An optional anchor (layer == nullptr: none) plus its trailing
  /// epilogue layers.
  struct Group {
    Item anchor;
    std::vector<Item> epilogues;
  };

  explicit FusedStage(std::vector<Group> groups);

  /// Whole-stage forward: serial per-layer prepare hooks (the only place
  /// workspace may grow), then one dispatch over examples.
  Tensor ForwardBatch(const Tensor& x);

  /// Whole-stage backward; requires this stage's ForwardBatch to have
  /// prepared the geometry. With `zero_rows`, each example's whole sink
  /// row (sink.stride floats) is zeroed inside that example's task
  /// before anything accumulates into it, so the thread that fills a row
  /// is the one that cleared it.
  Tensor BackwardBatch(const Tensor& grad_out, const PerExampleGradSink& sink,
                       bool zero_rows = false);

 private:
  // Stable bound callable an EpilogueOp (FunctionRef) can point at for
  // the lifetime of the stage.
  struct EpilogueCall {
    Layer* layer = nullptr;
    void operator()(size_t ex, float* block) const {
      layer->FuseForwardEpilogue(ex, block);
    }
  };

  EpilogueChain chain(size_t group) const {
    return {fwd_ops_.data() + chain_start_[group], chain_count_[group]};
  }

  std::vector<Group> groups_;
  // Forward epilogue chains: one contiguous op array, per-group slices.
  // calls_ owns the bound callables; fwd_ops_ borrows them (FunctionRef),
  // so neither vector may be touched after construction.
  std::vector<EpilogueCall> calls_;
  std::vector<EpilogueOp> fwd_ops_;
  std::vector<size_t> chain_start_;
  std::vector<size_t> chain_count_;

  // Geometry recorded by the last ForwardBatch (serial prepare phase),
  // consumed by BackwardBatch.
  bool prepared_ = false;
  size_t batch_ = 0;
  size_t in_stride_ = 0;   // per-example input floats
  size_t out_stride_ = 0;  // per-example output floats
  std::vector<size_t> group_out_size_;  // per-example, per group
  std::vector<size_t> in_shape_;        // full (batch-leading) shapes
  std::vector<size_t> out_shape_;
};

/// Execution plan for one Sequential: an ordered list of steps, each a
/// FusedStage or a residual block.
class FusionPlan {
 public:
  /// Builds the plan for `root`, whose parameters start at flat offset
  /// `base_offset` of the gradient sink rows: flattens nested Sequential
  /// containers, plans each Residual body as its own sub-plan, and
  /// groups the remaining layers as the header comment describes
  /// (`fuse` selects fused or one-stage-per-layer grouping).
  static std::unique_ptr<FusionPlan> Build(Sequential* root, bool fuse,
                                           size_t base_offset = 0);

  Tensor ForwardBatch(const Tensor& x);
  /// Backward through every step in reverse; `zero_rows` goes to the
  /// first stage that runs (see FusedStage::BackwardBatch).
  Tensor BackwardBatch(const Tensor& grad_out, const PerExampleGradSink& sink,
                       bool zero_rows = false);

 private:
  struct Step {
    // Exactly one of the two is set.
    std::unique_ptr<FusedStage> stage;
    std::unique_ptr<FusionPlan> residual_body;  // y = x + body(x)
  };

  std::vector<Step> steps_;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_FUSION_H_
