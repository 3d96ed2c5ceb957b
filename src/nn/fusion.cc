#include "nn/fusion.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/sequential.h"

namespace dpbr {
namespace nn {
namespace {

size_t Product(const std::vector<size_t>& dims, size_t from = 0) {
  size_t p = 1;
  for (size_t i = from; i < dims.size(); ++i) p *= dims[i];
  return p;
}

}  // namespace

FusedStage::FusedStage(std::vector<Group> groups)
    : groups_(std::move(groups)) {
  DPBR_CHECK(!groups_.empty());
  // Bind every epilogue once, up front: fwd_ops_ entries are FunctionRef
  // borrows into calls_, so both vectors are sized exactly here and
  // never touched again.
  size_t total = 0;
  for (const Group& g : groups_) total += g.epilogues.size();
  calls_.reserve(total);
  fwd_ops_.reserve(total);
  chain_start_.reserve(groups_.size());
  chain_count_.reserve(groups_.size());
  for (const Group& g : groups_) {
    chain_start_.push_back(calls_.size());
    chain_count_.push_back(g.epilogues.size());
    for (const Item& ep : g.epilogues) calls_.push_back(EpilogueCall{ep.layer});
  }
  for (const EpilogueCall& c : calls_) fwd_ops_.push_back(EpilogueOp(c));
}

Tensor FusedStage::ForwardBatch(const Tensor& x) {
  DPBR_CHECK_GE(x.ndim(), 2u);
  batch_ = x.dim(0);
  DPBR_CHECK_GT(batch_, 0u);
  in_shape_ = x.shape();
  in_stride_ = Product(in_shape_, 1);

  // Serial prepare sweep: every layer asserts its input shape, grows its
  // caches for `batch_` examples and records its batched state — the
  // only phase in which any Workspace may grow. Epilogues work in place,
  // so they must keep the per-example element count.
  std::vector<size_t> shape(in_shape_.begin() + 1, in_shape_.end());
  group_out_size_.clear();
  for (const Group& g : groups_) {
    if (g.anchor.layer != nullptr) {
      shape = g.anchor.layer->FuseForwardPrepare(batch_, shape);
    }
    for (const Item& ep : g.epilogues) {
      size_t n = Product(shape);
      shape = ep.layer->FuseForwardPrepare(batch_, shape);
      DPBR_CHECK_EQ(Product(shape), n);
    }
    group_out_size_.push_back(Product(shape));
  }
  out_stride_ = group_out_size_.back();
  out_shape_.assign(1, batch_);
  out_shape_.insert(out_shape_.end(), shape.begin(), shape.end());
  prepared_ = true;

  Tensor y(out_shape_);
  const float* xd = x.data();
  float* yd = y.data();
  size_t max_inter = 0;
  for (size_t g = 0; g + 1 < group_out_size_.size(); ++g) {
    if (group_out_size_[g] > max_inter) max_inter = group_out_size_[g];
  }
  size_t ngroups = groups_.size();
  // ONE dispatch over examples; each example walks its groups serially,
  // intermediates ping-pong between two per-thread panels and never
  // leave the thread.
  ParallelForBlocked(batch_, 1, [&](size_t e0, size_t e1) {
    float* pa =
        max_inter ? ThreadPanel(kPanelSlotFusedFwdA, max_inter) : nullptr;
    float* pb =
        max_inter ? ThreadPanel(kPanelSlotFusedFwdB, max_inter) : nullptr;
    for (size_t ex = e0; ex < e1; ++ex) {
      const float* cur = xd + ex * in_stride_;
      for (size_t g = 0; g < ngroups; ++g) {
        float* out = (g + 1 == ngroups) ? yd + ex * out_stride_
                                        : ((g % 2 != 0) ? pb : pa);
        Layer* anchor = groups_[g].anchor.layer;
        if (anchor != nullptr) {
          anchor->FuseForwardAnchor(ex, cur, out, chain(g));
        } else {
          std::memcpy(out, cur, group_out_size_[g] * sizeof(float));
          chain(g).Apply(ex, out);
        }
        cur = out;
      }
    }
  });
  return y;
}

Tensor FusedStage::BackwardBatch(const Tensor& grad_out,
                                 const PerExampleGradSink& sink,
                                 bool zero_rows) {
  if (!prepared_) {
    DPBR_LOG_STREAM(Fatal)
        << "cached-state contract violated — stage backward, but no "
           "forward has run on this stage (or fusion was toggled between "
           "the passes)";
  }
  DPBR_CHECK(grad_out.shape() == out_shape_);

  // Serial prepare sweep in reverse layer order: each layer re-asserts
  // its batched state and re-stashes its cache pointers.
  for (size_t g = groups_.size(); g-- > 0;) {
    const Group& grp = groups_[g];
    for (size_t e = grp.epilogues.size(); e-- > 0;) {
      grp.epilogues[e].layer->FuseBackwardPrepare();
    }
    if (grp.anchor.layer != nullptr) grp.anchor.layer->FuseBackwardPrepare();
  }

  Tensor dx(in_shape_);
  const float* gyd = grad_out.data();
  float* dxd = dx.data();
  size_t max_panel = 0;
  for (size_t s : group_out_size_) {
    if (s > max_panel) max_panel = s;
  }
  size_t ngroups = groups_.size();
  // ONE dispatch over examples. Per example, groups run in reverse: the
  // group's epilogues transform the gradient in place on a panel copy
  // (streaming their per-example parameter gradients into their own sink
  // columns), then the anchor, if any, consumes it.
  ParallelForBlocked(batch_, 1, [&](size_t e0, size_t e1) {
    float* pa = ThreadPanel(kPanelSlotFusedBwdA, max_panel);
    float* pb = ThreadPanel(kPanelSlotFusedBwdB, max_panel);
    for (size_t ex = e0; ex < e1; ++ex) {
      if (zero_rows) {
        std::fill_n(sink.base + ex * sink.stride, sink.stride, 0.0f);
      }
      const float* curg = gyd + ex * out_stride_;
      const float* cur_buf = nullptr;  // which panel curg lives in, if any
      for (size_t g = ngroups; g-- > 0;) {
        const Group& grp = groups_[g];
        // The epilogues' working copy; without an anchor it is also the
        // group's input gradient.
        float* work = (grp.anchor.layer == nullptr && g == 0)
                          ? dxd + ex * in_stride_
                          : ((cur_buf == pa) ? pb : pa);
        const float* src = curg;
        if (!grp.epilogues.empty() || grp.anchor.layer == nullptr) {
          std::memcpy(work, curg, group_out_size_[g] * sizeof(float));
          for (size_t e = grp.epilogues.size(); e-- > 0;) {
            const Item& ep = grp.epilogues[e];
            ep.layer->FuseBackwardEpilogue(ex, work, sink.Shifted(ep.offset));
          }
          src = work;
        }
        float* gx = work;
        if (grp.anchor.layer != nullptr) {
          gx = (g == 0) ? dxd + ex * in_stride_ : ((src == pa) ? pb : pa);
          grp.anchor.layer->FuseBackwardAnchor(
              ex, src, gx, sink.Shifted(grp.anchor.offset));
        }
        curg = gx;
        cur_buf = (g == 0) ? nullptr : gx;
      }
    }
  });
  return dx;
}

namespace {

// Flattens `seq` (recursing through nested Sequential containers, which
// only add structure, never computation) into (layer, absolute flat-
// parameter offset) items.
void FlattenInto(Sequential* seq, size_t base_offset,
                 std::vector<FusedStage::Item>* items) {
  for (size_t i = 0; i < seq->num_layers(); ++i) {
    Layer* l = seq->layer(i);
    size_t off = base_offset + seq->param_offset(i);
    if (Sequential* sub = l->AsSequential()) {
      FlattenInto(sub, off, items);
    } else {
      items->push_back({l, off});
    }
  }
}

}  // namespace

std::unique_ptr<FusionPlan> FusionPlan::Build(Sequential* root, bool fuse,
                                              size_t base_offset) {
  DPBR_CHECK(root != nullptr);
  std::vector<FusedStage::Item> items;
  FlattenInto(root, base_offset, &items);
  DPBR_CHECK(!items.empty());

  auto plan = std::unique_ptr<FusionPlan>(new FusionPlan());
  std::vector<FusedStage::Group> groups;  // the stage being collected
  auto close_stage = [&] {
    if (groups.empty()) return;
    Step s;
    s.stage = std::make_unique<FusedStage>(std::move(groups));
    plan->steps_.push_back(std::move(s));
    groups.clear();
  };
  for (const FusedStage::Item& item : items) {
    if (Residual* r = item.layer->AsResidual()) {
      close_stage();
      Step s;
      s.residual_body = Build(r->body(), fuse, item.offset);
      plan->steps_.push_back(std::move(s));
      continue;
    }
    FusionInfo role = item.layer->fusion_info();
    if (!role.anchor && !role.epilogue) {
      DPBR_LOG_STREAM(Fatal) << item.layer->name()
                             << " has no stage role (anchor or epilogue)";
    }
    if (!fuse) close_stage();
    if (role.anchor || groups.empty() || !fuse) {
      FusedStage::Group g;
      if (role.anchor) {
        g.anchor = item;
      } else {
        g.epilogues.push_back(item);
      }
      groups.push_back(std::move(g));
    } else {
      groups.back().epilogues.push_back(item);
    }
  }
  close_stage();
  return plan;
}

Tensor FusionPlan::ForwardBatch(const Tensor& x) {
  const Tensor* in = &x;
  Tensor h;
  for (Step& s : steps_) {
    if (s.stage) {
      h = s.stage->ForwardBatch(*in);
    } else {
      Tensor y = s.residual_body->ForwardBatch(*in);
      DPBR_CHECK(y.SameShape(*in));
      for (size_t i = 0; i < y.size(); ++i) y[i] += (*in)[i];
      h = std::move(y);
    }
    in = &h;
  }
  return h;
}

Tensor FusionPlan::BackwardBatch(const Tensor& grad_out,
                                 const PerExampleGradSink& sink,
                                 bool zero_rows) {
  const Tensor* in = &grad_out;
  Tensor g;
  for (size_t i = steps_.size(); i-- > 0;) {
    Step& s = steps_[i];
    // Only the first step to run clears the rows; later ones accumulate.
    bool zero = zero_rows && i + 1 == steps_.size();
    if (s.stage) {
      g = s.stage->BackwardBatch(*in, sink, zero);
    } else {
      Tensor dx = s.residual_body->BackwardBatch(*in, sink, zero);
      DPBR_CHECK(dx.SameShape(*in));
      for (size_t j = 0; j < dx.size(); ++j) dx[j] += (*in)[j];
      g = std::move(dx);
    }
    in = &g;
  }
  return g;
}

}  // namespace nn
}  // namespace dpbr
