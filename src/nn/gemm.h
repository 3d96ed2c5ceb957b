// Register-blocked GEMM primitives, im2col/col2im, and the scratch
// arenas the nn compute layer runs on.
//
// Every kernel is deterministic under any thread-pool size: each output
// element accumulates its products in a fixed order chosen by the
// kernel, never by the schedule, and the one parallel kernel (GemmNN)
// splits work by the problem shape only. Calling the same kernel under
// pool sizes 1, 2 and N therefore yields bit-identical results (the
// contract tests/nn/kernel_equivalence_test.cc enforces).
//
// Layers call these kernels through a Workspace they own, so hot-loop
// invocations reuse grow-only scratch buffers instead of allocating.

#ifndef DPBR_NN_GEMM_H_
#define DPBR_NN_GEMM_H_

#include <cstddef>
#include <deque>
#include <vector>

namespace dpbr {
namespace nn {

/// Grow-only scratch-buffer arena. Each slot is a persistent buffer that
/// is resized (never shrunk) on request; repeated calls with the same
/// shapes perform no allocation and no clearing after the first — slots
/// whose every element the caller overwrites carry zero steady-state
/// cost. A Workspace belongs to exactly one layer instance and is not
/// thread-safe — layers already serve one example (or one microbatch) at
/// a time. Float and double slots live in independent index spaces.
class Workspace {
 public:
  /// Returns slot `slot` grown to hold at least `n` floats. The pointer
  /// is stable until the next Get() on the same slot with a larger `n`.
  float* Get(size_t slot, size_t n);

  /// Double-precision counterpart of Get() (e.g. GroupNorm's per-group
  /// 1/std, which the kernels compute in double).
  double* GetDouble(size_t slot, size_t n);

 private:
  std::deque<std::vector<float>> buffers_;
  std::deque<std::vector<double>> dbuffers_;
};

// --- Per-thread panel arena -----------------------------------------
//
// Conv2d's anchors and the fused-stage drivers stream transient
// per-example panels through per-thread grow-only scratch: one buffer
// per (thread, slot), reused across examples and dispatches, never
// shrunk. Panel contents never outlive the example that filled them, so
// the sharing cannot change any output bit. The slot map keeps nested
// callers disjoint — a fused driver panel is never the column panel a
// Conv2d anchor fills inside it.

/// Conv2d's column panel: the im2col matrix of the forward and of the
/// backward dW product, then the backward's dX column gradient (one
/// use at a time, each dead before the next fills it).
constexpr size_t kPanelSlotConvCol = 0;
/// Ping-pong activation panels of the fused forward driver
/// (nn::FusedStage), and gradient panels of the fused backward driver.
constexpr size_t kPanelSlotFusedFwdA = 1;
constexpr size_t kPanelSlotFusedFwdB = 2;
constexpr size_t kPanelSlotFusedBwdA = 3;
constexpr size_t kPanelSlotFusedBwdB = 4;

/// Returns the calling thread's panel `slot` grown to at least `n`
/// floats. Grow-only and thread-local: after warm-up no call allocates,
/// which is what lets dispatch bodies use it freely.
float* ThreadPanel(size_t slot, size_t n);

// --- GEMM ------------------------------------------------------------
//
// Every product runs through the active SIMD table's register-blocked
// kernels (common/simd.h): gemm_acc_f32 for the NN and TN layouts,
// gemm_nt_f32 for NT. Per element, the NN/TN value is its start value
// plus A(i,p)·B(p,j) added in ascending p (mul, then add), and the NT
// value is dot8_f32 of the two rows — so results never depend on the
// blocking, the pool size or the dispatch tier. The serial kernels run
// inside a stage's per-example task and never touch the pool.

/// C (m×n) = A (m×k) · B (k×n), all row-major. When `row_init` is
/// non-null, row i of C starts from the scalar row_init[i] (broadcast
/// across the row) instead of zero — Conv2d uses this to fold the bias
/// into the kernel the way the naive loop does. Accumulation per element
/// runs over p = 0..k-1 in ascending order (float accumulators, so the
/// result is reproducible but differs from a double-accumulated naive
/// loop in the last bits; the equivalence test bounds the gap at 1e-4).
/// Parallel over (row block, column tile) pairs split by shape only.
void GemmNN(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, const float* row_init = nullptr);

/// Serial GemmNN: the same per-element values, bit for bit, on the
/// calling thread. Conv2d's forward (weights · im2col panel) and
/// Linear's dX row (m = 1).
void GemmNNSerial(size_t m, size_t k, size_t n, const float* a,
                  const float* b, float* c, const float* row_init = nullptr);

/// Serial C (m×n) (+)= A (m×k) · Bᵀ for row-major B (n×k). Each element
/// is dot8_f32 of two unit-stride rows — eight fixed interleaved partial
/// sums (lane l takes p ≡ l mod 8) combined in a fixed tree — added onto
/// C when `accumulate`. Conv2d's dW (gy · im2colᵀ onto the example's
/// PerExampleGradSink row) and Linear's forward row (m = 1).
void GemmNTSerial(size_t m, size_t k, size_t n, const float* a,
                  const float* b, float* c, bool accumulate = false);

/// Serial C (m×n) = Aᵀ · B for row-major A (k×m) and B (k×n), ascending-p
/// accumulation from zero like GemmNN. Conv2d's column-space dX panel
/// (Wᵀ · gy), which Col2ImAccumulate then scatters.
void GemmTNSerial(size_t m, size_t k, size_t n, const float* a,
                  const float* b, float* c);

/// Expands a (C, H, W) image into the (C·kh·kw) × (OH·OW) column matrix
/// of a stride-1, symmetrically zero-padded convolution. Row r encodes
/// (ic, kh, kw) in row-major order; column q encodes (oh, ow). Out-of-
/// bounds taps are written as 0.
void Im2Col(const float* x, size_t channels, size_t h, size_t w,
            size_t kernel, size_t pad, float* col);


/// Scatter-adds a column-matrix gradient back onto the (C, H, W) image
/// gradient: the exact adjoint of Im2Col. `dx` must be pre-zeroed (or
/// hold a partial gradient to accumulate onto). Serial — it runs inside
/// a stage's per-example task — and one col2im_f32 kernel call: every
/// dx element takes its contributions in (kh, kw) tap order.
void Col2ImAccumulate(const float* col, size_t channels, size_t h, size_t w,
                      size_t kernel, size_t pad, float* dx);

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_GEMM_H_
