#include "nn/gemm.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace nn {
namespace {

// Rows of C handled by one GemmNN task. Derived from nothing but this
// constant and m, so the work split is independent of the pool size.
constexpr size_t kRowBlock = 8;

// Column-tile width of GemmNN's second split axis. Tiling never touches
// an element's accumulation order (the tile kernel holds C in registers
// across the whole p loop either way), so results are unchanged; it only
// adds parallelism for wide outputs.
constexpr size_t kColTileNN = 1024;

}  // namespace

float* ThreadPanel(size_t slot, size_t n) {
  // One grow-only arena per thread (tasks run inline or on distinct pool
  // workers, so slots are never shared across concurrent tasks). Growth
  // happens only until the high-water mark of each slot is reached;
  // steady-state calls are a lookup. The allocation lives here, outside
  // any dispatch body's text, which is the structure the hot-path lint
  // enforces: call sites inside ParallelFor bodies perform none.
  static thread_local std::deque<std::vector<float>> panels;
  while (panels.size() <= slot) panels.emplace_back();
  std::vector<float>& p = panels[slot];
  if (p.size() < n) p.resize(n);
  return p.data();
}

float* Workspace::Get(size_t slot, size_t n) {
  while (buffers_.size() <= slot) buffers_.emplace_back();
  std::vector<float>& buf = buffers_[slot];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

double* Workspace::GetDouble(size_t slot, size_t n) {
  while (dbuffers_.size() <= slot) dbuffers_.emplace_back();
  std::vector<double>& buf = dbuffers_[slot];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

void GemmNN(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, const float* row_init) {
  if (m == 0 || n == 0) return;
  // 2-d work split: tasks are (row block, column tile) pairs, derived
  // from (m, n) and compile-time constants only — never the pool size.
  size_t col_tiles = (n + kColTileNN - 1) / kColTileNN;
  size_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
  const simd::SimdKernels& kern = simd::Kernels();
  ParallelForBlocked(row_blocks * col_tiles, 1, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      size_t i0 = (t / col_tiles) * kRowBlock;
      size_t j0 = (t % col_tiles) * kColTileNN;
      kern.gemm_acc_f32(std::min(kRowBlock, m - i0),
                        std::min(kColTileNN, n - j0), k, a + i0 * k, k, 1,
                        b + j0, n, c + i0 * n + j0, n,
                        row_init != nullptr ? row_init + i0 : nullptr,
                        /*accumulate=*/false);
    }
  });
}

void GemmNNSerial(size_t m, size_t k, size_t n, const float* a,
                  const float* b, float* c, const float* row_init) {
  simd::Kernels().gemm_acc_f32(m, n, k, a, k, 1, b, n, c, n, row_init,
                               /*accumulate=*/false);
}

void GemmNTSerial(size_t m, size_t k, size_t n, const float* a,
                  const float* b, float* c, bool accumulate) {
  simd::Kernels().gemm_nt_f32(m, n, k, a, k, b, k, c, n, accumulate);
}

void GemmTNSerial(size_t m, size_t k, size_t n, const float* a,
                  const float* b, float* c) {
  // A is (k×m), so A(i,p) = a[p·m + i]: row stride 1, column stride m.
  simd::Kernels().gemm_acc_f32(m, n, k, a, 1, m, b, n, c, n, nullptr,
                               /*accumulate=*/false);
}

void Im2Col(const float* x, size_t channels, size_t h, size_t w,
            size_t kernel, size_t pad, float* col) {
  DPBR_CHECK_GE(h + 2 * pad + 1, kernel);
  DPBR_CHECK_GE(w + 2 * pad + 1, kernel);
  simd::Kernels().im2col_f32(x, channels, h, w, kernel, pad, col);
}

void Col2ImAccumulate(const float* col, size_t channels, size_t h, size_t w,
                      size_t kernel, size_t pad, float* dx) {
  simd::Kernels().col2im_f32(col, channels, h, w, kernel, pad, dx);
}

}  // namespace nn
}  // namespace dpbr
