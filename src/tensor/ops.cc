#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/simd.h"

namespace dpbr {
namespace ops {

void Axpy(float alpha, const float* x, float* y, size_t n) {
  simd::Kernels().axpy_f32(alpha, x, y, n);
}

void Scale(float alpha, float* x, size_t n) {
  simd::Kernels().scale_f32(alpha, x, n);
}

double Dot(const float* x, const float* y, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]) * y[i];
  return s;
}

double SquaredNorm(const float* x, size_t n) { return Dot(x, x, n); }

double Norm(const float* x, size_t n) { return std::sqrt(SquaredNorm(x, n)); }

double NormalizeInPlace(float* x, size_t n, double eps) {
  double nrm = Norm(x, n);
  double denom = std::max(nrm, eps);
  float inv = static_cast<float>(1.0 / denom);
  Scale(inv, x, n);
  return nrm;
}

void MatVec(const float* a, const float* x, float* out, size_t rows,
            size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    const float* row = a + r * cols;
    for (size_t c = 0; c < cols; ++c) s += static_cast<double>(row[c]) * x[c];
    out[r] = static_cast<float>(s);
  }
}

void MatVecTransposed(const float* a, const float* x, float* out, size_t rows,
                      size_t cols) {
  // out (1×cols) = x (1×rows) · A: one tile-kernel row from zero.
  simd::Kernels().gemm_acc_f32(1, cols, rows, x, rows, 1, a, cols, out, cols,
                               nullptr, /*accumulate=*/false);
}

void Ger(float alpha, const float* u, const float* v, float* a, size_t rows,
         size_t cols) {
  // A k = 1 tile product onto A, with the left column alpha·u[r] formed
  // per chunk of rows exactly as the scalar multiply it always was.
  constexpr size_t kChunk = 64;
  float scaled[kChunk];
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t r0 = 0; r0 < rows; r0 += kChunk) {
    size_t nr = std::min(kChunk, rows - r0);
    for (size_t r = 0; r < nr; ++r) scaled[r] = alpha * u[r0 + r];
    kern.gemm_acc_f32(nr, cols, 1, scaled, 1, 1, v, cols, a + r0 * cols, cols,
                      nullptr, /*accumulate=*/true);
  }
}

void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  simd::Kernels().gemm_acc_f32(m, n, k, a, k, 1, b, n, c, n, nullptr,
                               /*accumulate=*/false);
}

std::vector<float> Add(const std::vector<float>& x,
                       const std::vector<float>& y) {
  DPBR_CHECK_EQ(x.size(), y.size());
  std::vector<float> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
  return out;
}

std::vector<float> Sub(const std::vector<float>& x,
                       const std::vector<float>& y) {
  DPBR_CHECK_EQ(x.size(), y.size());
  std::vector<float> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y[i];
  return out;
}

std::vector<float> Scaled(const std::vector<float>& x, float alpha) {
  std::vector<float> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = alpha * x[i];
  return out;
}

double Dot(const std::vector<float>& x, const std::vector<float>& y) {
  DPBR_CHECK_EQ(x.size(), y.size());
  return Dot(x.data(), y.data(), x.size());
}

double Norm(const std::vector<float>& x) { return Norm(x.data(), x.size()); }

double CosineSimilarity(const std::vector<float>& x,
                        const std::vector<float>& y) {
  double nx = Norm(x), ny = Norm(y);
  if (nx == 0.0 || ny == 0.0) return 0.0;
  return Dot(x, y) / (nx * ny);
}

}  // namespace ops
}  // namespace dpbr
