// AVX-512 kernel table. Compiled with -mavx512f -mavx512dq
// -ffp-contract=off when the toolchain supports it; self-gated so the
// file compiles to a null table otherwise.
//
// The element-wise kernels and the GEMM tile widen to 512 bits, and the
// dot8 block kernel packs two 8-lane accumulators per zmm. The other
// pinned 8-lane reductions, the transpose, and the ziggurat batch kernel
// keep their AVX2 implementations: the fold width is fixed at 8 by the
// determinism contract, so a lone 16-lane dot would have to emulate the
// 8-lane tree anyway and wins nothing.

#include "common/simd_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include "common/simd_traits.h"
#endif

namespace dpbr {
namespace simd {

#if defined(__AVX512F__) && defined(__AVX512DQ__)

namespace {

using K8 = detail::Kernels8<detail::TraitsAvx512>;
using detail::Lanes8Avx2;

// gemm_nt_f32 with two dot8 accumulators per zmm: lanes 0..7 are output
// (i, j)'s fold lanes and lanes 8..15 output (i + 1, j)'s. Each p step
// packs the A row pair once for the block's columns and broadcasts each
// B row to both halves (a plain load), so a zmm multiply and add do the
// work of two ymm ones; no lane ever mixes two outputs, and each half
// runs exactly Avx2Dot8F32's sequence. The k % 8 tail is a masked
// multiply added into the live lanes only, and the folds run on the
// ymm halves through Lanes8Avx2::Fold4, so every output equals its
// dot8_f32 call bit for bit. P row pairs × C columns per block.
// Row i's fold lanes in the low half, row i + 1's in the high half.
inline __m512 PackPair(__m256 lo, __m256 hi) {
  return _mm512_insertf32x8(_mm512_zextps256_ps512(lo), hi, 1);
}

template <size_t P, size_t C>
void NtPairBlock(size_t k, const float* a, size_t lda, const float* b,
                 size_t ldb, float* c, size_t ldc, bool accumulate) {
  __m512 acc[P * C];  // pair q, column j at q·C + j
  for (size_t s = 0; s < P * C; ++s) acc[s] = _mm512_setzero_ps();
  size_t p = 0;
  for (; p + kFoldLanes <= k; p += kFoldLanes) {
    __m512 ap[P];
    for (size_t q = 0; q < P; ++q) {
      ap[q] = PackPair(_mm256_loadu_ps(a + 2 * q * lda + p),
                       _mm256_loadu_ps(a + (2 * q + 1) * lda + p));
    }
    for (size_t j = 0; j < C; ++j) {
      __m512 bj = _mm512_broadcast_f32x8(_mm256_loadu_ps(b + j * ldb + p));
      for (size_t q = 0; q < P; ++q) {
        acc[q * C + j] =
            _mm512_add_ps(acc[q * C + j], _mm512_mul_ps(ap[q], bj));
      }
    }
  }
  if (p < k) {
    Lanes8Avx2::Mask m8 = Lanes8Avx2::TailMask(k - p);
    __mmask16 half = static_cast<__mmask16>((1u << (k - p)) - 1u);
    __mmask16 m16 = static_cast<__mmask16>(half | (half << 8));
    __m512 ap[P];
    for (size_t q = 0; q < P; ++q) {
      ap[q] = PackPair(Lanes8Avx2::LoadTail(a + 2 * q * lda + p, m8),
                       Lanes8Avx2::LoadTail(a + (2 * q + 1) * lda + p, m8));
    }
    for (size_t j = 0; j < C; ++j) {
      __m512 bj =
          _mm512_broadcast_f32x8(Lanes8Avx2::LoadTail(b + j * ldb + p, m8));
      for (size_t q = 0; q < P; ++q) {
        acc[q * C + j] = _mm512_mask_add_ps(acc[q * C + j], m16,
                                            acc[q * C + j],
                                            _mm512_mul_ps(ap[q], bj));
      }
    }
  }
  // Row 2q + h of the block takes half h of pair q's accumulators.
  float d[2 * P * C];
  for (size_t q = 0; q < P; ++q) {
    for (size_t h = 0; h < 2; ++h) {
      __m256 halves[C];
      for (size_t j = 0; j < C; ++j) {
        // extractf32x8, not castps512_ps256: GCC's cast reads an
        // undefined passthrough and trips -Wuninitialized.
        halves[j] = h == 0 ? _mm512_extractf32x8_ps(acc[q * C + j], 0)
                           : _mm512_extractf32x8_ps(acc[q * C + j], 1);
      }
      float* row = d + (2 * q + h) * C;
      if constexpr (C == 4) {
        Lanes8Avx2::Fold4(halves, row);
      } else {
        for (size_t j = 0; j < C; ++j) {
          float lanes[kFoldLanes];
          _mm256_storeu_ps(lanes, halves[j]);
          row[j] = detail::FoldLanes8(lanes);
        }
      }
    }
  }
  for (size_t r = 0; r < 2 * P; ++r) {
    for (size_t j = 0; j < C; ++j) {
      float* out = c + r * ldc + j;
      *out = accumulate ? *out + d[r * C + j] : d[r * C + j];
    }
  }
}

template <size_t P>
void NtPairRows(size_t n, size_t k, const float* a, size_t lda,
                const float* b, size_t ldb, float* c, size_t ldc,
                bool accumulate) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    NtPairBlock<P, 4>(k, a, lda, b + j * ldb, ldb, c + j, ldc, accumulate);
  }
  for (; j < n; ++j) {
    NtPairBlock<P, 1>(k, a, lda, b + j * ldb, ldb, c + j, ldc, accumulate);
  }
}

// Blocks of 4 rows × 4 columns (16 outputs in eight zmm accumulators),
// then a row pair, then a last odd row on the AVX2 kernel's 1 × 4
// blocks (Linear's single-row forward runs there).
void Avx512GemmNtF32(size_t m, size_t n, size_t k, const float* a,
                     size_t lda, const float* b, size_t ldb, float* c,
                     size_t ldc, bool accumulate) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    NtPairRows<2>(n, k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                  accumulate);
  }
  for (; i + 2 <= m; i += 2) {
    NtPairRows<1>(n, k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                  accumulate);
  }
  if (i < m) {
    detail::Avx2Table()->gemm_nt_f32(m - i, n, k, a + i * lda, lda, b, ldb,
                                     c + i * ldc, ldc, accumulate);
  }
}

}  // namespace

const SimdKernels* detail::Avx512Table() {
  static const SimdKernels table = [] {
    SimdKernels t = *Avx2Table();  // non-null: this TU implies __AVX2__
    t.isa = IsaLevel::kAvx512;
    t.axpy_f32 = &K8::AxpyF32;
    t.im2col_f32 = &K8::Im2ColF32;
    t.col2im_f32 = &K8::Col2ImF32;
    t.gemm_acc_f32 = &K8::GemmAccF32;
    t.gemm_nt_f32 = &Avx512GemmNtF32;
    t.scale_f32 = &K8::ScaleF32;
    t.add_scalar_f32 = &K8::AddScalarF32;
    t.relu_f32 = &K8::ReluF32;
    t.relu_grad_f32 = &K8::ReluGradF32;
    t.elu_f32 = &K8::EluF32;
    t.elu_grad_f32 = &K8::EluGradF32;
    t.gnorm_norm_f32 = &K8::GNormNormF32;
    t.gnorm_dx_f32 = &K8::GNormDxF32;
    t.all_finite_f32 = &K8::AllFiniteF32;
    return t;
  }();
  return &table;
}

#else  // !(__AVX512F__ && __AVX512DQ__)

const SimdKernels* detail::Avx512Table() { return nullptr; }

#endif

}  // namespace simd
}  // namespace dpbr
