// Width-templated intrinsic traits and the generic kernels built on them.
//
// Included ONLY by the per-ISA translation units (simd_avx2.cc,
// simd_avx512.cc), each compiled with exactly the -m flags its trait
// needs; simd.h stays intrinsic-free. Every trait exposes the same
// static interface:
//
//   VF / kF        native float vector type / lane count
//   VD / kD        native double vector type / lane count (kD = kF / 2)
//   MF             float compare-mask type (vector or AVX-512 k-mask)
//   MT             lane-mask type for partial vectors
//   Set1F/LoadF/StoreF/AddF/SubF/MulF        float vector ops (never FMA)
//   Set1D/AddD/SubD/MulD                     double vector ops
//   CvtLoF2D/CvtHiF2D/CvtD2F                 float<->double widen/narrow
//   CmpLtZeroF/CmpLeZeroF/CmpEqZeroF         ordered compares vs 0
//   ZeroWhere/SelectF                        mask-driven blends
//   AllGtZeroF/AllFiniteF                    whole-vector predicates
//   TailMask/LaneRange                       lane masks,
//   LoadTailF/StoreTailF/AddWhere            masked load/store, an add
//   ExpandLoadF                              on the masked lanes only,
//                                            and a load into a lane range
//
// Kernels8<Traits> then implements the element-wise kernel bodies and
// the register-blocked GEMM tile once. The chained reductions (pinned
// 8-lane folds) and the ziggurat batch kernel are hand-written per ISA
// in their translation units because their shape is width-specific by
// definition; GemmNt8 blocks the AVX2 8-lane accumulator into the
// dot-product GEMM kernel.
//
// All kernels handle arbitrary n: full vectors in the main loop, then a
// masked partial vector or a scalar tail that never reads or writes past
// index n-1 (the equivalence suite runs exact-sized heap buffers under
// ASan to enforce this). Lanes never interact in the element-wise and
// tile kernels, so a masked tail computes the same bits as a scalar one.

#ifndef DPBR_COMMON_SIMD_TRAITS_H_
#define DPBR_COMMON_SIMD_TRAITS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/simd.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dpbr {
namespace simd {
namespace detail {

#if defined(__AVX2__)

struct TraitsAvx2 {
  using VF = __m256;
  using VD = __m256d;
  using MF = __m256;
  using MT = __m256i;
  static constexpr size_t kF = 8;
  static constexpr size_t kD = 4;

  static VF Set1F(float a) { return _mm256_set1_ps(a); }
  static VF LoadF(const float* p) { return _mm256_loadu_ps(p); }
  static void StoreF(float* p, VF v) { _mm256_storeu_ps(p, v); }
  static MT TailMask(size_t rem) { return LaneRange(0, rem); }
  // Lanes lo <= l < hi.
  static MT LaneRange(size_t lo, size_t hi) {
    __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lo)), lane),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi)), lane));
  }
  // acc + v on the lanes of m; the other lanes keep acc unchanged.
  static VF AddWhere(MT m, VF acc, VF v) {
    return _mm256_blendv_ps(acc, _mm256_add_ps(acc, v),
                            _mm256_castsi256_ps(m));
  }
  // Lanes lo <= l < hi take p[0], p[1], ..., the others +0 (an
  // expand-load; AVX2 loads the prefix and permutes it into place).
  static VF ExpandLoadF(const float* p, size_t lo, size_t hi) {
    __m256 v = _mm256_maskload_ps(p, LaneRange(0, hi - lo));
    __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256 moved = _mm256_permutevar8x32_ps(
        v, _mm256_sub_epi32(lane, _mm256_set1_epi32(static_cast<int>(lo))));
    return _mm256_and_ps(moved, _mm256_castsi256_ps(LaneRange(lo, hi)));
  }
  static VF LoadTailF(const float* p, MT m) {
    return _mm256_maskload_ps(p, m);
  }
  static void StoreTailF(float* p, VF v, MT m) {
    _mm256_maskstore_ps(p, m, v);
  }
  static VF AddF(VF a, VF b) { return _mm256_add_ps(a, b); }
  static VF SubF(VF a, VF b) { return _mm256_sub_ps(a, b); }
  static VF MulF(VF a, VF b) { return _mm256_mul_ps(a, b); }

  static VD Set1D(double a) { return _mm256_set1_pd(a); }
  static VD AddD(VD a, VD b) { return _mm256_add_pd(a, b); }
  static VD SubD(VD a, VD b) { return _mm256_sub_pd(a, b); }
  static VD MulD(VD a, VD b) { return _mm256_mul_pd(a, b); }

  static VD CvtLoF2D(VF v) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  }
  static VD CvtHiF2D(VF v) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }
  static VF CvtD2F(VD lo, VD hi) {
    return _mm256_insertf128_ps(_mm256_zextps128_ps256(_mm256_cvtpd_ps(lo)),
                                _mm256_cvtpd_ps(hi), 1);
  }

  static MF CmpLtZeroF(VF v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ);
  }
  static MF CmpLeZeroF(VF v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LE_OQ);
  }
  static MF CmpEqZeroF(VF v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_EQ_OQ);
  }
  static VF ZeroWhere(MF m, VF v) { return _mm256_andnot_ps(m, v); }
  static VF SelectF(MF m, VF a, VF b) { return _mm256_blendv_ps(b, a, m); }
  static bool AllGtZeroF(VF v) {
    return _mm256_movemask_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(),
                                            _CMP_GT_OQ)) == 0xFF;
  }
  static bool AllFiniteF(VF v) {
    VF abs = _mm256_and_ps(
        v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)));
    VF inf = _mm256_castsi256_ps(_mm256_set1_epi32(0x7F800000));
    return _mm256_movemask_ps(_mm256_cmp_ps(abs, inf, _CMP_LT_OQ)) == 0xFF;
  }
};

// The 8 fold lanes of one dot8 accumulator: a single __m256, lane l ≡
// fold lane l, exactly as in Avx2Dot8F32. The block epilogue stays in
// vector registers: the k % 8 tail is a masked multiply whose sum is
// blended into the live lanes only (adding a 0 product to a −0 lane
// would flip it to +0), and the fold tree runs on four accumulators at
// once through horizontal adds, each lane one output's own scalar fold
// step.
struct Lanes8Avx2 {
  using V = __m256;
  using Mask = __m256i;

  static V Zero() { return _mm256_setzero_ps(); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static V Add(V a, V b) { return _mm256_add_ps(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }

  static Mask TailMask(size_t rem) {
    return TraitsAvx2::TailMask(rem);
  }
  static V LoadTail(const float* p, Mask m) {
    return TraitsAvx2::LoadTailF(p, m);
  }
  static V AddWhere(Mask m, V acc, V prod) {
    return TraitsAvx2::AddWhere(m, acc, prod);
  }
  // out[s] = dot8's fold of accumulator s < 4 over its lanes l,
  // ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)): the first hadd
  // level forms every pair sum, the second every (s01 + s23) in the low
  // half and (s45 + s67) in the high half, and one add joins the halves.
  static void Fold4(const V* acc, float* out) {
    V pairs01 = _mm256_hadd_ps(acc[0], acc[1]);
    V pairs23 = _mm256_hadd_ps(acc[2], acc[3]);
    V quads = _mm256_hadd_ps(pairs01, pairs23);
    _mm_storeu_ps(out, _mm_add_ps(_mm256_castps256_ps128(quads),
                                  _mm256_extractf128_ps(quads, 1)));
  }
};

#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)

struct TraitsAvx512 {
  using VF = __m512;
  using VD = __m512d;
  using MF = __mmask16;
  using MT = __mmask16;
  static constexpr size_t kF = 16;
  static constexpr size_t kD = 8;

  static VF Set1F(float a) { return _mm512_set1_ps(a); }
  static VF LoadF(const float* p) { return _mm512_loadu_ps(p); }
  static void StoreF(float* p, VF v) { _mm512_storeu_ps(p, v); }
  static MT TailMask(size_t rem) { return LaneRange(0, rem); }
  // Lanes lo <= l < hi.
  static MT LaneRange(size_t lo, size_t hi) {
    return static_cast<__mmask16>(((1u << hi) - 1u) & ~((1u << lo) - 1u));
  }
  // acc + v on the lanes of m; the other lanes keep acc unchanged.
  static VF AddWhere(MT m, VF acc, VF v) {
    return _mm512_mask_add_ps(acc, m, acc, v);
  }
  // Lanes lo <= l < hi take p[0], p[1], ..., the others +0.
  static VF ExpandLoadF(const float* p, size_t lo, size_t hi) {
    return _mm512_maskz_expandloadu_ps(LaneRange(lo, hi), p);
  }
  static VF LoadTailF(const float* p, MT m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void StoreTailF(float* p, VF v, MT m) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  static VF AddF(VF a, VF b) { return _mm512_add_ps(a, b); }
  static VF SubF(VF a, VF b) { return _mm512_sub_ps(a, b); }
  static VF MulF(VF a, VF b) { return _mm512_mul_ps(a, b); }

  static VD Set1D(double a) { return _mm512_set1_pd(a); }
  static VD AddD(VD a, VD b) { return _mm512_add_pd(a, b); }
  static VD SubD(VD a, VD b) { return _mm512_sub_pd(a, b); }
  static VD MulD(VD a, VD b) { return _mm512_mul_pd(a, b); }

  static VD CvtLoF2D(VF v) {
    return _mm512_cvtps_pd(_mm512_castps512_ps256(v));
  }
  static VD CvtHiF2D(VF v) {
    return _mm512_cvtps_pd(
        _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
  }
  static VF CvtD2F(VD lo, VD hi) {
    // zext (not cast) of the low half: GCC's undefined-upper cast trips
    // -Wmaybe-uninitialized, and the zero-extend is free anyway.
    __m512 out = _mm512_zextps256_ps512(_mm512_cvtpd_ps(lo));
    return _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castps_pd(out), _mm256_castps_pd(_mm512_cvtpd_ps(hi)), 1));
  }

  static MF CmpLtZeroF(VF v) {
    return _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_LT_OQ);
  }
  static MF CmpLeZeroF(VF v) {
    return _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_LE_OQ);
  }
  static MF CmpEqZeroF(VF v) {
    return _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_EQ_OQ);
  }
  static VF ZeroWhere(MF m, VF v) {
    return _mm512_maskz_mov_ps(static_cast<__mmask16>(~m), v);
  }
  static VF SelectF(MF m, VF a, VF b) {
    return _mm512_mask_blend_ps(m, b, a);
  }
  static bool AllGtZeroF(VF v) {
    return _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ) == 0xFFFF;
  }
  static bool AllFiniteF(VF v) {
    VF abs = _mm512_abs_ps(v);
    VF inf = _mm512_castsi512_ps(_mm512_set1_epi32(0x7F800000));
    return _mm512_cmp_ps_mask(abs, inf, _CMP_LT_OQ) == 0xFFFF;
  }
};

#endif  // __AVX512F__ && __AVX512DQ__

// Generic element-wise kernels over a trait. Each body mirrors the
// scalar reference in simd.cc operation-for-operation (multiply then
// add, ordered compares, doubles where the scalar uses doubles), so the
// vector main loop and the scalar tail produce identical bits.
template <typename T>
struct Kernels8 {
  using VF = typename T::VF;
  using VD = typename T::VD;
  using MF = typename T::MF;
  using MT = typename T::MT;

  static void AxpyF32(float a, const float* x, float* y, size_t n) {
    VF va = T::Set1F(a);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      T::StoreF(y + i, T::AddF(T::LoadF(y + i), T::MulF(va, T::LoadF(x + i))));
    }
    for (; i < n; ++i) y[i] += a * x[i];
  }

  // im2col (SimdKernels::im2col_f32): each column-matrix row is written
  // a vector at a time, its in-image span expand-loaded into place from
  // the first in-image element and +0 elsewhere — one load and one store
  // per vector, where the scalar reference issues a memset/memcpy/memset
  // triple per row.
  static void Im2ColF32(const float* x, size_t channels, size_t h,
                        size_t w, size_t kernel, size_t pad, float* col) {
    size_t oh = h + 2 * pad - kernel + 1;
    size_t ow = w + 2 * pad - kernel + 1;
    size_t q = oh * ow;
    const VF zero = T::Set1F(0.0f);
    for (size_t ic = 0; ic < channels; ++ic) {
      const float* plane = x + ic * h * w;
      for (size_t kh = 0; kh < kernel; ++kh) {
        // Output rows i whose input row i + kh - pad lies in the image.
        size_t i_lo = pad > kh ? pad - kh : 0;
        size_t i_hi = h + pad > kh ? h + pad - kh : 0;
        if (i_hi > oh) i_hi = oh;
        if (i_lo > i_hi) i_lo = i_hi;
        for (size_t kw = 0; kw < kernel; ++kw) {
          float* rows = col + ((ic * kernel + kh) * kernel + kw) * q;
          // Output columns j whose input column j + kw - pad lies in it.
          size_t j_lo = pad > kw ? pad - kw : 0;
          size_t j_hi = w + pad > kw ? w + pad - kw : 0;
          if (j_hi > ow) j_hi = ow;
          for (size_t c0 = 0; c0 < ow; c0 += T::kF) {
            size_t lanes = ow - c0 < T::kF ? ow - c0 : T::kF;
            size_t lo = j_lo > c0 ? j_lo : c0;
            size_t hi = j_hi < c0 + lanes ? j_hi : c0 + lanes;
            MT tail = T::TailMask(lanes);
            auto put = [&](size_t i, VF v) {
              if (lanes == T::kF) {
                T::StoreF(rows + i * ow + c0, v);
              } else {
                T::StoreTailF(rows + i * ow + c0, v, tail);
              }
            };
            for (size_t i = 0; i < i_lo; ++i) put(i, zero);
            for (size_t i = i_lo; i < i_hi; ++i) {
              const float* src = plane + (i + kh - pad) * w + lo + kw - pad;
              put(i, lo < hi ? T::ExpandLoadF(src, lo - c0, hi - c0) : zero);
            }
            for (size_t i = i_hi; i < oh; ++i) put(i, zero);
          }
        }
      }
    }
  }

  // col2im (SimdKernels::col2im_f32) as a gather: a chunk of one dx row
  // stays in a register while every tap that touches it adds its shifted
  // column-row segment on the lanes it covers, in (kh, kw) order — the
  // order the scalar scatter gives each element — and is stored once.
  // (Scattering tap by tap re-loads rows that the previous tap has only
  // just stored.) The masked loads start from the lane-0 address of each
  // segment; masked-off lanes are never touched.
  static void Col2ImF32(const float* col, size_t channels, size_t h,
                        size_t w, size_t kernel, size_t pad, float* dx) {
    size_t oh = h + 2 * pad - kernel + 1;
    size_t ow = w + 2 * pad - kernel + 1;
    size_t q = oh * ow;
    for (size_t ic = 0; ic < channels; ++ic) {
      const float* cols = col + ic * kernel * kernel * q;
      for (size_t ih = 0; ih < h; ++ih) {
        float* row = dx + (ic * h + ih) * w;
        for (size_t c0 = 0; c0 < w; c0 += T::kF) {
          size_t lanes = w - c0 < T::kF ? w - c0 : T::kF;
          MT live = T::TailMask(lanes);
          VF acc = T::LoadTailF(row + c0, live);
          for (size_t kh = 0; kh < kernel; ++kh) {
            // Output row i = ih + pad - kh, if inside [0, oh).
            if (ih + pad < kh || ih + pad - kh >= oh) continue;
            size_t i = ih + pad - kh;
            for (size_t kw = 0; kw < kernel; ++kw) {
              // Lane l (iw = c0 + l) reads column j = iw + pad - kw, live
              // for 0 <= j < ow.
              if (ow + kw <= pad + c0) continue;
              size_t lo = kw > pad + c0 ? kw - pad - c0 : 0;
              size_t hi = ow + kw - pad - c0;
              if (hi > lanes) hi = lanes;
              if (lo >= hi) continue;
              MT m = T::LaneRange(lo, hi);
              const float* seg =
                  cols + (kh * kernel + kw) * q + i * ow + c0 + pad - kw;
              acc = T::AddWhere(m, acc, T::LoadTailF(seg, m));
            }
          }
          T::StoreTailF(row + c0, acc, live);
        }
      }
    }
  }

  // --- Register-blocked GEMM tile (SimdKernels::gemm_acc_f32) ---------
  //
  // Blocks of four C rows (then the 3/2/1-row remainder), each swept
  // left to right in strips of two vectors, one vector, and one masked
  // partial vector. A block's C values live in registers
  // across the whole ascending-p loop, so each element runs
  // c = c + A(i,p)·B(p,j) (MulF then AddF) exactly as one axpy per (i, p)
  // would. Rows outermost keeps C writes sequential, which the k = 1
  // rank-1 update (a streamed per-example dW row) needs.

  struct GemmOperands {
    size_t k;
    const float* a;
    size_t a_row_stride;
    size_t a_col_stride;
    const float* b;
    size_t ldb;
    float* c;
    size_t ldc;
    const float* row_init;
    bool accumulate;
  };

  template <bool kMasked>
  static VF LoadC(const float* p, MT mask) {
    if constexpr (kMasked) {
      return T::LoadTailF(p, mask);
    } else {
      return T::LoadF(p);
    }
  }

  template <bool kMasked>
  static void StoreC(float* p, VF v, MT mask) {
    if constexpr (kMasked) {
      T::StoreTailF(p, v, mask);
    } else {
      T::StoreF(p, v);
    }
  }

  template <size_t R, size_t V, bool kMasked>
  static void GemmBlock(const GemmOperands& g, size_t i0, size_t j0,
                        MT mask) {
    VF acc[R][V];
    for (size_t r = 0; r < R; ++r) {
      float* crow = g.c + (i0 + r) * g.ldc + j0;
      float start = g.row_init != nullptr ? g.row_init[i0 + r] : 0.0f;
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = g.accumulate ? LoadC<kMasked>(crow + v * T::kF, mask)
                                 : T::Set1F(start);
      }
    }
    const float* ap = g.a + i0 * g.a_row_stride;
    const float* bp = g.b + j0;
    for (size_t p = 0; p < g.k; ++p) {
      VF bv[V];
      for (size_t v = 0; v < V; ++v) {
        bv[v] = LoadC<kMasked>(bp + v * T::kF, mask);
      }
      for (size_t r = 0; r < R; ++r) {
        VF av = T::Set1F(ap[r * g.a_row_stride]);
        for (size_t v = 0; v < V; ++v) {
          acc[r][v] = T::AddF(acc[r][v], T::MulF(av, bv[v]));
        }
      }
      ap += g.a_col_stride;
      bp += g.ldb;
    }
    for (size_t r = 0; r < R; ++r) {
      float* crow = g.c + (i0 + r) * g.ldc + j0;
      for (size_t v = 0; v < V; ++v) {
        StoreC<kMasked>(crow + v * T::kF, acc[r][v], mask);
      }
    }
  }

  // Rows [i0, i0 + R) across every column: strips of two vectors, one
  // vector, then one masked partial vector.
  template <size_t R>
  static void GemmRows(const GemmOperands& g, size_t i0, size_t n) {
    const MT none{};
    size_t j = 0;
    for (; j + 2 * T::kF <= n; j += 2 * T::kF) {
      GemmBlock<R, 2, false>(g, i0, j, none);
    }
    for (; j + T::kF <= n; j += T::kF) GemmBlock<R, 1, false>(g, i0, j, none);
    if (j == n) return;
    GemmBlock<R, 1, true>(g, i0, j, T::TailMask(n - j));
  }

  static void GemmAccF32(size_t m, size_t n, size_t k, const float* a,
                         size_t a_row_stride, size_t a_col_stride,
                         const float* b, size_t ldb, float* c, size_t ldc,
                         const float* row_init, bool accumulate) {
    const GemmOperands g{k, a, a_row_stride, a_col_stride, b, ldb, c,
                         ldc, row_init, accumulate};
    size_t i = 0;
    for (; i + 4 <= m; i += 4) GemmRows<4>(g, i, n);
    switch (m - i) {
      case 3:
        GemmRows<3>(g, i, n);
        break;
      case 2:
        GemmRows<2>(g, i, n);
        break;
      case 1:
        GemmRows<1>(g, i, n);
        break;
      default:
        break;
    }
  }

  static void ScaleF32(float a, float* y, size_t n) {
    VF va = T::Set1F(a);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      T::StoreF(y + i, T::MulF(va, T::LoadF(y + i)));
    }
    for (; i < n; ++i) y[i] *= a;
  }

  static void AddScalarF32(float a, float* y, size_t n) {
    VF va = T::Set1F(a);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      T::StoreF(y + i, T::AddF(T::LoadF(y + i), va));
    }
    for (; i < n; ++i) y[i] += a;
  }

  static void ReluF32(float* y, size_t n) {
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF v = T::LoadF(y + i);
      T::StoreF(y + i, T::ZeroWhere(T::CmpLtZeroF(v), v));
    }
    for (; i < n; ++i) {
      if (y[i] < 0.0f) y[i] = 0.0f;
    }
  }

  static void ReluGradF32(float* g, const float* y, size_t n) {
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF vg = T::LoadF(g + i);
      T::StoreF(g + i, T::ZeroWhere(T::CmpEqZeroF(T::LoadF(y + i)), vg));
    }
    for (; i < n; ++i) {
      if (y[i] == 0.0f) g[i] = 0.0f;
    }
  }

  static void EluF32(float* y, size_t n, float alpha) {
    // exp() stays scalar libm — the bitwise reference admits no vector
    // polynomial — so the vector pass only skips all-positive blocks
    // (which ELU maps to themselves).
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      if (T::AllGtZeroF(T::LoadF(y + i))) continue;
      for (size_t l = 0; l < T::kF; ++l) {
        float v = y[i + l];
        if (!(v > 0.0f)) y[i + l] = alpha * (std::exp(v) - 1.0f);
      }
    }
    for (; i < n; ++i) {
      float v = y[i];
      if (!(v > 0.0f)) y[i] = alpha * (std::exp(v) - 1.0f);
    }
  }

  static void EluGradF32(float* g, const float* y, size_t n, float alpha) {
    VF va = T::Set1F(alpha);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF vy = T::LoadF(y + i);
      VF vg = T::LoadF(g + i);
      VF neg = T::MulF(vg, T::AddF(vy, va));
      T::StoreF(g + i, T::SelectF(T::CmpLeZeroF(vy), neg, vg));
    }
    for (; i < n; ++i) {
      if (y[i] <= 0.0f) g[i] = g[i] * (y[i] + alpha);
    }
  }

  static void GNormNormF32(const float* x, size_t n, double mean,
                           double inv_std, float gamma, float beta,
                           float* xhat, float* y) {
    VD vm = T::Set1D(mean);
    VD vs = T::Set1D(inv_std);
    VF vg = T::Set1F(gamma);
    VF vb = T::Set1F(beta);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF vx = T::LoadF(x + i);
      VD lo = T::MulD(T::SubD(T::CvtLoF2D(vx), vm), vs);
      VD hi = T::MulD(T::SubD(T::CvtHiF2D(vx), vm), vs);
      VF xh = T::CvtD2F(lo, hi);
      T::StoreF(xhat + i, xh);
      T::StoreF(y + i, T::AddF(T::MulF(vg, xh), vb));
    }
    for (; i < n; ++i) {
      float xh = static_cast<float>((x[i] - mean) * inv_std);
      xhat[i] = xh;
      y[i] = gamma * xh + beta;
    }
  }

  static void GNormDxF32(const float* dy, const float* xhat, size_t n,
                         double gamma, double mean_dxhat,
                         double mean_dxhat_xhat, double inv_std, float* dx) {
    VD vg = T::Set1D(gamma);
    VD vmd = T::Set1D(mean_dxhat);
    VD vmdx = T::Set1D(mean_dxhat_xhat);
    VD vis = T::Set1D(inv_std);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF vdy = T::LoadF(dy + i);
      VF vxh = T::LoadF(xhat + i);
      VD dxh_lo = T::MulD(T::CvtLoF2D(vdy), vg);
      VD dxh_hi = T::MulD(T::CvtHiF2D(vdy), vg);
      VD lo = T::MulD(vis, T::SubD(T::SubD(dxh_lo, vmd),
                                   T::MulD(T::CvtLoF2D(vxh), vmdx)));
      VD hi = T::MulD(vis, T::SubD(T::SubD(dxh_hi, vmd),
                                   T::MulD(T::CvtHiF2D(vxh), vmdx)));
      T::StoreF(dx + i, T::CvtD2F(lo, hi));
    }
    for (; i < n; ++i) {
      double dxh = static_cast<double>(dy[i]) * gamma;
      dx[i] = static_cast<float>(
          inv_std * (dxh - mean_dxhat -
                     static_cast<double>(xhat[i]) * mean_dxhat_xhat));
    }
  }

  static bool AllFiniteF32(const float* x, size_t n) {
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      if (!T::AllFiniteF(T::LoadF(x + i))) return false;
    }
    for (; i < n; ++i) {
      if (!std::isfinite(x[i])) return false;
    }
    return true;
  }
};


// Dot-product GEMM block kernel (SimdKernels::gemm_nt_f32) over an 8-lane
// accumulator L (Lanes8Avx2), whose L::V holds fold lanes 0..7 with
// Zero/Load/Add/Mul/Store. Each kRows ×
// kCols block of outputs shares its A and B loads; every output keeps
// its own accumulator, k % 8 tail and fold tree, so it equals one
// dot8_f32 call bit for bit. Leftover rows run as 1 × kCols blocks
// (Linear's forward is a single row).
//
// Epilogue: blocks of 4 or 8 outputs run the tail as a masked multiply
// added into the live lanes only (L::TailMask/LoadTail/AddWhere) and
// fold four outputs at once (L::Fold4, each lane of every tree level one
// output's own step). Other blocks spill each output's lanes and run
// dot8's scalar tail and fold.

// dot8's fold tree over one accumulator's spilled lanes.
inline float FoldLanes8(const float* lanes) {
  float s01 = lanes[0] + lanes[1];
  float s23 = lanes[2] + lanes[3];
  float s45 = lanes[4] + lanes[5];
  float s67 = lanes[6] + lanes[7];
  return (s01 + s23) + (s45 + s67);
}

template <typename L, size_t kRows, size_t kCols>
struct GemmNt8 {
  using V = typename L::V;

  template <size_t R, size_t C>
  static void Block(size_t k, const float* a, size_t lda, const float* b,
                    size_t ldb, float* c, size_t ldc, bool accumulate) {
    V acc[R * C];  // row-major over the block: output (r, j) at r·C + j
    for (size_t s = 0; s < R * C; ++s) acc[s] = L::Zero();
    size_t p = 0;
    for (; p + kFoldLanes <= k; p += kFoldLanes) {
      V av[R];
      for (size_t r = 0; r < R; ++r) av[r] = L::Load(a + r * lda + p);
      for (size_t j = 0; j < C; ++j) {
        V bv = L::Load(b + j * ldb + p);
        for (size_t r = 0; r < R; ++r) {
          acc[r * C + j] = L::Add(acc[r * C + j], L::Mul(av[r], bv));
        }
      }
    }
    float d[R * C];
    if constexpr (R * C % 4 == 0) {
      if (p < k) {
        auto mask = L::TailMask(k - p);
        V at[R];
        for (size_t r = 0; r < R; ++r) {
          at[r] = L::LoadTail(a + r * lda + p, mask);
        }
        for (size_t j = 0; j < C; ++j) {
          V bt = L::LoadTail(b + j * ldb + p, mask);
          for (size_t r = 0; r < R; ++r) {
            acc[r * C + j] =
                L::AddWhere(mask, acc[r * C + j], L::Mul(at[r], bt));
          }
        }
      }
      for (size_t s = 0; s < R * C; s += 4) L::Fold4(acc + s, d + s);
    } else {
      for (size_t r = 0; r < R; ++r) {
        const float* x = a + r * lda;
        for (size_t j = 0; j < C; ++j) {
          const float* y = b + j * ldb;
          float lanes[kFoldLanes];
          L::Store(lanes, acc[r * C + j]);
          for (size_t l = 0; p + l < k; ++l) {
            lanes[l] += x[p + l] * y[p + l];
          }
          d[r * C + j] = FoldLanes8(lanes);
        }
      }
    }
    for (size_t r = 0; r < R; ++r) {
      for (size_t j = 0; j < C; ++j) {
        float* out = c + r * ldc + j;
        *out = accumulate ? *out + d[r * C + j] : d[r * C + j];
      }
    }
  }

  template <size_t R>
  static void Rows(size_t n, size_t k, const float* a, size_t lda,
                   const float* b, size_t ldb, float* c, size_t ldc,
                   bool accumulate) {
    size_t j = 0;
    for (; j + kCols <= n; j += kCols) {
      Block<R, kCols>(k, a, lda, b + j * ldb, ldb, c + j, ldc, accumulate);
    }
    for (; j < n; ++j) {
      Block<R, 1>(k, a, lda, b + j * ldb, ldb, c + j, ldc, accumulate);
    }
  }

  static void Run(size_t m, size_t n, size_t k, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc,
                  bool accumulate) {
    size_t i = 0;
    for (; i + kRows <= m; i += kRows) {
      Rows<kRows>(n, k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                  accumulate);
    }
    for (; i < m; ++i) {
      Rows<1>(n, k, a + i * lda, lda, b, ldb, c + i * ldc, ldc, accumulate);
    }
  }
};

}  // namespace detail
}  // namespace simd
}  // namespace dpbr

#endif  // DPBR_COMMON_SIMD_TRAITS_H_
