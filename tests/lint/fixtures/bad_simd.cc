// Known-bad fixture: ISA intrinsics and the raw per-ISA dispatch
// tables reached from an ordinary TU. Only simd_{avx2,avx512}.cc
// (plus simd_traits.h for the spellings) may touch intrinsics, and
// only the dispatcher and its equivalence test may see
// simd_internal.h. The -mavx2 flag below comes from the synthetic
// compile-db entry, so simd-mflags fires too.
// lint-as: src/fixture/bad_simd.cc
// lint-compile-flags: -O2 -mavx2 -ffp-contract=off
// expect-lint: simd-mflags

#include <immintrin.h>  // expect-lint: simd-intrinsics

#include "common/simd_internal.h"  // expect-lint: simd-internal

namespace dpbr {

float SumEight(const float* x) {
  __m256 v = _mm256_loadu_ps(x);  // expect-lint: simd-intrinsics, simd-intrinsics
  float out[8];
  _mm256_storeu_ps(out, v);  // expect-lint: simd-intrinsics
  return out[0] + out[1] + out[2] + out[3] + out[4] + out[5] + out[6] +
         out[7];
}

}  // namespace dpbr
