// Known-bad fixture: a layer file dispatching to the pool itself. Layers
// run only inside a stage's per-example task (src/nn/layer.h); the stage
// driver (fusion.cc) and the GEMM kernels (gemm.cc) are the only src/nn/
// files that may call ParallelFor / ParallelForBlocked.
// lint-as: src/nn/bad_layer.cc

#include <cstddef>

#include "common/thread_pool.h"

namespace dpbr {

void ScaleEachExample(float* x, size_t batch, size_t n) {
  auto scale = [&](size_t e0, size_t e1) {
    for (size_t ex = e0; ex < e1; ++ex) x[ex * n] *= 2.0f;
  };
  ParallelForBlocked(batch, 1, scale);  // expect-lint: nn-dispatch
}

void ZeroEachElement(float* x, size_t n) {
  auto zero = [&](size_t i) { x[i] = 0.0f; };
  ParallelFor(0, n, zero);  // expect-lint: nn-dispatch
}

}  // namespace dpbr
