// Known-clean fixture: the stage driver may dispatch, and mentioning the
// dispatchers in comments or in longer identifiers never fires. The
// self-test demands ZERO findings here.
// lint-as: src/nn/fusion.cc

#include <cstddef>
#include <cstdint>

#include "common/thread_pool.h"

namespace dpbr {

// One ParallelForBlocked over examples per stage direction.
void RunStage(float* x, size_t batch, size_t n) {
  ParallelForBlocked(batch, 1, [&](size_t e0, size_t e1) {
    for (size_t ex = e0; ex < e1; ++ex) x[ex * n] += 1.0f;
  });
}

uint64_t DispatchesSoFar() { return ParallelDispatchCount(); }

}  // namespace dpbr
