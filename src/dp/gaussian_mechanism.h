// The Gaussian mechanism (Definition 2 of the paper) as a standalone
// utility: classical σ calibration for a single query plus vector
// perturbation helpers used by workers and attacks.

#ifndef DPBR_DP_GAUSSIAN_MECHANISM_H_
#define DPBR_DP_GAUSSIAN_MECHANISM_H_

#include <cstddef>

#include "common/rng.h"
#include "common/status.h"

namespace dpbr {
namespace dp {

/// Classical calibration σ = Δ·√(2 ln(1.25/δ)) / ε (valid for ε <= 1,
/// Definition 2). Used for single-release queries and as a cross-check of
/// the RDP accountant in tests.
Result<double> ClassicGaussianSigma(double l2_sensitivity, double epsilon,
                                    double delta);

/// Adds i.i.d. N(0, σ²) noise to `data` in place via the batched sampler
/// (SplitRng::AddGaussian): deterministic under any thread-pool size.
/// σ <= 0 leaves `data` and the stream untouched.
void PerturbInPlace(float* data, size_t n, double sigma, SplitRng* rng);

}  // namespace dp
}  // namespace dpbr

#endif  // DPBR_DP_GAUSSIAN_MECHANISM_H_
