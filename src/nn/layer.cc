#include "nn/layer.h"

#include "common/logging.h"

namespace dpbr {
namespace nn {

const std::vector<size_t>& BatchState::RequireBatched(
    const char* layer) const {
  if (shape_.empty()) {
    DPBR_LOG_STREAM(Fatal)
        << layer << ": cached-state contract violated — backward requires "
        << "a prior forward, but no forward has run";
  }
  return shape_;
}

std::vector<size_t> Layer::FuseForwardPrepare(
    size_t /*batch*/, const std::vector<size_t>& /*in_shape*/) {
  DPBR_LOG_STREAM(Fatal) << name() << " does not implement FuseForwardPrepare";
  return {};
}

void Layer::FuseForwardAnchor(size_t /*ex*/, const float* /*x*/, float* /*y*/,
                              EpilogueChain /*chain*/) {
  DPBR_LOG_STREAM(Fatal) << name() << " does not implement FuseForwardAnchor";
}

void Layer::FuseForwardEpilogue(size_t /*ex*/, float* /*block*/) {
  DPBR_LOG_STREAM(Fatal) << name()
                         << " does not implement FuseForwardEpilogue";
}

void Layer::FuseBackwardPrepare() {
  DPBR_LOG_STREAM(Fatal) << name() << " does not implement FuseBackwardPrepare";
}

void Layer::FuseBackwardEpilogue(size_t /*ex*/, float* /*block*/,
                                 const PerExampleGradSink& /*sink*/) {
  DPBR_LOG_STREAM(Fatal) << name()
                         << " does not implement FuseBackwardEpilogue";
}

void Layer::FuseBackwardAnchor(size_t /*ex*/, const float* /*gy*/,
                               float* /*gx*/,
                               const PerExampleGradSink& /*sink*/) {
  DPBR_LOG_STREAM(Fatal) << name() << " does not implement FuseBackwardAnchor";
}

const std::vector<size_t>& Layer::RequireBatchedState() const {
  return state_.RequireBatched(name().c_str());
}

size_t Layer::NumParams() {
  size_t n = 0;
  for (const ParamView& p : Params()) n += p.size;
  return n;
}

}  // namespace nn
}  // namespace dpbr
