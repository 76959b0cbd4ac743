#include "core/gps.h"

namespace gps {

GpsSampler::GpsSampler(GpsSamplerOptions options)
    : weight_fn_(options.weight),
      reservoir_(GpsOptions{options.capacity, options.seed}) {}

GpsReservoir::ProcessResult GpsSampler::Process(const Edge& raw) {
  const Edge e = raw.Canonical();
  const double w = weight_fn_.Compute(e, reservoir_.graph());
  return reservoir_.Process(e, w);
}

}  // namespace gps
