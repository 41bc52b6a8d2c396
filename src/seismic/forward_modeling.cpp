#include "seismic/forward_modeling.h"

#include <memory>
#include <stdexcept>

#include "common/cpu_features.h"

namespace qugeo::seismic {

Acquisition openfwi_acquisition() {
  Acquisition acq;
  acq.num_sources = 5;
  acq.num_receivers = 70;
  acq.num_time_samples = 1000;
  acq.wavelet_freq_hz = 15.0;
  acq.fdtd.space_order = 4;
  acq.fdtd.sponge_width = 12;
  acq.fdtd.sponge_strength = 0.015;
  acq.fdtd.free_surface_top = false;
  return acq;
}

Acquisition quantum_acquisition() {
  Acquisition acq;
  acq.num_sources = 1;
  acq.num_receivers = 8;
  acq.num_time_samples = 32;
  acq.wavelet_freq_hz = 8.0;  // lowered 15 -> 8 Hz per Sec. 3.1.1 / Fig. 6
  acq.fdtd.space_order = 4;
  acq.fdtd.sponge_width = 12;
  acq.fdtd.sponge_strength = 0.015;
  acq.fdtd.free_surface_top = false;
  return acq;
}

namespace {

/// What simulate_shot needs for any shot of one acquisition over one model:
/// the CFL-subdivided solver settings, the wavelet and the geometry.
struct ShotPlan {
  VelocityModel model;
  FdtdConfig cfg;
  RickerWavelet wavelet;
  ReceiverLine receivers;
  std::vector<GridPos> sources;
};

ShotPlan plan_shots(const VelocityModel& model, const Acquisition& acq) {
  // The recorded window is fixed at 1 second (OpenFWI: 1000 x 1 ms). The
  // simulation step subdivides it as needed to satisfy the CFL bound.
  constexpr Real kRecordTime = 1.0;
  const Real dt_limit = Real(0.9) * max_stable_dt(model, acq.fdtd.space_order);
  std::size_t substeps = 1;
  while (kRecordTime / static_cast<Real>(acq.num_time_samples * substeps) >
         dt_limit)
    ++substeps;

  FdtdConfig cfg = acq.fdtd;
  cfg.nt = acq.num_time_samples * substeps;
  cfg.dt = kRecordTime / static_cast<Real>(cfg.nt);
  cfg.record_every = substeps;

  return ShotPlan{model, cfg, RickerWavelet(acq.wavelet_freq_hz),
                  make_receiver_line(model.nx(), acq.num_receivers),
                  make_source_line(model.nx(), acq.num_sources)};
}

}  // namespace

SeismicData defer_shots(const VelocityModel& model, const Acquisition& acq) {
  auto plan = std::make_shared<const ShotPlan>(plan_shots(model, acq));
  // The SIMD level is resolved here, on the creating thread, and every shot
  // runs under it: a shot read later, or on a pool worker (which does not
  // inherit a thread-local override), gets the bits of an eager call.
  const simd::SimdMode mode = simd::active_level() == simd::SimdLevel::kAvx2
                                  ? simd::SimdMode::kAvx2
                                  : simd::SimdMode::kScalar;
  return SeismicData(acq.num_sources, acq.num_time_samples, acq.num_receivers,
                     [plan, mode](std::size_t s) {
                       const simd::ScopedSimdMode scope(mode);
                       return simulate_shot(plan->model, plan->sources[s],
                                            plan->wavelet, plan->receivers,
                                            plan->cfg);
                     });
}

SeismicData model_shots(const VelocityModel& model, const Acquisition& acq) {
  SeismicData data = defer_shots(model, acq);
  (void)data.data();
  return data;
}

SeismicData physics_guided_remodel(const VelocityModel& full_model,
                                   std::size_t target_nz, std::size_t target_nx,
                                   const Acquisition& acq,
                                   std::size_t sim_refine) {
  if (sim_refine == 0)
    throw std::invalid_argument("physics_guided_remodel: refine must be > 0");
  // Downsample the velocity map to the quantum-scale resolution, then put it
  // back on a finer simulation grid (nearest neighbour preserves the blocky
  // layers) so the FD operator stays accurate at 8 Hz.
  const VelocityModel coarse = full_model.resampled(target_nz, target_nx);
  const VelocityModel sim_model =
      coarse.resampled(target_nz * sim_refine, target_nx * sim_refine);
  return model_shots(sim_model, acq);
}

}  // namespace qugeo::seismic
