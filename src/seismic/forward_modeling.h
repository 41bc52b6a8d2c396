// High-level forward-modelling drivers reproducing the two acquisition
// scales of the paper:
//   * the OpenFWI full scale — 5 sources x 1000 time steps x 70 receivers
//     over a 70x70 velocity map, 15 Hz Ricker;
//   * the quantum scale used by Q-D-FW — the velocity map downsampled to
//     8x8 and re-modelled with an 8 Hz Ricker into 4 sources x 8 time
//     samples x 8 receivers = 256 values (Sec. 3.1.1, Fig. 6).
#pragma once

#include "seismic/fdtd.h"
#include "seismic/survey.h"
#include "seismic/velocity_model.h"
#include "seismic/wavelet.h"

namespace qugeo::seismic {

/// One acquisition description: geometry + wavelet + solver settings.
struct Acquisition {
  std::size_t num_sources = 5;
  std::size_t num_receivers = 70;
  std::size_t num_time_samples = 1000;  ///< samples in the recorded gather
  Real wavelet_freq_hz = 15.0;
  FdtdConfig fdtd;
};

/// The paper's full-resolution OpenFWI acquisition.
[[nodiscard]] Acquisition openfwi_acquisition();

/// The paper's quantum-scale acquisition (256-value gathers, 8 Hz source).
[[nodiscard]] Acquisition quantum_acquisition();

/// The shots of an acquisition over `model` as a deferred volume: nothing
/// is simulated here; each shot is simulated on its first read and kept
/// (see SeismicData). The receivers and sources are spread evenly along the
/// surface (row 0). Every shot runs at the SIMD level active on the calling
/// thread now, whichever thread later reads it.
[[nodiscard]] SeismicData defer_shots(const VelocityModel& model,
                                      const Acquisition& acq);

/// Model all shots of an acquisition over `model`: defer_shots with every
/// shot forced before returning (the shots fan out over the pool).
[[nodiscard]] SeismicData model_shots(const VelocityModel& model,
                                      const Acquisition& acq);

/// Q-D-FW in one call: downsample the velocity map to target_nz x target_nx
/// and re-model at the quantum scale. Internally the coarse map is refined
/// (nearest-neighbour, preserving the blocky layers) onto a finer simulation
/// grid so the FD stencil stays in its accurate regime; receivers record at
/// the coarse-scale positions and traces are decimated to the requested
/// sample count.
[[nodiscard]] SeismicData physics_guided_remodel(const VelocityModel& full_model,
                                                 std::size_t target_nz,
                                                 std::size_t target_nx,
                                                 const Acquisition& acq,
                                                 std::size_t sim_refine = 8);

}  // namespace qugeo::seismic
