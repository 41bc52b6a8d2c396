// AVX2/FMA variant of the FDTD stencil row sweep.
//
// Compiled in the dedicated -mavx2 -mfma translation unit fdtd_avx2.cpp;
// fdtd.cpp's propagate_impl dispatches here per row when
// simd::active_level() is kAvx2 (common/cpu_features.h). Calling it on a
// build without the AVX2 TUs is a logic error (the stub throws).
//
// Numerical contract: per cell, the same laplacian, update and sponge
// formulas as the scalar sweep, differing only by FMA contraction: the
// laplacian accumulates with FMA and `2 p - pp w` is one fused negative
// multiply-add. (The TU is built with -mfma, so g++'s default
// -ffp-contract=fast may fuse the scalar tail's multiply-adds as well.)
// Matches scalar to <= 1e-12 relative per cell, on sponge (w < 1) and
// interior (w == 1) cells alike (pinned by test_seismic_fdtd's
// fdtd_row_avx2 equivalence case, enforced by qugeo-lint rule 6).
#pragma once

#include <cstddef>

#include "common/types.h"

namespace qugeo::seismic {

/// One row of the order-2/4/8 acoustic update with the Cerjan sponge
/// folded in (halo = 1, 2, or 4; other values throw std::logic_error):
///   w      = damp_z * damp_x[ix]
///   pn[ix] = (2 p[ix] - pp[ix] w + cc[ix] dt^2 lap(p)[ix]) w
/// over nx cells, four per __m256d. `stc` points at the halo+1 stencil
/// coefficients; `pc_row`/`pp_row`/`pn_row` point at the row's first
/// interior cell of the current / previous / next wavefield (the halo
/// padding makes +-k and +-k*stride reads safe); `cc_row` is the row's
/// squared-velocity slice; `damp_z` is the row's damping factor and
/// `damp_x` the nx per-column factors (1 in the interior).
void fdtd_row_avx2(std::size_t halo, const Real* stc, const Real* pc_row,
                   const Real* pp_row, Real* pn_row, const Real* cc_row,
                   Real damp_z, const Real* damp_x, std::size_t nx,
                   std::size_t stride, Real inv_dz2, Real inv_dx2, Real dt2);

}  // namespace qugeo::seismic
