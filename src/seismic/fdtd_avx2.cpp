#include "seismic/fdtd_simd.h"

#include <stdexcept>

#ifdef QUGEO_WITH_AVX2_KERNELS

#include <immintrin.h>

namespace qugeo::seismic {
namespace {

/// Four columns per iteration; the compile-time halo fully unrolls the
/// coefficient loop, mirroring fdtd.cpp's propagate_impl<Halo>. The scalar
/// tail keeps the scalar sweep's exact expression shape.
template <std::size_t Halo>
void row_kernel(const Real* stc, const Real* pc_row, const Real* pp_row,
                Real* pn_row, const Real* cc_row, Real damp_z,
                const Real* damp_x, std::size_t nx, std::size_t stride,
                Real inv_dz2, Real inv_dx2, Real dt2) {
  const __m256d vdx2 = _mm256_set1_pd(inv_dx2);
  const __m256d vdz2 = _mm256_set1_pd(inv_dz2);
  const __m256d vsum = _mm256_set1_pd(inv_dz2 + inv_dx2);
  const __m256d vdt2 = _mm256_set1_pd(dt2);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vdz = _mm256_set1_pd(damp_z);
  std::size_t ix = 0;
  for (; ix + 4 <= nx; ix += 4) {
    const Real* pc = pc_row + ix;
    const __m256d center = _mm256_loadu_pd(pc);
    __m256d lap =
        _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(stc[0]), center), vsum);
    for (std::size_t k = 1; k <= Halo; ++k) {
      const auto kk = static_cast<std::ptrdiff_t>(k);
      const auto ks = static_cast<std::ptrdiff_t>(k * stride);
      const __m256d horiz =
          _mm256_add_pd(_mm256_loadu_pd(pc + kk), _mm256_loadu_pd(pc - kk));
      const __m256d vert =
          _mm256_add_pd(_mm256_loadu_pd(pc + ks), _mm256_loadu_pd(pc - ks));
      const __m256d term = _mm256_add_pd(_mm256_mul_pd(horiz, vdx2),
                                         _mm256_mul_pd(vert, vdz2));
      lap = _mm256_fmadd_pd(_mm256_set1_pd(stc[k]), term, lap);
    }
    const __m256d w = _mm256_mul_pd(vdz, _mm256_loadu_pd(damp_x + ix));
    const __m256d update = _mm256_add_pd(
        _mm256_fnmadd_pd(_mm256_loadu_pd(pp_row + ix), w,
                         _mm256_mul_pd(vtwo, center)),
        _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(cc_row + ix), vdt2), lap));
    _mm256_storeu_pd(pn_row + ix, _mm256_mul_pd(update, w));
  }
  for (; ix < nx; ++ix) {
    const Real* pc = pc_row + ix;
    Real lap = stc[0] * pc[0] * (inv_dz2 + inv_dx2);
    for (std::size_t k = 1; k <= Halo; ++k) {
      const auto kk = static_cast<std::ptrdiff_t>(k);
      const auto ks = static_cast<std::ptrdiff_t>(k * stride);
      lap += stc[k] *
             ((pc[kk] + pc[-kk]) * inv_dx2 + (pc[ks] + pc[-ks]) * inv_dz2);
    }
    const Real w = damp_z * damp_x[ix];
    pn_row[ix] = (2 * pc[0] - pp_row[ix] * w + cc_row[ix] * dt2 * lap) * w;
  }
}

}  // namespace

void fdtd_row_avx2(std::size_t halo, const Real* stc, const Real* pc_row,
                   const Real* pp_row, Real* pn_row, const Real* cc_row,
                   Real damp_z, const Real* damp_x, std::size_t nx,
                   std::size_t stride, Real inv_dz2, Real inv_dx2, Real dt2) {
  switch (halo) {
    case 1:
      row_kernel<1>(stc, pc_row, pp_row, pn_row, cc_row, damp_z, damp_x, nx,
                    stride, inv_dz2, inv_dx2, dt2);
      return;
    case 2:
      row_kernel<2>(stc, pc_row, pp_row, pn_row, cc_row, damp_z, damp_x, nx,
                    stride, inv_dz2, inv_dx2, dt2);
      return;
    case 4:
      row_kernel<4>(stc, pc_row, pp_row, pn_row, cc_row, damp_z, damp_x, nx,
                    stride, inv_dz2, inv_dx2, dt2);
      return;
    default:
      throw std::logic_error("fdtd_row_avx2: unsupported stencil halo");
  }
}

}  // namespace qugeo::seismic

#else  // !QUGEO_WITH_AVX2_KERNELS

namespace qugeo::seismic {

void fdtd_row_avx2(std::size_t, const Real*, const Real*, const Real*, Real*,
                   const Real*, Real, const Real*, std::size_t, std::size_t,
                   Real, Real, Real) {
  // Dispatch (common/cpu_features.h) never selects kAvx2 in a build
  // without the AVX2 TUs, so reaching this stub is a programming error.
  throw std::logic_error("AVX2 kernels not compiled into this binary");
}

}  // namespace qugeo::seismic

#endif  // QUGEO_WITH_AVX2_KERNELS
