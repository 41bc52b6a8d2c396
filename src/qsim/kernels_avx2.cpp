// AVX2/FMA statevector kernels (see simd_kernels.h for the contract).
//
// This translation unit is the only qsim source compiled with -mavx2 -mfma
// (CMakeLists gates it on QUGEO_AVX2_KERNELS); without that option the
// entry points become throwing stubs and simd::active_level() can never
// select them.
//
// Layout notes: std::complex<double> is storage-compatible with double[2]
// (array-oriented access, [complex.numbers.general]), so one __m256d holds
// two interleaved amplitudes [re0 im0 re1 im1]. A constant-times-vector
// complex multiply is then
//   fmaddsub(c.re, v, c.im * swap_pairs(v))
// (even lanes a*b - c, odd lanes a*b + c), which is exactly cmul() with the
// two products of each component contracted into one FMA.
#include "qsim/simd_kernels.h"

#include <cassert>
#include <stdexcept>

#ifdef QUGEO_WITH_AVX2_KERNELS

#include <immintrin.h>

namespace qugeo::qsim {
namespace {

/// Broadcast complex constant: c.re in every lane of `re`, c.im in `im`.
struct CVec {
  __m256d re, im;
};

CVec broadcast_c(const Complex& c) {
  return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/// Lane-pair constant for adjacent-pair kernels: complex lanes {0} of the
/// vector multiply by c0, lanes {1} by c1.
CVec pair_c(const Complex& c0, const Complex& c1) {
  return {_mm256_set_pd(c1.real(), c1.real(), c0.real(), c0.real()),
          _mm256_set_pd(c1.imag(), c1.imag(), c0.imag(), c0.imag())};
}

/// c * v over two interleaved complexes.
inline __m256d cmul_vec(const CVec& c, __m256d v) {
  const __m256d sw = _mm256_permute_pd(v, 0b0101);  // [im0 re0 im1 re1]
  return _mm256_fmaddsub_pd(c.re, v, _mm256_mul_pd(c.im, sw));
}

/// Duplicate the low complex lane: [a b] -> [a a].
inline __m256d dup_lo(__m256d v) { return _mm256_permute4x64_pd(v, 0x44); }
/// Duplicate the high complex lane: [a b] -> [b b].
inline __m256d dup_hi(__m256d v) { return _mm256_permute4x64_pd(v, 0xEE); }

/// The (i0, i1) pair update new0 = u00 a0 + u01 a1, new1 = u10 a0 + u11 a1
/// over two pairs at once (p0/p1 point at runs of two complexes).
inline void pair_update(double* p0, double* p1, const CVec& u00,
                        const CVec& u01, const CVec& u10, const CVec& u11) {
  const __m256d a0 = _mm256_loadu_pd(p0);
  const __m256d a1 = _mm256_loadu_pd(p1);
  _mm256_storeu_pd(p0, _mm256_add_pd(cmul_vec(u00, a0), cmul_vec(u01, a1)));
  _mm256_storeu_pd(p1, _mm256_add_pd(cmul_vec(u10, a0), cmul_vec(u11, a1)));
}

/// Lane accumulators of the adjoint pair correlation G(a, b), index
/// a * 2 + b. For conj(l) * r over interleaved [re im] lanes, re[] sums
/// l * r = [lr rr, li ri] and im[] sums l * swap(r) = [lr ri, li rr]:
/// Re G is the sum of re[]'s lanes, Im G the alternating sum of im[]'s.
struct SweepAcc {
  __m256d re[4];
  __m256d im[4];
};

/// The fused adjoint step over two pairs: rewind the psi pair (p0, p1) by
/// w, correlate it against the lambda pair (l0, l1), rewind the lambda
/// pair by w.
inline void adjoint_step(double* p0, double* p1, double* l0, double* l1,
                         const CVec& w00, const CVec& w01, const CVec& w10,
                         const CVec& w11, SweepAcc& acc) {
  const __m256d a0 = _mm256_loadu_pd(p0);
  const __m256d a1 = _mm256_loadu_pd(p1);
  const __m256d r0 = _mm256_add_pd(cmul_vec(w00, a0), cmul_vec(w01, a1));
  const __m256d r1 = _mm256_add_pd(cmul_vec(w10, a0), cmul_vec(w11, a1));
  _mm256_storeu_pd(p0, r0);
  _mm256_storeu_pd(p1, r1);
  const __m256d b0 = _mm256_loadu_pd(l0);
  const __m256d b1 = _mm256_loadu_pd(l1);
  const __m256d s0 = _mm256_permute_pd(r0, 0b0101);
  const __m256d s1 = _mm256_permute_pd(r1, 0b0101);
  acc.re[0] = _mm256_fmadd_pd(b0, r0, acc.re[0]);
  acc.im[0] = _mm256_fmadd_pd(b0, s0, acc.im[0]);
  acc.re[1] = _mm256_fmadd_pd(b0, r1, acc.re[1]);
  acc.im[1] = _mm256_fmadd_pd(b0, s1, acc.im[1]);
  acc.re[2] = _mm256_fmadd_pd(b1, r0, acc.re[2]);
  acc.im[2] = _mm256_fmadd_pd(b1, s0, acc.im[2]);
  acc.re[3] = _mm256_fmadd_pd(b1, r1, acc.re[3]);
  acc.im[3] = _mm256_fmadd_pd(b1, s1, acc.im[3]);
  _mm256_storeu_pd(l0, _mm256_add_pd(cmul_vec(w00, b0), cmul_vec(w01, b1)));
  _mm256_storeu_pd(l1, _mm256_add_pd(cmul_vec(w10, b0), cmul_vec(w11, b1)));
}

Mat2 reduce_acc(const SweepAcc& acc) {
  Mat2 g;
  for (int k = 0; k < 4; ++k) {
    alignas(32) double re[4], im[4];
    _mm256_store_pd(re, acc.re[k]);
    _mm256_store_pd(im, acc.im[k]);
    g.m[static_cast<std::size_t>(k)] =
        Complex{(re[0] + re[1]) + (re[2] + re[3]),
                (im[0] - im[1]) + (im[2] - im[3])};
  }
  return g;
}

}  // namespace

Mat2 adjoint_sweep_1q_avx2(Complex* psi, Complex* lambda, Index n,
                           const Mat2& ud, Index q) {
  assert(q >= 1);
  double* p = reinterpret_cast<double*>(psi);
  double* l = reinterpret_cast<double*>(lambda);
  const Index stride = Index{1} << q;
  const CVec w00 = broadcast_c(ud(0, 0)), w01 = broadcast_c(ud(0, 1));
  const CVec w10 = broadcast_c(ud(1, 0)), w11 = broadcast_c(ud(1, 1));
  SweepAcc acc{};  // zeroed lanes
  for (Index base = 0; base < n; base += stride * 2)
    for (Index i0 = base; i0 < base + stride; i0 += 2) {
      const Index i1 = i0 + stride;
      adjoint_step(p + 2 * i0, p + 2 * i1, l + 2 * i0, l + 2 * i1, w00, w01,
                   w10, w11, acc);
    }
  return reduce_acc(acc);
}

Mat2 adjoint_sweep_controlled_1q_avx2(Complex* psi, Complex* lambda, Index n,
                                      const Mat2& ud, Index control,
                                      Index target) {
  assert(control >= 1 && target >= 1);
  double* p = reinterpret_cast<double*>(psi);
  double* l = reinterpret_cast<double*>(lambda);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index mlo = Index{1} << (control < target ? control : target);
  const Index mhi = Index{1} << (control < target ? target : control);
  const CVec w00 = broadcast_c(ud(0, 0)), w01 = broadcast_c(ud(0, 1));
  const CVec w10 = broadcast_c(ud(1, 0)), w11 = broadcast_c(ud(1, 1));
  SweepAcc acc{};  // zeroed lanes
  // Same run structure as apply_controlled_1q_avx2's lo >= 1 branch.
  for (Index base = 0; base < n; base += 2 * mhi)
    for (Index mid = base; mid < base + mhi; mid += 2 * mlo)
      for (Index i = mid; i < mid + mlo; i += 2) {
        const Index i0 = i | cmask;
        const Index i1 = i0 | tmask;
        adjoint_step(p + 2 * i0, p + 2 * i1, l + 2 * i0, l + 2 * i1, w00, w01,
                     w10, w11, acc);
      }
  return reduce_acc(acc);
}

void apply_1q_avx2(Complex* amps, Index n, const Mat2& u, Index q) {
  double* a = reinterpret_cast<double*>(amps);
  const Index stride = Index{1} << q;
  if (stride >= 2) {
    const CVec u00 = broadcast_c(u(0, 0)), u01 = broadcast_c(u(0, 1));
    const CVec u10 = broadcast_c(u(1, 0)), u11 = broadcast_c(u(1, 1));
    for (Index base = 0; base < n; base += stride * 2)
      for (Index off = 0; off < stride; off += 2)
        pair_update(a + 2 * (base + off), a + 2 * (base + off + stride), u00,
                    u01, u10, u11);
    return;
  }
  // q == 0: each vector holds one full (a0, a1) pair; lane-broadcast the
  // two amplitudes and pack the matrix per output lane.
  const CVec ca = pair_c(u(0, 0), u(1, 0));
  const CVec cb = pair_c(u(0, 1), u(1, 1));
  for (Index i = 0; i < n; i += 2) {
    double* p = a + 2 * i;
    const __m256d v = _mm256_loadu_pd(p);
    _mm256_storeu_pd(
        p, _mm256_add_pd(cmul_vec(ca, dup_lo(v)), cmul_vec(cb, dup_hi(v))));
  }
}

void apply_controlled_1q_avx2(Complex* amps, Index n, const Mat2& u,
                              Index control, Index target) {
  double* a = reinterpret_cast<double*>(amps);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index mlo = Index{1} << lo;
  const Index mhi = Index{1} << hi;
  if (lo >= 1) {
    // Free low bits give contiguous runs of mlo >= 2 base indices with
    // bits lo/hi clear; OR-ing the (clear) control bit keeps them runs.
    const CVec u00 = broadcast_c(u(0, 0)), u01 = broadcast_c(u(0, 1));
    const CVec u10 = broadcast_c(u(1, 0)), u11 = broadcast_c(u(1, 1));
    for (Index base = 0; base < n; base += 2 * mhi)
      for (Index mid = base; mid < base + mhi; mid += 2 * mlo)
        for (Index i = mid; i < mid + mlo; i += 2) {
          const Index i0 = i | cmask;
          pair_update(a + 2 * i0, a + 2 * (i0 | tmask), u00, u01, u10, u11);
        }
    return;
  }
  if (target == 0) {
    // Pairs are adjacent inside the control=|1> half of each block.
    const CVec ca = pair_c(u(0, 0), u(1, 0));
    const CVec cb = pair_c(u(0, 1), u(1, 1));
    for (Index base = 0; base < n; base += 2 * mhi)
      for (Index i = base + mhi; i < base + 2 * mhi; i += 2) {
        double* p = a + 2 * i;
        const __m256d v = _mm256_loadu_pd(p);
        _mm256_storeu_pd(p, _mm256_add_pd(cmul_vec(ca, dup_lo(v)),
                                          cmul_vec(cb, dup_hi(v))));
      }
    return;
  }
  // control == 0: the touched pairs are the odd elements, stride-2 apart —
  // no contiguous runs to vectorize. Scalar formulas (FMA-contracted by
  // this TU's flags, still within the 1e-12 envelope).
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* c = amps;
  for (Index base = 0; base < n; base += 2 * mhi)
    for (Index i = base; i < base + mhi; i += 2) {
      const Index i0 = i | cmask;
      const Index i1 = i0 | tmask;
      const Complex a0 = c[i0];
      const Complex a1 = c[i1];
      c[i0] = Complex{u00.real() * a0.real() - u00.imag() * a0.imag() +
                          (u01.real() * a1.real() - u01.imag() * a1.imag()),
                      u00.real() * a0.imag() + u00.imag() * a0.real() +
                          (u01.real() * a1.imag() + u01.imag() * a1.real())};
      c[i1] = Complex{u10.real() * a0.real() - u10.imag() * a0.imag() +
                          (u11.real() * a1.real() - u11.imag() * a1.imag()),
                      u10.real() * a0.imag() + u10.imag() * a0.real() +
                          (u11.real() * a1.imag() + u11.imag() * a1.real())};
    }
}

void apply_matrix2q_avx2(Complex* amps, Index n, const Mat4& u, Index q0,
                         Index q1) {
  double* a = reinterpret_cast<double*>(amps);
  const Index m0 = Index{1} << q0;
  const Index m1 = Index{1} << q1;
  const Index mlo = q0 < q1 ? m0 : m1;
  const Index mhi = q0 < q1 ? m1 : m0;
  if (mlo >= 2) {
    // Contiguous runs of mlo base indices: two amplitude quadruples per
    // iteration. The 16 broadcast constant pairs live in a small array the
    // compiler keeps on the stack — reloads are cheap aligned loads.
    CVec um[16];
    for (int k = 0; k < 16; ++k) um[k] = broadcast_c(u.m[static_cast<std::size_t>(k)]);
    for (Index base = 0; base < n; base += 2 * mhi)
      for (Index mid = base; mid < base + mhi; mid += 2 * mlo)
        for (Index i0 = mid; i0 < mid + mlo; i0 += 2) {
          double* p0 = a + 2 * i0;
          double* p1 = a + 2 * (i0 | m0);
          double* p2 = a + 2 * (i0 | m1);
          double* p3 = a + 2 * ((i0 | m0) | m1);
          const __m256d a0 = _mm256_loadu_pd(p0);
          const __m256d a1 = _mm256_loadu_pd(p1);
          const __m256d a2 = _mm256_loadu_pd(p2);
          const __m256d a3 = _mm256_loadu_pd(p3);
          _mm256_storeu_pd(
              p0, _mm256_add_pd(
                      _mm256_add_pd(cmul_vec(um[0], a0), cmul_vec(um[1], a1)),
                      _mm256_add_pd(cmul_vec(um[2], a2), cmul_vec(um[3], a3))));
          _mm256_storeu_pd(
              p1, _mm256_add_pd(
                      _mm256_add_pd(cmul_vec(um[4], a0), cmul_vec(um[5], a1)),
                      _mm256_add_pd(cmul_vec(um[6], a2), cmul_vec(um[7], a3))));
          _mm256_storeu_pd(
              p2,
              _mm256_add_pd(
                  _mm256_add_pd(cmul_vec(um[8], a0), cmul_vec(um[9], a1)),
                  _mm256_add_pd(cmul_vec(um[10], a2), cmul_vec(um[11], a3))));
          _mm256_storeu_pd(
              p3,
              _mm256_add_pd(
                  _mm256_add_pd(cmul_vec(um[12], a0), cmul_vec(um[13], a1)),
                  _mm256_add_pd(cmul_vec(um[14], a2), cmul_vec(um[15], a3))));
        }
    return;
  }
  // mlo == 1: the low operand is qubit 0, so the quadruple decomposes into
  // two adjacent pairs (lo-qubit 0/1) at distance mhi. Permute the matrix
  // so sub-index bit 0 is the LOW qubit (the scalar kernel's i1 = i0|m0
  // convention ties bit 0 to q0), then lane-broadcast each amplitude.
  Mat4 w;
  if (q0 < q1) {
    w = u;
  } else {
    const auto perm = [](int k) { return ((k & 1) << 1) | ((k >> 1) & 1); };
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) w(r, c) = u(perm(r), perm(c));
  }
  CVec lo_c[4], hi_c[4];  // column c coefficients of the lo / hi output pair
  for (int c = 0; c < 4; ++c) {
    lo_c[c] = pair_c(w(0, c), w(1, c));
    hi_c[c] = pair_c(w(2, c), w(3, c));
  }
  for (Index base = 0; base < n; base += 2 * mhi)
    for (Index j = base; j < base + mhi; j += 2) {
      double* plo = a + 2 * j;
      double* phi = a + 2 * (j + mhi);
      const __m256d vlo = _mm256_loadu_pd(plo);  // [A B] = lo-qubit 0/1
      const __m256d vhi = _mm256_loadu_pd(phi);  // [C D]
      const __m256d vA = dup_lo(vlo), vB = dup_hi(vlo);
      const __m256d vC = dup_lo(vhi), vD = dup_hi(vhi);
      _mm256_storeu_pd(
          plo, _mm256_add_pd(
                   _mm256_add_pd(cmul_vec(lo_c[0], vA), cmul_vec(lo_c[1], vB)),
                   _mm256_add_pd(cmul_vec(lo_c[2], vC), cmul_vec(lo_c[3], vD))));
      _mm256_storeu_pd(
          phi, _mm256_add_pd(
                   _mm256_add_pd(cmul_vec(hi_c[0], vA), cmul_vec(hi_c[1], vB)),
                   _mm256_add_pd(cmul_vec(hi_c[2], vC), cmul_vec(hi_c[3], vD))));
    }
}

void apply_block_diag_2q_avx2(Complex* amps, Index n, const Mat2& u0,
                              const Mat2& u1, Index control, Index target) {
  double* a = reinterpret_cast<double*>(amps);
  const Index mc = Index{1} << control;
  const Index mt = Index{1} << target;
  // One sweep per control value over that half-space's target pairs —
  // the same iteration order as the scalar twin, pair_update vectorized.
  for (int v = 0; v < 2; ++v) {
    const Mat2& u = v ? u1 : u0;
    if (u(0, 1) == Complex{0, 0} && u(1, 0) == Complex{0, 0} &&
        u(0, 0) == Complex{1, 0} && u(1, 1) == Complex{1, 0})
      continue;  // identity block: half-space untouched
    const Index voff = v ? mc : 0;
    if (control > target) {
      if (mt >= 2) {
        const CVec u00 = broadcast_c(u(0, 0)), u01 = broadcast_c(u(0, 1));
        const CVec u10 = broadcast_c(u(1, 0)), u11 = broadcast_c(u(1, 1));
        for (Index base = 0; base < n; base += 2 * mc) {
          const Index h0 = base + voff;
          for (Index mid = h0; mid < h0 + mc; mid += 2 * mt)
            for (Index i0 = mid; i0 < mid + mt; i0 += 2)
              pair_update(a + 2 * i0, a + 2 * (i0 + mt), u00, u01, u10, u11);
        }
      } else {
        // target == 0: adjacent pairs throughout the control half-space.
        const CVec ca = pair_c(u(0, 0), u(1, 0));
        const CVec cb = pair_c(u(0, 1), u(1, 1));
        for (Index base = 0; base < n; base += 2 * mc) {
          const Index h0 = base + voff;
          for (Index i = h0; i < h0 + mc; i += 2) {
            double* p = a + 2 * i;
            const __m256d vv = _mm256_loadu_pd(p);
            _mm256_storeu_pd(p, _mm256_add_pd(cmul_vec(ca, dup_lo(vv)),
                                              cmul_vec(cb, dup_hi(vv))));
          }
        }
      }
    } else {
      if (mc >= 2) {
        const CVec u00 = broadcast_c(u(0, 0)), u01 = broadcast_c(u(0, 1));
        const CVec u10 = broadcast_c(u(1, 0)), u11 = broadcast_c(u(1, 1));
        for (Index base = 0; base < n; base += 2 * mt)
          for (Index coff = base + voff; coff < base + mt; coff += 2 * mc)
            for (Index i0 = coff; i0 < coff + mc; i0 += 2)
              pair_update(a + 2 * i0, a + 2 * (i0 + mt), u00, u01, u10, u11);
      } else {
        // control == 0: this half-space is every other element, stride-2 —
        // no contiguous runs to vectorize. Scalar formulas in this TU.
        const Complex w00 = u(0, 0), w01 = u(0, 1);
        const Complex w10 = u(1, 0), w11 = u(1, 1);
        for (Index base = 0; base < n; base += 2 * mt)
          for (Index i0 = base + voff; i0 < base + mt; i0 += 2) {
            const Index i1 = i0 + mt;
            const Complex a0 = amps[i0];
            const Complex a1 = amps[i1];
            amps[i0] =
                Complex{w00.real() * a0.real() - w00.imag() * a0.imag() +
                            (w01.real() * a1.real() - w01.imag() * a1.imag()),
                        w00.real() * a0.imag() + w00.imag() * a0.real() +
                            (w01.real() * a1.imag() + w01.imag() * a1.real())};
            amps[i1] =
                Complex{w10.real() * a0.real() - w10.imag() * a0.imag() +
                            (w11.real() * a1.real() - w11.imag() * a1.imag()),
                        w10.real() * a0.imag() + w10.imag() * a0.real() +
                            (w11.real() * a1.imag() + w11.imag() * a1.real())};
          }
      }
    }
  }
}

void batched_apply_1q_avx2(Real* re, Real* im, Index dim, std::size_t lanes,
                           const Mat2& u, Index q) {
  const Index stride = Index{1} << q;
  const __m256d u00r = _mm256_set1_pd(u(0, 0).real());
  const __m256d u00i = _mm256_set1_pd(u(0, 0).imag());
  const __m256d u01r = _mm256_set1_pd(u(0, 1).real());
  const __m256d u01i = _mm256_set1_pd(u(0, 1).imag());
  const __m256d u10r = _mm256_set1_pd(u(1, 0).real());
  const __m256d u10i = _mm256_set1_pd(u(1, 0).imag());
  const __m256d u11r = _mm256_set1_pd(u(1, 1).real());
  const __m256d u11i = _mm256_set1_pd(u(1, 1).imag());
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  for (Index base = 0; base < dim; base += stride * 2)
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off;
      const Index i1 = i0 + stride;
      Real* r0 = re + i0 * lanes;
      Real* s0 = im + i0 * lanes;
      Real* r1 = re + i1 * lanes;
      Real* s1 = im + i1 * lanes;
      std::size_t l = 0;
      for (; l + 4 <= lanes; l += 4) {
        const __m256d vr0 = _mm256_loadu_pd(r0 + l);
        const __m256d vi0 = _mm256_loadu_pd(s0 + l);
        const __m256d vr1 = _mm256_loadu_pd(r1 + l);
        const __m256d vi1 = _mm256_loadu_pd(s1 + l);
        // new0 = cmul(u00, a0) + cmul(u01, a1), components separated:
        // pure mul/fma on full lanes — no shuffles at all in SoA form.
        _mm256_storeu_pd(
            r0 + l,
            _mm256_add_pd(_mm256_fnmadd_pd(u00i, vi0, _mm256_mul_pd(u00r, vr0)),
                          _mm256_fnmadd_pd(u01i, vi1, _mm256_mul_pd(u01r, vr1))));
        _mm256_storeu_pd(
            s0 + l,
            _mm256_add_pd(_mm256_fmadd_pd(u00i, vr0, _mm256_mul_pd(u00r, vi0)),
                          _mm256_fmadd_pd(u01i, vr1, _mm256_mul_pd(u01r, vi1))));
        _mm256_storeu_pd(
            r1 + l,
            _mm256_add_pd(_mm256_fnmadd_pd(u10i, vi0, _mm256_mul_pd(u10r, vr0)),
                          _mm256_fnmadd_pd(u11i, vi1, _mm256_mul_pd(u11r, vr1))));
        _mm256_storeu_pd(
            s1 + l,
            _mm256_add_pd(_mm256_fmadd_pd(u10i, vr0, _mm256_mul_pd(u10r, vi0)),
                          _mm256_fmadd_pd(u11i, vr1, _mm256_mul_pd(u11r, vi1))));
      }
      for (; l < lanes; ++l) {
        const Real ar = r0[l], ai = s0[l], br = r1[l], bi = s1[l];
        r0[l] = (u00.real() * ar - u00.imag() * ai) +
                (u01.real() * br - u01.imag() * bi);
        s0[l] = (u00.real() * ai + u00.imag() * ar) +
                (u01.real() * bi + u01.imag() * br);
        r1[l] = (u10.real() * ar - u10.imag() * ai) +
                (u11.real() * br - u11.imag() * bi);
        s1[l] = (u10.real() * ai + u10.imag() * ar) +
                (u11.real() * bi + u11.imag() * br);
      }
    }
}

}  // namespace qugeo::qsim

#else  // !QUGEO_WITH_AVX2_KERNELS

namespace qugeo::qsim {

namespace {
[[noreturn]] void no_avx2() {
  // Unreachable through normal dispatch: simd::active_level() can only
  // report kAvx2 when this TU was compiled with the real kernels.
  throw std::logic_error("AVX2 kernels not compiled into this binary");
}
}  // namespace

void apply_1q_avx2(Complex*, Index, const Mat2&, Index) { no_avx2(); }
void apply_controlled_1q_avx2(Complex*, Index, const Mat2&, Index, Index) {
  no_avx2();
}
void apply_matrix2q_avx2(Complex*, Index, const Mat4&, Index, Index) {
  no_avx2();
}
void apply_block_diag_2q_avx2(Complex*, Index, const Mat2&, const Mat2&, Index,
                              Index) {
  no_avx2();
}
Mat2 adjoint_sweep_1q_avx2(Complex*, Complex*, Index, const Mat2&, Index) {
  no_avx2();
}
Mat2 adjoint_sweep_controlled_1q_avx2(Complex*, Complex*, Index, const Mat2&,
                                      Index, Index) {
  no_avx2();
}
void batched_apply_1q_avx2(Real*, Real*, Index, std::size_t, const Mat2&,
                           Index) {
  no_avx2();
}

}  // namespace qugeo::qsim

#endif  // QUGEO_WITH_AVX2_KERNELS
