// AVX2/FMA variants of the statevector hot kernels.
//
// These are the intrinsic twins of the scalar loops in statevector.cpp,
// compiled in the dedicated -mavx2 -mfma translation unit kernels_avx2.cpp
// so the rest of the binary stays runnable on any x86-64. StateVector's
// public methods dispatch here when simd::active_level() is kAvx2
// (common/cpu_features.h) — a state that can only be reached when the TU
// was compiled in AND the CPU reports avx2+fma, so calling one of these on
// an unsupported build is a logic error (the stub definitions throw).
//
// Numerical contract: each variant evaluates the same per-amplitude
// formulas as its scalar twin; the only difference is FMA contraction
// (and, for the adjoint sweeps, the lane order of the correlation sums),
// so results match scalar to <= 1e-12 per amplitude (pinned by
// test_qsim_kernels' *_avx2 equivalence cases, enforced by qugeo-lint
// rule 6).
#pragma once

#include <cstddef>

#include "common/types.h"
#include "qsim/gate.h"

namespace qugeo::qsim {

/// AVX2 twin of StateVector::apply_1q: two interleaved complexes per
/// __m256d for stride >= 2, lane-broadcast pair math for q == 0.
void apply_1q_avx2(Complex* amps, Index n, const Mat2& u, Index q);

/// AVX2 twin of StateVector::apply_controlled_1q. The control==0&&target>0
/// case (odd, stride-2 pairs — no contiguous runs to vectorize) runs the
/// scalar formulas inside this TU.
void apply_controlled_1q_avx2(Complex* amps, Index n, const Mat2& u,
                              Index control, Index target);

/// AVX2 twin of adjoint_sweep_1q (statevector.h): rewinds `psi` and
/// `lambda` by `ud` and returns their pair correlation G, in one pass with
/// two pairs per __m256d and eight FMAs per step into lane accumulators.
/// Requires q >= 1 (contiguous runs); the dispatcher keeps q == 0 scalar.
[[nodiscard]] Mat2 adjoint_sweep_1q_avx2(Complex* psi, Complex* lambda,
                                         Index n, const Mat2& ud, Index q);

/// AVX2 twin of adjoint_sweep_controlled_1q. Requires control >= 1 and
/// target >= 1; the dispatcher keeps qubit-0 placements scalar.
[[nodiscard]] Mat2 adjoint_sweep_controlled_1q_avx2(Complex* psi,
                                                    Complex* lambda, Index n,
                                                    const Mat2& ud,
                                                    Index control,
                                                    Index target);

/// Lane-vectorized 1q kernel over BatchedStateVector's SoA storage
/// (amplitude-major, lane-minor): four batch lanes per __m256d, pure
/// mul/fma with no shuffles. `re`/`im` are the deinterleaved amplitude
/// planes, each dim * lanes long.
void batched_apply_1q_avx2(Real* re, Real* im, Index dim, std::size_t lanes,
                           const Mat2& u, Index q);

}  // namespace qugeo::qsim
