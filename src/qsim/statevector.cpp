#include "qsim/statevector.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/cpu_features.h"
#include "common/math_utils.h"
#include "qsim/simd_kernels.h"

namespace qugeo::qsim {

namespace {
constexpr Complex kOne{1, 0};

/// One relaxed load per kernel call decides scalar vs AVX2 dispatch; the
/// scalar bodies below are byte-for-byte the pre-SIMD kernels, so
/// QUGEO_SIMD=scalar reproduces historical results bit-exactly.
bool use_avx2() noexcept {
  return simd::active_level() == simd::SimdLevel::kAvx2;
}

/// The per-pair body shared by the scalar adjoint sweeps: rewind the psi
/// pair, correlate it against the lambda pair, rewind the lambda pair. The
/// matrix is hoisted into locals for the same aliasing reason as apply_1q.
struct AdjointPairStep {
  Complex w00, w01, w10, w11;
  Complex g00{0, 0}, g01{0, 0}, g10{0, 0}, g11{0, 0};

  explicit AdjointPairStep(const Mat2& ud)
      : w00(ud(0, 0)), w01(ud(0, 1)), w10(ud(1, 0)), w11(ud(1, 1)) {}

  void operator()(Complex* psi, Complex* lam, Index i0, Index i1) {
    const Complex p0 = psi[i0];
    const Complex p1 = psi[i1];
    const Complex r0 = cmul(w00, p0) + cmul(w01, p1);
    const Complex r1 = cmul(w10, p0) + cmul(w11, p1);
    psi[i0] = r0;
    psi[i1] = r1;
    const Complex l0 = lam[i0];
    const Complex l1 = lam[i1];
    g00 += cmul_conj(l0, r0);
    g01 += cmul_conj(l0, r1);
    g10 += cmul_conj(l1, r0);
    g11 += cmul_conj(l1, r1);
    lam[i0] = cmul(w00, l0) + cmul(w01, l1);
    lam[i1] = cmul(w10, l0) + cmul(w11, l1);
  }

  [[nodiscard]] Mat2 correlation() const {
    Mat2 g;
    g.m = {g00, g01, g10, g11};
    return g;
  }
};
}  // namespace

StateVector::StateVector(Index num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits > 28)
    throw std::invalid_argument("StateVector: too many qubits for dense sim");
  amps_.assign(Index{1} << num_qubits, Complex{0, 0});
  amps_[0] = Complex{1, 0};
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), Complex{0, 0});
  amps_[0] = Complex{1, 0};
}

void StateVector::set_amplitudes(std::span<const Complex> amps) {
  if (amps.size() != amps_.size())
    throw std::invalid_argument("set_amplitudes: dimension mismatch");
  std::copy(amps.begin(), amps.end(), amps_.begin());
}

void StateVector::set_amplitudes_real(std::span<const Real> amps) {
  if (amps.size() != amps_.size())
    throw std::invalid_argument("set_amplitudes_real: dimension mismatch");
  for (Index k = 0; k < amps_.size(); ++k) amps_[k] = Complex{amps[k], 0};
}

Real StateVector::norm_sq() const noexcept {
  Real s = 0;
  for (const Complex& a : amps_) s += std::norm(a);
  return s;
}

void StateVector::apply_1q(const Mat2& u, Index q) {
  assert(q < num_qubits_);
  if (use_avx2()) {
    apply_1q_avx2(amps_.data(), amps_.size(), u, q);
    return;
  }
  const Index stride = Index{1} << q;
  const Index n = amps_.size();
  // Hoist the matrix into locals: amps_ and u are both Complex storage, so
  // without this the compiler must reload u after every amplitude store.
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* a = amps_.data();
  for (Index base = 0; base < n; base += stride * 2) {
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off;
      const Index i1 = i0 + stride;
      const Complex a0 = a[i0];
      const Complex a1 = a[i1];
      a[i0] = cmul(u00, a0) + cmul(u01, a1);
      a[i1] = cmul(u10, a0) + cmul(u11, a1);
    }
  }
}

void StateVector::apply_diag_1q(Complex d0, Complex d1, Index q) {
  assert(q < num_qubits_);
  const Index stride = Index{1} << q;
  const Index half = amps_.size() / 2;
  Complex* a = amps_.data();
  if (d0 == kOne && d1 == kOne) return;  // identity
  if (d0 == kOne) {
    // Z/S/T/Phase (and RZ up to global phase do not hit this): only the
    // q=|1> half-space picks up a phase.
    for (Index j = 0; j < half; ++j) {
      const Index i1 = insert_zero_bit(j, q) | stride;
      a[i1] = cmul(a[i1], d1);
    }
    return;
  }
  for (Index j = 0; j < half; ++j) {
    const Index i0 = insert_zero_bit(j, q);
    const Index i1 = i0 | stride;
    a[i0] = cmul(a[i0], d0);
    a[i1] = cmul(a[i1], d1);
  }
}

void StateVector::apply_antidiag_1q(Complex a01, Complex a10, Index q) {
  assert(q < num_qubits_);
  const Index stride = Index{1} << q;
  const Index half = amps_.size() / 2;
  Complex* a = amps_.data();
  if (a01 == kOne && a10 == kOne) {  // X: pure swap
    for (Index j = 0; j < half; ++j) {
      const Index i0 = insert_zero_bit(j, q);
      std::swap(a[i0], a[i0 | stride]);
    }
    return;
  }
  for (Index j = 0; j < half; ++j) {
    const Index i0 = insert_zero_bit(j, q);
    const Index i1 = i0 | stride;
    const Complex a0 = a[i0];
    a[i0] = cmul(a01, a[i1]);
    a[i1] = cmul(a10, a0);
  }
}

void StateVector::apply_matrix2q(const Mat4& u, Index q0, Index q1) {
  assert(q0 < num_qubits_ && q1 < num_qubits_ && q0 != q1);
  if (use_avx2()) {
    apply_matrix2q_avx2(amps_.data(), amps_.size(), u, q0, q1);
    return;
  }
  const Index m0 = Index{1} << q0;
  const Index m1 = Index{1} << q1;
  const Index mlo = q0 < q1 ? m0 : m1;
  const Index mhi = q0 < q1 ? m1 : m0;
  const Index n = amps_.size();
  // Local copy of the matrix: a local array cannot alias amps_, so the
  // compiler may keep entries cached across the amplitude stores and
  // schedule the 16 loads freely (hoisting all 16 into named locals
  // spills half the register file instead).
  const std::array<Complex, 16> um = u.m;
  Complex* a = amps_.data();
  // Three-level block iteration (see apply_1q): the innermost loop walks a
  // CONTIGUOUS run of `mlo` base indices, so there is no per-iteration bit
  // insertion and the quadruple gather vectorizes.
  for (Index base = 0; base < n; base += 2 * mhi) {
    for (Index mid = base; mid < base + mhi; mid += 2 * mlo) {
      for (Index i0 = mid; i0 < mid + mlo; ++i0) {
        const Index i1 = i0 | m0;
        const Index i2 = i0 | m1;
        const Index i3 = i1 | m1;
        const Complex a0 = a[i0];
        const Complex a1 = a[i1];
        const Complex a2 = a[i2];
        const Complex a3 = a[i3];
        a[i0] = cmul(um[0], a0) + cmul(um[1], a1) + cmul(um[2], a2) +
                cmul(um[3], a3);
        a[i1] = cmul(um[4], a0) + cmul(um[5], a1) + cmul(um[6], a2) +
                cmul(um[7], a3);
        a[i2] = cmul(um[8], a0) + cmul(um[9], a1) + cmul(um[10], a2) +
                cmul(um[11], a3);
        a[i3] = cmul(um[12], a0) + cmul(um[13], a1) + cmul(um[14], a2) +
                cmul(um[15], a3);
      }
    }
  }
}

void StateVector::apply_block_diag_2q(const Mat2& u0, const Mat2& u1,
                                      Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  if (use_avx2()) {
    apply_block_diag_2q_avx2(amps_.data(), amps_.size(), u0, u1, control,
                             target);
    return;
  }
  const Index mc = Index{1} << control;
  const Index mt = Index{1} << target;
  const Index n = amps_.size();
  Complex* a = amps_.data();
  // One sweep per control value, each an apply_1q-shaped pass over the
  // target pairs of that half-space: contiguous inner runs, four hoisted
  // matrix entries — the register profile the 1q kernel vectorizes.
  for (int v = 0; v < 2; ++v) {
    const Mat2& u = v ? u1 : u0;
    if (u(0, 1) == Complex{0, 0} && u(1, 0) == Complex{0, 0} &&
        u(0, 0) == kOne && u(1, 1) == kOne)
      continue;  // identity block: half-space untouched
    const Complex w00 = u(0, 0), w01 = u(0, 1), w10 = u(1, 0), w11 = u(1, 1);
    const Index voff = v ? mc : 0;
    if (control > target) {
      // Control halves are contiguous ranges of length mc.
      for (Index base = 0; base < n; base += 2 * mc) {
        const Index h0 = base + voff;
        for (Index mid = h0; mid < h0 + mc; mid += 2 * mt) {
          for (Index i0 = mid; i0 < mid + mt; ++i0) {
            const Index i1 = i0 + mt;
            const Complex a0 = a[i0];
            const Complex a1 = a[i1];
            a[i0] = cmul(w00, a0) + cmul(w01, a1);
            a[i1] = cmul(w10, a0) + cmul(w11, a1);
          }
        }
      }
    } else {
      // Control alternates with period mc inside each target-pair block.
      for (Index base = 0; base < n; base += 2 * mt) {
        for (Index coff = base + voff; coff < base + mt; coff += 2 * mc) {
          for (Index i0 = coff; i0 < coff + mc; ++i0) {
            const Index i1 = i0 + mt;
            const Complex a0 = a[i0];
            const Complex a1 = a[i1];
            a[i0] = cmul(w00, a0) + cmul(w01, a1);
            a[i1] = cmul(w10, a0) + cmul(w11, a1);
          }
        }
      }
    }
  }
}

void StateVector::apply_controlled_1q(const Mat2& u, Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  if (use_avx2()) {
    apply_controlled_1q_avx2(amps_.data(), amps_.size(), u, control, target);
    return;
  }
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = amps_.size() / 4;
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* a = amps_.data();
  // Iterate the control=|1> half-space directly: j enumerates the free
  // bits, the control/target bits are re-inserted, so there is no skipped
  // half and no branch in the loop body.
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    const Complex a0 = a[i0];
    const Complex a1 = a[i1];
    a[i0] = cmul(u00, a0) + cmul(u01, a1);
    a[i1] = cmul(u10, a0) + cmul(u11, a1);
  }
}

void StateVector::apply_controlled_diag_1q(Complex d0, Complex d1,
                                           Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = amps_.size() / 4;
  Complex* a = amps_.data();
  if (d0 == kOne && d1 == kOne) return;
  if (d0 == kOne) {
    // CZ/CS/CT: only the control=target=|1> quarter-space is touched.
    for (Index j = 0; j < quarter; ++j) {
      const Index i1 = insert_two_zero_bits(j, lo, hi) | cmask | tmask;
      a[i1] = cmul(a[i1], d1);
    }
    return;
  }
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    a[i0] = cmul(a[i0], d0);
    a[i1] = cmul(a[i1], d1);
  }
}

void StateVector::apply_controlled_antidiag_1q(Complex a01, Complex a10,
                                               Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = amps_.size() / 4;
  Complex* a = amps_.data();
  if (a01 == kOne && a10 == kOne) {  // CX: swap inside the control half
    for (Index j = 0; j < quarter; ++j) {
      const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
      std::swap(a[i0], a[i0 | tmask]);
    }
    return;
  }
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    const Complex a0 = a[i0];
    a[i0] = cmul(a01, a[i1]);
    a[i1] = cmul(a10, a0);
  }
}

void StateVector::apply_swap(Index a, Index b) {
  assert(a < num_qubits_ && b < num_qubits_);
  if (a == b) return;
  const Index ma = Index{1} << a;
  const Index mb = Index{1} << b;
  const Index lo = a < b ? a : b;
  const Index hi = a < b ? b : a;
  const Index quarter = amps_.size() / 4;
  Complex* amp = amps_.data();
  // Standard two-mask half-space iteration: enumerate the free bits and
  // exchange the |01> / |10> pair of each quadruple directly.
  for (Index j = 0; j < quarter; ++j) {
    const Index base = insert_two_zero_bits(j, lo, hi);
    std::swap(amp[base | ma], amp[base | mb]);
  }
}

std::vector<Real> StateVector::probabilities() const {
  std::vector<Real> p(amps_.size());
  for (Index k = 0; k < amps_.size(); ++k) p[k] = std::norm(amps_[k]);
  return p;
}

std::vector<Real> StateVector::marginal_probabilities(
    std::span<const Index> qubits) const {
  std::vector<Real> p(Index{1} << qubits.size(), Real(0));
  for (Index k = 0; k < amps_.size(); ++k) {
    Index out = 0;
    for (Index i = 0; i < qubits.size(); ++i)
      if (k & (Index{1} << qubits[i])) out |= Index{1} << i;
    p[out] += std::norm(amps_[k]);
  }
  return p;
}

Real StateVector::expect_z(Index q) const {
  assert(q < num_qubits_);
  const Index mask = Index{1} << q;
  Real e = 0;
  for (Index k = 0; k < amps_.size(); ++k)
    e += ((k & mask) ? Real(-1) : Real(1)) * std::norm(amps_[k]);
  return e;
}

std::vector<Real> StateVector::cumulative_probabilities() const {
  std::vector<Real> cdf(amps_.size());
  Real acc = 0;
  for (Index k = 0; k < amps_.size(); ++k) {
    acc += std::norm(amps_[k]);
    cdf[k] = acc;
  }
  return cdf;
}

std::vector<Index> StateVector::sample(Rng& rng, std::size_t shots) const {
  return sample_from_cdf(cumulative_probabilities(), rng, shots);
}

std::vector<Index> StateVector::sample_from_cdf(std::span<const Real> cdf,
                                                Rng& rng, std::size_t shots) {
  // Inverse-CDF sampling; the O(2^n) prefix sums are built once by the
  // caller, so repeated shot-readout calls cost O(shots log dim) each.
  if (cdf.empty())
    throw std::invalid_argument("sample_from_cdf: empty distribution");
  const Real total = cdf.back();
  std::vector<Index> out(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const Real r = rng.uniform() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
    out[s] = static_cast<Index>(std::distance(cdf.begin(), it));
  }
  return out;
}

Mat2 adjoint_sweep_1q(StateVector& psi, StateVector& lambda, const Mat2& ud,
                      Index q) {
  assert(q < psi.num_qubits() && lambda.dim() == psi.dim());
  Complex* p = psi.amplitudes_mut().data();
  Complex* l = lambda.amplitudes_mut().data();
  const Index n = psi.dim();
  if (q >= 1 && use_avx2()) return adjoint_sweep_1q_avx2(p, l, n, ud, q);
  const Index stride = Index{1} << q;
  AdjointPairStep step(ud);
  for (Index base = 0; base < n; base += stride * 2)
    for (Index i0 = base; i0 < base + stride; ++i0) step(p, l, i0, i0 + stride);
  return step.correlation();
}

Mat2 adjoint_sweep_controlled_1q(StateVector& psi, StateVector& lambda,
                                 const Mat2& ud, Index control, Index target) {
  assert(control < psi.num_qubits() && target < psi.num_qubits() &&
         control != target && lambda.dim() == psi.dim());
  Complex* p = psi.amplitudes_mut().data();
  Complex* l = lambda.amplitudes_mut().data();
  const Index n = psi.dim();
  if (control >= 1 && target >= 1 && use_avx2())
    return adjoint_sweep_controlled_1q_avx2(p, l, n, ud, control, target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  AdjointPairStep step(ud);
  for (Index j = 0; j < n / 4; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    step(p, l, i0, i0 | tmask);
  }
  return step.correlation();
}

Real StateVector::fidelity(const StateVector& other) const {
  if (other.dim() != dim())
    throw std::invalid_argument("fidelity: dimension mismatch");
  Complex ip{0, 0};
  for (Index k = 0; k < amps_.size(); ++k)
    ip += std::conj(amps_[k]) * other.amps_[k];
  return std::norm(ip);
}

}  // namespace qugeo::qsim
