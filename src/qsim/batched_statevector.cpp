#include "qsim/batched_statevector.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/cpu_features.h"
#include "common/math_utils.h"
#include "qsim/simd_kernels.h"

namespace qugeo::qsim {

namespace {
constexpr Complex kOne{1, 0};

bool use_avx2() noexcept {
  return simd::active_level() == simd::SimdLevel::kAvx2;
}
}  // namespace

BatchedStateVector::BatchedStateVector(Index num_qubits, std::size_t lanes)
    : num_qubits_(num_qubits), dim_(Index{1} << num_qubits), lanes_(lanes) {
  if (num_qubits > 28)
    throw std::invalid_argument(
        "BatchedStateVector: too many qubits for dense sim");
  if (lanes == 0)
    throw std::invalid_argument("BatchedStateVector: need at least one lane");
  re_.assign(dim_ * lanes_, Real(0));
  im_.assign(dim_ * lanes_, Real(0));
  for (std::size_t l = 0; l < lanes_; ++l) re_[l] = Real(1);
}

void BatchedStateVector::reset() {
  std::fill(re_.begin(), re_.end(), Real(0));
  std::fill(im_.begin(), im_.end(), Real(0));
  for (std::size_t l = 0; l < lanes_; ++l) re_[l] = Real(1);
}

void BatchedStateVector::set_lane(std::size_t lane,
                                  std::span<const Complex> amps) {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedStateVector::set_lane: lane out of range");
  if (amps.size() != dim_)
    throw std::invalid_argument("set_lane: dimension mismatch");
  for (Index k = 0; k < dim_; ++k) {
    re_[k * lanes_ + lane] = amps[k].real();
    im_[k * lanes_ + lane] = amps[k].imag();
  }
}

void BatchedStateVector::set_lane(std::size_t lane, const StateVector& psi) {
  if (psi.num_qubits() != num_qubits_)
    throw std::invalid_argument("set_lane: qubit count mismatch");
  set_lane(lane, psi.amplitudes());
}

StateVector BatchedStateVector::lane_state(std::size_t lane) const {
  if (lane >= lanes_)
    throw std::out_of_range(
        "BatchedStateVector::lane_state: lane out of range");
  StateVector psi(num_qubits_);
  const std::span<Complex> out = psi.amplitudes_mut();
  for (Index k = 0; k < dim_; ++k)
    out[k] = Complex{re_[k * lanes_ + lane], im_[k * lanes_ + lane]};
  return psi;
}

std::vector<Real> BatchedStateVector::lane_probabilities(
    std::size_t lane) const {
  if (lane >= lanes_)
    throw std::out_of_range(
        "BatchedStateVector::lane_probabilities: lane out of range");
  std::vector<Real> p(dim_);
  for (Index k = 0; k < dim_; ++k) {
    const Real r = re_[k * lanes_ + lane];
    const Real i = im_[k * lanes_ + lane];
    p[k] = r * r + i * i;
  }
  return p;
}

Real BatchedStateVector::lane_norm_sq(std::size_t lane) const {
  if (lane >= lanes_)
    throw std::out_of_range(
        "BatchedStateVector::lane_norm_sq: lane out of range");
  Real s = 0;
  for (Index k = 0; k < dim_; ++k) {
    const Real r = re_[k * lanes_ + lane];
    const Real i = im_[k * lanes_ + lane];
    s += r * r + i * i;
  }
  return s;
}

// Every lane loop below spells out the complex arithmetic with the exact
// grouping of cmul / the StateVector kernels (see statevector.cpp), so the
// scalar batched path is bit-identical to looping the single-state kernels
// over the lanes.

void BatchedStateVector::apply_1q(const Mat2& u, Index q) {
  assert(q < num_qubits_);
  if (use_avx2()) {
    batched_apply_1q_avx2(re_.data(), im_.data(), dim_, lanes_, u, q);
    return;
  }
  const Index stride = Index{1} << q;
  const Real u00r = u(0, 0).real(), u00i = u(0, 0).imag();
  const Real u01r = u(0, 1).real(), u01i = u(0, 1).imag();
  const Real u10r = u(1, 0).real(), u10i = u(1, 0).imag();
  const Real u11r = u(1, 1).real(), u11i = u(1, 1).imag();
  Real* re = re_.data();
  Real* im = im_.data();
  for (Index base = 0; base < dim_; base += stride * 2) {
    for (Index off = 0; off < stride; ++off) {
      const Index i0 = base + off;
      const Index i1 = i0 + stride;
      Real* r0 = re + i0 * lanes_;
      Real* m0 = im + i0 * lanes_;
      Real* r1 = re + i1 * lanes_;
      Real* m1 = im + i1 * lanes_;
      for (std::size_t l = 0; l < lanes_; ++l) {
        const Real a0r = r0[l], a0i = m0[l];
        const Real a1r = r1[l], a1i = m1[l];
        r0[l] = (u00r * a0r - u00i * a0i) + (u01r * a1r - u01i * a1i);
        m0[l] = (u00r * a0i + u00i * a0r) + (u01r * a1i + u01i * a1r);
        r1[l] = (u10r * a0r - u10i * a0i) + (u11r * a1r - u11i * a1i);
        m1[l] = (u10r * a0i + u10i * a0r) + (u11r * a1i + u11i * a1r);
      }
    }
  }
}

void BatchedStateVector::apply_diag_1q(Complex d0, Complex d1, Index q) {
  assert(q < num_qubits_);
  const Index stride = Index{1} << q;
  const Index half = dim_ / 2;
  const Real d0r = d0.real(), d0i = d0.imag();
  const Real d1r = d1.real(), d1i = d1.imag();
  Real* re = re_.data();
  Real* im = im_.data();
  if (d0 == kOne && d1 == kOne) return;  // identity
  if (d0 == kOne) {
    for (Index j = 0; j < half; ++j) {
      const Index i1 = insert_zero_bit(j, q) | stride;
      Real* r1 = re + i1 * lanes_;
      Real* m1 = im + i1 * lanes_;
      for (std::size_t l = 0; l < lanes_; ++l) {
        const Real ar = r1[l], ai = m1[l];
        r1[l] = ar * d1r - ai * d1i;
        m1[l] = ar * d1i + ai * d1r;
      }
    }
    return;
  }
  for (Index j = 0; j < half; ++j) {
    const Index i0 = insert_zero_bit(j, q);
    const Index i1 = i0 | stride;
    Real* r0 = re + i0 * lanes_;
    Real* m0 = im + i0 * lanes_;
    Real* r1 = re + i1 * lanes_;
    Real* m1 = im + i1 * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      const Real a0r = r0[l], a0i = m0[l];
      const Real a1r = r1[l], a1i = m1[l];
      r0[l] = a0r * d0r - a0i * d0i;
      m0[l] = a0r * d0i + a0i * d0r;
      r1[l] = a1r * d1r - a1i * d1i;
      m1[l] = a1r * d1i + a1i * d1r;
    }
  }
}

void BatchedStateVector::apply_antidiag_1q(Complex a01, Complex a10, Index q) {
  assert(q < num_qubits_);
  const Index stride = Index{1} << q;
  const Index half = dim_ / 2;
  Real* re = re_.data();
  Real* im = im_.data();
  if (a01 == kOne && a10 == kOne) {  // X: pure swap
    for (Index j = 0; j < half; ++j) {
      const Index i0 = insert_zero_bit(j, q);
      const Index i1 = i0 | stride;
      Real* r0 = re + i0 * lanes_;
      Real* m0 = im + i0 * lanes_;
      Real* r1 = re + i1 * lanes_;
      Real* m1 = im + i1 * lanes_;
      for (std::size_t l = 0; l < lanes_; ++l) {
        std::swap(r0[l], r1[l]);
        std::swap(m0[l], m1[l]);
      }
    }
    return;
  }
  const Real b01r = a01.real(), b01i = a01.imag();
  const Real b10r = a10.real(), b10i = a10.imag();
  for (Index j = 0; j < half; ++j) {
    const Index i0 = insert_zero_bit(j, q);
    const Index i1 = i0 | stride;
    Real* r0 = re + i0 * lanes_;
    Real* m0 = im + i0 * lanes_;
    Real* r1 = re + i1 * lanes_;
    Real* m1 = im + i1 * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      const Real a0r = r0[l], a0i = m0[l];
      const Real a1r = r1[l], a1i = m1[l];
      r0[l] = b01r * a1r - b01i * a1i;
      m0[l] = b01r * a1i + b01i * a1r;
      r1[l] = b10r * a0r - b10i * a0i;
      m1[l] = b10r * a0i + b10i * a0r;
    }
  }
}

namespace {

/// Shared 2x2 pair update over one (i0, i1) amplitude pair, all lanes —
/// the body the block-diagonal and controlled kernels reuse.
inline void pair_update_lanes(Real* r0, Real* m0, Real* r1, Real* m1,
                              std::size_t lanes, Real u00r, Real u00i,
                              Real u01r, Real u01i, Real u10r, Real u10i,
                              Real u11r, Real u11i) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const Real a0r = r0[l], a0i = m0[l];
    const Real a1r = r1[l], a1i = m1[l];
    r0[l] = (u00r * a0r - u00i * a0i) + (u01r * a1r - u01i * a1i);
    m0[l] = (u00r * a0i + u00i * a0r) + (u01r * a1i + u01i * a1r);
    r1[l] = (u10r * a0r - u10i * a0i) + (u11r * a1r - u11i * a1i);
    m1[l] = (u10r * a0i + u10i * a0r) + (u11r * a1i + u11i * a1r);
  }
}

}  // namespace

void BatchedStateVector::apply_controlled_1q(const Mat2& u, Index control,
                                             Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = dim_ / 4;
  const Real u00r = u(0, 0).real(), u00i = u(0, 0).imag();
  const Real u01r = u(0, 1).real(), u01i = u(0, 1).imag();
  const Real u10r = u(1, 0).real(), u10i = u(1, 0).imag();
  const Real u11r = u(1, 1).real(), u11i = u(1, 1).imag();
  Real* re = re_.data();
  Real* im = im_.data();
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    pair_update_lanes(re + i0 * lanes_, im + i0 * lanes_, re + i1 * lanes_,
                      im + i1 * lanes_, lanes_, u00r, u00i, u01r, u01i, u10r,
                      u10i, u11r, u11i);
  }
}

void BatchedStateVector::apply_controlled_diag_1q(Complex d0, Complex d1,
                                                  Index control, Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = dim_ / 4;
  const Real d0r = d0.real(), d0i = d0.imag();
  const Real d1r = d1.real(), d1i = d1.imag();
  Real* re = re_.data();
  Real* im = im_.data();
  if (d0 == kOne && d1 == kOne) return;
  if (d0 == kOne) {
    for (Index j = 0; j < quarter; ++j) {
      const Index i1 = insert_two_zero_bits(j, lo, hi) | cmask | tmask;
      Real* r1 = re + i1 * lanes_;
      Real* m1 = im + i1 * lanes_;
      for (std::size_t l = 0; l < lanes_; ++l) {
        const Real ar = r1[l], ai = m1[l];
        r1[l] = ar * d1r - ai * d1i;
        m1[l] = ar * d1i + ai * d1r;
      }
    }
    return;
  }
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    Real* r0 = re + i0 * lanes_;
    Real* m0 = im + i0 * lanes_;
    Real* r1 = re + i1 * lanes_;
    Real* m1 = im + i1 * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      const Real a0r = r0[l], a0i = m0[l];
      const Real a1r = r1[l], a1i = m1[l];
      r0[l] = a0r * d0r - a0i * d0i;
      m0[l] = a0r * d0i + a0i * d0r;
      r1[l] = a1r * d1r - a1i * d1i;
      m1[l] = a1r * d1i + a1i * d1r;
    }
  }
}

void BatchedStateVector::apply_controlled_antidiag_1q(Complex a01, Complex a10,
                                                      Index control,
                                                      Index target) {
  assert(control < num_qubits_ && target < num_qubits_ && control != target);
  const Index cmask = Index{1} << control;
  const Index tmask = Index{1} << target;
  const Index lo = control < target ? control : target;
  const Index hi = control < target ? target : control;
  const Index quarter = dim_ / 4;
  Real* re = re_.data();
  Real* im = im_.data();
  if (a01 == kOne && a10 == kOne) {  // CX: swap inside the control half
    for (Index j = 0; j < quarter; ++j) {
      const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
      const Index i1 = i0 | tmask;
      Real* r0 = re + i0 * lanes_;
      Real* m0 = im + i0 * lanes_;
      Real* r1 = re + i1 * lanes_;
      Real* m1 = im + i1 * lanes_;
      for (std::size_t l = 0; l < lanes_; ++l) {
        std::swap(r0[l], r1[l]);
        std::swap(m0[l], m1[l]);
      }
    }
    return;
  }
  const Real b01r = a01.real(), b01i = a01.imag();
  const Real b10r = a10.real(), b10i = a10.imag();
  for (Index j = 0; j < quarter; ++j) {
    const Index i0 = insert_two_zero_bits(j, lo, hi) | cmask;
    const Index i1 = i0 | tmask;
    Real* r0 = re + i0 * lanes_;
    Real* m0 = im + i0 * lanes_;
    Real* r1 = re + i1 * lanes_;
    Real* m1 = im + i1 * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      const Real a0r = r0[l], a0i = m0[l];
      const Real a1r = r1[l], a1i = m1[l];
      r0[l] = b01r * a1r - b01i * a1i;
      m0[l] = b01r * a1i + b01i * a1r;
      r1[l] = b10r * a0r - b10i * a0i;
      m1[l] = b10r * a0i + b10i * a0r;
    }
  }
}

void BatchedStateVector::apply_swap(Index a, Index b) {
  assert(a < num_qubits_ && b < num_qubits_);
  if (a == b) return;
  const Index ma = Index{1} << a;
  const Index mb = Index{1} << b;
  const Index lo = a < b ? a : b;
  const Index hi = a < b ? b : a;
  const Index quarter = dim_ / 4;
  Real* re = re_.data();
  Real* im = im_.data();
  for (Index j = 0; j < quarter; ++j) {
    const Index base = insert_two_zero_bits(j, lo, hi);
    Real* ra = re + (base | ma) * lanes_;
    Real* ia = im + (base | ma) * lanes_;
    Real* rb = re + (base | mb) * lanes_;
    Real* ib = im + (base | mb) * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      std::swap(ra[l], rb[l]);
      std::swap(ia[l], ib[l]);
    }
  }
}

}  // namespace qugeo::qsim
