// Batched dense statevector: many independent states advanced by one gate
// dispatch.
//
// Storage is structure-of-arrays with deinterleaved real/imag planes in
// amplitude-major, lane-minor order: plane[k * lanes + l] is amplitude k of
// batch lane l. One gate application therefore walks each amplitude
// pair/quadruple ONCE and sweeps all lanes through it in a contiguous inner
// loop — the matrix entries are loop-invariant scalars, the lane loop is
// pure mul/add with unit stride (four lanes per __m256d on the AVX2 path,
// no shuffles), and the per-gate index arithmetic is amortized over the
// whole batch. This is the execution substrate for QuGeoModel's per-chunk
// sample batching.
//
// Numerical contract: the scalar lane loops evaluate exactly the formulas
// StateVector's kernels evaluate (same cmul grouping, same operation
// order), so a batched run is bit-identical to looping the single-state
// scalar kernels over the lanes; the AVX2 lane path matches to <= 1e-12
// per amplitude (FMA contraction only).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "qsim/gate.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

class BatchedStateVector {
 public:
  /// Construct `lanes` copies of |0...0> on `num_qubits` qubits.
  BatchedStateVector(Index num_qubits, std::size_t lanes);

  [[nodiscard]] Index num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] Index dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// Reset every lane to |0...0>.
  void reset();

  /// Overwrite one lane's amplitudes (span must have length dim()).
  void set_lane(std::size_t lane, std::span<const Complex> amps);

  /// Overwrite one lane from an existing single-state vector.
  void set_lane(std::size_t lane, const StateVector& psi);

  /// Extract one lane as a standalone StateVector.
  [[nodiscard]] StateVector lane_state(std::size_t lane) const;

  /// Born probabilities of one lane (length dim()).
  [[nodiscard]] std::vector<Real> lane_probabilities(std::size_t lane) const;

  /// Squared norm of one lane.
  [[nodiscard]] Real lane_norm_sq(std::size_t lane) const;

  /// Raw deinterleaved planes (dim() * lanes() each) — the AVX2 kernels and
  /// the kernel-equivalence tests address these directly.
  [[nodiscard]] Real* re_data() noexcept { return re_.data(); }
  [[nodiscard]] Real* im_data() noexcept { return im_.data(); }
  [[nodiscard]] const Real* re_data() const noexcept { return re_.data(); }
  [[nodiscard]] const Real* im_data() const noexcept { return im_.data(); }

  // -- All-lane gate kernels (the batched twins of StateVector's) --------

  void apply_1q(const Mat2& u, Index q);
  void apply_diag_1q(Complex d0, Complex d1, Index q);
  void apply_antidiag_1q(Complex a01, Complex a10, Index q);
  void apply_controlled_1q(const Mat2& u, Index control, Index target);
  void apply_controlled_diag_1q(Complex d0, Complex d1, Index control,
                                Index target);
  void apply_controlled_antidiag_1q(Complex a01, Complex a10, Index control,
                                    Index target);
  void apply_swap(Index a, Index b);

 private:
  Index num_qubits_;
  Index dim_;
  std::size_t lanes_;
  std::vector<Real> re_;  // [amplitude * lanes_ + lane]
  std::vector<Real> im_;
};

}  // namespace qugeo::qsim
