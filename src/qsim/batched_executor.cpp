#include "qsim/batched_executor.h"

#include <array>
#include <stdexcept>

namespace qugeo::qsim {
namespace {

/// Batched twin of executor.cpp's apply_block: route the 2x2 block to the
/// class-specialized all-lane kernel.
void apply_block_batched(GateKind kind, const Mat2& u,
                         const std::array<Index, 2>& qubits,
                         BatchedStateVector& psi) {
  const bool controlled = gate_is_controlled_1q(kind);
  switch (gate_class(kind)) {
    case GateClass::kDiagonal:
      if (controlled)
        psi.apply_controlled_diag_1q(u(0, 0), u(1, 1), qubits[0], qubits[1]);
      else
        psi.apply_diag_1q(u(0, 0), u(1, 1), qubits[0]);
      return;
    case GateClass::kAntiDiagonal:
      if (controlled)
        psi.apply_controlled_antidiag_1q(u(0, 1), u(1, 0), qubits[0],
                                         qubits[1]);
      else
        psi.apply_antidiag_1q(u(0, 1), u(1, 0), qubits[0]);
      return;
    case GateClass::kGeneric:
      if (controlled)
        psi.apply_controlled_1q(u, qubits[0], qubits[1]);
      else
        psi.apply_1q(u, qubits[0]);
      return;
  }
}

void apply_op_batched(const Op& op, std::span<const Real> params,
                      BatchedStateVector& psi) {
  if (op.kind == GateKind::kSWAP) {
    psi.apply_swap(op.qubits[0], op.qubits[1]);
    return;
  }
  if (op.kind == GateKind::kI) return;
  const auto vals = Circuit::resolve_params(op, params);
  apply_block_batched(op.kind, gate_matrix(op.kind, vals), op.qubits, psi);
}

}  // namespace

void run_circuit_batched(const Circuit& circuit, std::span<const Real> params,
                         BatchedStateVector& psi) {
  if (psi.num_qubits() != circuit.num_qubits())
    throw std::invalid_argument("run_circuit_batched: qubit count mismatch");
  if (params.size() < circuit.num_params())
    throw std::invalid_argument(
        "run_circuit_batched: parameter table too small");
  for (const Op& op : circuit.ops()) apply_op_batched(op, params, psi);
}

}  // namespace qugeo::qsim
