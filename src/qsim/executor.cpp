#include "qsim/executor.h"

#include <stdexcept>

#include "common/math_utils.h"

namespace qugeo::qsim {
namespace {

/// Apply the (possibly controlled) 2x2 block `u` of gate `kind`, routing to
/// the specialized diagonal / anti-diagonal kernels by gate class. SWAP and
/// identity are handled by the callers.
void apply_block(GateKind kind, const Mat2& u, const std::array<Index, 2>& qubits,
                 StateVector& psi) {
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
        psi.apply_controlled_antidiag_1q(u(0, 1), u(1, 0), qubits[0], qubits[1]);
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

}  // namespace

void apply_op(const Op& op, std::span<const Real> params, StateVector& psi) {
  if (op.kind == GateKind::kSWAP) {
    psi.apply_swap(op.qubits[0], op.qubits[1]);
    return;
  }
  if (op.kind == GateKind::kI) return;
  const auto vals = Circuit::resolve_params(op, params);
  apply_block(op.kind, gate_matrix(op.kind, vals), op.qubits, psi);
}

void apply_op_inverse(const Op& op, std::span<const Real> params,
                      StateVector& psi) {
  if (op.kind == GateKind::kSWAP) {
    psi.apply_swap(op.qubits[0], op.qubits[1]);
    return;
  }
  if (op.kind == GateKind::kI) return;
  const auto vals = Circuit::resolve_params(op, params);
  apply_block(op.kind, dagger(gate_matrix(op.kind, vals)), op.qubits, psi);
}

void run_circuit(const Circuit& circuit, std::span<const Real> params,
                 StateVector& psi) {
  if (psi.num_qubits() != circuit.num_qubits())
    throw std::invalid_argument("run_circuit: qubit count mismatch");
  if (params.size() < circuit.num_params())
    throw std::invalid_argument("run_circuit: parameter table too small");
  for (const Op& op : circuit.ops()) apply_op(op, params, psi);
}

AdjointResult adjoint_backward(const Circuit& circuit,
                               std::span<const Real> params,
                               StateVector psi_out,
                               std::span<const Complex> cotangent) {
  if (cotangent.size() != psi_out.dim())
    throw std::invalid_argument("adjoint_backward: cotangent size mismatch");

  AdjointResult result;
  result.param_grads.assign(circuit.num_params(), Real(0));

  // lambda lives in a StateVector so gate kernels can be reused; it is not
  // normalized (it is a gradient, not a state).
  StateVector lambda(circuit.num_qubits());
  lambda.set_amplitudes(cotangent);

  const auto ops = circuit.ops();
  for (std::size_t i = ops.size(); i-- > 0;) {
    const Op& op = ops[i];
    const bool has_trainable = op.param_ids[0] != kLiteralParam ||
                               op.param_ids[1] != kLiteralParam ||
                               op.param_ids[2] != kLiteralParam;
    if (!has_trainable) {
      // psi_out currently equals psi after op i; rewind both states by U^dagger.
      apply_op_inverse(op, params, psi_out);
      apply_op_inverse(op, params, lambda);
      continue;
    }
    // One sweep rewinds psi and lambda and collects their pair correlation
    // G; each slot's dL/dtheta = 2 Re <lambda_i| dU |psi_{i-1}> is then
    // 2 Re sum_ab dU_ab G_ab, with U and every dU from one trig evaluation.
    const GateDerivs d =
        gate_matrix_and_derivs(op.kind, Circuit::resolve_params(op, params));
    const Mat2 ud = dagger(d.u);
    const Mat2 g = gate_is_controlled_1q(op.kind)
                       ? adjoint_sweep_controlled_1q(psi_out, lambda, ud,
                                                     op.qubits[0], op.qubits[1])
                       : adjoint_sweep_1q(psi_out, lambda, ud, op.qubits[0]);
    for (std::size_t slot = 0; slot < 3; ++slot) {
      const std::uint32_t pid = op.param_ids[slot];
      if (pid == kLiteralParam) continue;
      const Mat2& du = d.du[slot];
      const Complex ip = cmul(du(0, 0), g(0, 0)) + cmul(du(0, 1), g(0, 1)) +
                         cmul(du(1, 0), g(1, 0)) + cmul(du(1, 1), g(1, 1));
      result.param_grads[pid] += 2 * ip.real();
    }
  }

  result.input_cotangent.assign(lambda.amplitudes().begin(),
                                lambda.amplitudes().end());
  return result;
}

}  // namespace qugeo::qsim
