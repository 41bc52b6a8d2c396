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

/// Execute a fused op whose Mat4 was resolved by the caller: the dense
/// kernel for kFused2Q, the dual half-space kernel for kFusedCtl2Q (its
/// 2x2 blocks over the control bit — sub-index bit 0 — are extracted
/// here). For the inverse, pass dagger(m): the block structure survives
/// conjugate transposition.
void apply_fused(GateKind kind, const Mat4& m, Index q0, Index q1,
                 StateVector& psi) {
  if (kind == GateKind::kFusedCtl2Q) {
    Mat2 u0, u1;
    for (int tp = 0; tp < 2; ++tp)
      for (int t = 0; t < 2; ++t) {
        u0(tp, t) = m(tp * 2, t * 2);
        u1(tp, t) = m(tp * 2 + 1, t * 2 + 1);
      }
    psi.apply_block_diag_2q(u0, u1, q0, q1);
    return;
  }
  psi.apply_matrix2q(m, q0, q1);
}

bool is_fused_kind(GateKind kind) {
  return kind == GateKind::kFused2Q || kind == GateKind::kFusedCtl2Q;
}

}  // namespace

void apply_op(const Op& op, std::span<const Real> params, StateVector& psi) {
  if (op.kind == GateKind::kSWAP) {
    psi.apply_swap(op.qubits[0], op.qubits[1]);
    return;
  }
  if (op.kind == GateKind::kI) return;
  if (is_fused_kind(op.kind))
    // The matrix lives in the owning Circuit's side table, which this
    // entry point cannot see. The circuit-level executors handle it; the
    // per-op noisy sampler never legally receives fused ops (fusion is
    // restricted to noiseless paths — optimizer.h legality rules).
    throw std::invalid_argument(
        "apply_op: fused ops need circuit context (use run_circuit)");
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
  if (is_fused_kind(op.kind))
    throw std::invalid_argument(
        "apply_op_inverse: fused ops need circuit context (use adjoint_backward)");
  const auto vals = Circuit::resolve_params(op, params);
  apply_block(op.kind, dagger(gate_matrix(op.kind, vals)), op.qubits, psi);
}

void run_circuit(const Circuit& circuit, std::span<const Real> params,
                 StateVector& psi) {
  if (psi.num_qubits() != circuit.num_qubits())
    throw std::invalid_argument("run_circuit: qubit count mismatch");
  if (params.size() < circuit.num_params())
    throw std::invalid_argument("run_circuit: parameter table too small");
  for (const Op& op : circuit.ops()) {
    if (is_fused_kind(op.kind))
      apply_fused(op.kind, circuit.matrix(op), op.qubits[0], op.qubits[1], psi);
    else
      apply_op(op, params, psi);
  }
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
    if (is_fused_kind(op.kind)) {
      // Fused blocks carry no trainable parameters (fusion only consumes
      // literal gates), so they only rewind the two states.
      const Mat4 ud = dagger(circuit.matrix(op));
      apply_fused(op.kind, ud, op.qubits[0], op.qubits[1], psi_out);
      apply_fused(op.kind, ud, op.qubits[0], op.qubits[1], lambda);
      continue;
    }
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
