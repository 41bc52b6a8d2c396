#include "qsim/optimizer.h"

#include <cmath>
#include <optional>

namespace qugeo::qsim {
namespace {

bool is_self_inverse(GateKind kind) {
  switch (kind) {
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kSWAP:
      return true;
    case GateKind::kI:  // identity pairs are dropped earlier, not here
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kU3:
    case GateKind::kCRY:
    case GateKind::kCU3:
      return false;
  }
  return false;
}

bool is_literal_rotation(const Op& op) {
  switch (op.kind) {
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
      return op.param_ids[0] == kLiteralParam;
    case GateKind::kI:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kU3:  // 3-parameter: no single identity-angle test
    case GateKind::kCX:
    case GateKind::kCZ:
    case GateKind::kCRY:
    case GateKind::kCU3:
    case GateKind::kSWAP:
      return false;
  }
  return false;
}

bool same_operands(const Op& a, const Op& b) {
  const int nq = gate_qubit_count(a.kind);
  if (a.kind == GateKind::kSWAP && b.kind == GateKind::kSWAP) {
    return (a.qubits[0] == b.qubits[0] && a.qubits[1] == b.qubits[1]) ||
           (a.qubits[0] == b.qubits[1] && a.qubits[1] == b.qubits[0]);
  }
  if (a.qubits[0] != b.qubits[0]) return false;
  return nq == 1 || a.qubits[1] == b.qubits[1];
}

bool touches_qubit(const Op& op, Index q) {
  if (op.qubits[0] == q) return true;
  return gate_qubit_count(op.kind) == 2 && op.qubits[1] == q;
}

bool ops_commute_trivially(const Op& a, const Op& b) {
  // Conservative: ops on disjoint qubit sets commute.
  if (touches_qubit(b, a.qubits[0])) return false;
  if (gate_qubit_count(a.kind) == 2 && touches_qubit(b, a.qubits[1]))
    return false;
  return true;
}

/// Angle normalized to (-2pi, 2pi]; rotations have period 4pi in SU(2) but
/// global phase is irrelevant for RX/RY, and we only drop exact multiples
/// of 4pi (plus exact 0) to stay safe for RZ/Phase.
bool is_identity_angle(GateKind kind, Real angle, Real eps) {
  const Real period = kind == GateKind::kPhase ? 2 * kPi : 4 * kPi;
  const Real r = std::remainder(angle, period);
  return std::abs(r) <= eps;
}

/// Re-emit one surviving op into `result` through the public builder API.
void emit_op(Circuit& result, const Op& op) {
  const bool trainable = op.param_ids[0] != kLiteralParam;
  switch (op.kind) {
    case GateKind::kI: break;
    case GateKind::kX: result.x(op.qubits[0]); break;
    case GateKind::kY: result.y(op.qubits[0]); break;
    case GateKind::kZ: result.z(op.qubits[0]); break;
    case GateKind::kH: result.h(op.qubits[0]); break;
    case GateKind::kS: result.s(op.qubits[0]); break;
    case GateKind::kSdg: result.sdg(op.qubits[0]); break;
    case GateKind::kT: result.t(op.qubits[0]); break;
    case GateKind::kTdg: result.tdg(op.qubits[0]); break;
    case GateKind::kRX:
      trainable ? result.rx(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.rx(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kRY:
      trainable ? result.ry(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.ry(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kRZ:
      trainable ? result.rz(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.rz(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kPhase:
      result.phase(op.qubits[0], op.literals[0]);
      break;
    case GateKind::kU3:
      trainable ? result.u3(op.qubits[0], ParamRef{op.param_ids[0]})
                : result.u3(op.qubits[0], op.literals[0], op.literals[1],
                            op.literals[2]);
      break;
    case GateKind::kCX: result.cx(op.qubits[0], op.qubits[1]); break;
    case GateKind::kCZ: result.cz(op.qubits[0], op.qubits[1]); break;
    case GateKind::kCRY:
      trainable ? result.cry(op.qubits[0], op.qubits[1], ParamRef{op.param_ids[0]})
                : result.cry(op.qubits[0], op.qubits[1], op.literals[0]);
      break;
    case GateKind::kCU3:
      trainable ? result.cu3(op.qubits[0], op.qubits[1], ParamRef{op.param_ids[0]})
                : result.cu3(op.qubits[0], op.qubits[1], op.literals[0],
                             op.literals[1], op.literals[2]);
      break;
    case GateKind::kSWAP: result.swap(op.qubits[0], op.qubits[1]); break;
  }
}

/// One pass; returns true if anything changed.
bool pass(std::vector<std::optional<Op>>& ops, const OptimizeOptions& opt,
          OptimizeStats& stats) {
  bool changed = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i]) continue;
    Op& a = *ops[i];

    if (opt.drop_identity_rotations && is_literal_rotation(a) &&
        is_identity_angle(a.kind, a.literals[0], opt.angle_epsilon)) {
      ops[i].reset();
      ++stats.dropped_identities;
      changed = true;
      continue;
    }

    // Find the next op that shares a qubit with `a`, skipping commuting ops.
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (!ops[j]) continue;
      const Op& b = *ops[j];
      if (ops_commute_trivially(a, b)) continue;

      if (opt.cancel_self_inverse && is_self_inverse(a.kind) &&
          a.kind == b.kind && same_operands(a, b)) {
        ops[i].reset();
        ops[j].reset();
        ++stats.cancelled_pairs;
        changed = true;
      } else if (opt.fuse_rotations && is_literal_rotation(a) &&
                 a.kind == b.kind && is_literal_rotation(b) &&
                 same_operands(a, b)) {
        Op fused = a;
        fused.literals[0] = a.literals[0] + b.literals[0];
        ops[i] = fused;
        ops[j].reset();
        ++stats.fused_rotations;
        changed = true;
      }
      break;  // b blocks further lookahead whether or not we rewrote
    }
  }
  return changed;
}

}  // namespace

Circuit optimize_circuit(const Circuit& circuit, const OptimizeOptions& options,
                         OptimizeStats* stats_out) {
  OptimizeStats stats;
  stats.ops_before = circuit.num_ops();

  std::vector<std::optional<Op>> ops(circuit.ops().begin(), circuit.ops().end());
  while (pass(ops, options, stats)) {
  }

  // Rebuild through the public API: preallocate the identical parameter
  // table (ids are preserved verbatim), then re-emit surviving ops.
  Circuit result(circuit.num_qubits());
  if (circuit.num_params() > 0)
    (void)result.new_params(static_cast<std::uint32_t>(circuit.num_params()));
  for (const auto& maybe_op : ops)
    if (maybe_op) emit_op(result, *maybe_op);

  stats.ops_after = result.num_ops();
  if (stats_out) *stats_out = stats;
  return result;
}

namespace {

Mat2 matmul(const Mat2& a, const Mat2& b) {
  Mat2 r;
  r(0, 0) = a(0, 0) * b(0, 0) + a(0, 1) * b(1, 0);
  r(0, 1) = a(0, 0) * b(0, 1) + a(0, 1) * b(1, 1);
  r(1, 0) = a(1, 0) * b(0, 0) + a(1, 1) * b(1, 0);
  r(1, 1) = a(1, 0) * b(0, 1) + a(1, 1) * b(1, 1);
  return r;
}

/// True for a literal (non-trainable) single-qubit op that participates in
/// run fusion. SWAP and controlled gates are two-qubit; trainable angles
/// are unknown at fusion time.
bool is_fusable_1q(const Op& op) {
  if (gate_qubit_count(op.kind) != 1) return false;
  return op.param_ids[0] == kLiteralParam && op.param_ids[1] == kLiteralParam &&
         op.param_ids[2] == kLiteralParam;
}

/// A run being accumulated on one qubit.
struct PendingRun {
  Mat2 product{};          ///< U_k ... U_1 (later gates multiply on the left)
  std::size_t count = 0;
  std::size_t first_pos = 0;  ///< index of the run's first op in the stream
};

/// The cheapest single-gate representation of a 2x2 unitary `m` on qubit
/// `q`: a Phase op when exactly diagonal (the executor routes it to the
/// phase-only kernel), otherwise a literal U3. The representative drops a
/// global phase, which cannot affect probabilities or expectations. The
/// run is counted in `stats`.
Op fused_op(const Mat2& m, Index q, FuseStats& stats) {
  Op op;
  op.qubits = {q, q};
  if (m(0, 1) == Complex{0, 0} && m(1, 0) == Complex{0, 0}) {
    // Diagonal product: diag(d0, d1) = d0 * diag(1, d1/d0) -> Phase gate.
    op.kind = GateKind::kPhase;
    op.literals[0] = std::arg(m(1, 1) / m(0, 0));
    ++stats.merged_diagonal_runs;
    return op;
  }
  op.kind = GateKind::kU3;
  ++stats.fused_runs;
  if (m(0, 0) == Complex{0, 0} && m(1, 1) == Complex{0, 0}) {
    // Anti-diagonal product: u3(pi, phi, lambda) = [[0, -e^il], [e^ip, 0]].
    op.literals[0] = kPi;
    op.literals[1] = std::arg(m(1, 0));
    op.literals[2] = std::arg(-m(0, 1));
    return op;
  }
  // General unitary: m = e^{i alpha} u3(theta, phi, lambda) with
  // alpha = arg(m00); theta from the column norms, phi/lambda from the
  // off-diagonal arguments relative to alpha.
  const Real alpha = std::arg(m(0, 0));
  op.literals[0] = 2 * std::atan2(std::abs(m(1, 0)), std::abs(m(0, 0)));
  op.literals[1] = std::arg(m(1, 0)) - alpha;
  op.literals[2] = std::arg(-m(0, 1)) - alpha;
  return op;
}

}  // namespace

bool has_fusable_runs(const Circuit& circuit) {
  // Mirrors fuse_gate_runs' run tracking: a run survives ops on other
  // qubits and ends at any non-fusable op touching its qubit.
  std::vector<unsigned char> open(circuit.num_qubits(), 0);
  for (const Op& op : circuit.ops()) {
    if (is_fusable_1q(op)) {
      if (open[op.qubits[0]]) return true;
      open[op.qubits[0]] = 1;
    } else {
      open[op.qubits[0]] = 0;
      if (gate_qubit_count(op.kind) == 2) open[op.qubits[1]] = 0;
    }
  }
  return false;
}

Circuit fuse_gate_runs(const Circuit& circuit, FuseStats* stats_out) {
  FuseStats stats;
  stats.ops_before = circuit.num_ops();

  // Nothing to fuse (e.g. the all-trainable ansatz): hand back a verbatim
  // copy without staging the op stream.
  if (!has_fusable_runs(circuit)) {
    stats.ops_after = circuit.num_ops();
    if (stats_out) *stats_out = stats;
    return circuit;
  }

  const auto ops = circuit.ops();
  // Slot i holds what the rewritten stream emits at position i. A fused run
  // lands at its first op's position; ops between run members act on other
  // qubits, so they commute with the run and the placement is exact.
  std::vector<std::optional<Op>> out(ops.size());
  std::vector<PendingRun> pending(circuit.num_qubits());

  auto flush = [&](Index q) {
    PendingRun& run = pending[q];
    if (run.count == 0) return;
    if (run.count == 1) {
      out[run.first_pos] = ops[run.first_pos];  // untouched single op
    } else {
      out[run.first_pos] = fused_op(run.product, q, stats);
    }
    run.count = 0;
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (is_fusable_1q(op)) {
      const Index q = op.qubits[0];
      PendingRun& run = pending[q];
      const Mat2 u = gate_matrix(op.kind, Circuit::resolve_params(op, {}));
      if (run.count == 0) {
        run.product = u;
        run.first_pos = i;
        run.count = 1;
      } else {
        run.product = matmul(u, run.product);
        ++run.count;
      }
      continue;
    }
    // Any other op ends the run on every qubit it touches.
    flush(op.qubits[0]);
    if (gate_qubit_count(op.kind) == 2) flush(op.qubits[1]);
    out[i] = op;
  }
  for (Index q = 0; q < circuit.num_qubits(); ++q) flush(q);

  Circuit result(circuit.num_qubits());
  if (circuit.num_params() > 0)
    (void)result.new_params(static_cast<std::uint32_t>(circuit.num_params()));
  for (const auto& maybe_op : out)
    if (maybe_op) emit_op(result, *maybe_op);

  stats.ops_after = result.num_ops();
  if (stats_out) *stats_out = stats;
  return result;
}

Circuit canonicalize_for_backend(const Circuit& circuit) {
  return fuse_gate_runs(circuit);
}

}  // namespace qugeo::qsim
