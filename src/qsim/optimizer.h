// Circuit rewriting: peephole optimization, gate-run fusion, and the
// backend canonicalization pipeline.
//
// Two pass families live here:
//  1. Peephole passes (optimize_circuit): cancel adjacent self-inverse
//     pairs, fuse literal rotations, drop identity rotations. Safe before
//     QASM export or depth accounting.
//  2. Single-qubit run fusion (fuse_gate_runs): collapse maximal runs of
//     literal 1q gates into one U3 (or one Phase when diagonal).
//
// Backends run 2 via canonicalize_for_backend on their NOISELESS paths
// only; see the fusion legality rules below.
#pragma once

#include "qsim/circuit.h"

namespace qugeo::qsim {

struct OptimizeOptions {
  bool cancel_self_inverse = true;  ///< X X, H H, Z Z, CX CX, CZ CZ, SWAP SWAP
  bool fuse_rotations = true;       ///< RX(a) RX(b) -> RX(a+b) (literals only)
  bool drop_identity_rotations = true;  ///< RX(0), RZ(2*k*2pi), P(0), ...
  Real angle_epsilon = 1e-12;           ///< |angle mod 4pi| below this is identity
};

struct OptimizeStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t cancelled_pairs = 0;
  std::size_t fused_rotations = 0;
  std::size_t dropped_identities = 0;
};

/// Run the peephole passes to a fixed point and return the optimized
/// circuit. The result references the same trainable parameter table (ids
/// are preserved verbatim; num_params is unchanged).
[[nodiscard]] Circuit optimize_circuit(const Circuit& circuit,
                                       const OptimizeOptions& options = {},
                                       OptimizeStats* stats = nullptr);

struct FuseStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t fused_runs = 0;           ///< runs collapsed into one U3
  std::size_t merged_diagonal_runs = 0; ///< runs collapsed into one Phase
};

/// \brief Collapse every maximal run of >= 2 literal (non-trainable)
/// single-qubit gates on one qubit into a single gate.
///
/// The replacement is a Phase op when the product is exactly diagonal (so
/// the fast diagonal kernel executes it), otherwise a literal U3. Ops on
/// other qubits may sit inside a run (they commute with it); trainable
/// gates, SWAPs, and controlled gates touching the qubit end the run.
///
/// \par Fusion legality rules
///  - Only LITERAL gates fuse: a trainable angle is unknown at fusion
///    time, so any trainable op ends the runs on every qubit it touches.
///  - The fused circuit equals the original up to an unobservable global
///    phase per fused run; probabilities, expectations, and fidelities are
///    preserved exactly (pinned to 1e-10 by the test suites).
///  - Fusion does NOT preserve the gate COUNT, so it must never run before
///    noisy execution: k fused gates would contribute one per-gate noise
///    insertion point instead of k. Backends therefore canonicalize only
///    their noiseless (or readout-only, whose single insertion point is
///    the end of the circuit) paths.
///
/// Circuits with no fusable runs are returned with an op-for-op identical
/// stream (bit-identical execution).
[[nodiscard]] Circuit fuse_gate_runs(const Circuit& circuit,
                                     FuseStats* stats = nullptr);

/// O(ops) probe with no allocations beyond a per-qubit flag: would
/// fuse_gate_runs change this circuit at all? False for the all-trainable
/// QuGeoVQC ansatz, letting backends run the original circuit by reference
/// instead of copying a canonical form per execution.
[[nodiscard]] bool has_fusable_runs(const Circuit& circuit);

/// \brief The canonicalization every Backend applies before executing a
/// circuit on a noiseless path: fuse_gate_runs.
///
/// Kept as a named entry point so backend-neutral rewrites hook in one
/// place. Pure and deterministic: the same input circuit always yields the
/// same canonical form, which is what makes CompiledCircuitCache
/// (compile_cache.h) sound — it memoizes this function keyed by circuit
/// structure + backend kind. Callers gate it on ExecutionConfig::fusion
/// (QUGEO_FUSION) and on the has_fusable_runs probe.
[[nodiscard]] Circuit canonicalize_for_backend(const Circuit& circuit);

}  // namespace qugeo::qsim
