// Circuit execution over a BatchedStateVector: one pass over the op list
// advances every batch lane, so gate decode / matrix build / index
// arithmetic are paid once per gate instead of once per (gate, state).
//
// Equivalence contract: running a circuit batched gives bit-identical
// amplitudes (scalar mode) to running it on each lane's StateVector with
// run_circuit — pinned per GateKind by test_qsim_batched.
#pragma once

#include <span>

#include "qsim/batched_statevector.h"
#include "qsim/circuit.h"

namespace qugeo::qsim {

/// Run the circuit forward on every lane of `psi` (in place). Handles the
/// full GateKind set.
void run_circuit_batched(const Circuit& circuit, std::span<const Real> params,
                         BatchedStateVector& psi);

}  // namespace qugeo::qsim
