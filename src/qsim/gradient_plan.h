// GradientPlan: the gradient-canonical form of a trainable circuit.
//
// The adjoint differentiation pass (executor.h: adjoint_backward) walks the
// op stream backwards, un-applying |psi> and advancing <lambda| at every
// op — but only the TRAINABLE slots contribute a
// 2 Re <lambda|dU/dtheta|psi> contraction. Every literal gate between two
// consecutive trainable slots is pure replay work, so the plan partitions
// the circuit at its trainable slots and collapses each literal segment
// with the existing fusion passes (optimizer.h: fuse_gate_runs /
// fuse_two_qubit_runs — trainable ops end runs on every qubit they touch,
// so canonicalize_for_backend of a trainable circuit IS exactly this
// partition): deep frozen prefixes/suffixes become a handful of
// kFused2Q/kFusedCtl2Q/merged-1q applications on both sweeps, while the
// trainable ops survive verbatim with their parameter ids intact.
//
// Correctness: each fused segment equals its source run up to a global
// phase (<= 1e-10, optimizer.h legality rules). Running BOTH the |psi>
// replay and the <lambda| sweep through the same plan puts the same phase
// on both states, and it cancels in the 2 Re <lambda|dU|psi> contraction —
// pinned differentially (finite-difference / parameter-shift / unfused
// adjoint) by tests/test_qsim_gradient_conformance.cpp.
//
// Plans are memoized per circuit structure in CompiledCircuitCache
// (gradient_plan() — plan_compile_count()/plan_hit_count() are the probes
// the trainer tests pin), and the whole path is gated on
// ExecutionConfig::grad_fusion (QUGEO_GRAD_FUSION).
#pragma once

#include <cstddef>
#include <memory>

#include "qsim/circuit.h"

namespace qugeo::qsim {

/// Shape accounting of a built plan (bench/diagnostic output).
struct GradientPlanStats {
  std::size_t source_ops = 0;     ///< ops in the original circuit
  std::size_t plan_ops = 0;       ///< ops in the execution form
  std::size_t trainable_ops = 0;  ///< ops carrying >= 1 trainable slot
  std::size_t fused_ops = 0;      ///< kFused2Q/kFusedCtl2Q ops in the plan
};

/// An immutable, shareable gradient execution plan. `fused()` is false for
/// circuits fusion cannot change (e.g. the all-trainable QuGeoVQC ansatz):
/// the plan then tells callers to run their ORIGINAL circuit by reference,
/// making the default training path bit-identical to the pre-plan loop.
class GradientPlan {
 public:
  /// Partition + fuse `circuit` (see header comment). Cheap for
  /// unfusable circuits: two O(ops) probes, no copy.
  [[nodiscard]] static GradientPlan build(const Circuit& circuit);

  /// The circuit both adjoint sweeps should execute: the fused form when
  /// fusion changed the stream, otherwise `original` by reference.
  /// `original` must be (structurally) the circuit this plan was built
  /// from.
  [[nodiscard]] const Circuit& execution_form(const Circuit& original) const {
    return fused_ ? *fused_ : original;
  }

  /// True when the plan holds a fused copy distinct from the source.
  [[nodiscard]] bool fused() const noexcept { return fused_ != nullptr; }

  [[nodiscard]] const GradientPlanStats& stats() const noexcept {
    return stats_;
  }

 private:
  std::shared_ptr<const Circuit> fused_;  // null => run the original
  GradientPlanStats stats_;
};

}  // namespace qugeo::qsim
