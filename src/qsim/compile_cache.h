// Compiled-circuit cache: memoized canonicalize_for_backend results.
//
// QuGeoModel::predict fans QuBatch chunks across the thread pool, and every
// chunk constructs a fresh backend that would otherwise re-probe (and, for
// fusable circuits, re-fuse) the same circuit. A CompiledCircuitCache —
// shared through ExecutionConfig::compile_cache — runs the canonicalization
// exactly once per distinct (circuit structure, backend kind) and hands
// every later execution the cached form. compile_count()/hit_count() are
// the observable probes the tests pin.
//
// The cache also memoizes the TRAINING-path GradientPlan (gradient_plan.h)
// alongside the forward entries, keyed by circuit structure alone and
// counted by its own plan_compile_count()/plan_hit_count() probes: every
// loss_and_gradient call across every epoch fetches the same plan after
// one build.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "qsim/circuit.h"

namespace qugeo::qsim {

enum class BackendKind : std::uint8_t;
class GradientPlan;

/// \brief Thread-safe memo of canonicalize_for_backend (optimizer.h).
///
/// \par Cache-key semantics
/// Entries are keyed by the EXACT circuit structure — qubit count,
/// parameter-table size, and the full op stream (kind, operands, parameter
/// ids, literal angles) — plus the executing
/// BackendKind. Structural equality, not pointer identity: two Circuit
/// objects built the same way share one entry. Trainable parameter VALUES
/// are deliberately absent from the key — fusion only touches literal
/// gates, so one canonical form serves every parameter table (predict
/// after a training step hits the same entry).
///
/// A null cached pointer is a positive result meaning "canonicalization is
/// the identity here" (e.g. the all-trainable ansatz): callers then run
/// their original circuit by reference, and repeated executions skip even
/// the O(ops) fusability probes.
class CompiledCircuitCache {
 public:
  /// The canonical form of `circuit` for `backend`, compiling on first
  /// use; nullptr when canonicalization would not change the op stream
  /// (execute the original). Thread-safe; concurrent misses on the same
  /// key compile once.
  [[nodiscard]] std::shared_ptr<const Circuit> canonical(const Circuit& circuit,
                                                         BackendKind backend)
      QUGEO_EXCLUDES(mu_);

  /// Number of canonicalization runs performed (cache misses).
  [[nodiscard]] std::size_t compile_count() const QUGEO_EXCLUDES(mu_);

  /// Number of lookups served from an existing entry.
  [[nodiscard]] std::size_t hit_count() const QUGEO_EXCLUDES(mu_);

  /// The GradientPlan (gradient_plan.h) of `circuit`, building on first
  /// use. Keyed by the same exact circuit structure as canonical() but
  /// WITHOUT a backend kind — gradients always run the adjoint statevector
  /// pass — and counted separately (plan_compile_count()/plan_hit_count()),
  /// so training probes never mix with the forward predict counters. Never
  /// null: an unfusable circuit yields a plan whose execution_form is the
  /// caller's original. Thread-safe; concurrent misses build once.
  [[nodiscard]] std::shared_ptr<const GradientPlan> gradient_plan(
      const Circuit& circuit) QUGEO_EXCLUDES(mu_);

  /// Number of GradientPlan builds performed (plan-cache misses).
  [[nodiscard]] std::size_t plan_compile_count() const QUGEO_EXCLUDES(mu_);

  /// Number of gradient_plan() lookups served from an existing entry.
  [[nodiscard]] std::size_t plan_hit_count() const QUGEO_EXCLUDES(mu_);

  /// Drop every entry (counters keep accumulating).
  void clear() QUGEO_EXCLUDES(mu_);

 private:
  struct StructuralKey {
    Index num_qubits;
    std::uint32_t num_params;
    std::vector<Op> ops;  // structural key (exact, collision-free)
  };

  struct Entry {
    BackendKind backend;
    StructuralKey key;
    std::shared_ptr<const Circuit> compiled;  // null => identity
  };

  struct PlanEntry {
    StructuralKey key;
    std::shared_ptr<const GradientPlan> plan;  // never null
  };

  [[nodiscard]] static StructuralKey key_of(const Circuit& circuit);
  [[nodiscard]] static bool matches(const StructuralKey& key,
                                    const Circuit& circuit);

  mutable Mutex mu_;
  std::vector<Entry> entries_ QUGEO_GUARDED_BY(mu_);
  std::vector<PlanEntry> plan_entries_ QUGEO_GUARDED_BY(mu_);
  std::size_t compiles_ QUGEO_GUARDED_BY(mu_) = 0;
  std::size_t hits_ QUGEO_GUARDED_BY(mu_) = 0;
  std::size_t plan_compiles_ QUGEO_GUARDED_BY(mu_) = 0;
  std::size_t plan_hits_ QUGEO_GUARDED_BY(mu_) = 0;
};

}  // namespace qugeo::qsim
