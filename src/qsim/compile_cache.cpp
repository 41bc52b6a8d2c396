#include "qsim/compile_cache.h"

#include <algorithm>

#include "qsim/gradient_plan.h"
#include "qsim/optimizer.h"

namespace qugeo::qsim {
namespace {

bool same_op(const Op& a, const Op& b) {
  return a.kind == b.kind && a.qubits == b.qubits && a.param_ids == b.param_ids &&
         a.literals == b.literals;
}

}  // namespace

CompiledCircuitCache::StructuralKey CompiledCircuitCache::key_of(
    const Circuit& circuit) {
  StructuralKey key;
  key.num_qubits = circuit.num_qubits();
  key.num_params = static_cast<std::uint32_t>(circuit.num_params());
  key.ops.assign(circuit.ops().begin(), circuit.ops().end());
  return key;
}

bool CompiledCircuitCache::matches(const StructuralKey& key,
                                   const Circuit& circuit) {
  if (key.num_qubits != circuit.num_qubits() ||
      key.num_params != circuit.num_params() ||
      key.ops.size() != circuit.num_ops())
    return false;
  return std::equal(key.ops.begin(), key.ops.end(), circuit.ops().begin(),
                    same_op);
}

std::shared_ptr<const Circuit> CompiledCircuitCache::canonical(
    const Circuit& circuit, BackendKind backend) {
  MutexLock lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.backend == backend && matches(entry.key, circuit)) {
      ++hits_;
      return entry.compiled;
    }
  }
  // Miss: compile under the lock so concurrent first executions of the
  // same circuit (predict's chunk fan-out) canonicalize exactly once.
  ++compiles_;
  Entry entry;
  entry.backend = backend;
  entry.key = key_of(circuit);
  if (has_fusable_runs(circuit))
    entry.compiled =
        std::make_shared<const Circuit>(canonicalize_for_backend(circuit));
  // else: identity — a null compiled pointer tells callers to run the
  // original by reference (and never probe this structure again).
  entries_.push_back(std::move(entry));
  return entries_.back().compiled;
}

std::shared_ptr<const GradientPlan> CompiledCircuitCache::gradient_plan(
    const Circuit& circuit) {
  MutexLock lock(mu_);
  for (const PlanEntry& entry : plan_entries_) {
    if (matches(entry.key, circuit)) {
      ++plan_hits_;
      return entry.plan;
    }
  }
  // Miss: build under the lock so the trainer's chunk fan-out of the first
  // loss_and_gradient group builds exactly once.
  ++plan_compiles_;
  PlanEntry entry;
  entry.key = key_of(circuit);
  entry.plan = std::make_shared<const GradientPlan>(GradientPlan::build(circuit));
  plan_entries_.push_back(std::move(entry));
  return plan_entries_.back().plan;
}

std::size_t CompiledCircuitCache::compile_count() const {
  MutexLock lock(mu_);
  return compiles_;
}

std::size_t CompiledCircuitCache::hit_count() const {
  MutexLock lock(mu_);
  return hits_;
}

std::size_t CompiledCircuitCache::plan_compile_count() const {
  MutexLock lock(mu_);
  return plan_compiles_;
}

std::size_t CompiledCircuitCache::plan_hit_count() const {
  MutexLock lock(mu_);
  return plan_hits_;
}

void CompiledCircuitCache::clear() {
  MutexLock lock(mu_);
  entries_.clear();
  plan_entries_.clear();
}

}  // namespace qugeo::qsim
