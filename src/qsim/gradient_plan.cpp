#include "qsim/gradient_plan.h"

#include "qsim/optimizer.h"

namespace qugeo::qsim {
namespace {

bool op_is_trainable(const Op& op) {
  for (std::uint32_t id : op.param_ids)
    if (id != kLiteralParam) return true;
  return false;
}

GradientPlanStats count_stats(const Circuit& source, const Circuit& plan) {
  GradientPlanStats s;
  s.source_ops = source.num_ops();
  s.plan_ops = plan.num_ops();
  for (const Op& op : plan.ops())
    if (op_is_trainable(op)) ++s.trainable_ops;
  return s;
}

}  // namespace

GradientPlan GradientPlan::build(const Circuit& circuit) {
  GradientPlan plan;
  // Trainable ops end fusion runs on every qubit they touch (optimizer.h),
  // so the forward canonicalization of the TRAINABLE circuit is exactly the
  // trainable-slot partition with each literal 1q run fused; parameter ids
  // survive verbatim, and the fused runs are plain U3/Phase ops that
  // adjoint_backward rewinds like any literal gate.
  if (has_fusable_runs(circuit)) {
    plan.fused_ =
        std::make_shared<const Circuit>(canonicalize_for_backend(circuit));
    plan.stats_ = count_stats(circuit, *plan.fused_);
  } else {
    plan.stats_ = count_stats(circuit, circuit);
  }
  return plan;
}

}  // namespace qugeo::qsim
