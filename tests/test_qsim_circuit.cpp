// Circuit IR: parameter allocation, op validation, composition, depth.
#include <gtest/gtest.h>

#include "qsim/circuit.h"

namespace qugeo::qsim {
namespace {

TEST(Circuit, AllocatesSequentialParams) {
  Circuit c(2);
  const ParamRef a = c.new_param();
  const ParamRef b = c.new_params(3);
  const ParamRef d = c.new_param();
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(d.id, 4u);
  EXPECT_EQ(c.num_params(), 5u);
}

TEST(Circuit, RejectsOutOfRangeQubit) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), std::out_of_range);
  EXPECT_THROW(c.cx(0, 5), std::out_of_range);
}

TEST(Circuit, RejectsIdenticalOperands) {
  Circuit c(3);
  EXPECT_THROW(c.cx(1, 1), std::invalid_argument);
  EXPECT_THROW(c.swap(2, 2), std::invalid_argument);
}

TEST(Circuit, RejectsUnallocatedParamRef) {
  Circuit c(1);
  EXPECT_THROW(c.rx(0, ParamRef{0}), std::out_of_range);
  EXPECT_THROW(c.u3(0, ParamRef{0}), std::out_of_range);
}

TEST(Circuit, RejectsThreeSlotRefsPastTheTable) {
  // The slot check must not wrap: ids near the kLiteralParam sentinel
  // would otherwise pass and alias slot 0 (or a literal).
  Circuit c(2);
  (void)c.new_params(3);
  EXPECT_THROW(c.u3(0, ParamRef{}), std::out_of_range);
  EXPECT_THROW(c.cu3(0, 1, ParamRef{0xfffffffeu}), std::out_of_range);
  EXPECT_THROW(c.u3(0, ParamRef{1}), std::out_of_range);
  EXPECT_THROW(c.cu3(0, 1, ParamRef{1}), std::out_of_range);
  EXPECT_EQ(c.num_ops(), 0u);
  c.u3(0, ParamRef{0});
  c.cu3(0, 1, ParamRef{0});
  EXPECT_EQ(c.num_ops(), 2u);
}

TEST(Circuit, U3ConsumesThreeSlots) {
  Circuit c(1);
  const ParamRef p = c.new_params(3);
  c.u3(0, p);
  const Op& op = c.ops()[0];
  EXPECT_EQ(op.param_ids[0], 0u);
  EXPECT_EQ(op.param_ids[1], 1u);
  EXPECT_EQ(op.param_ids[2], 2u);
}

TEST(Circuit, LiteralAnglesDontAllocate) {
  Circuit c(2);
  c.rx(0, 0.5);
  c.cu3(0, 1, 0.1, 0.2, 0.3);
  EXPECT_EQ(c.num_params(), 0u);
  const auto vals = Circuit::resolve_params(c.ops()[1], {});
  EXPECT_EQ(vals[0], 0.1);
  EXPECT_EQ(vals[2], 0.3);
}

TEST(Circuit, ResolveMixesLiteralsAndTable) {
  Circuit c(1);
  const ParamRef p = c.new_param();
  c.ry(0, p);
  c.ry(0, 2.5);
  const std::vector<Real> table = {7.0};
  EXPECT_EQ(Circuit::resolve_params(c.ops()[0], table)[0], 7.0);
  EXPECT_EQ(Circuit::resolve_params(c.ops()[1], table)[0], 2.5);
}

TEST(Circuit, AppendShiftsParameterIds) {
  Circuit a(2), b(2);
  a.ry(0, a.new_param());
  b.ry(1, b.new_param());
  b.u3(0, b.new_params(3));
  const std::uint32_t offset = a.append(b);
  EXPECT_EQ(offset, 1u);
  EXPECT_EQ(a.num_params(), 5u);
  EXPECT_EQ(a.ops()[1].param_ids[0], 1u);
  EXPECT_EQ(a.ops()[2].param_ids[0], 2u);
}

TEST(Circuit, AppendRejectsWiderCircuit) {
  Circuit a(2), b(3);
  EXPECT_THROW(a.append(b), std::invalid_argument);
}

TEST(Circuit, DepthOfParallelGates) {
  Circuit c(4);
  c.h(0);
  c.h(1);
  c.h(2);
  c.h(3);
  EXPECT_EQ(c.depth(), 1u);
  c.cx(0, 1);
  c.cx(2, 3);
  EXPECT_EQ(c.depth(), 2u);
  c.cx(1, 2);
  EXPECT_EQ(c.depth(), 3u);
}

TEST(Circuit, TwoQubitOpCount) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.swap(1, 2);
  c.ry(2, 0.1);
  EXPECT_EQ(c.two_qubit_op_count(), 2u);
}

TEST(Circuit, EmptyCircuitHasZeroDepth) {
  Circuit c(5);
  EXPECT_EQ(c.depth(), 0u);
  EXPECT_EQ(c.num_ops(), 0u);
}

}  // namespace
}  // namespace qugeo::qsim
