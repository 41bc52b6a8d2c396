// Differential gradient-conformance suite for the GradientPlan training
// path (qsim/gradient_plan.h).
//
// A seeded random circuit corpus — every trainable GateKind, literal runs
// interleaved between the trainable slots, both 2q orientations — is
// differentiated four independent ways and the answers are required to
// agree:
//   * fused adjoint (the GradientPlan form) vs unfused adjoint: bitwise
//     when the plan is the identity, <= 1e-10 otherwise (the fused
//     segments' global phase rides on both |psi> and <lambda| and cancels
//     in the 2 Re <lambda|dU|psi> contraction);
//   * central finite differences of the loss, to 1e-6;
//   * the parameter-shift rule, for shift-eligible corpora (RX/RY/RZ/CRY).
// Two fixed shapes ride along: the 8-qubit, 12-block paper ansatz against
// finite differences (the strides the small corpus never reaches), and a
// tied-parameter circuit whose shared slots must sum every gate's share.
// CI re-runs this binary under QUGEO_GRAD_FUSION=off, QUGEO_SIMD=scalar,
// QUGEO_SIMD=avx2 and QUGEO_THREADS=4 legs, and under TSan (the shared
// plan-cache test below exercises the concurrent build path).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/ansatz.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/compile_cache.h"
#include "qsim/executor.h"
#include "qsim/gradient_plan.h"
#include "qsim/observables.h"
#include "qsim/optimizer.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {
namespace {

StateVector random_state(Index num_qubits, Rng& rng) {
  StateVector psi(num_qubits);
  Real norm2 = 0;
  for (Complex& a : psi.amplitudes_mut()) {
    a = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    norm2 += std::norm(a);
  }
  const Real inv = Real(1) / std::sqrt(norm2);
  for (Complex& a : psi.amplitudes_mut()) a *= inv;
  return psi;
}

/// A literal run on a guaranteed-fusable pattern plus random filler gates
/// (1q and 2q, both operand orders), never touching the parameter table.
void add_literal_run(Circuit& c, Rng& rng, std::size_t len) {
  const Index nq = c.num_qubits();
  const auto q1 = [&] { return static_cast<Index>(rng.uniform_int(0, nq - 1)); };
  // Two adjacent 1q literals on one qubit make the run fusable regardless
  // of what the random filler below lands on.
  const Index base = q1();
  c.h(base);
  c.t(base);
  for (std::size_t i = 0; i < len; ++i) {
    const Index a = q1();
    Index b = static_cast<Index>(rng.uniform_int(0, nq - 2));
    if (b >= a) ++b;
    switch (rng.uniform_int(0, 7)) {
      case 0: c.h(a); break;
      case 1: c.rz(a, rng.uniform(-2, 2)); break;
      case 2: c.rx(a, rng.uniform(-2, 2)); break;
      case 3: c.s(a); break;
      case 4: c.cx(a, b); break;   // both orientations: (a, b) is a random
      case 5: c.cz(b, a); break;   // ordered pair, so low->high and
      case 6: c.swap(a, b); break; // high->low controls both occur
      default: c.cry(a, b, rng.uniform(-2, 2)); break;
    }
  }
}

/// Append trainable slot #i; i % 6 cycles through every trainable
/// GateKind, and the 2q gates alternate control-low / control-high.
void add_trainable(Circuit& c, std::size_t i, Rng& rng,
                   std::set<GateKind>* kinds_seen) {
  const Index nq = c.num_qubits();
  const Index q = static_cast<Index>(rng.uniform_int(0, nq - 1));
  Index q2 = static_cast<Index>(rng.uniform_int(0, nq - 2));
  if (q2 >= q) ++q2;
  const Index lo = std::min(q, q2);
  const Index hi = std::max(q, q2);
  const Index ctl = (i % 2 == 0) ? lo : hi;
  const Index tgt = (i % 2 == 0) ? hi : lo;
  switch (i % 6) {
    case 0: c.rx(q, c.new_param()); kinds_seen->insert(GateKind::kRX); break;
    case 1: c.ry(q, c.new_param()); kinds_seen->insert(GateKind::kRY); break;
    case 2: c.rz(q, c.new_param()); kinds_seen->insert(GateKind::kRZ); break;
    case 3: c.u3(q, c.new_params(3)); kinds_seen->insert(GateKind::kU3); break;
    case 4:
      c.cry(ctl, tgt, c.new_param());
      kinds_seen->insert(GateKind::kCRY);
      break;
    default:
      c.cu3(ctl, tgt, c.new_params(3));
      kinds_seen->insert(GateKind::kCU3);
      break;
  }
}

/// Corpus circuit `seed`: literal prefix, `slots` trainable gates with a
/// literal run after each, literal suffix included.
Circuit corpus_circuit(Index num_qubits, std::uint64_t seed, std::size_t slots,
                       std::set<GateKind>* kinds_seen) {
  Rng rng(seed * 7919 + 13);
  Circuit c(num_qubits);
  add_literal_run(c, rng, 3);
  for (std::size_t i = 0; i < slots; ++i) {
    add_trainable(c, i, rng, kinds_seen);
    add_literal_run(c, rng, static_cast<std::size_t>(rng.uniform_int(1, 4)));
  }
  return c;
}

/// A literal run of strictly DIAGONAL gates (they merge under the
/// optimizer's diagonal-run fusion and commute with every computational-
/// basis projector).
void add_diagonal_run(Circuit& c, Rng& rng, std::size_t len) {
  const Index nq = c.num_qubits();
  for (std::size_t i = 0; i < len; ++i) {
    const Index a = static_cast<Index>(rng.uniform_int(0, nq - 1));
    Index b = static_cast<Index>(rng.uniform_int(0, nq - 2));
    if (b >= a) ++b;
    switch (rng.uniform_int(0, 4)) {
      case 0: c.rz(a, rng.uniform(-2, 2)); break;
      case 1: c.z(a); break;
      case 2: c.s(a); break;
      case 3: c.t(a); break;
      default: c.cz(a, b); break;
    }
  }
}

/// Shift-rule-eligible corpus: trainable gates restricted to RX/RY/RZ/CRY
/// (generator eigenvalues +-1/2), literal runs interleaved. The two-term
/// pi/2 shift is exact for a CONTROLLED rotation only when everything
/// downstream of it is block-diagonal in its control qubit — a diagonal
/// observable (the probability-weight loss) never couples the control
/// subspaces, but an arbitrary suffix would — so the CRY slots sit at the
/// end with diagonal-only literal runs after them, in both orientations
/// (control-low targets 1 from 0; control-high targets 1 from 2, which
/// never touches the first CRY's control).
Circuit shift_corpus_circuit(Index num_qubits, std::uint64_t seed,
                             std::size_t slots) {
  Rng rng(seed * 104729 + 5);
  Circuit c(num_qubits);
  add_literal_run(c, rng, 2);
  for (std::size_t i = 0; i < slots; ++i) {
    const Index q = static_cast<Index>(rng.uniform_int(0, num_qubits - 1));
    switch (i % 3) {
      case 0: c.rx(q, c.new_param()); break;
      case 1: c.ry(q, c.new_param()); break;
      default: c.rz(q, c.new_param()); break;
    }
    add_literal_run(c, rng, 2);
  }
  c.cry(0, 1, c.new_param());
  add_diagonal_run(c, rng, 3);
  c.cry(2, 1, c.new_param());
  add_diagonal_run(c, rng, 3);
  return c;
}

std::vector<Real> random_params(std::size_t n, Rng& rng) {
  std::vector<Real> p(n);
  rng.fill_uniform(p, -1.5, 1.5);
  return p;
}

/// Linear probability loss L = sum_k g_k p_k with fixed random weights —
/// the simplest loss whose cotangent the adjoint entry point consumes
/// (lambda_k = g_k psi_k) and whose value any forward pass can evaluate.
std::vector<Real> random_weights(Index num_qubits, Rng& rng) {
  std::vector<Real> g(std::size_t{1} << num_qubits);
  rng.fill_uniform(g, -1, 1);
  return g;
}

Real linear_loss(const StateVector& psi, const std::vector<Real>& g) {
  const std::vector<Real> p = psi.probabilities();
  Real loss = 0;
  for (std::size_t k = 0; k < p.size(); ++k) loss += g[k] * p[k];
  return loss;
}

AdjointResult adjoint_of(const Circuit& circuit, std::span<const Real> params,
                         const StateVector& psi_in, const std::vector<Real>& g) {
  StateVector psi = psi_in;
  run_circuit(circuit, params, psi);
  const std::vector<Complex> cot = cotangent_from_probability_grads(psi, g);
  return adjoint_backward(circuit, params, std::move(psi), cot);
}

/// Central finite difference of linear_loss with respect to params[p].
Real central_difference(const Circuit& c, std::vector<Real>& params,
                        std::size_t p, const StateVector& psi_in,
                        const std::vector<Real>& g) {
  const Real h = 1e-5;
  const Real saved = params[p];
  params[p] = saved + h;
  StateVector plus = psi_in;
  run_circuit(c, params, plus);
  params[p] = saved - h;
  StateVector minus = psi_in;
  run_circuit(c, params, minus);
  params[p] = saved;
  return (linear_loss(plus, g) - linear_loss(minus, g)) / (2 * h);
}

constexpr std::uint64_t kCorpusSeeds = 12;

TEST(GradientConformance, CorpusCoversEveryTrainableGateKind) {
  std::set<GateKind> kinds;
  for (std::uint64_t seed = 0; seed < kCorpusSeeds; ++seed)
    (void)corpus_circuit(3, seed, 7, &kinds);
  EXPECT_EQ(kinds, (std::set<GateKind>{GateKind::kRX, GateKind::kRY,
                                       GateKind::kRZ, GateKind::kU3,
                                       GateKind::kCRY, GateKind::kCU3}));
}

TEST(GradientConformance, FusedAdjointMatchesUnfusedAdjoint) {
  for (std::uint64_t seed = 0; seed < kCorpusSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::set<GateKind> kinds;
    const Index nq = 3 + static_cast<Index>(seed % 2);
    const Circuit c = corpus_circuit(nq, seed, 7, &kinds);
    const GradientPlan plan = GradientPlan::build(c);
    ASSERT_TRUE(plan.fused());  // the corpus always has literal runs
    EXPECT_LT(plan.stats().plan_ops, plan.stats().source_ops);
    EXPECT_GT(plan.stats().trainable_ops, 0u);

    Rng rng(seed + 0xc0ffee);
    const std::vector<Real> params = random_params(c.num_params(), rng);
    const StateVector psi_in = random_state(nq, rng);
    const std::vector<Real> g = random_weights(nq, rng);

    const AdjointResult unfused = adjoint_of(c, params, psi_in, g);
    const AdjointResult fused =
        adjoint_of(plan.execution_form(c), params, psi_in, g);

    ASSERT_EQ(fused.param_grads.size(), unfused.param_grads.size());
    for (std::size_t p = 0; p < unfused.param_grads.size(); ++p)
      EXPECT_NEAR(fused.param_grads[p], unfused.param_grads[p], 1e-10)
          << "param " << p;
    // The fused segments' phase cancels in the input cotangent too:
    // lambda_in = U_f^dag (g o psi_f) = e^{-i phi} U^dag e^{i phi}(g o psi).
    ASSERT_EQ(fused.input_cotangent.size(), unfused.input_cotangent.size());
    for (std::size_t k = 0; k < unfused.input_cotangent.size(); ++k) {
      EXPECT_NEAR(fused.input_cotangent[k].real(),
                  unfused.input_cotangent[k].real(), 1e-10);
      EXPECT_NEAR(fused.input_cotangent[k].imag(),
                  unfused.input_cotangent[k].imag(), 1e-10);
    }
  }
}

TEST(GradientConformance, PlanIsIdentityForAllTrainableCircuits) {
  // The QuGeoVQC ansatz shape: every angle trainable, nothing to fuse. The
  // plan must hand back the ORIGINAL circuit by reference, keeping the
  // default training path bit-identical to the pre-plan loop.
  Circuit c(3);
  for (Index q = 0; q < 3; ++q) c.u3(q, c.new_params(3));
  c.cu3(0, 1, c.new_params(3));
  c.cry(1, 2, c.new_param());
  const GradientPlan plan = GradientPlan::build(c);
  EXPECT_FALSE(plan.fused());
  EXPECT_EQ(&plan.execution_form(c), &c);
  EXPECT_EQ(plan.stats().plan_ops, plan.stats().source_ops);
  EXPECT_EQ(plan.stats().fused_ops, 0u);
}

TEST(GradientConformance, AdjointMatchesCentralFiniteDifference) {
  for (std::uint64_t seed = 0; seed < kCorpusSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::set<GateKind> kinds;
    const Circuit c = corpus_circuit(3, seed, 6, &kinds);
    const GradientPlan plan = GradientPlan::build(c);

    Rng rng(seed + 0xfd);
    std::vector<Real> params = random_params(c.num_params(), rng);
    const StateVector psi_in = random_state(3, rng);
    const std::vector<Real> g = random_weights(3, rng);

    const AdjointResult adj =
        adjoint_of(plan.execution_form(c), params, psi_in, g);
    for (std::size_t p = 0; p < c.num_params(); ++p)
      EXPECT_NEAR(adj.param_grads[p],
                  central_difference(c, params, p, psi_in, g), 1e-6)
          << "param " << p;
  }
}

TEST(GradientConformance, AdjointMatchesParameterShiftOnEligibleGates) {
  for (std::uint64_t seed = 0; seed < kCorpusSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Circuit c = shift_corpus_circuit(3, seed, 6);
    const GradientPlan plan = GradientPlan::build(c);
    ASSERT_TRUE(plan.fused());

    Rng rng(seed + 0x51f7);
    const std::vector<Real> params = random_params(c.num_params(), rng);
    const StateVector psi_in = random_state(3, rng);
    const std::vector<Real> g = random_weights(3, rng);

    const AdjointResult adj =
        adjoint_of(plan.execution_form(c), params, psi_in, g);
    const std::vector<Real> shift = parameter_shift_gradient(
        c, params, psi_in,
        [&](const StateVector& psi) { return linear_loss(psi, g); });
    ASSERT_EQ(shift.size(), adj.param_grads.size());
    // Both rules are exact for these generators; the tolerance only covers
    // accumulated kernel rounding.
    for (std::size_t p = 0; p < shift.size(); ++p)
      EXPECT_NEAR(adj.param_grads[p], shift[p], 1e-9) << "param " << p;
  }
}

TEST(GradientConformance, AdjointMatchesFiniteDifferenceOnPaperAnsatz) {
  // The shape training runs: 8 data qubits, 12 U3+CU3 blocks, 576 angles.
  // The 64/128-stride pairs and every CU3 placement (including the ring's
  // closing CU3 with target 0) only occur at this width.
  const core::QubitLayout layout({8}, 0);
  const Circuit c = core::build_qugeo_ansatz(layout, core::AnsatzConfig{});
  ASSERT_EQ(c.num_params(), 576u);
  Rng rng(0x9a9e7);
  std::vector<Real> params = random_params(c.num_params(), rng);
  const StateVector psi_in = random_state(8, rng);
  const std::vector<Real> g = random_weights(8, rng);
  const AdjointResult adj = adjoint_of(c, params, psi_in, g);

  // Per block: 8 U3 (slots 0..23), then CU3(q -> q+1 mod 8) (slots
  // 24..47); CU3(7 -> 0) owns slots 45..47.
  std::vector<std::size_t> probe;
  for (std::size_t p = 0; p < 48; ++p) probe.push_back(p);         // block 0
  for (std::size_t p = 528; p < 576; ++p) probe.push_back(p);      // block 11
  for (std::size_t b = 1; b < 11; ++b)
    for (std::size_t k : {0, 21, 24, 45, 46, 47}) probe.push_back(48 * b + k);
  for (const std::size_t p : probe)
    EXPECT_NEAR(adj.param_grads[p],
                central_difference(c, params, p, psi_in, g), 1e-6)
        << "param " << p;
}

TEST(GradientConformance, TiedParametersAccumulateAcrossGates) {
  // One ParamRef drives two gates: the adjoint must sum both gates'
  // contributions into the shared slot.
  Circuit tied(3);
  const ParamRef u = tied.new_params(3);
  const ParamRef r = tied.new_param();
  tied.h(0);
  tied.u3(1, u);
  tied.ry(0, r);
  tied.cx(1, 2);
  tied.cu3(2, 0, u);
  tied.cry(1, 2, r);

  // The same circuit with every gate on its own slots.
  Circuit untied(3);
  const ParamRef u1 = untied.new_params(3);
  const ParamRef r1 = untied.new_param();
  const ParamRef u2 = untied.new_params(3);
  const ParamRef r2 = untied.new_param();
  untied.h(0);
  untied.u3(1, u1);
  untied.ry(0, r1);
  untied.cx(1, 2);
  untied.cu3(2, 0, u2);
  untied.cry(1, 2, r2);

  Rng rng(0x7ed);
  std::vector<Real> params = random_params(tied.num_params(), rng);
  std::vector<Real> split(params);
  split.insert(split.end(), params.begin(), params.end());
  const StateVector psi_in = random_state(3, rng);
  const std::vector<Real> g = random_weights(3, rng);

  const AdjointResult adj = adjoint_of(tied, params, psi_in, g);
  const AdjointResult parts = adjoint_of(untied, split, psi_in, g);
  for (std::size_t p = 0; p < tied.num_params(); ++p) {
    EXPECT_NEAR(adj.param_grads[p],
                parts.param_grads[p] + parts.param_grads[p + 4], 1e-12)
        << "param " << p;
    EXPECT_NEAR(adj.param_grads[p],
                central_difference(tied, params, p, psi_in, g), 1e-6)
        << "param " << p;
  }
}

TEST(GradientConformance, EnvKnobParsesStrictly) {
  ASSERT_EQ(setenv("QUGEO_GRAD_FUSION", "off", 1), 0);
  EXPECT_FALSE(apply_env_overrides({}).grad_fusion);
  ASSERT_EQ(setenv("QUGEO_GRAD_FUSION", "on", 1), 0);
  EXPECT_TRUE(apply_env_overrides({}).grad_fusion);
  ASSERT_EQ(setenv("QUGEO_GRAD_FUSION", "sideways", 1), 0);
  EXPECT_THROW((void)apply_env_overrides({}), std::invalid_argument);
  ASSERT_EQ(unsetenv("QUGEO_GRAD_FUSION"), 0);
  ExecutionConfig def;
  EXPECT_TRUE(def.grad_fusion);
}

TEST(GradientConformance, SharedPlanCacheBuildsOnceUnderConcurrency) {
  // The trainer's chunk fan-out hits CompiledCircuitCache::gradient_plan
  // from every pool worker at once; the plan must build exactly once and
  // every caller must see the same object. This test runs under TSan in CI.
  std::set<GateKind> kinds;
  const Circuit c = corpus_circuit(4, 3, 7, &kinds);
  CompiledCircuitCache cache;
  constexpr std::size_t kCallers = 16;
  std::vector<std::shared_ptr<const GradientPlan>> plans(kCallers);
  std::vector<std::vector<Real>> grads(kCallers);
  Rng rng(99);
  const std::vector<Real> params = random_params(c.num_params(), rng);
  const StateVector psi_in = random_state(4, rng);
  const std::vector<Real> g = random_weights(4, rng);
  parallel_for(0, kCallers, [&](std::size_t i) {
    plans[i] = cache.gradient_plan(c);
    grads[i] =
        adjoint_of(plans[i]->execution_form(c), params, psi_in, g).param_grads;
  });
  EXPECT_EQ(cache.plan_compile_count(), 1u);
  EXPECT_EQ(cache.plan_hit_count(), kCallers - 1);
  for (std::size_t i = 1; i < kCallers; ++i) {
    EXPECT_EQ(plans[i], plans[0]);
    EXPECT_EQ(grads[i], grads[0]);  // same plan, same kernels: bitwise
  }
  // Forward counters stay untouched: plan accounting is separate.
  EXPECT_EQ(cache.compile_count(), 0u);
  EXPECT_EQ(cache.hit_count(), 0u);
}

}  // namespace
}  // namespace qugeo::qsim
