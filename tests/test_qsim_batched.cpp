// Batched (SoA) multi-state execution equivalence: one batched gate
// dispatch over all lanes must reproduce the looped single-state execution
// exactly. In scalar dispatch mode the batched lane loops restate the very
// same formulas the single-state kernels use (and the baseline TU cannot
// contract them into FMA), so equivalence here is BIT-EXACT — checked with
// EXPECT_EQ, not a tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/model.h"
#include "qsim/backend.h"
#include "qsim/batched_executor.h"
#include "qsim/batched_statevector.h"
#include "qsim/executor.h"

namespace qugeo::qsim {
namespace {

std::vector<Complex> random_amplitudes(Index dim, Rng& rng) {
  std::vector<Complex> amps(dim);
  Real norm = 0;
  for (Complex& a : amps) {
    a = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    norm += std::norm(a);
  }
  norm = std::sqrt(norm);
  for (Complex& a : amps) a /= norm;
  return amps;
}

void expect_lanes_bitwise(const BatchedStateVector& batch,
                          std::span<const StateVector> looped,
                          const char* what) {
  ASSERT_EQ(batch.lanes(), looped.size());
  for (std::size_t l = 0; l < batch.lanes(); ++l) {
    const StateVector got = batch.lane_state(l);
    const auto want = looped[l].amplitudes();
    ASSERT_EQ(got.amplitudes().size(), want.size());
    for (Index k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got.amplitudes()[k].real(), want[k].real())
          << what << " lane " << l << " amp " << k;
      EXPECT_EQ(got.amplitudes()[k].imag(), want[k].imag())
          << what << " lane " << l << " amp " << k;
    }
  }
}

const GateKind kAllKinds[] = {
    GateKind::kI,   GateKind::kX,     GateKind::kY,   GateKind::kZ,
    GateKind::kH,   GateKind::kS,     GateKind::kSdg, GateKind::kT,
    GateKind::kTdg, GateKind::kRX,    GateKind::kRY,  GateKind::kRZ,
    GateKind::kPhase, GateKind::kU3,  GateKind::kCX,  GateKind::kCZ,
    GateKind::kCRY, GateKind::kCU3,   GateKind::kSWAP};

/// A one-op circuit for `kind` on random distinct qubits with random
/// literal angles (kI has no public builder; its circuit stays empty,
/// which is the same identity semantics).
Circuit one_op_circuit(GateKind kind, Index num_qubits, Rng& rng) {
  Circuit c(num_qubits);
  const auto q0 = static_cast<Index>(
      rng.uniform_int(0, static_cast<std::int64_t>(num_qubits) - 1));
  Index q1 = q0;
  while (q1 == q0)
    q1 = static_cast<Index>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_qubits) - 1));
  const Real a = rng.uniform(-3, 3);
  const Real b = rng.uniform(-3, 3);
  const Real d = rng.uniform(-3, 3);
  switch (kind) {
    case GateKind::kI: break;
    case GateKind::kX: c.x(q0); break;
    case GateKind::kY: c.y(q0); break;
    case GateKind::kZ: c.z(q0); break;
    case GateKind::kH: c.h(q0); break;
    case GateKind::kS: c.s(q0); break;
    case GateKind::kSdg: c.sdg(q0); break;
    case GateKind::kT: c.t(q0); break;
    case GateKind::kTdg: c.tdg(q0); break;
    case GateKind::kRX: c.rx(q0, a); break;
    case GateKind::kRY: c.ry(q0, a); break;
    case GateKind::kRZ: c.rz(q0, a); break;
    case GateKind::kPhase: c.phase(q0, a); break;
    case GateKind::kU3: c.u3(q0, a, b, d); break;
    case GateKind::kCX: c.cx(q0, q1); break;
    case GateKind::kCZ: c.cz(q0, q1); break;
    case GateKind::kCRY: c.cry(q0, q1, a); break;
    case GateKind::kCU3: c.cu3(q0, q1, a, b, d); break;
    case GateKind::kSWAP: c.swap(q0, q1); break;
    default: ADD_FAILURE() << "unhandled kind"; break;
  }
  return c;
}

/// The paper's U3+CU3 ansatz layer with literal angles, plus a SWAP and a
/// CX so every operand orientation is exercised.
Circuit literal_test_circuit(Index qubits, Rng& rng) {
  Circuit c(qubits);
  for (Index q = 0; q < qubits; ++q)
    c.u3(q, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2));
  for (Index q = 0; q + 1 < qubits; ++q)
    c.cu3(q, q + 1, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2));
  c.swap(0, qubits - 1);
  for (Index q = 0; q < qubits; ++q)
    c.u3(q, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2));
  c.cx(qubits - 1, 0);
  return c;
}

TEST(BatchedExecutor, EveryGateKindMatchesLoopedBitExact) {
  const simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
  Rng rng(41);
  const Index nq = 5;
  const std::size_t lanes = 3;
  for (GateKind kind : kAllKinds) {
    for (int trial = 0; trial < 3; ++trial) {
      const Circuit c = one_op_circuit(kind, nq, rng);
      BatchedStateVector batch(nq, lanes);
      std::vector<StateVector> looped;
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto amps = random_amplitudes(Index{1} << nq, rng);
        batch.set_lane(l, amps);
        looped.emplace_back(nq);
        looped.back().set_amplitudes(amps);
      }
      run_circuit_batched(c, {}, batch);
      for (auto& psi : looped) run_circuit(c, {}, psi);
      expect_lanes_bitwise(batch, looped, gate_name(kind).data());
    }
  }
}

TEST(BatchedExecutor, BatchSizeOneDegeneracy) {
  const simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
  Rng rng(43);
  const Index nq = 6;
  const Circuit c = literal_test_circuit(nq, rng);
  const auto amps = random_amplitudes(Index{1} << nq, rng);
  BatchedStateVector batch(nq, 1);
  batch.set_lane(0, amps);
  std::vector<StateVector> looped(1, StateVector(nq));
  looped[0].set_amplitudes(amps);
  run_circuit_batched(c, {}, batch);
  run_circuit(c, {}, looped[0]);
  expect_lanes_bitwise(batch, looped, "batch of one");
}

TEST(BatchedExecutor, Avx2MatchesLoopedWithinTolerance) {
  if (!simd::cpu_supports_avx2())
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU";
  const simd::ScopedSimdMode scoped(simd::SimdMode::kAvx2);
  Rng rng(44);
  const Index nq = 5;
  const std::size_t lanes = 6;
  const Circuit c = literal_test_circuit(nq, rng);
  BatchedStateVector batch(nq, lanes);
  std::vector<StateVector> looped;
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto amps = random_amplitudes(Index{1} << nq, rng);
    batch.set_lane(l, amps);
    looped.emplace_back(nq);
    looped.back().set_amplitudes(amps);
  }
  run_circuit_batched(c, {}, batch);
  for (auto& psi : looped) run_circuit(c, {}, psi);
  for (std::size_t l = 0; l < lanes; ++l) {
    const StateVector got = batch.lane_state(l);
    for (Index k = 0; k < got.dim(); ++k) {
      EXPECT_NEAR(got.amplitudes()[k].real(),
                  looped[l].amplitudes()[k].real(), 1e-12);
      EXPECT_NEAR(got.amplitudes()[k].imag(),
                  looped[l].amplitudes()[k].imag(), 1e-12);
    }
  }
}

TEST(BatchedBackend, StatevectorOverrideMatchesBaseLoop) {
  const Index nq = 5;
  Rng rng(47);
  const Circuit c = literal_test_circuit(nq, rng);

  std::vector<StateVector> states;
  for (int i = 0; i < 3; ++i) {
    states.emplace_back(nq);
    states.back().set_amplitudes(random_amplitudes(Index{1} << nq, rng));
  }

  ExecutionConfig cfg;
  cfg.simd = simd::SimdMode::kScalar;
  const auto backend = make_backend(cfg, nq);
  const auto batched = backend->run_batched_probabilities(c, {}, states);

  ASSERT_EQ(batched.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto single = make_backend(cfg, nq);
    single->run(c, {}, StateVector(states[i]));
    const auto want = single->probabilities();
    ASSERT_EQ(batched[i].size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k)
      EXPECT_EQ(batched[i][k], want[k]) << "state " << i << " outcome " << k;
  }
}

TEST(BatchedModel, PredictBatchedMatchesUnbatchedWithRaggedTail) {
  // Model-level gating: exec.batch > 1 sweeps whole QuBatch chunks through
  // the SoA path. Five samples at batch 2 leaves a ragged final group; the
  // padded lane must not leak into the returned predictions.
  core::ModelConfig mc;
  Rng rng(50);
  core::QuGeoModel model(mc, rng);

  std::vector<data::ScaledSample> samples(5);
  for (auto& s : samples) {
    s.waveform.resize(256);
    s.velocity.resize(64);
    rng.fill_uniform(s.waveform, -1, 1);
    rng.fill_uniform(s.velocity, 0, 1);
  }
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  qsim::ExecutionConfig exec = model.execution_config();
  exec.simd = simd::SimdMode::kScalar;
  exec.batch = 1;
  const auto unbatched = model.predict_with(ptrs, exec);
  exec.batch = 2;
  const auto batched = model.predict_with(ptrs, exec);

  ASSERT_EQ(batched.size(), unbatched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i].size(), unbatched[i].size()) << "sample " << i;
    for (std::size_t k = 0; k < batched[i].size(); ++k)
      EXPECT_EQ(batched[i][k], unbatched[i][k])
          << "sample " << i << " pixel " << k;
  }
}

TEST(BatchedBackend, ShotWrapAppliesOutsideBatchKnob) {
  // make_backend applies the ShotBackend wrap OUTSIDE whatever the batch
  // knob selects for the inner statevector: the returned kind is kShot and
  // the sampled distribution is unaffected by the inner batch width.
  Rng rng(51);
  const Index nq = 4;
  const Circuit c = literal_test_circuit(nq, rng);
  ExecutionConfig cfg;
  cfg.shots = 2048;
  cfg.seed = 7;
  cfg.simd = simd::SimdMode::kScalar;

  cfg.batch = 1;
  const auto b1 = make_backend(cfg, nq);
  ASSERT_EQ(b1->kind(), BackendKind::kShot);
  b1->run(c, {});
  const auto p1 = b1->probabilities();

  cfg.batch = 8;
  const auto b8 = make_backend(cfg, nq);
  ASSERT_EQ(b8->kind(), BackendKind::kShot);
  b8->run(c, {});
  const auto p8 = b8->probabilities();

  ASSERT_EQ(p8.size(), p1.size());
  for (std::size_t k = 0; k < p1.size(); ++k)
    EXPECT_EQ(p8[k], p1[k]) << "outcome " << k;
}

TEST(BatchedModel, ShotsDisableChunkGroupingBitIdentically) {
  // Combined QUGEO_BATCH + QUGEO_SHOTS semantics: predict_with only groups
  // chunks into SoA lanes on the exact statevector path (shots == 0), so
  // with shots > 0 the batch knob must be inert — {batch=8, shots=4096}
  // returns the same per-chunk sampled realizations as {batch=1,
  // shots=4096}, bit for bit, never lane-averaged ones.
  core::ModelConfig mc;
  Rng rng(52);
  core::QuGeoModel model(mc, rng);

  std::vector<data::ScaledSample> samples(5);
  for (auto& s : samples) {
    s.waveform.resize(256);
    s.velocity.resize(64);
    rng.fill_uniform(s.waveform, -1, 1);
    rng.fill_uniform(s.velocity, 0, 1);
  }
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  qsim::ExecutionConfig exec = model.execution_config();
  exec.simd = simd::SimdMode::kScalar;
  exec.shots = 4096;
  exec.batch = 1;
  const auto sampled = model.predict_with(ptrs, exec);
  exec.batch = 8;
  const auto sampled_batched = model.predict_with(ptrs, exec);

  ASSERT_EQ(sampled_batched.size(), sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    ASSERT_EQ(sampled_batched[i].size(), sampled[i].size()) << "sample " << i;
    for (std::size_t k = 0; k < sampled[i].size(); ++k)
      EXPECT_EQ(sampled_batched[i][k], sampled[i][k])
          << "sample " << i << " pixel " << k;
  }
}

TEST(BatchedStateVectorBasics, RejectsInvalidConstruction) {
  EXPECT_THROW(BatchedStateVector(29, 2), std::invalid_argument);
  EXPECT_THROW(BatchedStateVector(4, 0), std::invalid_argument);
  BatchedStateVector b(3, 2);
  EXPECT_EQ(b.dim(), Index{8});
  EXPECT_EQ(b.lanes(), 2u);
  // reset() returns every lane to |0...0>.
  b.apply_1q(gate_matrix(GateKind::kH, {}), 0);
  b.reset();
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_EQ(b.lane_norm_sq(l), Real(1));
    const auto probs = b.lane_probabilities(l);
    EXPECT_EQ(probs[0], Real(1));
  }
}

}  // namespace
}  // namespace qugeo::qsim
