// ShotBackend conformance: convergence of the empirical distribution to
// the wrapped backend's exact probabilities (binomial 4-sigma bound),
// bit-identical sampling for any thread count, exact pass-through at
// shots = 0, readout-error inversion, and factory/env plumbing. The
// ShotSampling cases pin the qsim/shots.h estimators directly, and the
// model case checks sampled predictions end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/model.h"
#include "qsim/backend.h"
#include "qsim/encoding.h"
#include "qsim/shots.h"

namespace qugeo::qsim {
namespace {

Circuit spread_circuit(Index qubits) {
  // Entangled, non-uniform distribution with mass on every basis state.
  Circuit c(qubits);
  for (Index q = 0; q < qubits; ++q) c.ry(q, 0.4 + 0.3 * static_cast<Real>(q));
  for (Index q = 0; q + 1 < qubits; ++q) c.cx(q, q + 1);
  for (Index q = 0; q < qubits; ++q) c.ry(q, 0.9 - 0.2 * static_cast<Real>(q));
  return c;
}

TEST(ShotBackend, ConvergesToExactProbabilitiesWithin4SigmaBinomial) {
  const Circuit c = spread_circuit(4);
  ExecutionConfig cfg;
  StatevectorBackend sv(cfg);
  sv.run(c, {});
  const auto exact = sv.probabilities();

  const std::size_t shots = 262144;
  cfg.shots = shots;
  cfg.seed = 31337;
  const auto backend = make_backend(cfg, 4);
  backend->run(c, {});
  const auto sampled = backend->probabilities();

  ASSERT_EQ(sampled.size(), exact.size());
  Real total = 0;
  for (std::size_t k = 0; k < exact.size(); ++k) {
    // Each bin count is Binomial(shots, p_k); 4 standard deviations plus a
    // hair of slack for p_k itself being a rounded double.
    const Real sigma =
        std::sqrt(exact[k] * (1 - exact[k]) / static_cast<Real>(shots));
    EXPECT_NEAR(sampled[k], exact[k], 4 * sigma + 1e-9) << "basis state " << k;
    total += sampled[k];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);  // empirical distribution normalizes
}

TEST(ShotBackend, BitIdenticalAcrossThreadCounts) {
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  cfg.shots = 5000;
  cfg.seed = 99;
  cfg.noise.readout_error = 0.05;  // exercise the per-shot flip draws too

  set_num_threads(1);
  const auto b1 = make_backend(cfg, 3);
  b1->run(c, {});
  const auto p1 = b1->probabilities();
  set_num_threads(4);
  const auto b4 = make_backend(cfg, 3);
  b4->run(c, {});
  const auto p4 = b4->probabilities();
  set_num_threads(0);

  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t k = 0; k < p1.size(); ++k) EXPECT_EQ(p1[k], p4[k]);
}

TEST(ShotBackend, ZeroShotsIsExactlyTheWrappedBackend) {
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  StatevectorBackend sv(cfg);
  sv.run(c, {});

  cfg.backend = BackendKind::kShot;  // shots stays 0: exact pass-through
  const auto backend = make_backend(cfg, 3);
  EXPECT_EQ(backend->kind(), BackendKind::kShot);
  backend->run(c, {});

  const auto p_sv = sv.probabilities();
  const auto p_shot = backend->probabilities();
  ASSERT_EQ(p_sv.size(), p_shot.size());
  for (std::size_t k = 0; k < p_sv.size(); ++k) EXPECT_EQ(p_sv[k], p_shot[k]);

  const std::vector<Index> qubits = {0, 1, 2};
  const auto z_sv = sv.expect_z(qubits);
  const auto z_shot = backend->expect_z(qubits);
  for (std::size_t i = 0; i < qubits.size(); ++i) EXPECT_EQ(z_sv[i], z_shot[i]);
}

TEST(ShotBackend, ZeroShotsAppliesReadoutErrorExactly) {
  // With no shot budget the wrapper still owns the readout error and must
  // realize it exactly (the confusion matrix / infinite-shot limit), not
  // silently drop it: <Z> contracts by exactly (1 - 2e).
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  StatevectorBackend sv(cfg);
  sv.run(c, {});
  const std::vector<Index> qubits = {0, 1, 2};
  const auto z_exact = sv.expect_z(qubits);

  const Real e = 0.07;
  cfg.backend = BackendKind::kShot;  // shots stays 0
  cfg.noise.readout_error = e;
  const auto backend = make_backend(cfg, 3);
  backend->run(c, {});
  const auto z = backend->expect_z(qubits);
  for (std::size_t i = 0; i < qubits.size(); ++i)
    EXPECT_NEAR(z[i], (1 - 2 * e) * z_exact[i], 1e-12) << "qubit " << i;
  Real total = 0;
  for (const Real p : backend->probabilities()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ShotBackend, SampledEstimatesAreDeterministicForAFixedSeed) {
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  cfg.shots = 2048;
  cfg.seed = 7;
  const auto a = make_backend(cfg, 3);
  const auto b = make_backend(cfg, 3);
  a->run(c, {});
  b->run(c, {});
  const auto pa = a->probabilities();
  const auto pb = b->probabilities();
  for (std::size_t k = 0; k < pa.size(); ++k) EXPECT_EQ(pa[k], pb[k]);

  cfg.seed = 8;
  const auto other = make_backend(cfg, 3);
  other->run(c, {});
  const auto po = other->probabilities();
  bool any_diff = false;
  for (std::size_t k = 0; k < pa.size(); ++k) any_diff |= (pa[k] != po[k]);
  EXPECT_TRUE(any_diff);
}

TEST(ShotBackend, ReadoutErrorInversionRoundTrip) {
  // <Z> under a bit-flip readout error e contracts by (1 - 2e); dividing
  // the measured estimate by that factor must recover the noiseless
  // expectation within the (inflated) shot tolerance — the standard
  // readout-mitigation identity the deployment scenario relies on.
  const Circuit c = spread_circuit(3);
  ExecutionConfig cfg;
  StatevectorBackend sv(cfg);
  sv.run(c, {});
  const std::vector<Index> qubits = {0, 1, 2};
  const auto z_exact = sv.expect_z(qubits);

  const Real e = 0.08;
  const std::size_t shots = 200000;
  cfg.shots = shots;
  cfg.seed = 2718;
  cfg.noise.readout_error = e;
  const auto noisy = make_backend(cfg, 3);
  noisy->run(c, {});
  const auto z_meas = noisy->expect_z(qubits);

  const Real tol = 4.0 / ((1 - 2 * e) * std::sqrt(static_cast<Real>(shots)));
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    // Uncorrected estimates must show the contraction...
    EXPECT_NEAR(z_meas[i], (1 - 2 * e) * z_exact[i], (1 - 2 * e) * tol);
    // ...and the inversion must land back on the exact value.
    EXPECT_NEAR(z_meas[i] / (1 - 2 * e), z_exact[i], tol) << "qubit " << i;
  }
}

TEST(ShotBackend, WrapsEveryInnerBackendKind) {
  const Circuit c = spread_circuit(3);
  ExecutionConfig exact_cfg;
  exact_cfg.backend = BackendKind::kDensityMatrix;
  exact_cfg.noise.gate_error_prob = 0.02;
  DensityMatrixBackend dm(exact_cfg);
  dm.run(c, {});
  const auto p_channel = dm.probabilities();
  StatevectorBackend sv{ExecutionConfig{}};
  sv.run(c, {});
  const auto p_noiseless = sv.probabilities();

  for (const BackendKind kind :
       {BackendKind::kStatevector, BackendKind::kDensityMatrix,
        BackendKind::kTrajectory}) {
    ExecutionConfig cfg = exact_cfg;
    cfg.backend = kind;
    if (kind == BackendKind::kStatevector) cfg.noise.gate_error_prob = 0;
    cfg.trajectories = 2000;
    cfg.shots = 100000;
    cfg.seed = 424242;
    const auto backend = make_backend(cfg, 3);
    ASSERT_EQ(backend->kind(), BackendKind::kShot);
    EXPECT_EQ(static_cast<const ShotBackend&>(*backend).inner().kind(), kind);
    backend->run(c, {});
    const auto p = backend->probabilities();
    // Noisy inners converge to the exact channel, the noiseless
    // statevector inner to the noiseless distribution; both within the
    // combined shot + trajectory tolerance.
    const auto& ref =
        kind == BackendKind::kStatevector ? p_noiseless : p_channel;
    for (std::size_t k = 0; k < p.size(); ++k)
      EXPECT_NEAR(p[k], ref[k], 0.05) << backend_name(kind) << " state " << k;
  }
}

TEST(ShotBackend, PrepareResetsToGroundState) {
  ExecutionConfig cfg;
  cfg.shots = 64;
  cfg.seed = 5;
  const auto backend = make_backend(cfg, 3);
  backend->prepare(3);
  EXPECT_EQ(backend->num_qubits(), 3u);
  const auto probs = backend->probabilities();
  ASSERT_EQ(probs.size(), 8u);
  // Sampling a deterministic distribution is exact for any budget.
  EXPECT_EQ(probs[0], 1.0);
  const std::vector<Index> qubits = {0, 1, 2};
  for (const Real z : backend->expect_z(qubits)) EXPECT_EQ(z, 1.0);
}

TEST(ShotBackend, FactoryWrapsOnPositiveShots) {
  ExecutionConfig cfg;
  cfg.shots = 16;
  EXPECT_EQ(make_backend(cfg, 4)->kind(), BackendKind::kShot);
  cfg.backend = BackendKind::kTrajectory;
  EXPECT_EQ(make_backend(cfg, 4)->kind(), BackendKind::kShot);
  cfg.shots = 0;
  EXPECT_EQ(make_backend(cfg, 4)->kind(), BackendKind::kTrajectory);
  cfg.backend = BackendKind::kShot;  // named request, default inner
  const auto named = make_backend(cfg, 4);
  EXPECT_EQ(named->kind(), BackendKind::kShot);
  EXPECT_EQ(static_cast<const ShotBackend&>(*named).inner().kind(),
            BackendKind::kStatevector);
}

TEST(ShotBackend, RefusesToWrapAnotherShotBackend) {
  ExecutionConfig cfg;
  cfg.shots = 16;
  EXPECT_THROW(
      (void)ShotBackend(cfg, std::make_unique<ShotBackend>(
                                 cfg, std::make_unique<StatevectorBackend>(cfg))),
      std::invalid_argument);
}

TEST(ShotSampling, BasisStateReadoutIsExact) {
  // |00>: every shot lands on outcome 0, so the sampled <Z> and marginal
  // are exact for any budget.
  const StateVector psi(2);
  const auto probs = sampled_probabilities_from_cdf(
      psi.cumulative_probabilities(), 2, /*seed=*/3, /*shots=*/10);
  const std::vector<Index> qubits = {0, 1};
  const auto z = expect_z_from_probabilities(probs, qubits);
  EXPECT_EQ(z[0], 1.0);
  EXPECT_EQ(z[1], 1.0);
  const auto m = marginal_from_probabilities(probs, qubits);
  EXPECT_EQ(m[0], 1.0);
  for (std::size_t k = 1; k < m.size(); ++k) EXPECT_EQ(m[k], 0.0);
}

TEST(ShotSampling, MarginalAndZEstimatesConvergeWithShots) {
  Rng rng(4);
  StateVector psi(4);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  const auto cdf = psi.cumulative_probabilities();

  const std::vector<Index> pair = {1, 3};
  const auto m = marginal_from_probabilities(
      sampled_probabilities_from_cdf(cdf, 4, 5, 5000), pair);
  ASSERT_EQ(m.size(), 4u);
  Real sum = 0;
  for (Real v : m) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  const auto exact = psi.marginal_probabilities(pair);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(m[k], exact[k], 0.03);

  const std::vector<Index> all = {0, 1, 2, 3};
  const auto z_few = expect_z_from_probabilities(
      sampled_probabilities_from_cdf(cdf, 4, 6, 100), all);
  const auto z_many = expect_z_from_probabilities(
      sampled_probabilities_from_cdf(cdf, 4, 7, 50000), all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Real want = psi.expect_z(all[i]);
    EXPECT_NEAR(z_many[i], want, 0.02);
    EXPECT_LE(std::abs(z_many[i] - want), std::abs(z_few[i] - want) + 0.02);
  }
}

TEST(ShotSampling, ZeroShotsRejected) {
  const StateVector psi(1);
  EXPECT_THROW((void)sampled_probabilities_from_cdf(
                   psi.cumulative_probabilities(), 1, 1, 0),
               std::invalid_argument);
}

TEST(ShotBackend, SampledModelPredictionsConvergeToExactDecode) {
  // Every decoder and QuBatch size reads out through the ShotBackend when
  // the model's ExecutionConfig carries a shot budget; the sampled
  // predictions converge to the exact decode.
  Rng rng(9);
  data::ScaledSample s;
  s.waveform.resize(8);
  s.velocity.assign(6, 0.5);
  rng.fill_uniform(s.waveform, -1, 1);
  const data::ScaledSample* chunk[] = {&s};

  core::ModelConfig layer;
  layer.group_data_qubits = {3};
  layer.ansatz.blocks = 2;
  layer.decoder = core::DecoderKind::kLayer;
  layer.vel_rows = 3;
  layer.vel_cols = 2;
  core::ModelConfig batched = layer;
  batched.batch_log2 = 1;
  batched.ansatz.blocks = 1;
  core::ModelConfig pixel = layer;
  pixel.ansatz.blocks = 1;
  pixel.decoder = core::DecoderKind::kPixel;
  pixel.vel_rows = 2;

  for (const core::ModelConfig& mc : {layer, batched, pixel}) {
    const core::QuGeoModel model(mc, rng);
    ExecutionConfig exec;  // exact statevector, whatever the environment
    const auto exact = model.predict_with(chunk, exec)[0];
    exec.shots = 200000;
    exec.seed = rng.next_u64();
    const auto sampled = model.predict_with(chunk, exec)[0];
    ASSERT_EQ(sampled.size(), exact.size());
    for (std::size_t k = 0; k < exact.size(); ++k)
      EXPECT_NEAR(sampled[k], exact[k], 0.02)
          << "decoder " << static_cast<int>(mc.decoder) << " batch_log2 "
          << mc.batch_log2 << " pixel " << k;
  }
}

TEST(ShotBackend, EnvOverridesAreApplied) {
  ::setenv("QUGEO_SHOTS", "4096", 1);
  ::setenv("QUGEO_READOUT_P", "0.03", 1);
  const ExecutionConfig cfg = apply_env_overrides(ExecutionConfig{});
  ::unsetenv("QUGEO_SHOTS");
  ::unsetenv("QUGEO_READOUT_P");
  EXPECT_EQ(cfg.shots, 4096u);
  EXPECT_NEAR(cfg.noise.readout_error, 0.03, 1e-15);

  ::setenv("QUGEO_SHOTS", "-3", 1);
  EXPECT_THROW((void)apply_env_overrides(ExecutionConfig{}),
               std::invalid_argument);
  ::setenv("QUGEO_SHOTS", "0", 1);  // 0 = exact readout, explicitly allowed
  EXPECT_EQ(apply_env_overrides(ExecutionConfig{}).shots, 0u);
  ::unsetenv("QUGEO_SHOTS");
}

}  // namespace
}  // namespace qugeo::qsim
