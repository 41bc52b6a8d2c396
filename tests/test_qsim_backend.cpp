// Pluggable backend layer: capability masks, cross-backend equivalence at
// p = 0, trajectory convergence to the exact channel, deterministic
// trajectory streams, and factory/env plumbing.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/parallel.h"
#include "common/rng.h"
#include "qsim/backend.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"

namespace qugeo::qsim {
namespace {

Circuit random_circuit(Index qubits, int gates, Rng& rng) {
  Circuit c(qubits);
  for (int g = 0; g < gates; ++g) {
    const auto q = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0: c.h(q); break;
      case 1: c.u3(q, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)); break;
      case 2: {
        const auto t = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
        if (t != q) c.cx(q, t);
        break;
      }
      default: {
        const auto t = static_cast<Index>(rng.uniform_int(0, static_cast<std::int64_t>(qubits) - 1));
        if (t != q) c.cry(q, t, rng.uniform(-2, 2));
        break;
      }
    }
  }
  return c;
}

StateVector random_state(Index qubits, Rng& rng) {
  StateVector psi(qubits);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  return psi;
}

TEST(Backend, NamesAndParsingRoundTrip) {
  for (const BackendKind kind :
       {BackendKind::kStatevector, BackendKind::kDensityMatrix,
        BackendKind::kTrajectory, BackendKind::kShot}) {
    const auto parsed = parse_backend_kind(backend_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_backend_kind("qpu").has_value());
}

TEST(Backend, CapabilityMasks) {
  const ExecutionConfig cfg;
  EXPECT_TRUE(StatevectorBackend(cfg).caps().supports_adjoint);
  EXPECT_FALSE(StatevectorBackend(cfg).caps().exact_noise);
  EXPECT_FALSE(DensityMatrixBackend(cfg).caps().supports_adjoint);
  EXPECT_TRUE(DensityMatrixBackend(cfg).caps().exact_noise);
  EXPECT_FALSE(TrajectoryBackend(cfg).caps().supports_adjoint);
  EXPECT_FALSE(TrajectoryBackend(cfg).caps().exact_noise);
}

TEST(Backend, StatevectorMatchesDirectExecution) {
  Rng rng(1);
  const Circuit c = random_circuit(4, 20, rng);
  StateVector direct = random_state(4, rng);
  const StateVector psi_in = direct;
  run_circuit(c, {}, direct);

  ExecutionConfig cfg;
  StatevectorBackend backend(cfg);
  backend.run(c, {}, psi_in);
  // The backend canonicalizes (run fusion) before executing, so literal
  // circuits agree to rounding; all-trainable circuits (the ansatz) are
  // untouched by fusion and stay bit-identical.
  const auto probs = backend.probabilities();
  for (Index k = 0; k < direct.dim(); ++k)
    ASSERT_NEAR(probs[k], direct.probability(k), 1e-12);
}

TEST(Backend, StatevectorBitIdenticalOnTrainableCircuits) {
  // Run fusion only touches literal gates; a fully trainable circuit (the
  // QuGeoVQC ansatz shape) must execute through the backend bit-for-bit as
  // through run_circuit.
  Circuit c(3);
  for (Index q = 0; q < 3; ++q) c.u3(q, c.new_params(3));
  for (Index q = 0; q < 3; ++q) c.cu3(q, (q + 1) % 3, c.new_params(3));
  std::vector<Real> params(c.num_params());
  Rng rng(6);
  rng.fill_uniform(params, -1, 1);

  StateVector direct = random_state(3, rng);
  const StateVector psi_in = direct;
  run_circuit(c, params, direct);

  StatevectorBackend backend((ExecutionConfig()));
  backend.run(c, params, psi_in);
  const auto probs = backend.probabilities();
  for (Index k = 0; k < direct.dim(); ++k)
    ASSERT_EQ(probs[k], direct.probability(k));
}

TEST(Backend, DensityAtZeroNoiseMatchesStatevector) {
  Rng rng(2);
  for (int trial = 0; trial < 4; ++trial) {
    const Circuit c = random_circuit(4, 24, rng);
    const StateVector psi_in = random_state(4, rng);

    ExecutionConfig cfg;
    StatevectorBackend sv(cfg);
    sv.run(c, {}, psi_in);

    cfg.backend = BackendKind::kDensityMatrix;
    DensityMatrixBackend dm(cfg);
    dm.run(c, {}, psi_in);

    const auto p_sv = sv.probabilities();
    const auto p_dm = dm.probabilities();
    ASSERT_EQ(p_sv.size(), p_dm.size());
    for (std::size_t k = 0; k < p_sv.size(); ++k)
      ASSERT_NEAR(p_sv[k], p_dm[k], 1e-10) << "trial " << trial;

    const std::vector<Index> qubits = {0, 1, 2, 3};
    const auto z_sv = sv.expect_z(qubits);
    const auto z_dm = dm.expect_z(qubits);
    for (std::size_t i = 0; i < qubits.size(); ++i)
      ASSERT_NEAR(z_sv[i], z_dm[i], 1e-10);
  }
}

TEST(Backend, TrajectoryAtZeroNoiseIsExact) {
  Rng rng(3);
  const Circuit c = random_circuit(3, 15, rng);
  const StateVector psi_in = random_state(3, rng);

  ExecutionConfig cfg;
  StatevectorBackend sv(cfg);
  sv.run(c, {}, psi_in);

  cfg.backend = BackendKind::kTrajectory;
  cfg.trajectories = 16;
  TrajectoryBackend traj(cfg);
  traj.run(c, {}, psi_in);

  const auto p_sv = sv.probabilities();
  const auto p_tr = traj.probabilities();
  for (std::size_t k = 0; k < p_sv.size(); ++k)
    ASSERT_NEAR(p_sv[k], p_tr[k], 1e-12);
}

TEST(Backend, TrajectoryConvergesToExactDepolarizingChannel) {
  // The sampled estimator must agree with the exact channel within
  // statistical tolerance on a small circuit.
  Rng rng(4);
  Circuit c(2);
  c.h(0);
  c.ry(1, 0.8);
  c.cx(0, 1);
  c.ry(0, 0.5);

  ExecutionConfig cfg;
  cfg.noise.gate_error_prob = 0.05;
  cfg.backend = BackendKind::kDensityMatrix;
  DensityMatrixBackend dm(cfg);
  dm.run(c, {});

  cfg.backend = BackendKind::kTrajectory;
  cfg.trajectories = 4000;
  cfg.seed = 99;
  TrajectoryBackend traj(cfg);
  traj.run(c, {});

  const std::vector<Index> qubits = {0, 1};
  const auto z_dm = dm.expect_z(qubits);
  const auto z_tr = traj.expect_z(qubits);
  for (std::size_t i = 0; i < qubits.size(); ++i)
    EXPECT_NEAR(z_tr[i], z_dm[i], 0.05);
  const auto p_dm = dm.probabilities();
  const auto p_tr = traj.probabilities();
  for (std::size_t k = 0; k < p_dm.size(); ++k)
    EXPECT_NEAR(p_tr[k], p_dm[k], 0.05);
}

TEST(Backend, NoisyRunsPreservePerGateInsertionPoints) {
  // Run fusion must NOT run before noisy execution: a literal run of k
  // gates carries k depolarizing insertion points, and the backend's
  // result must match the raw channel executor on the ORIGINAL op stream.
  Circuit c(1);
  c.h(0);
  c.t(0);
  c.h(0);
  c.t(0);  // one fusable 4-gate run -> 4 insertion points
  const Real p = 0.1;

  DensityMatrix raw(1);
  run_circuit_density(c, {}, raw, p);

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  cfg.noise.gate_error_prob = p;
  DensityMatrixBackend dm(cfg);
  dm.run(c, {});
  const std::vector<Index> qubits = {0};
  EXPECT_NEAR(dm.expect_z(qubits)[0], raw.expect_z(0), 1e-12);
  EXPECT_NEAR(dm.density().purity(), raw.purity(), 1e-12);
}

TEST(Backend, TrajectoryRunsAreThreadCountInvariant) {
  Rng rng(5);
  const Circuit c = random_circuit(3, 12, rng);
  const StateVector psi_in = random_state(3, rng);

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kTrajectory;
  cfg.noise.gate_error_prob = 0.1;
  cfg.trajectories = 48;
  cfg.seed = 17;

  set_num_threads(1);
  TrajectoryBackend t1(cfg);
  t1.run(c, {}, psi_in);
  const auto p1 = t1.probabilities();
  set_num_threads(4);
  TrajectoryBackend t4(cfg);
  t4.run(c, {}, psi_in);
  const auto p4 = t4.probabilities();
  set_num_threads(0);

  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t k = 0; k < p1.size(); ++k) EXPECT_EQ(p1[k], p4[k]);
}

TEST(Backend, SingleTrajectoryIsOneSeededNoisyRun) {
  // trajectories = 1 goes through the ordinary fan-out (one slot, folded
  // once, scaled by 1): bitwise the probabilities of one run_circuit_noisy
  // on sub-stream 0.
  Rng rng(6);
  const Circuit c = random_circuit(3, 12, rng);
  const StateVector psi_in = random_state(3, rng);
  for (const NoiseChannel channel :
       {NoiseChannel::kDepolarizing, NoiseChannel::kAmplitudeDamping}) {
    ExecutionConfig cfg;
    cfg.backend = BackendKind::kTrajectory;
    cfg.noise.gate_error_prob = 0.2;
    cfg.noise.channel = channel;
    cfg.trajectories = 1;
    cfg.seed = 23;
    TrajectoryBackend backend(cfg);
    backend.run(c, {}, psi_in);
    const auto got = backend.probabilities();

    StateVector psi = psi_in;
    Rng traj = trajectory_rng(cfg.seed, 0);
    run_circuit_noisy(c, {}, psi, cfg.noise, traj);
    const auto want = psi.probabilities();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k)
      EXPECT_EQ(got[k], want[k])
          << noise_channel_name(channel) << " outcome " << k;
  }
}

TEST(Backend, PrepareResetsToGroundState) {
  const ExecutionConfig cfg;
  for (const auto make : {+[](const ExecutionConfig& c) -> std::unique_ptr<Backend> {
                            return std::make_unique<StatevectorBackend>(c);
                          },
                          +[](const ExecutionConfig& c) -> std::unique_ptr<Backend> {
                            return std::make_unique<DensityMatrixBackend>(c);
                          },
                          +[](const ExecutionConfig& c) -> std::unique_ptr<Backend> {
                            return std::make_unique<TrajectoryBackend>(c);
                          }}) {
    const auto backend = make(cfg);
    backend->prepare(3);
    EXPECT_EQ(backend->num_qubits(), 3u);
    const auto probs = backend->probabilities();
    ASSERT_EQ(probs.size(), 8u);
    EXPECT_NEAR(probs[0], 1.0, 1e-14);
    const std::vector<Index> qubits = {0, 1, 2};
    for (const Real z : backend->expect_z(qubits)) EXPECT_NEAR(z, 1.0, 1e-14);
  }
}

TEST(Backend, FactoryBuildsRequestedKind) {
  ExecutionConfig cfg;
  EXPECT_EQ(make_backend(cfg, 4)->kind(), BackendKind::kStatevector);
  cfg.backend = BackendKind::kDensityMatrix;
  EXPECT_EQ(make_backend(cfg, 4)->kind(), BackendKind::kDensityMatrix);
  cfg.backend = BackendKind::kTrajectory;
  EXPECT_EQ(make_backend(cfg, 4)->kind(), BackendKind::kTrajectory);
}

TEST(Backend, FactorySubstitutesStatevectorForOversizedNoiselessDensity) {
  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  const Index too_big = max_density_qubits() + 1;
  EXPECT_EQ(make_backend(cfg, too_big)->kind(), BackendKind::kStatevector);
  cfg.noise.gate_error_prob = 0.01;
  EXPECT_THROW((void)make_backend(cfg, too_big), std::invalid_argument);
}

TEST(Backend, EnvOverridesAreApplied) {
  ::setenv("QUGEO_BACKEND", "density", 1);
  ::setenv("QUGEO_NOISE_P", "0.015", 1);
  ::setenv("QUGEO_TRAJECTORIES", "7", 1);
  const ExecutionConfig cfg = apply_env_overrides(ExecutionConfig{});
  ::unsetenv("QUGEO_BACKEND");
  ::unsetenv("QUGEO_NOISE_P");
  ::unsetenv("QUGEO_TRAJECTORIES");
  EXPECT_EQ(cfg.backend, BackendKind::kDensityMatrix);
  EXPECT_NEAR(cfg.noise.gate_error_prob, 0.015, 1e-15);
  EXPECT_EQ(cfg.trajectories, 7u);

  ::setenv("QUGEO_BACKEND", "not-a-backend", 1);
  EXPECT_THROW((void)apply_env_overrides(ExecutionConfig{}), std::invalid_argument);
  ::unsetenv("QUGEO_BACKEND");
}

}  // namespace
}  // namespace qugeo::qsim
