// Run fusion on the backend paths and the compiled-circuit cache.
//
// Pins: (1) canonicalize_for_backend equivalence on random mixed circuits,
// on the statevector AND density paths (1e-10, global phase modulo), (2)
// the noisy-path bypass — backends with gate noise execute the ORIGINAL op
// stream, keeping one noise insertion point per gate — and (3)
// CompiledCircuitCache compile/hit accounting, including cache-hit reuse
// across QuBatch chunks and repeated QuGeoModel::predict calls. The pass's
// own rewrite rules are pinned by test_qsim_optimizer.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/rng.h"
#include "core/model.h"
#include "qsim/backend.h"
#include "qsim/compile_cache.h"
#include "qsim/density_matrix.h"
#include "qsim/encoding.h"
#include "qsim/executor.h"
#include "qsim/optimizer.h"

namespace qugeo::qsim {
namespace {

StateVector random_state(Index qubits, Rng& rng) {
  StateVector psi(qubits);
  std::vector<Real> data(psi.dim());
  rng.fill_uniform(data, -1, 1);
  encode_amplitudes(data, psi);
  return psi;
}

/// Fused and unfused execution agree up to global phase on a random state.
void expect_equivalent(const Circuit& a, const Circuit& b,
                       std::span<const Real> params, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sa = random_state(a.num_qubits(), rng);
  StateVector sb = sa;
  run_circuit(a, params, sa);
  run_circuit(b, params, sb);
  EXPECT_NEAR(sa.fidelity(sb), 1.0, 1e-10);
}

/// As expect_equivalent, but on the exact mixed-state path.
void expect_density_equivalent(const Circuit& a, const Circuit& b,
                               std::span<const Real> params,
                               std::uint64_t seed) {
  Rng rng(seed);
  const StateVector psi = random_state(a.num_qubits(), rng);
  DensityMatrix ra = DensityMatrix::from_state(psi);
  DensityMatrix rb = DensityMatrix::from_state(psi);
  run_circuit_density(a, params, ra, NoiseModel{});
  run_circuit_density(b, params, rb, NoiseModel{});
  const auto pa = ra.probabilities();
  const auto pb = rb.probabilities();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k) EXPECT_NEAR(pa[k], pb[k], 1e-10);
}

// ------------------------------------------------------- canonicalization --

TEST(Canonicalize, IsIdempotent) {
  Circuit c(3);
  c.h(0);
  c.t(0);
  c.cx(0, 1);
  c.t(1);
  c.h(1);
  c.swap(1, 2);
  const Circuit once = canonicalize_for_backend(c);
  const Circuit twice = canonicalize_for_backend(once);
  EXPECT_LT(once.num_ops(), c.num_ops());
  EXPECT_EQ(twice.num_ops(), once.num_ops());
  expect_equivalent(once, twice, {}, 35);
  expect_equivalent(c, once, {}, 36);
}

TEST(Canonicalize, RandomCircuitsStayEquivalent) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c(4);
    for (int g = 0; g < 50; ++g) {
      const auto q = static_cast<Index>(rng.uniform_int(0, 3));
      const auto r = static_cast<Index>(rng.uniform_int(0, 3));
      switch (rng.uniform_int(0, 7)) {
        case 0: c.h(q); break;
        case 1: c.rx(q, rng.uniform(-3, 3)); break;
        case 2: c.t(q); break;
        case 3: if (q != r) c.cx(q, r); break;
        case 4: if (q != r) c.cz(q, r); break;
        case 5: if (q != r) c.swap(q, r); break;
        case 6: if (q != r) c.cu3(q, r, rng.uniform(-2, 2), rng.uniform(-2, 2),
                                  rng.uniform(-2, 2)); break;
        default: c.u3(q, rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(-2, 2)); break;
      }
    }
    const Circuit canon = canonicalize_for_backend(c);
    EXPECT_LE(canon.num_ops(), c.num_ops());
    const auto seed = 300 + 2 * static_cast<std::uint64_t>(trial);
    expect_equivalent(c, canon, {}, seed);
    expect_density_equivalent(c, canon, {}, seed + 1);
  }
}

// ------------------------------------------------------- noisy-path bypass --

TEST(NoisyPathBypass, DensityBackendWithGateNoiseRunsOriginalStream) {
  // A fusable circuit under a depolarizing channel: the backend must keep
  // k per-gate noise insertion points, i.e. match the ORIGINAL op stream
  // executed noisily — and differ from noisy execution of the fused form.
  Circuit c(2);
  c.rx(0, 0.7);
  c.ry(0, 0.4);
  c.rx(0, -1.1);
  c.cx(0, 1);
  c.ry(1, 0.6);
  c.h(1);
  c.cu3(0, 1, 0.5, 0.2, -0.3);
  ASSERT_TRUE(has_fusable_runs(c));

  NoiseModel noise;
  noise.gate_error_prob = 0.05;

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  cfg.noise = noise;
  const auto backend = make_backend(cfg, 2);
  backend->run(c, {});
  const auto via_backend = backend->probabilities();

  DensityMatrix original(2);
  run_circuit_density(c, {}, original, noise);
  const auto expected = original.probabilities();

  DensityMatrix fused_rho(2);
  run_circuit_density(canonicalize_for_backend(c), {}, fused_rho, noise);
  const auto fused_noisy = fused_rho.probabilities();

  Real diff_fused = 0;
  for (Index k = 0; k < 4; ++k) {
    EXPECT_NEAR(via_backend[k], expected[k], 1e-12);
    diff_fused += std::abs(fused_noisy[k] - expected[k]);
  }
  // Fewer insertion points => measurably less decoherence; the bypass is
  // load-bearing, not cosmetic.
  EXPECT_GT(diff_fused, 1e-4);
}

TEST(NoisyPathBypass, ReadoutOnlyNoiseMayStillFuse) {
  // The readout channel's single insertion point (end of circuit) survives
  // fusion: fused-with-readout must equal original-with-readout exactly.
  Circuit c(2);
  c.h(0);
  c.t(0);
  c.h(0);
  c.cx(0, 1);
  ASSERT_TRUE(has_fusable_runs(c));

  NoiseModel noise;
  noise.readout_error = 0.03;

  ExecutionConfig cfg;
  cfg.backend = BackendKind::kDensityMatrix;
  cfg.noise = noise;
  const auto fused_backend = make_backend(cfg, 2);
  fused_backend->run(c, {});

  cfg.fusion = false;
  const auto verbatim_backend = make_backend(cfg, 2);
  verbatim_backend->run(c, {});

  const auto pf = fused_backend->probabilities();
  const auto pv = verbatim_backend->probabilities();
  for (Index k = 0; k < 4; ++k) EXPECT_NEAR(pf[k], pv[k], 1e-12);
}

// --------------------------------------------------- compiled-circuit cache --

TEST(CompiledCircuitCache, CompilesOncePerStructureAndBackendKind) {
  Circuit c(2);
  c.h(0);
  c.t(0);
  c.cx(0, 1);

  auto cache = std::make_shared<CompiledCircuitCache>();
  ExecutionConfig cfg;
  cfg.compile_cache = cache;

  // Eight "chunks": fresh backend per chunk, one compile, seven hits.
  std::vector<Real> first;
  for (int chunk = 0; chunk < 8; ++chunk) {
    const auto backend = make_backend(cfg, 2);
    backend->run(c, {});
    if (chunk == 0)
      first = backend->probabilities();
    else
      EXPECT_EQ(backend->probabilities(), first);
  }
  EXPECT_EQ(cache->compile_count(), 1u);
  EXPECT_EQ(cache->hit_count(), 7u);

  // A different backend kind is a different key (per the cache contract).
  cfg.backend = BackendKind::kDensityMatrix;
  const auto density = make_backend(cfg, 2);
  density->run(c, {});
  EXPECT_EQ(cache->compile_count(), 2u);

  // A structurally identical but distinct Circuit object hits.
  Circuit c2(2);
  c2.h(0);
  c2.t(0);
  c2.cx(0, 1);
  cfg.backend = BackendKind::kStatevector;
  const auto backend = make_backend(cfg, 2);
  backend->run(c2, {});
  EXPECT_EQ(cache->compile_count(), 2u);
}

TEST(CompiledCircuitCache, IdentityCircuitsAreMemoizedAsNull) {
  // An unfusable circuit gets a (null) entry: later runs skip the probes
  // and execute the original by reference.
  Circuit c(2);
  const ParamRef p = c.new_param();
  c.ry(0, p);
  c.cx(0, 1);

  auto cache = std::make_shared<CompiledCircuitCache>();
  EXPECT_EQ(cache->canonical(c, BackendKind::kStatevector), nullptr);
  EXPECT_EQ(cache->canonical(c, BackendKind::kStatevector), nullptr);
  EXPECT_EQ(cache->compile_count(), 1u);
  EXPECT_EQ(cache->hit_count(), 1u);
}

TEST(CompiledCircuitCache, FusionOffBypassesTheCache) {
  Circuit c(2);
  c.h(0);
  c.h(0);

  auto cache = std::make_shared<CompiledCircuitCache>();
  ExecutionConfig cfg;
  cfg.fusion = false;
  cfg.compile_cache = cache;
  const auto backend = make_backend(cfg, 2);
  backend->run(c, {});
  EXPECT_EQ(cache->compile_count(), 0u);
  EXPECT_EQ(cache->hit_count(), 0u);
}

TEST(ExecutionConfigEnv, QugeoFusionOverride) {
  const char* prev = std::getenv("QUGEO_FUSION");
  const std::string saved = prev ? prev : "";
  ASSERT_EQ(setenv("QUGEO_FUSION", "off", 1), 0);
  EXPECT_FALSE(apply_env_overrides(ExecutionConfig{}).fusion);
  ASSERT_EQ(setenv("QUGEO_FUSION", "on", 1), 0);
  EXPECT_TRUE(apply_env_overrides(ExecutionConfig{}).fusion);
  ASSERT_EQ(setenv("QUGEO_FUSION", "sideways", 1), 0);
  EXPECT_THROW((void)apply_env_overrides(ExecutionConfig{}),
               std::invalid_argument);
  if (prev)
    ASSERT_EQ(setenv("QUGEO_FUSION", saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("QUGEO_FUSION"), 0);
}

}  // namespace
}  // namespace qugeo::qsim

// --------------------------------------------- model-level cache-hit probe --

namespace qugeo::core {
namespace {

data::ScaledSample random_sample(std::size_t wave_size, std::size_t vel_size,
                                 Rng& rng) {
  data::ScaledSample s;
  s.waveform.resize(wave_size);
  s.velocity.resize(vel_size);
  rng.fill_uniform(s.waveform, -1, 1);
  rng.fill_uniform(s.velocity, 0, 1);
  return s;
}

/// Clears the QUGEO_* execution overrides for the test's lifetime (this
/// probe pins exact compile/hit counts, which the CI env-smoke legs —
/// QUGEO_BACKEND=density, QUGEO_SHOTS=4096, QUGEO_FUSION=off,
/// QUGEO_BATCH=8 (fewer, wider chunks) — would legitimately change) and
/// restores them on destruction.
class ExecEnvGuard {
 public:
  ExecEnvGuard() {
    for (const char* name : kVars) {
      const char* v = std::getenv(name);
      saved_.emplace_back(v ? std::optional<std::string>(v) : std::nullopt);
      unsetenv(name);
    }
  }
  ~ExecEnvGuard() {
    for (std::size_t i = 0; i < kVars.size(); ++i) {
      if (saved_[i])
        setenv(kVars[i], saved_[i]->c_str(), 1);
      else
        unsetenv(kVars[i]);
    }
  }

 private:
  static constexpr std::array<const char*, 9> kVars = {
      "QUGEO_BACKEND",      "QUGEO_NOISE_P", "QUGEO_NOISE_CHANNEL",
      "QUGEO_READOUT_P",    "QUGEO_SHOTS",   "QUGEO_TRAJECTORIES",
      "QUGEO_FUSION",       "QUGEO_SIMD",    "QUGEO_BATCH"};
  std::vector<std::optional<std::string>> saved_;
};

TEST(ModelCompileCache, RepeatedPredictCallsCanonicalizeExactlyOnce) {
  const ExecEnvGuard env_guard;
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.ansatz.blocks = 2;
  mc.decoder = DecoderKind::kLayer;
  mc.vel_rows = 3;
  mc.vel_cols = 2;
  Rng rng(7);
  QuGeoModel model(mc, rng);

  std::vector<data::ScaledSample> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(random_sample(8, 6, rng));
  std::vector<const data::ScaledSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  // 6 samples at batch size 1 = 6 QuBatch chunks per call; two predict
  // calls = 12 executions. The structure is canonicalized exactly once —
  // every later chunk is a cache hit, whether or not fusion changes the
  // (all-trainable, hence identity) ansatz.
  const auto first = model.predict(ptrs);
  const auto second = model.predict(ptrs);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
  EXPECT_EQ(model.compile_cache()->compile_count(), 1u);
  EXPECT_EQ(model.compile_cache()->hit_count(), 11u);

  // predict_with through a different backend kind compiles one more entry,
  // then hits for its remaining chunks.
  qsim::ExecutionConfig exec = model.execution_config();
  exec.backend = qsim::BackendKind::kDensityMatrix;
  (void)model.predict_with(ptrs, exec);
  EXPECT_EQ(model.compile_cache()->compile_count(), 2u);
  EXPECT_EQ(model.compile_cache()->hit_count(), 16u);
}

}  // namespace
}  // namespace qugeo::core
