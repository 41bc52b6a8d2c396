// Pluggable simulation-backend layer: one interface over exact statevector
// execution, exact density-matrix (channel) execution, sampled
// noisy-trajectory execution, and finite-shot sampled readout over any of
// the three (ShotBackend).
//
// The core layer (QuGeoModel, Experiment, benches) selects a backend purely
// through ExecutionConfig — no call-site special-casing — so the same
// pipeline runs noiselessly, with exact NoiseModel channels, with sampled
// trajectories, or from a finite measurement budget (shots). Noiseless
// execution paths canonicalize the circuit first (optimizer.h: literal
// single-qubit runs collapse into one U3, diagonal runs into one Phase), so
// every backend runs fewer gate sweeps; with a gate channel active the
// original op stream
// executes verbatim, because fusing k gates into one would also fuse their
// k noise insertion points (optimizer.h documents the legality rules).
// Canonical forms are memoized across executions when the config carries a
// CompiledCircuitCache (compile_cache.h).
//
// Capability mask:
//  * supports_adjoint — the backend exposes a statevector the adjoint
//    differentiation engine can run on (training-grade gradients).
//  * exact_noise     — NoiseModel channels are applied exactly (density
//    matrix) rather than estimated by sampling.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/cpu_features.h"
#include "qsim/circuit.h"
#include "qsim/density_matrix.h"
#include "qsim/noise.h"
#include "qsim/statevector.h"

namespace qugeo::qsim {

class CompiledCircuitCache;

enum class BackendKind : std::uint8_t {
  kStatevector,    ///< exact pure-state simulation (fast-path kernels)
  kDensityMatrix,  ///< exact mixed-state simulation with exact channels
  kTrajectory,     ///< noise-trajectory sampling over the thread pool
  kShot,           ///< finite-shot sampled readout over an inner backend
};

/// "statevector" | "density" | "trajectory" | "shot".
[[nodiscard]] std::string_view backend_name(BackendKind kind) noexcept;

/// Inverse of backend_name (also accepts "density_matrix"); nullopt on
/// unknown names.
[[nodiscard]] std::optional<BackendKind> parse_backend_kind(
    std::string_view name) noexcept;

struct BackendCaps {
  bool supports_adjoint = false;
  bool exact_noise = false;
};

/// Everything the core layer needs to pick and parameterize a backend.
/// The default (noiseless statevector) reproduces the pre-backend pipeline
/// bit-identically.
struct ExecutionConfig {
  BackendKind backend = BackendKind::kStatevector;
  NoiseModel noise;                ///< ignored by the statevector backend
  std::size_t trajectories = 64;   ///< trajectory backend sample count
  /// Measurement budget of the sampled readout: 0 reads exact
  /// probabilities; any positive value wraps the configured backend in a
  /// ShotBackend that estimates them from this many shots (make_backend
  /// does the wrapping — no call-site special-casing).
  std::size_t shots = 0;
  /// Base seed for trajectory/shot streams (QuGeoModel salts it per
  /// chunk).
  std::uint64_t seed = 0x51d5eedULL;
  /// Master switch for circuit canonicalization (run fusion) on the
  /// noiseless execution paths. Off, every backend executes the original
  /// op stream verbatim — the QUGEO_FUSION=off ablation/debug mode.
  /// Results are equal either way (up to global phase, <= 1e-10); only
  /// speed changes.
  bool fusion = true;
  /// Master switch for gradient-plan canonicalization on the TRAINING path
  /// (gradient_plan.h): loss_and_gradient replays |psi> and sweeps <lambda|
  /// through the gradient-canonical circuit, whose literal 1q runs between
  /// trainable slots are fused into one U3/Phase each. Off, the
  /// adjoint runs the original op stream verbatim — the
  /// QUGEO_GRAD_FUSION=off ablation/debug mode. Gradients agree either way
  /// to <= 1e-10 (the fused runs' global phase cancels in the
  /// 2 Re <lambda|dU|psi> contraction), pinned by
  /// test_qsim_gradient_conformance.
  bool grad_fusion = true;
  /// Optional shared memo of canonicalize_for_backend results, keyed by
  /// circuit structure + backend kind (see compile_cache.h for the exact
  /// key semantics). Backends consult it in run(); null means every
  /// execution probes (and, if fusable, re-fuses) its circuit locally.
  /// QuGeoModel owns one per model and injects it for every predict call.
  std::shared_ptr<CompiledCircuitCache> compile_cache;
  /// Kernel dispatch mode for this execution (common/cpu_features.h). kAuto
  /// defers to the process default (the QUGEO_SIMD environment mode, or the
  /// CPU probe); kScalar forces the bit-exact reference kernels; kAvx2
  /// forces the intrinsic variants (degrading gracefully to scalar when the
  /// binary/CPU cannot run them). Backends realize a non-auto mode through
  /// thread-local ScopedSimdMode overrides, so concurrent executions with
  /// different modes do not race.
  simd::SimdMode simd = simd::SimdMode::kAuto;
  /// Batched-execution width of QuGeoModel::predict: how many QuBatch
  /// chunks one gate dispatch sweeps as BatchedStateVector lanes on the
  /// exact statevector path. 1 executes chunks one at a time (the
  /// pre-batching path, bit-identical). No backend reads it.
  std::size_t batch = 1;
};

/// Environment overrides for smoke runs and CI: QUGEO_BACKEND
/// ("statevector" | "density" | "trajectory" | "shot"), QUGEO_NOISE_P
/// (real), QUGEO_NOISE_CHANNEL ("depolarizing" | "amplitude_damping" |
/// "phase_damping"), QUGEO_READOUT_P (real), QUGEO_TRAJECTORIES (integer),
/// QUGEO_SHOTS (integer, 0 = exact), QUGEO_FUSION ("on"/"off"),
/// QUGEO_GRAD_FUSION ("on"/"off"), QUGEO_SIMD ("auto" | "avx2" | "scalar"),
/// QUGEO_BATCH (positive integer lane count).
/// Unset variables leave `base` untouched. The full reference table lives
/// in docs/ARCHITECTURE.md.
[[nodiscard]] ExecutionConfig apply_env_overrides(ExecutionConfig base);

/// \brief A stateful execution engine: prepare (or inject) a state, run a
/// circuit, read out probabilities / expectations.
///
/// Backends are cheap to construct and NOT thread-safe; parallel call
/// sites create one per task (QuGeoModel does so per QuBatch chunk).
///
/// \par Canonicalization contract (fusion legality)
/// run() executes the canonical (run-fused) form of the circuit on its
/// NOISELESS path — via the shared CompiledCircuitCache when
/// ExecutionConfig::compile_cache is set, locally otherwise, and not at
/// all when ExecutionConfig::fusion is off. With a gate channel active the
/// ORIGINAL op stream executes verbatim: fusing k gates into one would
/// also fuse their k per-gate noise insertion points (see optimizer.h for
/// the full legality rules; the readout channel's single end-of-circuit
/// insertion point survives fusion, so readout-only noise may still fuse).
/// Either way the observable results are identical to 1e-10 — fusion is a
/// pure performance layer, pinned by test_qsim_fusion.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  [[nodiscard]] virtual BackendCaps caps() const noexcept = 0;

  /// Current qubit count (0 before the first prepare/run).
  [[nodiscard]] virtual Index num_qubits() const noexcept = 0;

  /// Reset the internal state to |0...0> on `num_qubits` qubits.
  virtual void prepare(Index num_qubits) = 0;

  /// \brief Execute the circuit from the given initial state (the
  /// encoder's output), replacing the internal state with the result.
  /// \param circuit        executed in canonical form when the contract
  ///                       above allows; the caller's object is never
  ///                       mutated.
  /// \param params         trainable angles resolve against this table.
  /// \param initial_state  consumed; pass a copy if it must survive.
  virtual void run(const Circuit& circuit, std::span<const Real> params,
                   StateVector initial_state) = 0;

  /// Execute from |0...0>.
  void run(const Circuit& circuit, std::span<const Real> params) {
    run(circuit, params, StateVector(circuit.num_qubits()));
  }

  /// \brief Execute the circuit once per initial state and return each
  /// run's Born probabilities, in input order.
  ///
  /// The base implementation loops run() + probabilities() — semantically
  /// the reference for every override, which must match it per state
  /// (bit-identically in scalar mode). StatevectorBackend overrides it
  /// with a genuinely batched sweep (BatchedStateVector: one gate dispatch
  /// advances all states). After the call the backend's current state is
  /// the LAST executed state, exactly as if run() had been called in a
  /// loop.
  [[nodiscard]] virtual std::vector<std::vector<Real>>
  run_batched_probabilities(const Circuit& circuit,
                            std::span<const Real> params,
                            std::vector<StateVector> initial_states);

  /// Born probabilities of the executed state (for the trajectory backend:
  /// the trajectory-averaged distribution, an unbiased estimate of the
  /// channel's diagonal).
  [[nodiscard]] virtual std::vector<Real> probabilities() const = 0;

  /// <Z_q> for each listed qubit.
  [[nodiscard]] virtual std::vector<Real> expect_z(
      std::span<const Index> qubits) const = 0;
};

class StatevectorBackend final : public Backend {
 public:
  explicit StatevectorBackend(const ExecutionConfig& config);

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kStatevector;
  }
  [[nodiscard]] BackendCaps caps() const noexcept override {
    return BackendCaps{.supports_adjoint = true, .exact_noise = false};
  }
  [[nodiscard]] Index num_qubits() const noexcept override;
  void prepare(Index num_qubits) override;
  using Backend::run;
  void run(const Circuit& circuit, std::span<const Real> params,
           StateVector initial_state) override;
  [[nodiscard]] std::vector<std::vector<Real>> run_batched_probabilities(
      const Circuit& circuit, std::span<const Real> params,
      std::vector<StateVector> initial_states) override;
  [[nodiscard]] std::vector<Real> probabilities() const override;
  [[nodiscard]] std::vector<Real> expect_z(
      std::span<const Index> qubits) const override;

  /// The executed pure state (adjoint differentiation entry point).
  [[nodiscard]] const StateVector& state() const { return psi_; }

 private:
  StateVector psi_;
  bool fusion_;
  std::shared_ptr<CompiledCircuitCache> cache_;
  simd::SimdMode simd_;
};

class DensityMatrixBackend final : public Backend {
 public:
  explicit DensityMatrixBackend(const ExecutionConfig& config);

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kDensityMatrix;
  }
  [[nodiscard]] BackendCaps caps() const noexcept override {
    return BackendCaps{.supports_adjoint = false, .exact_noise = true};
  }
  [[nodiscard]] Index num_qubits() const noexcept override;
  void prepare(Index num_qubits) override;
  using Backend::run;
  void run(const Circuit& circuit, std::span<const Real> params,
           StateVector initial_state) override;
  [[nodiscard]] std::vector<Real> probabilities() const override;
  [[nodiscard]] std::vector<Real> expect_z(
      std::span<const Index> qubits) const override;

  /// The executed mixed state (purity / trace diagnostics).
  [[nodiscard]] const DensityMatrix& density() const;

 private:
  NoiseModel noise_;
  std::optional<DensityMatrix> rho_;
  bool fusion_;
  std::shared_ptr<CompiledCircuitCache> cache_;
};

class TrajectoryBackend final : public Backend {
 public:
  explicit TrajectoryBackend(const ExecutionConfig& config);

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kTrajectory;
  }
  [[nodiscard]] BackendCaps caps() const noexcept override {
    return BackendCaps{.supports_adjoint = false, .exact_noise = false};
  }
  [[nodiscard]] Index num_qubits() const noexcept override;
  void prepare(Index num_qubits) override;
  using Backend::run;
  void run(const Circuit& circuit, std::span<const Real> params,
           StateVector initial_state) override;
  [[nodiscard]] std::vector<Real> probabilities() const override;
  [[nodiscard]] std::vector<Real> expect_z(
      std::span<const Index> qubits) const override;

 private:
  NoiseModel noise_;
  std::size_t trajectories_;
  std::uint64_t seed_;
  bool fusion_;
  std::shared_ptr<CompiledCircuitCache> cache_;
  simd::SimdMode simd_;
  Index num_qubits_ = 0;
  std::vector<Real> mean_probs_;
};

/// Finite-shot sampled readout over any inner backend: run the circuit on
/// the wrapped engine, then estimate probabilities / <Z> from `shots`
/// basis-state samples of its probability output (qsim/shots.h — per-shot
/// (seed, shot) sub-streams over the shared pool, bit-identical for any
/// QUGEO_THREADS value). The NoiseModel's readout_error is realized here,
/// on the sampled outcomes; the inner backend only applies gate noise.
/// With shots == 0 the wrapper reads the inner backend's exact output and
/// applies the readout error exactly (the confusion matrix — the
/// infinite-shot limit); with no readout error either, it is a bitwise
/// pass-through.
class ShotBackend final : public Backend {
 public:
  /// Wrap `inner` (which must not itself be a ShotBackend). make_backend
  /// builds this automatically whenever config.shots > 0.
  ShotBackend(const ExecutionConfig& config, std::unique_ptr<Backend> inner);

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kShot;
  }
  [[nodiscard]] BackendCaps caps() const noexcept override {
    return BackendCaps{.supports_adjoint = false,
                       .exact_noise = shots_ == 0 && inner_->caps().exact_noise};
  }
  [[nodiscard]] Index num_qubits() const noexcept override;
  void prepare(Index num_qubits) override;
  using Backend::run;
  void run(const Circuit& circuit, std::span<const Real> params,
           StateVector initial_state) override;
  [[nodiscard]] std::vector<Real> probabilities() const override;
  [[nodiscard]] std::vector<Real> expect_z(
      std::span<const Index> qubits) const override;

  [[nodiscard]] const Backend& inner() const { return *inner_; }
  [[nodiscard]] std::size_t shots() const noexcept { return shots_; }

 private:
  std::unique_ptr<Backend> inner_;
  std::size_t shots_;
  Real readout_error_;
  std::uint64_t seed_;
};

/// Build the configured backend. config.shots > 0 (or backend == kShot,
/// whose inner engine defaults to the statevector) wraps the configured
/// engine in a ShotBackend; the readout error then moves to the wrapper so
/// it is sampled exactly once. When the density-matrix backend is
/// requested for more qubits than the dense representation supports AND
/// its noise model is trivial, the statevector backend is substituted —
/// trivial channel semantics degenerate to unitary evolution, so the
/// substitution is exact, and env-driven smoke runs (QUGEO_BACKEND) keep
/// working on large layouts. With any channel active (gate noise of any
/// kind, or a readout error no shot wrapper will realize) the request
/// throws, naming the channel.
[[nodiscard]] std::unique_ptr<Backend> make_backend(
    const ExecutionConfig& config, Index num_qubits);

}  // namespace qugeo::qsim
