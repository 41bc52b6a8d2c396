// The three stages of a paper-harness run, each callable on its own:
//
//   corpus  - cold corpus build: FlatVel maps -> full-scale FDTD shots ->
//             D-Sample, Q-D-FW and a freshly trained Q-D-CNN compressor
//             (the path data::load_or_build_experiment_data takes on a cache
//             miss, minus the on-disk cache).
//   train   - the paper's model (one 8-qubit group, 12 U3+CU3 blocks, 576
//             angles, Q-M-LY decoder) trained by core::train_model with Adam,
//             lr 0.1 and cosine annealing on an in-memory Q-D-FW corpus.
//   serve   - independent users sending single-sample requests to a
//             serve::ModelServer at two fixed open-loop rates, then a
//             burst that measures its capacity.
//
// A run interleaves the stages' repetitions (see main.cpp), so a slow spell
// of the machine lands on every stage instead of on one stage's block of
// repetitions. A stage's time is the mean over its repetitions, a latency
// the median over them (see perfbench/README.md).
//
// Repetition 0 of the corpus and train stages runs on a fixed reference
// draw and yields the quality metrics (cnn_scaler_mse, test_ssim,
// test_mse), which are then exact regression checks. Later repetitions
// draw their inputs from the run's seed. Every repetition runs the stage's
// correctness checks and throws CheckFailed when one fails.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/model.h"
#include "data/dataset.h"

namespace perfbench {

/// One stage of a run. Construction is the stage's set-up and is not timed.
class Stage {
 public:
  virtual ~Stage() = default;
  /// One timed repetition; counts its operations into the run's Tally.
  virtual void rep() = 0;
  /// Writes the end-to-end metrics. Given a tracer, also runs the stage's
  /// traced copy and probes and writes its per-layer metrics, including
  /// trace.overhead.<stage>: traced wall time / untraced wall time of the
  /// same work.
  virtual void report(Metrics& m, Tracer* tracer) = 0;
};

/// Seed of repetition `rep` (splitmix64 of the run seed and the index).
[[nodiscard]] std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep);

/// Seed of the fixed reference draw behind the quality metrics.
inline constexpr std::uint64_t kReferenceSeed = 1234;

// ------------------------------------------------------------- corpus --

struct CorpusScale {
  std::size_t corpus_samples = 4;
  /// Compressor training samples; the default experiment config keeps
  /// corpus : compressor at 4 : 1.
  std::size_t cnn_samples = 1;
  std::size_t cnn_epochs = 150;  ///< data::CnnScalerConfig default
};

/// corpus_s and cnn_scaler_mse (traced: seismic.*, data.*, nn.*).
[[nodiscard]] std::unique_ptr<Stage> make_corpus_stage(const CorpusScale& scale,
                                                       std::uint64_t seed, Tally& tally);

// -------------------------------------------------------------- train --

struct TrainScale {
  /// Q-D-FW samples built at set-up from the reference seed; repetition 0
  /// trains on the first train + test of them, repetition k > 0 on a split
  /// drawn from rep_seed(seed, k).
  std::size_t pool_samples = 192;
  std::size_t train_samples = 96;
  std::size_t test_samples = 64;
  std::size_t epochs = 10;
};

/// The paper's headline model configuration.
[[nodiscard]] qugeo::core::ModelConfig paper_model_config();

/// Set-up of the train and serve stages: a Q-D-FW corpus built in memory
/// straight from seeded FlatVel maps (no full-scale FDTD, no compressor,
/// no cache).
[[nodiscard]] qugeo::data::ScaledDataset build_qdfw_corpus(std::size_t count,
                                                           std::uint64_t seed);

/// train_s, test_ssim and test_mse (traced: core.loss_and_gradient,
/// core.evaluate_model, metrics.*, qsim.plan_cache.*, qsim.run_circuit,
/// qsim.adjoint_backward, common.pool.*). `pool` must outlive the stage.
[[nodiscard]] std::unique_ptr<Stage> make_train_stage(
    const TrainScale& scale, const qugeo::data::ScaledDataset& pool,
    std::uint64_t seed, Tally& tally);

// -------------------------------------------------------------- serve --

struct ServeScale {
  double low_rps = 2000;       ///< rate of the low window (lat_p50_ms.low)
  double high_rps = 5000;      ///< rate of the high window (serve.lat_p50_ms.high)
  double low_window_s = 0.3;   ///< sending time of the low window
  double high_window_s = 0.25; ///< sending time of the high window
  /// Requests of the capacity burst (max_rps), all due at once.
  std::size_t burst_requests = 4096;
  std::size_t max_batch = 16;
};

/// lat_p50_ms.low, max_rps and ok_ratio (traced: serve.*, core.predict.*,
/// qsim.compile_cache.*). A repetition is one window at each rate plus one
/// burst; a latency is the median over repetitions of each window's exact
/// quantile, max_rps the requests of all bursts over their time.
/// `payloads` must outlive the stage.
[[nodiscard]] std::unique_ptr<Stage> make_serve_stage(
    const ServeScale& scale, const std::vector<qugeo::data::ScaledSample>& payloads,
    std::uint64_t seed, Tally& tally);

}  // namespace perfbench
