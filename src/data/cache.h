// Experiment-data assembly with on-disk caching.
//
// Raw dataset synthesis (FDTD over hundreds of shots) dominates bench start
// time, so the three scaled datasets are built once per configuration and
// cached as binary tensors; every bench then loads in milliseconds. Scale
// knobs can be overridden via environment variables (QUGEO_SAMPLES,
// QUGEO_TRAIN, QUGEO_EPOCHS, QUGEO_SEED) to move between the fast default
// and the paper-scale setup (README.md, "Benchmarks": the paper scale run).
#pragma once

#include <filesystem>

#include "data/cnn_scaler.h"
#include "data/dataset.h"
#include "data/scaling.h"

namespace qugeo::data {

void save_scaled_dataset(const std::filesystem::path& base,
                         const ScaledDataset& ds);

[[nodiscard]] ScaledDataset load_scaled_dataset(const std::filesystem::path& base);

[[nodiscard]] bool scaled_dataset_exists(const std::filesystem::path& base);

/// The corpus every experiment consumes: the same raw samples scaled three
/// ways, plus the train/test split boundary.
struct ExperimentData {
  ScaledDataset dsample;
  ScaledDataset qdfw;
  ScaledDataset qdcnn;
  std::size_t train_count = 0;

  [[nodiscard]] SplitView split() const {
    return split_dataset(dsample.size(), train_count);
  }
};

struct ExperimentDataConfig {
  std::size_t num_samples = 160;      ///< paper: 500
  std::size_t train_count = 120;      ///< paper: 400
  std::size_t cnn_train_samples = 40; ///< paper: 500 separate samples
  std::uint64_t seed = 1234;
  ScaleTarget target;
  CnnScalerConfig cnn;
  std::filesystem::path cache_dir = "qugeo_cache";
};

/// Defaults overridden by QUGEO_SAMPLES / QUGEO_TRAIN / QUGEO_SEED.
[[nodiscard]] ExperimentDataConfig experiment_config_from_env();

/// Build (or load from cache) the three scaled datasets.
[[nodiscard]] ExperimentData load_or_build_experiment_data(
    const ExperimentDataConfig& config);

/// Training epochs for VQC/CNN models: QUGEO_EPOCHS or `fallback`.
[[nodiscard]] std::size_t epochs_from_env(std::size_t fallback = 150);

}  // namespace qugeo::data
