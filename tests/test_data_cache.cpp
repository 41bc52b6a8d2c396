// Scaled-dataset serialization round trip, env-driven configuration, and
// recovery from a corrupt cache entry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/fault.h"
#include "data/cache.h"

namespace qugeo::data {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "qugeo_cache_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

ScaledDataset tiny_dataset(std::size_t n) {
  ScaledDataset ds;
  ds.scaler_name = "test";
  ds.samples.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ds.samples[i].waveform.assign(ds.waveform_size(),
                                  static_cast<Real>(i) + 0.5);
    ds.samples[i].velocity.assign(ds.velocity_size(),
                                  static_cast<Real>(i) * 0.1);
  }
  return ds;
}

TEST_F(CacheTest, SaveLoadRoundTrip) {
  const ScaledDataset ds = tiny_dataset(4);
  save_scaled_dataset(dir_ / "ds", ds);
  EXPECT_TRUE(scaled_dataset_exists(dir_ / "ds"));
  const ScaledDataset back = load_scaled_dataset(dir_ / "ds");
  EXPECT_EQ(back.size(), 4u);
  EXPECT_EQ(back.nsrc, ds.nsrc);
  EXPECT_EQ(back.vel_rows, ds.vel_rows);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.samples[i].waveform, ds.samples[i].waveform);
    EXPECT_EQ(back.samples[i].velocity, ds.samples[i].velocity);
  }
}

void expect_same_samples(const ScaledDataset& a, const ScaledDataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.samples[i].waveform, b.samples[i].waveform) << "sample " << i;
    EXPECT_EQ(a.samples[i].velocity, b.samples[i].velocity) << "sample " << i;
  }
}

TEST_F(CacheTest, CorruptEntryIsRebuiltNotFatal) {
  ExperimentDataConfig cfg;
  cfg.num_samples = 3;
  cfg.train_count = 2;
  cfg.cnn_train_samples = 2;
  cfg.cnn.epochs = 2;
  cfg.cache_dir = dir_ / "experiment";
  const ExperimentData first = load_or_build_experiment_data(cfg);

  // Flip one payload byte of the Q-D-FW waveform tensor: its frame CRC no
  // longer matches.
  std::filesystem::path wave;
  for (const auto& entry : std::filesystem::directory_iterator(cfg.cache_dir))
    if (entry.path().string().ends_with("_qdfw.wave.qgt")) wave = entry.path();
  ASSERT_FALSE(wave.empty());
  {
    std::fstream f(wave, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-8, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(-8, std::ios::end);
    f.write(&byte, 1);
  }

  fault::clear_degradation_events();
  ExperimentData second;
  EXPECT_NO_THROW(second = load_or_build_experiment_data(cfg));
  const auto events = fault::degradation_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "data.cache");
  fault::clear_degradation_events();

  expect_same_samples(second.dsample, first.dsample);
  expect_same_samples(second.qdfw, first.qdfw);
  expect_same_samples(second.qdcnn, first.qdcnn);
}

TEST_F(CacheTest, ExistsIsFalseForMissing) {
  EXPECT_FALSE(scaled_dataset_exists(dir_ / "nothing"));
}

TEST(CacheConfig, EnvOverrides) {
  setenv("QUGEO_SAMPLES", "32", 1);
  setenv("QUGEO_TRAIN", "24", 1);
  setenv("QUGEO_SEED", "777", 1);
  const ExperimentDataConfig cfg = experiment_config_from_env();
  EXPECT_EQ(cfg.num_samples, 32u);
  EXPECT_EQ(cfg.train_count, 24u);
  EXPECT_EQ(cfg.seed, 777u);
  unsetenv("QUGEO_SAMPLES");
  unsetenv("QUGEO_TRAIN");
  unsetenv("QUGEO_SEED");
}

TEST(CacheConfig, TrainClampedBelowTotal) {
  setenv("QUGEO_SAMPLES", "20", 1);
  setenv("QUGEO_TRAIN", "50", 1);
  const ExperimentDataConfig cfg = experiment_config_from_env();
  EXPECT_LT(cfg.train_count, cfg.num_samples);
  unsetenv("QUGEO_SAMPLES");
  unsetenv("QUGEO_TRAIN");
}

TEST(CacheConfig, EpochsFromEnv) {
  unsetenv("QUGEO_EPOCHS");
  EXPECT_EQ(epochs_from_env(123), 123u);
  setenv("QUGEO_EPOCHS", "55", 1);
  EXPECT_EQ(epochs_from_env(123), 55u);
  unsetenv("QUGEO_EPOCHS");
}

}  // namespace
}  // namespace qugeo::data
