// Training loop: loss decreases on a learnable synthetic task, evaluation
// metrics behave, QuBatch trains, the data-parallel gradient fold is
// bit-identical across thread counts and composes with checkpoint/resume
// and gradient fusion, and the GradientPlan cache builds exactly once per
// run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "common/fault.h"
#include "common/parallel.h"
#include "core/trainer.h"

namespace qugeo::core {
namespace {

/// Synthetic learnable dataset: targets depend deterministically on the
/// waveform (row velocity = mean of a waveform slice), so a trained model
/// must beat its untrained self.
data::ScaledDataset synthetic_dataset(std::size_t n, std::size_t wave_size,
                                      std::size_t rows, std::size_t cols,
                                      Rng& rng) {
  data::ScaledDataset ds;
  ds.scaler_name = "synthetic";
  ds.nsrc = 1;
  ds.nt = 1;
  ds.nrec = wave_size;
  ds.vel_rows = rows;
  ds.vel_cols = cols;
  ds.samples.resize(n);
  for (auto& s : ds.samples) {
    s.waveform.resize(wave_size);
    rng.fill_uniform(s.waveform, -1, 1);
    s.velocity.resize(rows * cols);
    const std::size_t chunk = wave_size / rows;
    for (std::size_t i = 0; i < rows; ++i) {
      Real m = 0;
      for (std::size_t k = 0; k < chunk; ++k)
        m += std::abs(s.waveform[i * chunk + k]);
      const Real v = m / static_cast<Real>(chunk);
      for (std::size_t j = 0; j < cols; ++j) s.velocity[i * cols + j] = v;
    }
  }
  return ds;
}

ModelConfig tiny_model(DecoderKind dec, Index batch_log2 = 0) {
  ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.batch_log2 = batch_log2;
  mc.ansatz.blocks = 3;
  mc.decoder = dec;
  mc.vel_rows = dec == DecoderKind::kLayer ? 3 : 2;
  mc.vel_cols = 2;
  return mc;
}

TEST(Trainer, LossDecreases) {
  Rng rng(1);
  data::ScaledDataset ds = synthetic_dataset(24, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(24, 18);

  Rng init(2);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  TrainConfig tc;
  tc.epochs = 30;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  ASSERT_EQ(r.curve.size(), 30u);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss * 0.8);
}

TEST(Trainer, SsimImprovesOverTraining) {
  Rng rng(3);
  data::ScaledDataset ds = synthetic_dataset(24, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(24, 18);
  Rng init(4);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  TrainConfig tc;
  tc.epochs = 40;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  EXPECT_GT(r.final_ssim, r.curve.front().test_ssim);
  EXPECT_LT(r.final_mse, r.curve.front().test_mse);
}

TEST(Trainer, PixelDecoderTrains) {
  Rng rng(5);
  data::ScaledDataset ds = synthetic_dataset(16, 8, 2, 2, rng);
  const data::SplitView split = data::split_dataset(16, 12);
  Rng init(6);
  QuGeoModel model(tiny_model(DecoderKind::kPixel), init);
  TrainConfig tc;
  tc.epochs = 30;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss);
}

TEST(Trainer, QuBatchTrains) {
  Rng rng(7);
  data::ScaledDataset ds = synthetic_dataset(16, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(16, 12);
  Rng init(8);
  QuGeoModel model(tiny_model(DecoderKind::kLayer, 1), init);
  EXPECT_EQ(model.batch_size(), 2u);
  TrainConfig tc;
  tc.epochs = 25;
  tc.initial_lr = 0.05;
  const TrainResult r = train_model(model, ds, split, tc);
  EXPECT_LT(r.curve.back().train_loss, r.curve.front().train_loss);
}

TEST(Trainer, DeterministicGivenSeeds) {
  Rng rng(9);
  data::ScaledDataset ds = synthetic_dataset(12, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(12, 9);
  TrainConfig tc;
  tc.epochs = 5;

  Rng i1(10), i2(10);
  QuGeoModel m1(tiny_model(DecoderKind::kLayer), i1);
  QuGeoModel m2(tiny_model(DecoderKind::kLayer), i2);
  const TrainResult r1 = train_model(m1, ds, split, tc);
  const TrainResult r2 = train_model(m2, ds, split, tc);
  for (std::size_t e = 0; e < 5; ++e)
    EXPECT_EQ(r1.curve[e].train_loss, r2.curve[e].train_loss);
}

// ------------------------------------------------ data-parallel epochs --

/// One full training run from fixed seeds under the default fold.
struct RunOutput {
  TrainResult result;
  std::vector<Real> params;
};

RunOutput default_run() {
  Rng rng(9);
  data::ScaledDataset ds = synthetic_dataset(12, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(12, 9);
  TrainConfig tc;
  tc.epochs = 4;
  tc.initial_lr = 0.05;
  tc.chunks_per_step = 4;
  Rng init(10);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  RunOutput out{train_model(model, ds, split, tc), model.parameters()};
  return out;
}

void expect_identical_runs(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.result.curve.size(), b.result.curve.size());
  for (std::size_t e = 0; e < a.result.curve.size(); ++e) {
    EXPECT_EQ(a.result.curve[e].train_loss, b.result.curve[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(a.result.curve[e].test_ssim, b.result.curve[e].test_ssim)
        << "epoch " << e;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t k = 0; k < a.params.size(); ++k)
    EXPECT_EQ(a.params[k], b.params[k]) << "param " << k;
}

TEST(TrainerParallel, BitIdenticalAcrossThreadCounts) {
  // The per-chunk gradient slots fold in chunk order whatever the pool
  // size: 1, 2 and 4 workers must produce the same bits.
  const std::size_t before = num_threads();
  set_num_threads(1);
  const RunOutput t1 = default_run();
  set_num_threads(2);
  const RunOutput t2 = default_run();
  set_num_threads(4);
  const RunOutput t4 = default_run();
  set_num_threads(before);
  expect_identical_runs(t1, t2);
  expect_identical_runs(t1, t4);
}

TEST(TrainerParallel, KillAndResumeBitIdenticalWithGradFusion) {
  // The kill-and-resume harness with gradient fusion active and several
  // chunks per step: a run killed mid-training and resumed from disk must
  // match an uninterrupted run bit for bit.
  const auto dir = std::filesystem::temp_directory_path() /
                   "qugeo_trainer_parallel_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Rng rng(21);
  data::ScaledDataset ds = synthetic_dataset(12, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(12, 9);
  const auto config_for = [&](const char* stem) {
    TrainConfig tc;
    tc.epochs = 5;
    tc.initial_lr = 0.05;
    tc.chunks_per_step = 4;
    tc.checkpoint_path = dir / stem;
    tc.checkpoint_every = 1;
    return tc;
  };
  auto model_config = tiny_model(DecoderKind::kLayer);
  model_config.execution.grad_fusion = true;

  Rng init_ref(22);
  QuGeoModel ref_model(model_config, init_ref);
  const TrainResult reference =
      train_model(ref_model, ds, split, config_for("ref"));

  const TrainConfig tc = config_for("killed");
  {
    Rng init(22);
    QuGeoModel model(model_config, init);
    fault::FaultScope scope("trainer.epoch", 3);
    EXPECT_THROW(train_model(model, ds, split, tc), TransientError);
  }
  Rng init(23);  // different init: every parameter must come from the disk
  QuGeoModel resumed_model(model_config, init);
  const TrainResult resumed = train_model(resumed_model, ds, split, tc);

  EXPECT_EQ(resumed.resumed_from_epoch, 2u);
  ASSERT_EQ(resumed.curve.size(), reference.curve.size());
  for (std::size_t e = 0; e < reference.curve.size(); ++e)
    EXPECT_EQ(resumed.curve[e].train_loss, reference.curve[e].train_loss)
        << "epoch " << e;
  EXPECT_EQ(resumed_model.parameters(), ref_model.parameters());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- gradient-plan cache --

TEST(TrainerGradientPlan, CacheBuildsOncePerRun) {
  Rng rng(13);
  data::ScaledDataset ds = synthetic_dataset(12, 8, 3, 2, rng);
  const data::SplitView split = data::split_dataset(12, 9);
  TrainConfig tc;
  tc.epochs = 3;
  tc.initial_lr = 0.05;
  Rng init(14);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  (void)train_model(model, ds, split, tc);
  const auto& cache = *model.compile_cache();
  if (!model.execution_config().grad_fusion) {
    // QUGEO_GRAD_FUSION=off leg: the knob must really disable the path.
    EXPECT_EQ(cache.plan_compile_count(), 0u);
    EXPECT_EQ(cache.plan_hit_count(), 0u);
    return;
  }
  // One build, then every later lookup hits: loss_and_gradient fetches the
  // plan twice per chunk (forward replay + adjoint sweep), the train split
  // has 9 chunks of batch size 1, and the run does 3 epochs.
  EXPECT_EQ(cache.plan_compile_count(), 1u);
  EXPECT_EQ(cache.plan_hit_count(), 2u * 9u * 3u - 1u);
}

TEST(TrainerGradientPlan, FusionKnobBitIdenticalOnAllTrainableAnsatz) {
  // The QuGeoVQC ansatz is all-trainable, so its GradientPlan is the
  // identity: the fused and unfused training paths must agree BITWISE
  // (this is what keeps the default path identical to the pre-plan loop).
  Rng rng(15);
  data::ScaledDataset ds = synthetic_dataset(4, 8, 3, 2, rng);
  std::vector<const data::ScaledSample*> chunk = {&ds.samples[0]};

  Rng init(16);
  QuGeoModel model(tiny_model(DecoderKind::kLayer), init);
  auto exec_on = model.execution_config();
  exec_on.grad_fusion = true;
  auto exec_off = exec_on;
  exec_off.grad_fusion = false;

  model.set_execution_config(exec_on);
  std::vector<Real> g_on(model.num_params(), Real(0));
  const Real loss_on = model.loss_and_gradient(chunk, g_on);
  model.set_execution_config(exec_off);
  std::vector<Real> g_off(model.num_params(), Real(0));
  const Real loss_off = model.loss_and_gradient(chunk, g_off);

  EXPECT_EQ(loss_on, loss_off);
  EXPECT_EQ(g_on, g_off);
}

TEST(Evaluate, PerfectPredictionScoresOne) {
  Rng rng(11);
  data::ScaledDataset ds = synthetic_dataset(4, 8, 3, 2, rng);
  const std::vector<std::size_t> idx = {0, 1, 2, 3};
  std::vector<std::vector<Real>> preds;
  for (std::size_t i : idx) preds.push_back(ds.samples[i].velocity);
  const EvalMetrics m = evaluate_predictions(preds, ds, idx);
  EXPECT_NEAR(m.ssim, 1.0, 1e-9);
  EXPECT_NEAR(m.mse, 0.0, 1e-12);
}

TEST(Evaluate, EmptyIndicesGiveZero) {
  Rng rng(12);
  data::ScaledDataset ds = synthetic_dataset(2, 8, 3, 2, rng);
  const EvalMetrics m = evaluate_predictions({}, ds, {});
  EXPECT_EQ(m.ssim, 0.0);
  EXPECT_EQ(m.mse, 0.0);
}

}  // namespace
}  // namespace qugeo::core
