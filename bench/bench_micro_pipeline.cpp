// Microbenchmarks of the learning pipeline: one training step (forward +
// adjoint backward + Adam) for each decoder and QuBatch size, one CNN
// baseline step, one Q-D-CNN compressor step, and SSIM evaluation
// throughput.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include "core/classical_baseline.h"
#include "core/model.h"
#include "data/cnn_scaler.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "metrics/image_metrics.h"

namespace {

using namespace qugeo;

data::ScaledSample random_sample(Rng& rng) {
  data::ScaledSample s;
  s.waveform.resize(256);
  s.velocity.resize(64);
  rng.fill_uniform(s.waveform, -1, 1);
  rng.fill_uniform(s.velocity, 0, 1);
  return s;
}

void BM_VqcTrainStep(benchmark::State& state) {
  const auto decoder = state.range(0) == 0 ? core::DecoderKind::kPixel
                                           : core::DecoderKind::kLayer;
  const auto batch_log2 = static_cast<Index>(state.range(1));
  core::ModelConfig mc;
  mc.decoder = decoder;
  mc.batch_log2 = batch_log2;
  Rng rng(1);
  core::QuGeoModel model(mc, rng);

  std::vector<data::ScaledSample> samples;
  for (Index i = 0; i < model.batch_size(); ++i)
    samples.push_back(random_sample(rng));
  std::vector<const data::ScaledSample*> chunk;
  for (const auto& s : samples) chunk.push_back(&s);
  std::vector<Real> grads(model.num_params());

  for (auto _ : state) {
    std::fill(grads.begin(), grads.end(), Real(0));
    const Real loss = model.loss_and_gradient(chunk, grads);
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.batch_size()));
}
BENCHMARK(BM_VqcTrainStep)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_VqcPredict(benchmark::State& state) {
  core::ModelConfig mc;
  mc.decoder = core::DecoderKind::kLayer;
  Rng rng(2);
  core::QuGeoModel model(mc, rng);
  const data::ScaledSample s = random_sample(rng);
  const data::ScaledSample* chunk[] = {&s};
  for (auto _ : state) {
    auto preds = model.predict(chunk);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VqcPredict)->Unit(benchmark::kMicrosecond);

void BM_CnnBaselineStep(benchmark::State& state) {
  Rng rng(3);
  core::ClassicalConfig cc;
  cc.decoder = core::DecoderKind::kLayer;
  core::ClassicalFwiNet net(cc, rng);
  data::ScaledDataset ds;
  ds.samples.push_back(random_sample(rng));
  ds.samples.push_back(random_sample(rng));
  const data::SplitView split = data::split_dataset(2, 1);
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.initial_lr = 0.01;
  for (auto _ : state) {
    const auto r = net.train(ds, split, tc);
    benchmark::DoNotOptimize(r.final_mse);
  }
  // Samples trained per second (one epoch over the dataset per iteration).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.samples.size()));
}
BENCHMARK(BM_CnnBaselineStep)->Unit(benchmark::kMicrosecond);

void BM_CnnScalerStep(benchmark::State& state) {
  // One Q-D-CNN compressor training step at data::train_cnn_scaler's
  // default shapes: a 1x64x16 decimated gather to the 1x32x8 = 256-value
  // quantum-scale waveform, forward + MSE + backward + Adam.
  Rng rng(6);
  const data::CnnScalerConfig cfg;
  const data::ScaleTarget scale;
  const std::size_t out_dim = scale.nsrc * scale.nt * scale.nrec;
  const auto net = data::make_compressor_net(scale.nsrc, cfg.input_time_rows,
                                             cfg.input_rec_cols, out_dim, rng);
  nn::Tensor x({1, scale.nsrc, cfg.input_time_rows, cfg.input_rec_cols});
  nn::Tensor target({1, out_dim});
  rng.fill_uniform(x.data_mut(), -1, 1);
  rng.fill_uniform(target.data_mut(), -1, 1);
  nn::Adam opt(net->params());
  for (auto _ : state) {
    opt.zero_grad();
    const nn::LossResult loss = nn::mse_loss(net->forward(x), target);
    (void)net->backward(loss.grad);
    opt.step(cfg.initial_lr);
    benchmark::DoNotOptimize(loss.value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CnnScalerStep)->Unit(benchmark::kMicrosecond);

void BM_AdamStep(benchmark::State& state) {
  // One Adam update over the Q-D-CNN compressor's parameter set (the same
  // net as BM_CnnScalerStep, about 1.3e5 values) with fixed gradients.
  Rng rng(7);
  const data::CnnScalerConfig cfg;
  const data::ScaleTarget scale;
  const auto net = data::make_compressor_net(
      scale.nsrc, cfg.input_time_rows, cfg.input_rec_cols,
      scale.nsrc * scale.nt * scale.nrec, rng);
  std::int64_t values = 0;
  for (nn::Param* p : net->params()) {
    rng.fill_uniform(p->grad.data_mut(), -1e-3, 1e-3);
    values += static_cast<std::int64_t>(p->numel());
  }
  nn::Adam opt(net->params());
  for (auto _ : state) {
    opt.step(cfg.initial_lr);
    benchmark::ClobberMemory();
  }
  // Parameters updated per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * values);
}
BENCHMARK(BM_AdamStep)->Unit(benchmark::kMicrosecond);

void BM_Ssim8x8(benchmark::State& state) {
  Rng rng(4);
  std::vector<Real> a(64), b(64);
  rng.fill_uniform(a, 0, 1);
  rng.fill_uniform(b, 0, 1);
  metrics::SsimOptions opts;
  opts.data_range = 1.0;
  for (auto _ : state) {
    const Real s = metrics::ssim(a, b, 8, 8, opts);
    benchmark::DoNotOptimize(s);
  }
  // Pixels compared per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Ssim8x8);

void BM_SsimLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<Real> a(n * n), b(n * n);
  rng.fill_uniform(a, 0, 1);
  rng.fill_uniform(b, 0, 1);
  for (auto _ : state) {
    const Real s = metrics::ssim(a, b, n, n, {});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_SsimLarge)->Arg(70)->Arg(256);

}  // namespace

QUGEO_BENCH_MICRO_MAIN()
