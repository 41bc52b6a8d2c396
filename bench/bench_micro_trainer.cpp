// Microbenchmark of the training loop: the per-chunk cost of the memoized
// gradient plan once it is built. Merges into BENCH_micro.json like every
// micro suite.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include <cmath>

#include "common/rng.h"
#include "core/model.h"

namespace {

using namespace qugeo;

/// Synthetic learnable dataset (same construction as the trainer tests):
/// row velocity = mean |waveform| of a slice, so the task is non-trivial
/// but cheap to generate.
data::ScaledDataset synthetic_dataset(std::size_t n,
                                            std::size_t wave_size,
                                            std::size_t rows,
                                            std::size_t cols, Rng& rng) {
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

core::ModelConfig tiny_model() {
  core::ModelConfig mc;
  mc.group_data_qubits = {3};
  mc.ansatz.blocks = 3;
  mc.decoder = core::DecoderKind::kLayer;
  mc.vel_rows = 3;
  mc.vel_cols = 2;
  return mc;
}

void BM_GradientPlanCacheHit(benchmark::State& state) {
  // The per-chunk cost of the memoized gradient plan after the first
  // build: one structural key match under the cache mutex.
  Rng init(63);
  core::QuGeoModel model(tiny_model(), init);
  Rng rng(64);
  data::ScaledDataset ds = synthetic_dataset(2, 8, 3, 2, rng);
  std::vector<const data::ScaledSample*> chunk = {&ds.samples[0]};
  std::vector<Real> grads(model.num_params(), Real(0));
  (void)model.loss_and_gradient(chunk, grads);  // warm: builds the plan
  for (auto _ : state) {
    const Real loss = model.loss_and_gradient(chunk, grads);
    benchmark::DoNotOptimize(loss);
  }
  // Gradient evaluations served per second (each = 2 plan lookups).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GradientPlanCacheHit);

}  // namespace

QUGEO_BENCH_MICRO_MAIN()
