// Train stage: the warm path of a paper-harness run.
#include <algorithm>
#include <cmath>
#include <thread>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/scaling.h"
#include "metrics/image_metrics.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "qsim/executor.h"
#include "stages.h"

namespace perfbench {
namespace {

namespace core = qugeo::core;
namespace data = qugeo::data;
using qugeo::Real;
using qugeo::Rng;

/// Fixed parameter-initialization seed: the run's seed picks the data, the
/// model under test starts from the same angles in every run.
constexpr std::uint64_t kModelInitSeed = 0x9e0ULL;

/// The reference training must beat this test SSIM. It reaches 0.42 after
/// 10 epochs; the untrained model scores -0.29 and one epoch 0.23, so a
/// change that breaks learning fails the run.
constexpr double kSsimFloor = 0.35;

core::TrainConfig paper_schedule(std::size_t epochs) {
  core::TrainConfig tc;  // Adam; chunks_per_step and shuffle seed default
  tc.epochs = epochs;
  tc.initial_lr = 0.1;  // cosine-annealed from 0.1 (nn::CosineAnnealingLr)
  return tc;
}

/// train_model's loop rebuilt from the same public calls, with a span
/// around every chunk's loss_and_gradient and every epoch's evaluation.
/// Returns the final parameters.
std::vector<Real> train_traced(core::QuGeoModel& model,
                               const data::ScaledDataset& ds,
                               const data::SplitView& split,
                               const core::TrainConfig& tc, Tracer& tracer) {
  std::vector<Real> params = model.parameters();
  qugeo::nn::AdamFlat opt(params.size());
  const qugeo::nn::CosineAnnealingLr schedule(tc.initial_lr, tc.epochs);
  Rng shuffle_rng(tc.shuffle_seed);
  std::vector<Real> grads(params.size());
  for (std::size_t epoch = 0; epoch < tc.epochs; ++epoch) {
    const auto order = shuffle_rng.permutation(split.train.size());
    for (std::size_t start = 0; start < order.size(); start += tc.chunks_per_step) {
      const std::size_t group = std::min(tc.chunks_per_step, order.size() - start);
      std::vector<std::vector<Real>> slot(group);
      qugeo::parallel_for(0, group, [&](std::size_t g) {
        slot[g].assign(params.size(), Real(0));
        const data::ScaledSample* chunk = &ds.samples[split.train[order[start + g]]];
        Span span(tracer, "core.loss_and_gradient");
        (void)model.loss_and_gradient({&chunk, 1}, slot[g]);
      });
      std::fill(grads.begin(), grads.end(), Real(0));
      for (const auto& s : slot)
        for (std::size_t k = 0; k < grads.size(); ++k) grads[k] += s[k];
      const Real inv = Real(1) / static_cast<Real>(group);
      for (Real& g : grads) g *= inv;
      opt.step(params, grads, schedule.lr(epoch));
      model.set_parameters(params);
    }
    Span span(tracer, "core.evaluate_model");
    const core::EvalMetrics ev = core::evaluate_model(model, ds, split.test);
    check(std::isfinite(ev.ssim), "traced training: non-finite SSIM");
  }
  return params;
}

/// One epoch's gradient accumulation (train_model's grouping, parameters
/// held fixed) at the current pool size; returns its wall time.
double accumulate_epoch(const core::QuGeoModel& model,
                        const data::ScaledDataset& ds,
                        const data::SplitView& split, std::size_t per_step) {
  std::vector<Real> grads(model.num_params());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t start = 0; start < split.train.size(); start += per_step) {
    const std::size_t group = std::min(per_step, split.train.size() - start);
    std::vector<std::vector<Real>> slot(group, std::vector<Real>(grads.size()));
    qugeo::parallel_for(0, group, [&](std::size_t g) {
      const data::ScaledSample* chunk = &ds.samples[split.train[start + g]];
      (void)model.loss_and_gradient({&chunk, 1}, slot[g]);
    });
    for (const auto& s : slot)
      for (std::size_t k = 0; k < grads.size(); ++k) grads[k] += s[k];
  }
  return seconds_since(t0);
}

/// qsim.* probe on the paper ansatz with the trained angles: one forward
/// replay (run_circuit) and one adjoint sweep per call, median of many.
void probe_qsim(const core::QuGeoModel& model, Tracer& tracer, Metrics& m,
                std::uint64_t seed) {
  namespace qsim = qugeo::qsim;
  const qsim::Circuit& ansatz = model.ansatz();
  const std::vector<Real> params = model.parameters();
  Rng rng(seed ^ 0x9515ULL);
  std::vector<Real> re(std::size_t{1} << ansatz.num_qubits());
  rng.fill_uniform(re, -1, 1);
  qsim::StateVector psi_in(ansatz.num_qubits());
  psi_in.set_amplitudes_real(re);
  std::vector<qugeo::Complex> cot(re.size());
  for (auto& c : cot) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  constexpr std::size_t kIters = 300;
  for (std::size_t i = 0; i < kIters; ++i) {
    qsim::StateVector psi = psi_in;
    {
      Span span(tracer, "qsim.run_circuit");
      qsim::run_circuit(ansatz, params, psi);
    }
    Span span(tracer, "qsim.adjoint_backward");
    const qsim::AdjointResult adj = qsim::adjoint_backward(ansatz, params, std::move(psi), cot);
    check(adj.param_grads.size() == ansatz.num_params(), "adjoint probe: gradient size");
  }
  m["qsim.run_circuit.us"] = {median(tracer.durations("qsim.run_circuit")) * 1e6, "us"};
  m["qsim.adjoint_backward.us"] = {
      median(tracer.durations("qsim.adjoint_backward")) * 1e6, "us"};
}

}  // namespace

core::ModelConfig paper_model_config() {
  core::ModelConfig mc;
  mc.group_data_qubits = {8};
  mc.batch_log2 = 0;
  mc.ansatz.blocks = 12;
  mc.decoder = core::DecoderKind::kLayer;  // Q-M-LY
  mc.vel_rows = 8;
  mc.vel_cols = 8;
  return mc;
}

data::ScaledDataset build_qdfw_corpus(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  const qugeo::seismic::FlatVelConfig vel_cfg;
  std::vector<data::RawSample> raw(count);
  for (data::RawSample& s : raw) s.velocity = qugeo::seismic::generate_flatvel(vel_cfg, rng);
  const data::ScaleTarget target;
  const data::ForwardModelScaler qdfw(target);
  data::ScaledDataset ds = qdfw.scale_dataset(data::RawDataset{}, target);  // shape only
  ds.samples.resize(count);
  // Q-D-FW needs only the velocity map; samples are independent, so they
  // fan out over the pool (the nested per-shot loop then runs inline).
  qugeo::parallel_for(0, count, [&](std::size_t i) { ds.samples[i] = qdfw.scale(raw[i]); });
  return ds;
}

namespace {

class TrainStage final : public Stage {
 public:
  TrainStage(const TrainScale& scale, const data::ScaledDataset& pool, std::uint64_t seed,
             Tally& tally)
      : scale_(scale),
        pool_(pool),
        seed_(seed),
        tally_(tally),
        split_(data::split_dataset(scale.train_samples + scale.test_samples,
                                   scale.train_samples)),
        config_(paper_schedule(scale.epochs)) {
    check(pool.size() == scale.pool_samples &&
              scale.train_samples + scale.test_samples <= pool.size(),
          "train pool has the wrong size");
  }

  void rep() override {
    const std::size_t k = times_.size();
    data::ScaledDataset ds = draw(k);
    Rng init(kModelInitSeed);
    model_ = std::make_unique<core::QuGeoModel>(paper_model_config(), init);
    check(model_->num_quantum_params() == 576, "paper model must carry 576 angles");
    const Clock::time_point t0 = Clock::now();
    const core::TrainResult result = core::train_model(*model_, ds, split_, config_);
    times_.push_back(seconds_since(t0));
    ++tally_.attempted;
    check(std::isfinite(result.final_ssim) && std::isfinite(result.final_mse),
          "training produced a non-finite test metric");
    if (k != 0) return;
    check(result.final_ssim > kSsimFloor,
          "reference test SSIM " + std::to_string(result.final_ssim) + " is below the floor");
    reference_ = result;
    reference_params_ = model_->parameters();
  }

  void report(Metrics& m, Tracer* tracer) override {
    // Mean, not median: see "Stage timings" in perfbench/README.md.
    m["train_s"] = {mean(times_), "s"};
    m["test_ssim"] = {reference_.final_ssim, "1"};
    m["test_mse"] = {reference_.final_mse, "1"};
    if (tracer == nullptr) return;

    const auto& cache = *model_->compile_cache();
    const double plan_lookups =
        static_cast<double>(cache.plan_hit_count() + cache.plan_compile_count());
    m["qsim.plan_cache.hit_ratio"] = {
        static_cast<double>(cache.plan_hit_count()) / plan_lookups, "1"};
    m["qsim.plan_cache.lookups"] = {plan_lookups, "count"};

    const data::ScaledDataset ds = draw(0);
    Rng init(kModelInitSeed);
    core::QuGeoModel traced_model(paper_model_config(), init);
    const Clock::time_point t0 = Clock::now();
    const std::vector<Real> traced_params =
        train_traced(traced_model, ds, split_, config_, *tracer);
    m["trace.overhead.train"] = {seconds_since(t0) / times_.front(), "1"};
    m["trace.identical.train"] = {same_bits(traced_params, reference_params_) ? 1.0 : 0.0,
                                  "1"};
    const std::vector<double> lg = tracer->durations("core.loss_and_gradient");
    m["core.loss_and_gradient.us.p50"] = {median(lg) * 1e6, "us"};
    m["core.loss_and_gradient.us.p99"] = {quantile(lg, 0.99) * 1e6, "us"};
    m["core.loss_and_gradient.count"] = {static_cast<double>(lg.size()), "count"};
    m["core.evaluate_model.ms"] = {
        median(tracer->durations("core.evaluate_model")) * 1e3, "ms"};

    // metrics.*: the SSIM of every predicted test map as
    // evaluate_predictions computes it, repeated for enough samples.
    std::vector<const data::ScaledSample*> test;
    for (std::size_t i : split_.test) test.push_back(&ds.samples[i]);
    const auto preds = traced_model.predict(test);
    qugeo::metrics::SsimOptions opts;
    opts.data_range = 1.0;
    for (int rep = 0; rep < 50; ++rep)
      for (std::size_t i = 0; i < test.size(); ++i) {
        Span span(*tracer, "metrics.ssim");
        check(std::isfinite(qugeo::metrics::ssim(preds[i], test[i]->velocity, ds.vel_rows,
                                                 ds.vel_cols, opts)),
              "non-finite SSIM");
      }
    m["metrics.ssim.us"] = {median(tracer->durations("metrics.ssim")) * 1e6, "us"};

    probe_qsim(traced_model, *tracer, m, seed_);

    // common.pool.*: the same epoch of gradient accumulation on one thread
    // and on a pool of up to four threads (median of three each); the run's
    // own pool size is restored afterwards.
    const std::size_t run_threads = qugeo::num_threads();
    const std::size_t threads =
        std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<double> t_pool, t_one;
    qugeo::set_num_threads(1);
    for (int rep = 0; rep < 3; ++rep)
      t_one.push_back(accumulate_epoch(traced_model, ds, split_, config_.chunks_per_step));
    qugeo::set_num_threads(threads);
    for (int rep = 0; rep < 3; ++rep)
      t_pool.push_back(accumulate_epoch(traced_model, ds, split_, config_.chunks_per_step));
    qugeo::set_num_threads(run_threads);
    m["common.pool.speedup"] = {median(t_one) / median(t_pool), "1"};
    m["common.pool.threads"] = {static_cast<double>(threads), "count"};
  }

 private:
  /// Repetition k's corpus: the pool's first train + test samples for the
  /// reference repetition, a seeded draw from the pool otherwise.
  [[nodiscard]] data::ScaledDataset draw(std::size_t k) const {
    std::vector<std::size_t> order(pool_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (k != 0) {
      Rng rng(rep_seed(seed_, k));
      order = rng.permutation(pool_.size());
    }
    data::ScaledDataset ds = pool_;
    ds.samples.clear();
    for (std::size_t i = 0; i < scale_.train_samples + scale_.test_samples; ++i)
      ds.samples.push_back(pool_.samples[order[i]]);
    return ds;
  }

  const TrainScale scale_;
  const data::ScaledDataset& pool_;
  const std::uint64_t seed_;
  Tally& tally_;
  const data::SplitView split_;
  const core::TrainConfig config_;
  std::vector<double> times_;
  std::unique_ptr<core::QuGeoModel> model_;
  core::TrainResult reference_;
  std::vector<Real> reference_params_;
};

}  // namespace

std::unique_ptr<Stage> make_train_stage(const TrainScale& scale,
                                        const data::ScaledDataset& pool, std::uint64_t seed,
                                        Tally& tally) {
  return std::make_unique<TrainStage>(scale, pool, seed, tally);
}

}  // namespace perfbench
