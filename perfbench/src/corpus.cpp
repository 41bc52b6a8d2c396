// Corpus stage: the cold path of a paper-harness run.
#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"
#include "data/cnn_scaler.h"
#include "data/scaling.h"
#include "metrics/image_metrics.h"
#include "nn/layers.h"
#include "seismic/fdtd.h"
#include "seismic/forward_modeling.h"
#include "stages.h"

namespace perfbench {
namespace {

namespace data = qugeo::data;
namespace seismic = qugeo::seismic;
using qugeo::Real;
using qugeo::Rng;

struct Corpus {
  data::ScaledDataset dsample, qdfw, qdcnn;
};

data::CnnScalerConfig cnn_config(const CorpusScale& scale) {
  data::CnnScalerConfig cfg;
  cfg.epochs = scale.cnn_epochs;
  return cfg;
}

/// The build data::load_or_build_experiment_data runs on a cache miss,
/// through the same composite public calls, without touching the disk.
Corpus build_corpus(const CorpusScale& scale, std::uint64_t seed) {
  Rng rng(seed);
  const seismic::FlatVelConfig vel_cfg;
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  const data::RawDataset raw =
      data::generate_raw_dataset(scale.corpus_samples, vel_cfg, acq, rng);
  const data::RawDataset cnn_raw =
      data::generate_raw_dataset(scale.cnn_samples, vel_cfg, acq, rng);
  const data::ScaleTarget target;
  const data::DSampleScaler dsample(target);
  const data::ForwardModelScaler qdfw(target);
  Rng cnn_rng = rng.split();
  const data::CnnScaler qdcnn =
      data::train_cnn_scaler(cnn_raw, target, cnn_config(scale), cnn_rng);
  Corpus c;
  c.dsample = dsample.scale_dataset(raw, target);
  c.qdfw = qdfw.scale_dataset(raw, target);
  c.qdcnn = qdcnn.scale_dataset(raw, target);
  return c;
}

/// FDTD cell updates model_shots performs on `model` (computed from the
/// grid, the sponge pads, the CFL sub-stepping and the shot count).
double fdtd_cell_updates(const seismic::VelocityModel& model,
                         const seismic::Acquisition& acq) {
  const Real dt_limit =
      Real(0.9) * seismic::max_stable_dt(model, acq.fdtd.space_order);
  std::size_t substeps = 1;
  while (Real(1) / static_cast<Real>(acq.num_time_samples * substeps) > dt_limit)
    ++substeps;
  const std::size_t pad = acq.fdtd.sponge_width;
  const std::size_t nz = model.nz() + pad + (acq.fdtd.free_surface_top ? 0 : pad);
  const std::size_t nx = model.nx() + 2 * pad;
  return static_cast<double>(nz * nx) *
         static_cast<double>(acq.num_time_samples * substeps) *
         static_cast<double>(acq.num_sources);
}

/// The same build decomposed into its per-sample public calls, each inside
/// a span. Adds the computed FDTD work to `cell_updates`.
Corpus build_corpus_traced(const CorpusScale& scale, std::uint64_t seed,
                           Tracer& tracer, double& cell_updates) {
  Rng rng(seed);
  const seismic::FlatVelConfig vel_cfg;
  const seismic::Acquisition acq = seismic::openfwi_acquisition();
  const auto synthesize = [&](std::size_t count) {
    data::RawDataset ds;
    ds.velocity_config = vel_cfg;
    ds.acquisition = acq;
    for (std::size_t i = 0; i < count; ++i) {
      data::RawSample s{seismic::generate_flatvel(vel_cfg, rng), {}};
      {
        Span span(tracer, "seismic.model_shots");
        s.seismic = seismic::model_shots(s.velocity, acq);
      }
      cell_updates += fdtd_cell_updates(s.velocity, acq);
      ds.samples.push_back(std::move(s));
    }
    return ds;
  };
  const data::RawDataset raw = synthesize(scale.corpus_samples);
  const data::RawDataset cnn_raw = synthesize(scale.cnn_samples);
  const data::ScaleTarget target;
  const data::DSampleScaler dsample(target);
  const data::ForwardModelScaler qdfw(target);
  Rng cnn_rng = rng.split();
  const data::CnnScaler qdcnn = [&] {
    Span span(tracer, "data.cnn_train");
    return data::train_cnn_scaler(cnn_raw, target, cnn_config(scale), cnn_rng);
  }();

  const auto scale_all = [&](const data::Scaler& scaler, const char* span_name) {
    data::ScaledDataset out = scaler.scale_dataset(data::RawDataset{}, target);  // shape only
    for (const data::RawSample& s : raw.samples) {
      Span span(tracer, span_name);
      out.samples.push_back(scaler.scale(s));
    }
    return out;
  };
  Corpus c;
  c.dsample = scale_all(dsample, "data.dsample");
  c.qdfw = scale_all(qdfw, "data.qdfw_remodel");
  c.qdcnn = scale_all(qdcnn, "data.cnn_compress");
  return c;
}

bool same_dataset(const data::ScaledDataset& a, const data::ScaledDataset& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a.samples[i].waveform, b.samples[i].waveform) ||
        !same_bits(a.samples[i].velocity, b.samples[i].velocity))
      return false;
  return true;
}

bool same_corpus(const Corpus& a, const Corpus& b) {
  return same_dataset(a.dsample, b.dsample) && same_dataset(a.qdfw, b.qdfw) &&
         same_dataset(a.qdcnn, b.qdcnn);
}

void check_corpus(const Corpus& c, const CorpusScale& scale) {
  for (const data::ScaledDataset* ds : {&c.dsample, &c.qdfw, &c.qdcnn}) {
    const std::string tag = "corpus " + ds->scaler_name + ": ";
    check(ds->size() == scale.corpus_samples, tag + "wrong sample count");
    check(ds->waveform_size() == 256 && ds->velocity_size() == 64,
          tag + "wrong quantum-scale shape");
    for (const data::ScaledSample& s : ds->samples) {
      check(s.waveform.size() == ds->waveform_size() &&
                s.velocity.size() == ds->velocity_size(),
            tag + "sample shape differs from the dataset shape");
      bool any_signal = false;
      for (Real v : s.waveform) {
        check(std::isfinite(v), tag + "non-finite waveform value");
        any_signal = any_signal || v != 0;
      }
      check(any_signal, tag + "all-zero waveform");
      for (Real v : s.velocity)
        check(std::isfinite(v) && v >= 0 && v <= 1,
              tag + "velocity outside [0, 1]");
    }
  }
}

/// Mean squared error of the compressor's output against the L2-normalized
/// Q-D-FW waveform (its training target) over the corpus samples, none of
/// which the compressor trained on.
double cnn_scaler_mse(const Corpus& c) {
  double sum = 0;
  for (std::size_t i = 0; i < c.qdfw.size(); ++i) {
    std::vector<Real> ref = c.qdfw.samples[i].waveform;
    qugeo::normalize_l2(ref);
    sum += qugeo::metrics::mse(c.qdcnn.samples[i].waveform, ref);
  }
  return sum / static_cast<double>(c.qdfw.size());
}

/// Per-call time of one layer's forward and backward at the compressor's
/// shapes (median over `iters` calls, each inside a span).
void time_layer(qugeo::nn::Layer& layer, const qugeo::nn::Tensor& x,
                Tracer& tracer, const char* fwd_name, const char* bwd_name,
                std::size_t iters) {
  qugeo::nn::Tensor y;
  for (std::size_t i = 0; i < iters; ++i) {
    {
      Span span(tracer, fwd_name);
      y = layer.forward(x);
    }
    Span span(tracer, bwd_name);
    const qugeo::nn::Tensor gx = layer.backward(y);
    check(gx.numel() == x.numel(), "nn probe: backward shape");
  }
}

/// nn.* probe: the compressor's two Conv2d stages and its Linear head at
/// the shapes data::train_cnn_scaler builds (1x64x16 input, 8 channels,
/// two 2x2 pools, 512 -> 256 head). Conv times are summed over both
/// stages, i.e. per compressor sample.
void probe_nn_layers(Tracer& tracer, Metrics& m, std::uint64_t seed) {
  using qugeo::nn::Tensor;
  Rng rng(seed ^ 0x6e6eULL);
  const data::CnnScalerConfig cfg;
  const std::size_t rows = cfg.input_time_rows, cols = cfg.input_rec_cols;
  qugeo::nn::Conv2d conv1(1, 8, 3, 1, 1, rng);
  qugeo::nn::Conv2d conv2(8, 8, 3, 1, 1, rng);
  qugeo::nn::Linear head(8 * (rows / 4) * (cols / 4), 256, rng);
  Tensor x1({1, 1, rows, cols}), x2({1, 8, rows / 2, cols / 2}),
      x3({1, 8 * (rows / 4) * (cols / 4)});
  for (Tensor* t : {&x1, &x2, &x3}) rng.fill_uniform(t->data_mut(), -1, 1);
  constexpr std::size_t kIters = 200;
  time_layer(conv1, x1, tracer, "nn.conv2d.fwd.1", "nn.conv2d.bwd.1", kIters);
  time_layer(conv2, x2, tracer, "nn.conv2d.fwd.2", "nn.conv2d.bwd.2", kIters);
  time_layer(head, x3, tracer, "nn.linear.fwd", "nn.linear.bwd", kIters);
  const auto us = [&](const char* name) { return median(tracer.durations(name)) * 1e6; };
  m["nn.conv2d.fwd_us"] = {us("nn.conv2d.fwd.1") + us("nn.conv2d.fwd.2"), "us"};
  m["nn.conv2d.bwd_us"] = {us("nn.conv2d.bwd.1") + us("nn.conv2d.bwd.2"), "us"};
  m["nn.linear.fwd_us"] = {us("nn.linear.fwd"), "us"};
  m["nn.linear.bwd_us"] = {us("nn.linear.bwd"), "us"};
}

class CorpusStage final : public Stage {
 public:
  CorpusStage(const CorpusScale& scale, std::uint64_t seed, Tally& tally)
      : scale_(scale), seed_(seed), tally_(tally) {}

  void rep() override {
    const std::size_t k = times_.size();
    const std::uint64_t seed = k == 0 ? kReferenceSeed : rep_seed(seed_, k);
    const Clock::time_point t0 = Clock::now();
    Corpus c = build_corpus(scale_, seed);
    times_.push_back(seconds_since(t0));
    ++tally_.attempted;
    check_corpus(c, scale_);
    if (k == 0) reference_ = std::move(c);
  }

  void report(Metrics& m, Tracer* tracer) override {
    // Mean, not median: see "Stage timings" in perfbench/README.md.
    m["corpus_s"] = {mean(times_), "s"};
    m["cnn_scaler_mse"] = {cnn_scaler_mse(reference_), "1"};
    if (tracer == nullptr) return;

    double cell_updates = 0;
    const Clock::time_point t0 = Clock::now();
    const Corpus traced = build_corpus_traced(scale_, kReferenceSeed, *tracer, cell_updates);
    const double traced_s = seconds_since(t0);
    check_corpus(traced, scale_);
    m["trace.overhead.corpus"] = {traced_s / times_.front(), "1"};
    m["trace.identical.corpus"] = {same_corpus(reference_, traced) ? 1.0 : 0.0, "1"};

    const std::vector<double> shots = tracer->durations("seismic.model_shots");
    double shots_total = 0;
    for (double d : shots) shots_total += d;
    m["seismic.model_shots.ms.p50"] = {median(shots) * 1e3, "ms"};
    m["seismic.model_shots.ms.p99"] = {quantile(shots, 0.99) * 1e3, "ms"};
    m["seismic.model_shots.count"] = {static_cast<double>(shots.size()), "count"};
    m["seismic.cell_updates_per_s"] = {cell_updates / shots_total, "1/s"};
    // Computed, not measured: one 3-read + 1-write double sweep per update.
    m["seismic.bytes_moved"] = {cell_updates * 4 * sizeof(Real), "B"};
    const auto us = [&](const char* name) { return median(tracer->durations(name)) * 1e6; };
    m["data.qdfw_remodel.ms"] = {us("data.qdfw_remodel") * 1e-3, "ms"};
    m["data.dsample.us"] = {us("data.dsample"), "us"};
    const double cnn_train_s = us("data.cnn_train") * 1e-6;
    m["data.cnn_train.s"] = {cnn_train_s, "s"};
    m["data.cnn_train.sample_steps_per_s"] = {
        static_cast<double>(scale_.cnn_samples * scale_.cnn_epochs) / cnn_train_s, "1/s"};
    m["data.cnn_compress.us"] = {us("data.cnn_compress"), "us"};
    probe_nn_layers(*tracer, m, seed_);
  }

 private:
  const CorpusScale scale_;
  const std::uint64_t seed_;
  Tally& tally_;
  std::vector<double> times_;
  Corpus reference_;
};

}  // namespace

std::unique_ptr<Stage> make_corpus_stage(const CorpusScale& scale, std::uint64_t seed,
                                         Tally& tally) {
  return std::make_unique<CorpusStage>(scale, seed, tally);
}

}  // namespace perfbench
