// Forward-modelling drivers: acquisition shapes, survey geometry, deferred
// shot volumes, the physics-guided remodel path used by Q-D-FW.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "seismic/forward_modeling.h"

namespace qugeo::seismic {
namespace {

TEST(Survey, ReceiverLineSpreadsEvenly) {
  const ReceiverLine line = make_receiver_line(70, 8);
  ASSERT_EQ(line.count(), 8u);
  EXPECT_EQ(line.ix.front(), 0u);
  EXPECT_EQ(line.ix.back(), 69u);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_GT(line.ix[i], line.ix[i - 1]);
}

TEST(Survey, SingleReceiverCentered) {
  const ReceiverLine line = make_receiver_line(70, 1);
  EXPECT_EQ(line.ix[0], 35u);
}

TEST(Survey, SourceLineValidation) {
  EXPECT_THROW((void)make_source_line(10, 0), std::invalid_argument);
  EXPECT_THROW((void)make_source_line(10, 11), std::invalid_argument);
}

TEST(Survey, SeismicDataLayoutIsSourceMajor) {
  SeismicData d(2, 3, 4);
  d.at(1, 2, 3) = 7.0;
  EXPECT_EQ(d.data()[(1 * 3 + 2) * 4 + 3], 7.0);
  const auto shot1 = d.shot_span(1);
  EXPECT_EQ(shot1.size(), 12u);
  EXPECT_EQ(shot1[2 * 4 + 3], 7.0);
}

TEST(Survey, SetShotValidatesShape) {
  SeismicData d(2, 3, 4);
  EXPECT_THROW(d.set_shot(0, ShotGather(3, 5)), std::invalid_argument);
  EXPECT_THROW(d.set_shot(2, ShotGather(3, 4)), std::out_of_range);
  EXPECT_THROW((void)d.shot_span(2), std::out_of_range);
}

TEST(Acquisition, OpenFwiShape) {
  const Acquisition acq = openfwi_acquisition();
  EXPECT_EQ(acq.num_sources, 5u);
  EXPECT_EQ(acq.num_receivers, 70u);
  EXPECT_EQ(acq.num_time_samples, 1000u);
  EXPECT_EQ(acq.wavelet_freq_hz, 15.0);
}

TEST(Acquisition, QuantumShapeIs256Values) {
  const Acquisition acq = quantum_acquisition();
  EXPECT_EQ(acq.num_sources * acq.num_time_samples * acq.num_receivers, 256u);
  EXPECT_EQ(acq.wavelet_freq_hz, 8.0);  // the 15 -> 8 Hz adjustment
}

TEST(ModelShots, ProducesRequestedVolume) {
  Rng rng(4);
  FlatVelConfig vcfg;
  vcfg.nz = 30;
  vcfg.nx = 30;
  const VelocityModel m = generate_flatvel(vcfg, rng);
  Acquisition acq;
  acq.num_sources = 3;
  acq.num_receivers = 10;
  acq.num_time_samples = 50;
  acq.wavelet_freq_hz = 12.0;
  const SeismicData d = model_shots(m, acq);
  EXPECT_EQ(d.nsrc(), 3u);
  EXPECT_EQ(d.nt(), 50u);
  EXPECT_EQ(d.nrec(), 10u);
  // The field must actually be non-trivial.
  Real peak = 0;
  for (Real v : d.data()) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 0.0);
}

TEST(ModelShots, DifferentSourcesProduceDifferentShots) {
  Rng rng(5);
  FlatVelConfig vcfg;
  vcfg.nz = 30;
  vcfg.nx = 30;
  const VelocityModel m = generate_flatvel(vcfg, rng);
  Acquisition acq;
  acq.num_sources = 2;
  acq.num_receivers = 6;
  acq.num_time_samples = 64;
  const SeismicData d = model_shots(m, acq);
  Real diff = 0;
  for (std::size_t t = 0; t < d.nt(); ++t)
    for (std::size_t r = 0; r < d.nrec(); ++r)
      diff += std::abs(d.at(0, t, r) - d.at(1, t, r));
  EXPECT_GT(diff, 0.0);
}

/// A small three-shot acquisition over a 30x30 FlatVel model.
struct SmallSurvey {
  VelocityModel model;
  Acquisition acq;
};

SmallSurvey small_survey(std::uint64_t seed) {
  Rng rng(seed);
  FlatVelConfig vcfg;
  vcfg.nz = 30;
  vcfg.nx = 30;
  SmallSurvey s{generate_flatvel(vcfg, rng), Acquisition{}};
  s.acq.num_sources = 3;
  s.acq.num_receivers = 10;
  s.acq.num_time_samples = 40;
  return s;
}

bool same_bits(std::span<const Real> a, std::span<const Real> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// A deferred 2 x 3 x 4 volume whose shot s holds s + 1 everywhere, counting
/// how often a shot is computed.
SeismicData counted_volume(std::atomic<int>& calls) {
  return SeismicData(2, 3, 4, [&calls](std::size_t s) {
    ++calls;
    ShotGather g(3, 4);
    for (Real& v : g.data_mut()) v = static_cast<Real>(s + 1);
    return g;
  });
}

TEST(DeferredShots, BitIdenticalToEagerInAnyReadOrder) {
  const SmallSurvey sv = small_survey(21);
  const SeismicData eager = model_shots(sv.model, sv.acq);
  const SeismicData lazy = defer_shots(sv.model, sv.acq);
  EXPECT_EQ(lazy.size(), eager.size());
  EXPECT_TRUE(same_bits(lazy.shot_span(2), eager.shot_span(2)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lazy.at(0, 17, 4)),
            std::bit_cast<std::uint64_t>(eager.at(0, 17, 4)));
  EXPECT_TRUE(same_bits(lazy.data(), eager.data()));
  EXPECT_TRUE(same_bits(lazy.shot_span(1), eager.shot_span(1)));
}

TEST(DeferredShots, SimulatesEachShotOnceOnFirstRead) {
  std::atomic<int> calls{0};
  const SeismicData d = counted_volume(calls);
  EXPECT_EQ(d.size(), 24u);
  EXPECT_EQ(d.nsrc() * d.nt() * d.nrec(), 24u);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(d.at(1, 2, 3), 2.0);
  EXPECT_EQ(d.shot_span(1)[5], 2.0);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(d.data()[0], 1.0);
  EXPECT_EQ(d.data()[23], 2.0);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_THROW((void)d.shot_span(2), std::out_of_range);
  EXPECT_THROW((void)d.at(2, 0, 0), std::out_of_range);
}

TEST(DeferredShots, CopiesShareTheMemoAndAWriteDetaches) {
  std::atomic<int> calls{0};
  SeismicData a = counted_volume(calls);
  SeismicData b = a;
  EXPECT_EQ(std::as_const(b).at(1, 0, 0), 2.0);
  EXPECT_EQ(std::as_const(a).at(1, 0, 0), 2.0);
  EXPECT_EQ(calls.load(), 1);
  // A write forces the pending shot, then gives b its own buffer.
  b.at(1, 0, 0) = 99.0;
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(std::as_const(a).at(1, 0, 0), 2.0);
  EXPECT_EQ(std::as_const(b).at(1, 0, 0), 99.0);
  b.set_shot(0, ShotGather(3, 4));
  EXPECT_EQ(b.data()[0], 0.0);
  EXPECT_EQ(a.data()[0], 1.0);
  a.data_mut()[0] = -1.0;
  EXPECT_EQ(b.data()[0], 0.0);
  EXPECT_EQ(calls.load(), 2);
}

TEST(DeferredShots, ShotFunctionOfTheWrongShapeThrows) {
  const SeismicData d(1, 3, 4, [](std::size_t) { return ShotGather(3, 5); });
  EXPECT_THROW((void)d.data(), std::invalid_argument);
  EXPECT_THROW(SeismicData(1, 3, 4, SeismicData::ShotFn{}), std::invalid_argument);
}

TEST(DeferredShots, KeepTheSimdLevelOfTheCreatingThread) {
  const SmallSurvey sv = small_survey(22);
  const std::size_t before = num_threads();
  SeismicData eager_scalar, lazy;
  {
    // One thread: every eager shot runs here, inside the scope.
    set_num_threads(1);
    const simd::ScopedSimdMode scalar(simd::SimdMode::kScalar);
    eager_scalar = model_shots(sv.model, sv.acq);
    lazy = defer_shots(sv.model, sv.acq);
  }
  // Read outside the scope, shot 1 on this thread first, then the rest fanned
  // over the pool: every shot still runs the scalar kernels.
  set_num_threads(4);
  EXPECT_TRUE(same_bits(lazy.shot_span(1), eager_scalar.shot_span(1)));
  EXPECT_TRUE(same_bits(lazy.data(), eager_scalar.data()));
  set_num_threads(before);
}

TEST(DeferredShots, ConcurrentReadsFromPoolThreads) {
  const SmallSurvey sv = small_survey(23);
  const SeismicData eager = model_shots(sv.model, sv.acq);
  const SeismicData lazy = defer_shots(sv.model, sv.acq);
  const std::size_t before = num_threads();
  set_num_threads(4);
  std::vector<Real> got(64);
  parallel_for(0, got.size(), [&](std::size_t i) {
    got[i] = lazy.at(i % 3, (7 * i) % 40, i % 10);
  });
  set_num_threads(before);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(eager.at(i % 3, (7 * i) % 40, i % 10)))
        << "read " << i;
  EXPECT_TRUE(same_bits(lazy.data(), eager.data()));
}

TEST(PhysicsRemodel, ProducesQuantumScaleData) {
  Rng rng(6);
  const VelocityModel m = generate_flatvel(FlatVelConfig{}, rng);
  const Acquisition acq = quantum_acquisition();
  const SeismicData d = physics_guided_remodel(m, 8, 8, acq, 8);
  EXPECT_EQ(d.size(), 256u);
  Real peak = 0;
  for (Real v : d.data()) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 0.0);
}

TEST(PhysicsRemodel, SensitiveToVelocityModel) {
  // Different subsurfaces must give different quantum-scale gathers —
  // otherwise the learning task would be vacuous.
  Rng rng(7);
  const VelocityModel m1 = generate_flatvel(FlatVelConfig{}, rng);
  const VelocityModel m2 = generate_flatvel(FlatVelConfig{}, rng);
  const Acquisition acq = quantum_acquisition();
  const SeismicData d1 = physics_guided_remodel(m1, 8, 8, acq);
  const SeismicData d2 = physics_guided_remodel(m2, 8, 8, acq);
  Real diff = 0;
  for (std::size_t k = 0; k < d1.size(); ++k)
    diff += std::abs(d1.data()[k] - d2.data()[k]);
  EXPECT_GT(diff, 0.0);
}

TEST(PhysicsRemodel, RefineZeroRejected) {
  Rng rng(8);
  const VelocityModel m = generate_flatvel(FlatVelConfig{}, rng);
  EXPECT_THROW((void)physics_guided_remodel(m, 8, 8, quantum_acquisition(), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace qugeo::seismic
