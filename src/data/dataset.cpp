#include "data/dataset.h"

#include <stdexcept>

namespace qugeo::data {

RawDataset generate_raw_dataset(std::size_t count,
                                const seismic::FlatVelConfig& vel_cfg,
                                const seismic::Acquisition& acq, Rng& rng) {
  RawDataset ds;
  ds.velocity_config = vel_cfg;
  ds.acquisition = acq;
  ds.samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RawSample s{seismic::generate_flatvel(vel_cfg, rng), {}};
    s.seismic = seismic::defer_shots(s.velocity, acq);
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

SplitView split_dataset(std::size_t total, std::size_t train_count) {
  if (train_count > total)
    throw std::invalid_argument("split_dataset: train_count > total");
  SplitView split;
  split.train.reserve(train_count);
  split.test.reserve(total - train_count);
  for (std::size_t i = 0; i < total; ++i)
    (i < train_count ? split.train : split.test).push_back(i);
  return split;
}

}  // namespace qugeo::data
