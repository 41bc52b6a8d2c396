#include "seismic/wavelet.h"

#include <cmath>
#include <stdexcept>

namespace qugeo::seismic {

RickerWavelet::RickerWavelet(Real peak_freq_hz, Real delay_s)
    : freq_(peak_freq_hz),
      delay_(delay_s < 0 ? Real(1.5) / peak_freq_hz : delay_s) {
  if (peak_freq_hz <= 0)
    throw std::invalid_argument("RickerWavelet: frequency must be positive");
}

namespace {

/// The one evaluation of w(t) both entry points share. Out of line, so t
/// always arrives materialized: inlined into sample()'s loop, an FMA build
/// would fuse i * dt into t - delay there but not in operator().
[[gnu::noinline]] Real ricker(Real freq, Real delay, Real t) noexcept {
  const Real arg = kPi * freq * (t - delay);
  const Real a = arg * arg;
  return (Real(1) - 2 * a) * std::exp(-a);
}

}  // namespace

Real RickerWavelet::operator()(Real t) const noexcept {
  return ricker(freq_, delay_, t);
}

std::vector<Real> RickerWavelet::sample(std::size_t nt, Real dt) const {
  std::vector<Real> w(nt);
  for (std::size_t i = 0; i < nt; ++i)
    w[i] = ricker(freq_, delay_, static_cast<Real>(i) * dt);
  return w;
}

}  // namespace qugeo::seismic
