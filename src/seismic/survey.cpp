#include "seismic/survey.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "common/parallel.h"

namespace qugeo::seismic {

ReceiverLine make_receiver_line(std::size_t nx, std::size_t count,
                                std::size_t iz) {
  if (count == 0 || count > nx)
    throw std::invalid_argument("make_receiver_line: bad receiver count");
  ReceiverLine line;
  line.iz = iz;
  line.ix.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    line.ix[i] = (count == 1) ? nx / 2 : i * (nx - 1) / (count - 1);
  return line;
}

std::vector<GridPos> make_source_line(std::size_t nx, std::size_t count,
                                      std::size_t iz) {
  if (count == 0 || count > nx)
    throw std::invalid_argument("make_source_line: bad source count");
  std::vector<GridPos> sources(count);
  for (std::size_t i = 0; i < count; ++i)
    sources[i] = {iz, (count == 1) ? nx / 2 : i * (nx - 1) / (count - 1)};
  return sources;
}

ShotGather::ShotGather(std::size_t nt, std::size_t nrec)
    : nt_(nt), nrec_(nrec), data_(nt * nrec, Real(0)) {}

/// The shots of a deferred volume and the function that computes them.
/// samples is left uninitialized: shot s's slice is written once, inside
/// once[s], and read only after that call_once returned.
struct SeismicData::Memo {
  std::size_t nsrc, nt, nrec;
  ShotFn shot_fn;
  std::unique_ptr<Real[]> samples;
  std::unique_ptr<std::once_flag[]> once;
  /// Set after data() forced every shot, so later calls skip the fan-out.
  std::atomic<bool> complete{false};

  Memo(std::size_t n_src, std::size_t n_t, std::size_t n_rec, ShotFn fn)
      : nsrc(n_src), nt(n_t), nrec(n_rec), shot_fn(std::move(fn)),
        samples(new Real[n_src * n_t * n_rec]),
        once(new std::once_flag[n_src]) {}

  const Real* shot(std::size_t s) {
    if (s >= nsrc) throw std::out_of_range("SeismicData: shot index");
    Real* dst = samples.get() + s * nt * nrec;
    std::call_once(once[s], [&] {
      const ShotGather g = shot_fn(s);
      if (g.nt() != nt || g.nrec() != nrec)
        throw std::invalid_argument("SeismicData: shot function shape mismatch");
      std::copy(g.data().begin(), g.data().end(), dst);
    });
    return dst;
  }
};

SeismicData::SeismicData(std::size_t nsrc, std::size_t nt, std::size_t nrec)
    : nsrc_(nsrc), nt_(nt), nrec_(nrec), data_(nsrc * nt * nrec, Real(0)) {}

SeismicData::SeismicData(std::size_t nsrc, std::size_t nt, std::size_t nrec,
                         ShotFn shot_fn)
    : nsrc_(nsrc), nt_(nt), nrec_(nrec) {
  if (!shot_fn) throw std::invalid_argument("SeismicData: empty shot function");
  memo_ = std::make_shared<Memo>(nsrc, nt, nrec, std::move(shot_fn));
}

std::span<const Real> SeismicData::data() const {
  if (!memo_) return data_;
  Memo& memo = *memo_;
  if (!memo.complete.load(std::memory_order_acquire)) {
    // Shots are independent wave propagations writing disjoint slices; a
    // shot another reader already forced returns from its call_once at once.
    parallel_for(0, nsrc_, [&memo](std::size_t s) { (void)memo.shot(s); });
    memo.complete.store(true, std::memory_order_release);
  }
  return {memo.samples.get(), size()};
}

const Real* SeismicData::memo_shot(std::size_t s) const { return memo_->shot(s); }

void SeismicData::detach() {
  const std::span<const Real> all = data();
  data_.assign(all.begin(), all.end());
  memo_.reset();
}

void SeismicData::set_shot(std::size_t s, const ShotGather& shot) {
  if (shot.nt() != nt_ || shot.nrec() != nrec_)
    throw std::invalid_argument("SeismicData::set_shot: shape mismatch");
  if (s >= nsrc_) throw std::out_of_range("SeismicData::set_shot");
  const std::span<Real> dst = data_mut().subspan(s * nt_ * nrec_, nt_ * nrec_);
  std::copy(shot.data().begin(), shot.data().end(), dst.begin());
}

std::span<const Real> SeismicData::shot_span(std::size_t s) const {
  if (s >= nsrc_) throw std::out_of_range("SeismicData::shot_span");
  if (memo_) return {memo_->shot(s), nt_ * nrec_};
  return std::span<const Real>(data_).subspan(s * nt_ * nrec_, nt_ * nrec_);
}

}  // namespace qugeo::seismic
