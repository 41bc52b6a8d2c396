// Acquisition geometry: source positions, receiver arrays, and the recorded
// shot-gather container (the "seismic data" of Figure 1b).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"

namespace qugeo::seismic {

/// Grid-indexed point position (iz = depth row, ix = horizontal column).
struct GridPos {
  std::size_t iz = 0;
  std::size_t ix = 0;
};

/// A line of receivers at fixed depth.
struct ReceiverLine {
  std::size_t iz = 0;
  std::vector<std::size_t> ix;

  [[nodiscard]] std::size_t count() const noexcept { return ix.size(); }
};

/// Evenly spread `count` receivers across [0, nx) at depth row iz.
[[nodiscard]] ReceiverLine make_receiver_line(std::size_t nx, std::size_t count,
                                              std::size_t iz = 0);

/// Evenly spread `count` surface sources across [0, nx).
[[nodiscard]] std::vector<GridPos> make_source_line(std::size_t nx,
                                                    std::size_t count,
                                                    std::size_t iz = 0);

/// Pressure traces for one shot: nt time samples x nrec receivers,
/// row-major over (t, receiver).
class ShotGather {
 public:
  ShotGather() = default;
  ShotGather(std::size_t nt, std::size_t nrec);

  [[nodiscard]] std::size_t nt() const noexcept { return nt_; }
  [[nodiscard]] std::size_t nrec() const noexcept { return nrec_; }
  [[nodiscard]] std::span<const Real> data() const noexcept { return data_; }
  [[nodiscard]] std::span<Real> data_mut() noexcept { return data_; }

  [[nodiscard]] Real at(std::size_t t, std::size_t r) const {
    return data_[t * nrec_ + r];
  }
  Real& at(std::size_t t, std::size_t r) { return data_[t * nrec_ + r]; }

 private:
  std::size_t nt_ = 0, nrec_ = 0;
  std::vector<Real> data_;
};

/// Multi-shot seismic volume: nsrc x nt x nrec, source-major (so grouping
/// per source — as the ST-Encoder requires — is a contiguous slice).
///
/// A volume is either owned (plain samples) or deferred. A deferred volume
/// holds a shot function instead of samples: shot s is computed on its
/// first read (at(s, ..), shot_span(s)) and kept, exactly once even under
/// concurrent readers. data() forces every pending shot, fanned over the
/// pool. Copies share the computed shots; a write (data_mut, non-const at,
/// set_shot) forces all shots, then detaches the written copy to a buffer
/// of its own. size() and the dims never force a shot.
class SeismicData {
 public:
  /// Computes shot s of a deferred volume as an nt x nrec gather.
  using ShotFn = std::function<ShotGather(std::size_t s)>;

  SeismicData() = default;
  /// Owned, zero-filled volume.
  SeismicData(std::size_t nsrc, std::size_t nt, std::size_t nrec);
  /// Deferred volume: shot s is shot_fn(s), run on the first read of s.
  SeismicData(std::size_t nsrc, std::size_t nt, std::size_t nrec,
              ShotFn shot_fn);

  [[nodiscard]] std::size_t nsrc() const noexcept { return nsrc_; }
  [[nodiscard]] std::size_t nt() const noexcept { return nt_; }
  [[nodiscard]] std::size_t nrec() const noexcept { return nrec_; }
  [[nodiscard]] std::size_t size() const noexcept { return nsrc_ * nt_ * nrec_; }
  /// Every sample; forces all pending shots.
  [[nodiscard]] std::span<const Real> data() const;
  [[nodiscard]] std::span<Real> data_mut() {
    if (memo_) detach();
    return data_;
  }

  [[nodiscard]] Real at(std::size_t s, std::size_t t, std::size_t r) const {
    const Real* shot = memo_ ? memo_shot(s) : data_.data() + s * nt_ * nrec_;
    return shot[t * nrec_ + r];
  }
  Real& at(std::size_t s, std::size_t t, std::size_t r) {
    return data_mut()[(s * nt_ + t) * nrec_ + r];
  }

  /// Copy one shot in.
  void set_shot(std::size_t s, const ShotGather& shot);

  /// Contiguous view of one shot's samples; forces only that shot.
  [[nodiscard]] std::span<const Real> shot_span(std::size_t s) const;

 private:
  struct Memo;

  /// Shot s of the memo, computed on first use.
  [[nodiscard]] const Real* memo_shot(std::size_t s) const;
  /// Force every shot, copy them into data_, drop the memo.
  void detach();

  std::size_t nsrc_ = 0, nt_ = 0, nrec_ = 0;
  std::vector<Real> data_;      ///< owned samples (empty while deferred)
  std::shared_ptr<Memo> memo_;  ///< set while deferred, shared by copies
};

}  // namespace qugeo::seismic
