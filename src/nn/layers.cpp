#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qugeo::nn {

std::size_t Layer::param_count() {
  std::size_t n = 0;
  for (const Param* p : params()) n += p->numel();
  return n;
}

// ---------------------------------------------------------------- Conv2d --

namespace {

/// Output extent of a padded, strided window sweep along one axis.
std::size_t conv_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride, std::size_t padding) {
  if (kernel > in + 2 * padding)
    throw std::invalid_argument("Conv2d: kernel larger than the padded input");
  return (in + 2 * padding - kernel) / stride + 1;
}

/// The kernel taps of one output position that land inside the input
/// along one axis: taps [lo, lo + count), tap `lo` reading input index
/// `in0`. The padded taps outside are exactly the ones the per-tap
/// formulation skips, so looping over this range keeps each output's
/// accumulation order.
struct TapRange {
  std::size_t lo, count, in0;
};

std::vector<TapRange> tap_ranges(std::size_t out, std::size_t in,
                                 std::size_t kernel, std::size_t stride,
                                 std::size_t padding) {
  std::vector<TapRange> ranges(out);
  for (std::size_t o = 0; o < out; ++o) {
    const std::size_t start = o * stride;  // tap k reads start + k - padding
    const std::size_t lo = std::min(kernel, padding > start ? padding - start : 0);
    const std::size_t end = in + padding > start ? in + padding - start : 0;
    const std::size_t hi = std::clamp(end, lo, kernel);
    if (hi > lo) ranges[o] = {lo, hi - lo, start + lo - padding};
    // else: a window entirely in the padding reads nothing ({0, 0, 0}).
  }
  return ranges;
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}) {
  if (stride == 0) throw std::invalid_argument("Conv2d: stride must be > 0");
  weight_.value.init_kaiming(rng, in_channels * kernel * kernel);
  bias_.value.zero();
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_ch_)
    throw std::invalid_argument("Conv2d: expected [N, C_in, H, W]");
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = conv_out_extent(h, kernel_, stride_, padding_);
  const std::size_t ow = conv_out_extent(w, kernel_, stride_, padding_);
  input_ = x;
  const auto rows = tap_ranges(oh, h, kernel_, stride_, padding_);
  const auto cols = tap_ranges(ow, w, kernel_, stride_, padding_);
  Tensor y({n, out_ch_, oh, ow});
  const std::size_t k = kernel_, kk = k * k, plane = h * w;
  const Real* xd = x.data().data();
  const Real* wd = weight_.value.data().data();
  const Real* bd = bias_.value.data().data();
  Real* yd = y.data_mut().data();
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < out_ch_; ++oc)
      for (std::size_t i = 0; i < oh; ++i)
        for (std::size_t j = 0; j < ow; ++j) {
          const TapRange r = rows[i], c = cols[j];
          Real acc = bd[oc];
          for (std::size_t ic = 0; ic < in_ch_ && r.count != 0; ++ic) {
            const Real* wp = wd + ((oc * in_ch_ + ic) * kk + r.lo * k + c.lo);
            const Real* xp = xd + ((b * in_ch_ + ic) * plane + r.in0 * w + c.in0);
            // The row pointers advance only between rows, so none is ever
            // formed past the end of its buffer (hence the empty-row test).
            for (std::size_t ki = 0;;) {
              for (std::size_t kj = 0; kj < c.count; ++kj) acc += wp[kj] * xp[kj];
              if (++ki == r.count) break;
              wp += k;
              xp += w;
            }
          }
          *yd++ = acc;
        }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (input_.rank() != 4)
    throw std::invalid_argument("Conv2d::backward called before forward");
  const std::size_t n = input_.dim(0), h = input_.dim(2), w = input_.dim(3);
  const std::size_t oh = conv_out_extent(h, kernel_, stride_, padding_);
  const std::size_t ow = conv_out_extent(w, kernel_, stride_, padding_);
  if (grad_out.shape() != std::vector<std::size_t>{n, out_ch_, oh, ow})
    throw std::invalid_argument("Conv2d::backward: grad_out shape differs from the output");
  const auto rows = tap_ranges(oh, h, kernel_, stride_, padding_);
  const auto cols = tap_ranges(ow, w, kernel_, stride_, padding_);
  Tensor grad_in(input_.shape());
  const std::size_t k = kernel_, kk = k * k, plane = h * w;
  const Real* gd = grad_out.data().data();
  const Real* xd = input_.data().data();
  const Real* wd = weight_.value.data().data();
  Real* wg = weight_.grad.data_mut().data();
  Real* bg = bias_.grad.data_mut().data();
  Real* gi = grad_in.data_mut().data();
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < out_ch_; ++oc)
      for (std::size_t i = 0; i < oh; ++i)
        for (std::size_t j = 0; j < ow; ++j) {
          const Real g = *gd++;
          bg[oc] += g;
          const TapRange r = rows[i], c = cols[j];
          if (r.count == 0) continue;
          for (std::size_t ic = 0; ic < in_ch_; ++ic) {
            const std::size_t wo = (oc * in_ch_ + ic) * kk + r.lo * k + c.lo;
            const std::size_t xo = (b * in_ch_ + ic) * plane + r.in0 * w + c.in0;
            const Real* wp = wd + wo;
            Real* wgp = wg + wo;
            const Real* xp = xd + xo;
            Real* gip = gi + xo;
            for (std::size_t ki = 0;;) {  // as in forward()
              for (std::size_t kj = 0; kj < c.count; ++kj) {
                wgp[kj] += g * xp[kj];
                gip[kj] += g * wp[kj];
              }
              if (++ki == r.count) break;
              wp += k;
              wgp += k;
              xp += w;
              gip += w;
            }
          }
        }
  return grad_in;
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  weight_.value.init_kaiming(rng, in_features);
  bias_.value.zero();
}

Tensor Linear::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_f_)
    throw std::invalid_argument("Linear: expected [N, in_features]");
  input_ = x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_f_});
  const Real* wd = weight_.value.data().data();
  const Real* bd = bias_.value.data().data();
  for (std::size_t b = 0; b < n; ++b) {
    const Real* xb = x.data().data() + b * in_f_;
    Real* yb = y.data_mut().data() + b * out_f_;
    // Four output rows share each x load; every row keeps its own
    // accumulator, summed in input order.
    std::size_t o = 0;
    for (; o + 4 <= out_f_; o += 4) {
      const Real* w0 = wd + o * in_f_;
      const Real* w1 = w0 + in_f_;
      const Real* w2 = w1 + in_f_;
      const Real* w3 = w2 + in_f_;
      Real a0 = bd[o], a1 = bd[o + 1], a2 = bd[o + 2], a3 = bd[o + 3];
      for (std::size_t i = 0; i < in_f_; ++i) {
        const Real xi = xb[i];
        a0 += w0[i] * xi;
        a1 += w1[i] * xi;
        a2 += w2[i] * xi;
        a3 += w3[i] * xi;
      }
      yb[o] = a0;
      yb[o + 1] = a1;
      yb[o + 2] = a2;
      yb[o + 3] = a3;
    }
    for (; o < out_f_; ++o) {
      const Real* wr = wd + o * in_f_;
      Real acc = bd[o];
      for (std::size_t i = 0; i < in_f_; ++i) acc += wr[i] * xb[i];
      yb[o] = acc;
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (input_.rank() != 2)
    throw std::invalid_argument("Linear::backward called before forward");
  const std::size_t n = input_.dim(0);
  if (grad_out.shape() != std::vector<std::size_t>{n, out_f_})
    throw std::invalid_argument("Linear::backward: grad_out shape differs from the output");
  Tensor grad_in({n, in_f_});
  const Real* wd = weight_.value.data().data();
  Real* wg = weight_.grad.data_mut().data();
  Real* bg = bias_.grad.data_mut().data();
  for (std::size_t b = 0; b < n; ++b) {
    const Real* xb = input_.data().data() + b * in_f_;
    const Real* gb = grad_out.data().data() + b * out_f_;
    Real* gib = grad_in.data_mut().data() + b * in_f_;
    for (std::size_t o = 0; o < out_f_; ++o) {
      const Real g = gb[o];
      bg[o] += g;
      Real* wgr = wg + o * in_f_;
      const Real* wr = wd + o * in_f_;
      for (std::size_t i = 0; i < in_f_; ++i) wgr[i] += g * xb[i];
      for (std::size_t i = 0; i < in_f_; ++i) gib[i] += g * wr[i];
    }
  }
  return grad_in;
}

// ------------------------------------------------------------------ ReLU --

Tensor ReLU::forward(const Tensor& x) {
  input_ = x;
  Tensor y = x;
  for (auto& v : y.data_mut())
    if (v < 0) v = 0;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (input_.rank() == 0)
    throw std::invalid_argument("ReLU::backward called before forward");
  if (grad_out.shape() != input_.shape())
    throw std::invalid_argument("ReLU::backward: grad_out shape differs from the output");
  Tensor grad_in = grad_out;
  auto gi = grad_in.data_mut();
  const auto xi = input_.data();
  for (std::size_t k = 0; k < gi.size(); ++k)
    if (xi[k] <= 0) gi[k] = 0;
  return grad_in;
}

// --------------------------------------------------------------- Sigmoid --

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data_mut()) v = Real(1) / (Real(1) + std::exp(-v));
  output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  if (output_.rank() == 0)
    throw std::invalid_argument("Sigmoid::backward called before forward");
  if (grad_out.shape() != output_.shape())
    throw std::invalid_argument("Sigmoid::backward: grad_out shape differs from the output");
  Tensor grad_in = grad_out;
  auto gi = grad_in.data_mut();
  const auto yo = output_.data();
  for (std::size_t k = 0; k < gi.size(); ++k)
    gi[k] *= yo[k] * (Real(1) - yo[k]);
  return grad_in;
}

// ------------------------------------------------------------- MaxPool2d --

MaxPool2d::MaxPool2d(std::size_t kernel) : kernel_(kernel) {
  if (kernel == 0) throw std::invalid_argument("MaxPool2d: kernel must be > 0");
}

Tensor MaxPool2d::forward(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2d: expected 4-D input");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / kernel_, ow = w / kernel_;
  Tensor y({n, c, oh, ow});
  argmax_.assign(y.numel(), 0);
  std::size_t out_idx = 0;
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t ch = 0; ch < c; ++ch)
      for (std::size_t i = 0; i < oh; ++i)
        for (std::size_t j = 0; j < ow; ++j, ++out_idx) {
          // A window with no value above -inf (all -inf or NaN) routes its
          // gradient to its own first cell.
          Real best = -std::numeric_limits<Real>::infinity();
          std::size_t best_flat = ((b * c + ch) * h + i * kernel_) * w + j * kernel_;
          for (std::size_t ki = 0; ki < kernel_; ++ki)
            for (std::size_t kj = 0; kj < kernel_; ++kj) {
              const std::size_t ih = i * kernel_ + ki, iw = j * kernel_ + kj;
              const Real v = x.at4(b, ch, ih, iw);
              if (v > best) {
                best = v;
                best_flat = ((b * c + ch) * h + ih) * w + iw;
              }
            }
          y.at4(b, ch, i, j) = best;
          argmax_[out_idx] = best_flat;
        }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (in_shape_.size() != 4)
    throw std::invalid_argument("MaxPool2d::backward called before forward");
  if (grad_out.shape() != std::vector<std::size_t>{in_shape_[0], in_shape_[1],
                                                   in_shape_[2] / kernel_,
                                                   in_shape_[3] / kernel_})
    throw std::invalid_argument("MaxPool2d::backward: grad_out shape differs from the output");
  Tensor grad_in(in_shape_);
  const auto go = grad_out.data();
  auto gi = grad_in.data_mut();
  for (std::size_t k = 0; k < go.size(); ++k) gi[argmax_[k]] += go[k];
  return grad_in;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  if (x.rank() == 0 || x.dim(0) == 0)
    throw std::invalid_argument("Flatten: expected a non-empty batch");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0);
  return x.reshaped({n, x.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ------------------------------------------------------------ Sequential --

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) all.push_back(p);
  return all;
}

}  // namespace qugeo::nn
