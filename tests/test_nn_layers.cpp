// Layer forward/backward: every layer's parameter and input gradients are
// checked against central finite differences on random data; Conv2d and
// Linear are also pinned bit for bit to textbook per-tap loops (see
// kBitExact), and their shape misuse is checked to throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>

#include "nn/layers.h"
#include "nn/loss.h"

namespace qugeo::nn {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t.data_mut(), -1, 1);
  return t;
}

/// Scalar loss = sum of elementwise products with fixed random weights;
/// gives a dense, nontrivial gradient at the output.
struct ProbeLoss {
  Tensor weights;

  explicit ProbeLoss(const Tensor& like, Rng& rng) : weights(like.shape()) {
    rng.fill_uniform(weights.data_mut(), -1, 1);
  }
  Real value(const Tensor& y) const {
    Real s = 0;
    for (std::size_t i = 0; i < y.numel(); ++i) s += weights[i] * y[i];
    return s;
  }
  Tensor grad() const { return weights; }
};

/// Check dL/d(input) and dL/d(params) of `layer` against finite differences.
void grad_check(Layer& layer, Tensor input, Real tol = 1e-5) {
  Rng rng(777);
  Tensor out = layer.forward(input);
  ProbeLoss loss(out, rng);

  for (Param* p : layer.params()) p->grad.zero();
  const Tensor din = layer.backward(loss.grad());

  const Real eps = 1e-5;
  // Input gradient.
  for (std::size_t i = 0; i < input.numel(); ++i) {
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const Real fd =
        (loss.value(layer.forward(plus)) - loss.value(layer.forward(minus))) /
        (2 * eps);
    ASSERT_NEAR(din[i], fd, tol) << "input grad " << i;
  }
  // Parameter gradients (layer caches from the last forward; rerun first).
  (void)layer.forward(input);
  for (Param* p : layer.params()) p->grad.zero();
  (void)layer.backward(loss.grad());
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      const Real saved = p->value[i];
      p->value[i] = saved + eps;
      const Real lp = loss.value(layer.forward(input));
      p->value[i] = saved - eps;
      const Real lm = loss.value(layer.forward(input));
      p->value[i] = saved;
      ASSERT_NEAR(p->grad[i], (lp - lm) / (2 * eps), tol) << "param grad " << i;
    }
  }
}

// The default x86-64 build has no FMA instructions, so both loop shapes
// round every product and every sum and must agree bit for bit. Where the
// compiler may fuse a multiply-add (-march=native with FMA, other targets),
// whether it does depends on the loop's shape, so the two agree to rounding.
#if defined(__x86_64__) && !defined(__FMA__)
constexpr bool kBitExact = true;
#else
constexpr bool kBitExact = false;
#endif

/// Same shape and, per element, the same bits (to rounding where the build
/// may contract multiply-adds, see kBitExact).
void expect_same(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    if (kBitExact)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << what << " element " << i << ": " << got[i] << " vs " << want[i];
    else
      ASSERT_NEAR(got[i], want[i], 1e-12 * std::max(Real(1), std::abs(want[i])))
          << what << " element " << i;
  }
}

/// Outputs and gradients of one layer's forward + backward pass.
struct Pass {
  Tensor y, grad_in, grad_w, grad_b;
};

/// Textbook Conv2d: every kernel tap visited in (ic, ki, kj) order under the
/// (b, oc, i, j) output nest, padded taps skipped by a per-tap bounds test.
Pass conv_reference(const Tensor& x, const Tensor& weight, const Tensor& bias,
                    const Tensor& grad_out, std::size_t stride, std::size_t padding) {
  const std::size_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t cout = weight.dim(0), k = weight.dim(2);
  const std::size_t oh = (h + 2 * padding - k) / stride + 1;
  const std::size_t ow = (w + 2 * padding - k) / stride + 1;
  Pass r{Tensor({n, cout, oh, ow}), Tensor(x.shape()), Tensor(weight.shape()),
         Tensor(bias.shape())};
  const auto tap = [&](std::size_t o, std::size_t kt, std::size_t extent,
                       std::size_t& in) {
    const auto v = static_cast<std::ptrdiff_t>(o * stride + kt) -
                   static_cast<std::ptrdiff_t>(padding);
    in = static_cast<std::size_t>(v);
    return v >= 0 && v < static_cast<std::ptrdiff_t>(extent);
  };
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < cout; ++oc)
      for (std::size_t i = 0; i < oh; ++i)
        for (std::size_t j = 0; j < ow; ++j) {
          Real acc = bias[oc];
          const Real g = grad_out.at4(b, oc, i, j);
          r.grad_b[oc] += g;
          for (std::size_t ic = 0; ic < cin; ++ic)
            for (std::size_t ki = 0; ki < k; ++ki)
              for (std::size_t kj = 0; kj < k; ++kj) {
                std::size_t ih = 0, iw = 0;
                if (!tap(i, ki, h, ih) || !tap(j, kj, w, iw)) continue;
                acc += weight.at4(oc, ic, ki, kj) * x.at4(b, ic, ih, iw);
                r.grad_w.at4(oc, ic, ki, kj) += g * x.at4(b, ic, ih, iw);
                r.grad_in.at4(b, ic, ih, iw) += g * weight.at4(oc, ic, ki, kj);
              }
          r.y.at4(b, oc, i, j) = acc;
        }
  return r;
}

/// Textbook Linear: one in-order dot product per output.
Pass linear_reference(const Tensor& x, const Tensor& weight, const Tensor& bias,
                      const Tensor& grad_out) {
  const std::size_t n = x.dim(0), in = x.dim(1), out = weight.dim(0);
  Pass r{Tensor({n, out}), Tensor(x.shape()), Tensor(weight.shape()),
         Tensor(bias.shape())};
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t o = 0; o < out; ++o) {
      Real acc = bias[o];
      const Real g = grad_out.at2(b, o);
      r.grad_b[o] += g;
      for (std::size_t i = 0; i < in; ++i) {
        acc += weight.at2(o, i) * x.at2(b, i);
        r.grad_w.at2(o, i) += g * x.at2(b, i);
        r.grad_in.at2(b, i) += g * weight.at2(o, i);
      }
      r.y.at2(b, o) = acc;
    }
  return r;
}

/// Run `layer` forward and backward (with a random upstream gradient) and
/// collect the results in the reference's shape.
template <typename RefFn>
void expect_matches_reference(Layer& layer, const Tensor& x, Rng& rng,
                              RefFn&& reference) {
  const std::vector<Param*> ps = layer.params();
  rng.fill_uniform(ps[1]->value.data_mut(), -1, 1);  // nonzero biases
  Pass got;
  got.y = layer.forward(x);
  const Tensor grad_out = random_tensor(got.y.shape(), rng);
  got.grad_in = layer.backward(grad_out);
  const Pass want = reference(ps[0]->value, ps[1]->value, grad_out);
  expect_same(got.y, want.y, "output");
  expect_same(got.grad_in, want.grad_in, "grad_in");
  expect_same(ps[0]->grad, want.grad_w, "weight grad");
  expect_same(ps[1]->grad, want.grad_b, "bias grad");
}

TEST(Conv2d, BitIdenticalToPerTapReference) {
  // Covers every tap-range shape the contiguous loops special-case:
  // windows clipped on one or both sides, windows wholly inside, strided
  // windows skipping input columns, and H != W.
  Rng rng(21);
  for (std::size_t k : {1u, 3u, 5u})
    for (std::size_t stride : {1u, 2u})
      for (std::size_t padding : {0u, 1u, 2u})
        for (std::size_t cin : {1u, 3u}) {
          SCOPED_TRACE(testing::Message() << "kernel " << k << " stride " << stride
                                          << " padding " << padding << " C_in " << cin);
          Conv2d conv(cin, 2, k, stride, padding, rng);
          const Tensor x = random_tensor({2, cin, 7, 6}, rng);
          expect_matches_reference(
              conv, x, rng, [&](const Tensor& w, const Tensor& b, const Tensor& g) {
                return conv_reference(x, w, b, g, stride, padding);
              });
        }
}

TEST(Linear, BitIdenticalToReference) {
  // 4-row blocks plus a 3-row tail (out % 4 != 0), and an exact multiple.
  Rng rng(22);
  for (std::size_t out : {7u, 8u, 1u}) {
    SCOPED_TRACE(testing::Message() << "out_features " << out);
    Linear lin(13, out, rng);
    const Tensor x = random_tensor({3, 13}, rng);
    expect_matches_reference(
        lin, x, rng, [&](const Tensor& w, const Tensor& b, const Tensor& g) {
          return linear_reference(x, w, b, g);
        });
  }
}

TEST(Conv2d, KernelLargerThanPaddedInputThrows) {
  Rng rng(23);
  Conv2d conv(1, 1, 5, 1, 0, rng);
  EXPECT_THROW((void)conv.forward(random_tensor({1, 1, 3, 3}, rng)),
               std::invalid_argument);
  EXPECT_THROW((void)conv.forward(random_tensor({1, 1, 6, 4}, rng)),
               std::invalid_argument);
  EXPECT_THROW((void)conv.forward(random_tensor({1, 1, 4, 6}, rng)),
               std::invalid_argument);
  // Padding that makes the window fit is fine.
  Conv2d padded(1, 1, 5, 1, 1, rng);
  EXPECT_EQ(padded.forward(random_tensor({1, 1, 3, 3}, rng)).shape(),
            (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(Conv2d, BackwardRejectsMisuse) {
  Rng rng(24);
  Conv2d conv(1, 2, 3, 1, 1, rng);
  EXPECT_THROW((void)conv.backward(Tensor({1, 2, 4, 4})), std::invalid_argument);
  (void)conv.forward(random_tensor({1, 1, 4, 4}, rng));
  EXPECT_THROW((void)conv.backward(Tensor({1, 2, 4, 5})), std::invalid_argument);
  EXPECT_THROW((void)conv.backward(Tensor({1, 1, 4, 4})), std::invalid_argument);
  EXPECT_THROW((void)conv.backward(Tensor({2, 2, 4, 4})), std::invalid_argument);
  EXPECT_THROW((void)conv.backward(Tensor({32})), std::invalid_argument);
  EXPECT_EQ(conv.backward(Tensor({1, 2, 4, 4})).shape(),
            (std::vector<std::size_t>{1, 1, 4, 4}));
}

TEST(Linear, BackwardRejectsMisuse) {
  Rng rng(25);
  Linear lin(5, 3, rng);
  EXPECT_THROW((void)lin.backward(Tensor({2, 3})), std::invalid_argument);
  (void)lin.forward(random_tensor({2, 5}, rng));
  EXPECT_THROW((void)lin.backward(Tensor({2, 4})), std::invalid_argument);
  EXPECT_THROW((void)lin.backward(Tensor({1, 3})), std::invalid_argument);
  EXPECT_THROW((void)lin.backward(Tensor({6})), std::invalid_argument);
  EXPECT_EQ(lin.backward(Tensor({2, 3})).shape(), (std::vector<std::size_t>{2, 5}));
}

TEST(ReLU, BackwardRejectsMisuse) {
  Rng rng(26);
  ReLU relu;
  EXPECT_THROW((void)relu.backward(Tensor({2})), std::invalid_argument);
  (void)relu.forward(random_tensor({1, 2}, rng));
  EXPECT_THROW((void)relu.backward(Tensor({1, 8})), std::invalid_argument);
  EXPECT_THROW((void)relu.backward(Tensor({2})), std::invalid_argument);
  EXPECT_EQ(relu.backward(Tensor({1, 2})).shape(), (std::vector<std::size_t>{1, 2}));
}

TEST(Sigmoid, BackwardRejectsMisuse) {
  Rng rng(27);
  Sigmoid sig;
  EXPECT_THROW((void)sig.backward(Tensor({3})), std::invalid_argument);
  (void)sig.forward(random_tensor({3, 1}, rng));
  EXPECT_THROW((void)sig.backward(Tensor({3, 2})), std::invalid_argument);
  EXPECT_THROW((void)sig.backward(Tensor({1, 3})), std::invalid_argument);
  EXPECT_EQ(sig.backward(Tensor({3, 1})).shape(), (std::vector<std::size_t>{3, 1}));
}

TEST(MaxPool2d, BackwardRejectsMisuse) {
  Rng rng(28);
  MaxPool2d pool(2);
  EXPECT_THROW((void)pool.backward(Tensor({1, 1, 1, 1})), std::invalid_argument);
  (void)pool.forward(random_tensor({1, 1, 2, 2}, rng));
  EXPECT_THROW((void)pool.backward(Tensor({1, 1, 2, 2})), std::invalid_argument);
  EXPECT_THROW((void)pool.backward(Tensor({1})), std::invalid_argument);
  EXPECT_EQ(pool.backward(Tensor({1, 1, 1, 1})).shape(),
            (std::vector<std::size_t>{1, 1, 2, 2}));
}

TEST(Flatten, EmptyBatchThrows) {
  Flatten f;
  EXPECT_THROW((void)f.forward(Tensor({0, 3, 2, 2})), std::invalid_argument);
  EXPECT_THROW((void)f.forward(Tensor()), std::invalid_argument);
}

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor y = conv.forward(random_tensor({2, 2, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 3, 8, 8}));
}

TEST(Conv2d, StrideAndNoPadding) {
  Rng rng(2);
  Conv2d conv(1, 1, 3, 2, 0, rng);
  const Tensor y = conv.forward(random_tensor({1, 1, 9, 9}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 4, 4}));
}

TEST(Conv2d, KnownConvolutionValue) {
  Rng rng(3);
  Conv2d conv(1, 1, 2, 1, 0, rng);
  // Set kernel to all ones, bias to zero: output = window sums.
  conv.params()[0]->value.fill(1.0);
  conv.params()[1]->value.fill(0.0);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_NEAR(y[0], 10.0, 1e-12);
}

TEST(Conv2d, GradCheck) {
  Rng rng(4);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  grad_check(conv, random_tensor({1, 2, 5, 5}, rng));
}

TEST(Conv2d, GradCheckStridedUnpadded) {
  Rng rng(5);
  Conv2d conv(1, 2, 3, 2, 0, rng);
  grad_check(conv, random_tensor({1, 1, 7, 7}, rng));
}

TEST(Linear, KnownProduct) {
  Rng rng(6);
  Linear lin(2, 1, rng);
  lin.params()[0]->value = Tensor({1, 2}, {2, 3});
  lin.params()[1]->value = Tensor({1}, {1});
  const Tensor y = lin.forward(Tensor({1, 2}, {10, 20}));
  EXPECT_NEAR(y[0], 2 * 10 + 3 * 20 + 1, 1e-12);
}

TEST(Linear, GradCheck) {
  Rng rng(7);
  Linear lin(6, 4, rng);
  grad_check(lin, random_tensor({3, 6}, rng));
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor({4}, {-1, 0, 2, -3}));
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[2], 2.0);
}

TEST(ReLU, GradCheck) {
  Rng rng(8);
  ReLU relu;
  // Keep values away from the kink for a clean finite-difference check.
  Tensor x = random_tensor({2, 5}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.1) x[i] = 0.5;
  grad_check(relu, x);
}

TEST(Sigmoid, RangeAndMidpoint) {
  Sigmoid s;
  const Tensor y = s.forward(Tensor({3}, {-100, 0, 100}));
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 0.5, 1e-12);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
}

TEST(Sigmoid, GradCheck) {
  Rng rng(9);
  Sigmoid s;
  grad_check(s, random_tensor({2, 4}, rng));
}

TEST(MaxPool2d, SelectsWindowMax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0);
}

TEST(MaxPool2d, GradRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  (void)pool.forward(x);
  const Tensor g = pool.backward(Tensor({1, 1, 1, 1}, {2.0}));
  EXPECT_EQ(g[0], 0.0);
  EXPECT_EQ(g[1], 2.0);  // the max position
  EXPECT_EQ(g[2], 0.0);
}

TEST(MaxPool2d, AllNegativeInfinityWindowsRouteToTheirOwnCell) {
  // No value beats the -inf start, so every window falls back to its first
  // cell; each window must get exactly its own unit of gradient.
  MaxPool2d pool(2);
  Tensor x({1, 1, 4, 4});
  x.fill(-std::numeric_limits<Real>::infinity());
  x[5] = std::numeric_limits<Real>::quiet_NaN();  // NaN never compares greater
  (void)pool.forward(x);
  Tensor ones({1, 1, 2, 2});
  ones.fill(1.0);
  const Tensor g = pool.backward(ones);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ(g.at4(0, 0, i, j), (i % 2 == 0 && j % 2 == 0) ? 1.0 : 0.0)
          << "cell " << i << "," << j;
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(10);
  MaxPool2d pool(2);
  // Distinct values avoid argmax ties that break finite differences.
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<Real>(i % 7) + 0.01 * static_cast<Real>(i);
  grad_check(pool, x);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Rng rng(11);
  const Tensor x = random_tensor({2, 3, 2, 2}, rng);
  const Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
  const Tensor g = f.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Sequential, ChainsAndCountsParams) {
  Rng rng(12);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 2 * 2, 3, rng);
  const Tensor y = net.forward(random_tensor({1, 1, 4, 4}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(net.param_count(), 2u * (9 + 1) + (8u * 3 + 3));
}

TEST(Sequential, GradCheckEndToEnd) {
  Rng rng(13);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<Sigmoid>();
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 4 * 4, 3, rng);
  grad_check(net, random_tensor({1, 1, 4, 4}, rng), 2e-5);
}

TEST(Loss, MseValueAndGrad) {
  const Tensor pred({3}, {1, 2, 3});
  const Tensor target({3}, {1, 1, 1});
  const LossResult r = mse_loss(pred, target);
  EXPECT_NEAR(r.value, (0 + 1 + 4) / 3.0, 1e-12);
  EXPECT_NEAR(r.grad[1], 2.0 / 3.0, 1e-12);
}

TEST(Loss, SseValueAndGrad) {
  const Tensor pred({2}, {2, -1});
  const Tensor target({2}, {0, 0});
  const LossResult r = sse_loss(pred, target);
  EXPECT_NEAR(r.value, 5.0, 1e-12);
  EXPECT_NEAR(r.grad[0], 4.0, 1e-12);
  EXPECT_NEAR(r.grad[1], -2.0, 1e-12);
}

}  // namespace
}  // namespace qugeo::nn
