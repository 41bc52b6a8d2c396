// Optimizers and schedules: convergence on convex toy problems, and the
// Adam updates pinned bit for bit to textbook scalar loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"

namespace qugeo::nn {
namespace {

/// Quadratic bowl: L = 0.5 * sum((x - c)^2); grad = x - c.
void fill_quadratic_grad(Param& p, const std::vector<Real>& c) {
  for (std::size_t i = 0; i < p.numel(); ++i)
    p.grad[i] = p.value[i] - c[i];
}

TEST(Sgd, ConvergesOnQuadratic) {
  Param p({3});
  p.value = Tensor({3}, {5, -4, 2});
  const std::vector<Real> target = {1, 2, 3};
  Sgd opt({&p});
  for (int step = 0; step < 200; ++step) {
    opt.zero_grad();
    fill_quadratic_grad(p, target);
    opt.step(0.1);
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(p.value[i], target[i], 1e-6);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Param plain({1}), mom({1});
  plain.value[0] = mom.value[0] = 10.0;
  Sgd opt_plain({&plain}, 0.0);
  Sgd opt_mom({&mom}, 0.9);
  for (int step = 0; step < 20; ++step) {
    opt_plain.zero_grad();
    plain.grad[0] = plain.value[0];
    opt_plain.step(0.01);
    opt_mom.zero_grad();
    mom.grad[0] = mom.value[0];
    opt_mom.step(0.01);
  }
  EXPECT_LT(std::abs(mom.value[0]), std::abs(plain.value[0]));
}

TEST(Adam, ConvergesOnQuadratic) {
  Param p({2});
  p.value = Tensor({2}, {-3, 7});
  const std::vector<Real> target = {0.5, -0.5};
  Adam opt({&p});
  for (int step = 0; step < 2000; ++step) {
    opt.zero_grad();
    fill_quadratic_grad(p, target);
    opt.step(0.05);
  }
  EXPECT_NEAR(p.value[0], target[0], 0.01);
  EXPECT_NEAR(p.value[1], target[1], 0.01);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction the first Adam step is ~lr * sign(grad).
  Param p({1});
  p.value[0] = 0.0;
  Adam opt({&p});
  p.grad[0] = 0.001;  // tiny gradient, but normalized step
  opt.step(0.1);
  EXPECT_NEAR(p.value[0], -0.1, 1e-4);
}

// optimizer.cpp is built to let the Adam loops vectorize (packed div and
// sqrt are correctly rounded, so the bits cannot change). Without FMA on
// x86-64 nothing else may differ from the scalar loops below; where the
// compiler may contract multiply-adds it can do so per loop shape, so those
// builds compare to rounding.
#if defined(__x86_64__) && !defined(__FMA__)
constexpr bool kBitExact = true;
#else
constexpr bool kBitExact = false;
#endif

void expect_same_bits(std::span<const Real> got, const std::vector<Real>& want,
                      int step) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (kBitExact)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "step " << step << " element " << i;
    else
      ASSERT_NEAR(got[i], want[i], 1e-12 * std::max(Real(1), std::abs(want[i])))
          << "step " << step << " element " << i;
  }
}

/// One textbook Adam update of one parameter vector, written as plain
/// scalar code in the order Adam::step evaluates it.
void textbook_adam(std::vector<Real>& x, std::vector<Real>& m, std::vector<Real>& v,
                   std::span<const Real> g, Real lr, std::size_t t, Real b1,
                   Real b2, Real eps) {
  const Real bc1 = Real(1) - std::pow(b1, static_cast<Real>(t));
  const Real bc2 = Real(1) - std::pow(b2, static_cast<Real>(t));
  for (std::size_t k = 0; k < x.size(); ++k) {
    m[k] = b1 * m[k] + (Real(1) - b1) * g[k];
    v[k] = b2 * v[k] + (Real(1) - b2) * g[k] * g[k];
    x[k] -= lr * (m[k] / bc1) / (std::sqrt(v[k] / bc2) + eps);
  }
}

TEST(Adam, BitIdenticalToTextbookLoop) {
  // Odd lengths, so a vectorized loop also runs its remainder lane.
  Param a({7}), b({3, 5});
  Rng rng(41);
  for (Param* p : {&a, &b})
    for (std::size_t i = 0; i < p->numel(); ++i) p->value[i] = rng.uniform(-1, 1);
  std::vector<Real> xa(a.value.data().begin(), a.value.data().end());
  std::vector<Real> xb(b.value.data().begin(), b.value.data().end());
  std::vector<Real> ma(7, 0), va(7, 0), mb(15, 0), vb(15, 0);
  Adam opt({&a, &b});
  for (int step = 1; step <= 150; ++step) {
    for (Param* p : {&a, &b})
      for (std::size_t i = 0; i < p->numel(); ++i)
        p->grad[i] = rng.uniform(-2, 2) * std::pow(10.0, rng.uniform(-6, 1));
    const Real lr = 0.1 * (1 + std::cos(kPi * step / 150.0)) / 2;
    textbook_adam(xa, ma, va, a.grad.data(), lr, step, 0.9, 0.999, 1e-8);
    textbook_adam(xb, mb, vb, b.grad.data(), lr, step, 0.9, 0.999, 1e-8);
    opt.step(lr);
    expect_same_bits(a.value.data(), xa, step);
    expect_same_bits(b.value.data(), xb, step);
  }
}

TEST(AdamFlat, BitIdenticalToTextbookLoop) {
  constexpr std::size_t kN = 13;
  Rng rng(42);
  std::vector<Real> params(kN), grads(kN), x(kN), m(kN, 0), v(kN, 0);
  for (Real& p : params) p = rng.uniform(-3, 3);
  x = params;
  AdamFlat opt(kN);
  for (int step = 1; step <= 150; ++step) {
    for (Real& g : grads) g = rng.uniform(-2, 2) * std::pow(10.0, rng.uniform(-6, 1));
    const Real lr = 0.1 * (1 + std::cos(kPi * step / 150.0)) / 2;
    // AdamFlat spells its constants as literals: 1 - 0.9 is not 0.1.
    const Real bc1 = Real(1) - std::pow(Real(0.9), static_cast<Real>(step));
    const Real bc2 = Real(1) - std::pow(Real(0.999), static_cast<Real>(step));
    for (std::size_t k = 0; k < kN; ++k) {
      m[k] = Real(0.9) * m[k] + Real(0.1) * grads[k];
      v[k] = Real(0.999) * v[k] + Real(0.001) * grads[k] * grads[k];
      x[k] -= lr * (m[k] / bc1) / (std::sqrt(v[k] / bc2) + Real(1e-8));
    }
    opt.step(params, grads, lr);
    expect_same_bits(params, x, step);
  }
}

TEST(Optimizer, ZeroGradClears) {
  Param p({4});
  p.grad.fill(3.0);
  Sgd opt({&p});
  opt.zero_grad();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(p.grad[i], 0.0);
}

TEST(CosineSchedule, EndpointsAndMonotonicity) {
  const CosineAnnealingLr sched(0.1, 100, 0.0);
  EXPECT_NEAR(sched.lr(0), 0.1, 1e-12);
  EXPECT_NEAR(sched.lr(50), 0.05, 1e-12);
  EXPECT_NEAR(sched.lr(100), 0.0, 1e-12);
  EXPECT_NEAR(sched.lr(500), 0.0, 1e-12);  // clamped past the horizon
  for (std::size_t e = 1; e <= 100; ++e) EXPECT_LE(sched.lr(e), sched.lr(e - 1));
}

TEST(CosineSchedule, RespectsMinLr) {
  const CosineAnnealingLr sched(0.1, 10, 0.01);
  EXPECT_NEAR(sched.lr(10), 0.01, 1e-12);
  EXPECT_GE(sched.lr(5), 0.01);
}

TEST(ConstantSchedule, IsConstant) {
  const ConstantLr sched(0.3);
  EXPECT_EQ(sched.lr(0), 0.3);
  EXPECT_EQ(sched.lr(1000), 0.3);
}

}  // namespace
}  // namespace qugeo::nn
