// Microbenchmarks of the explicit SIMD layer and the batched (SoA)
// multi-state executor: the scalar vs AVX2 single-state 1q kernel, and the
// batched 1q sweep against the equivalent loop over independent
// statevectors. Merges into BENCH_micro.json like every micro suite.
//
// The binary doubles as the CI perf gate: after the benchmark run, main()
// re-times the batched sweep directly and exits non-zero on AVX2 hardware
// unless the batched 1q sweep at 8 lanes is >= 2x the looped scalar
// single-state form (the path those states took before batching).
// On machines without AVX2+FMA the guard prints a skip notice and passes.
#include <benchmark/benchmark.h>

#include "bench_micro_main.h"

#include <chrono>
#include <cstdio>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "qsim/batched_statevector.h"
#include "qsim/gate.h"
#include "qsim/statevector.h"

namespace {

using namespace qugeo;

/// Mixing 1q matrix (all four entries nonzero) so no fast path hides the
/// kernel under test.
qsim::Mat2 test_u3() { return qsim::u3_matrix(0.7, -0.3, 1.1); }

void bench_apply_1q(benchmark::State& state, simd::SimdMode mode) {
  if (mode == simd::SimdMode::kAvx2 && !simd::cpu_supports_avx2()) {
    state.SkipWithError("AVX2+FMA not supported on this CPU");
    return;
  }
  const simd::ScopedSimdMode scoped(mode);
  const auto qubits = static_cast<Index>(state.range(0));
  qsim::StateVector psi(qubits);
  const qsim::Mat2 u = test_u3();
  Index q = 0;
  for (auto _ : state) {
    psi.apply_1q(u, q);
    q = (q + 1) % qubits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.dim()));
}

void BM_SimdApply1QScalar(benchmark::State& state) {
  bench_apply_1q(state, simd::SimdMode::kScalar);
}
BENCHMARK(BM_SimdApply1QScalar)->Arg(12)->Arg(16);

void BM_SimdApply1QAvx2(benchmark::State& state) {
  bench_apply_1q(state, simd::SimdMode::kAvx2);
}
BENCHMARK(BM_SimdApply1QAvx2)->Arg(12)->Arg(16);

/// The batched SoA sweep: one dispatch moves all lanes of the group.
void BM_BatchedApply1Q(benchmark::State& state) {
  const Index qubits = 8;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  qsim::BatchedStateVector batch(qubits, lanes);
  const qsim::Mat2 u = test_u3();
  Index q = 0;
  for (auto _ : state) {
    batch.apply_1q(u, q);
    q = (q + 1) % qubits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.dim() * lanes));
}
BENCHMARK(BM_BatchedApply1Q)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

/// The loop the batched sweep replaces: the same gate applied to the same
/// number of independent single statevectors.
void BM_LoopedApply1Q(benchmark::State& state) {
  const Index qubits = 8;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<qsim::StateVector> states;
  for (std::size_t l = 0; l < lanes; ++l) states.emplace_back(qubits);
  const qsim::Mat2 u = test_u3();
  Index q = 0;
  for (auto _ : state) {
    for (auto& psi : states) psi.apply_1q(u, q);
    q = (q + 1) % qubits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(states[0].dim() * lanes));
}
BENCHMARK(BM_LoopedApply1Q)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

/// CI perf gate for the SIMD layer. Best-of-R timing of K kernel sweeps.
int simd_speedup_guard() {
  if (!simd::cpu_supports_avx2()) {
    std::printf(
        "simd guard: AVX2+FMA unavailable on this CPU; skipping the "
        "speedup gate\n");
    return 0;
  }
  using clock = std::chrono::steady_clock;
  constexpr int kReps = 5;
  const auto best_of = [&](auto&& body) {
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = clock::now();
      body();
      const std::chrono::duration<double, std::milli> dt = clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return best;
  };

  // Batched 1q at 8 lanes >= 2x the looped single-state form.
  const qsim::Mat2 u2 = test_u3();
  constexpr Index kQubits = 8;
  constexpr std::size_t kLanes = 8;
  constexpr int kIters1Q = 4000;
  qsim::BatchedStateVector batch(kQubits, kLanes);
  std::vector<qsim::StateVector> states;
  for (std::size_t l = 0; l < kLanes; ++l) states.emplace_back(kQubits);
  const auto sweep_batched = [&] {
    Index q = 0;
    for (int it = 0; it < kIters1Q; ++it) {
      batch.apply_1q(u2, q);
      q = (q + 1) % kQubits;
    }
    benchmark::DoNotOptimize(batch.re_data());
  };
  const auto sweep_looped = [&] {
    Index q = 0;
    for (int it = 0; it < kIters1Q; ++it) {
      for (auto& s : states) s.apply_1q(u2, q);
      q = (q + 1) % kQubits;
    }
    benchmark::DoNotOptimize(states[0].amplitudes().data());
  };
  // Baseline = the pre-SIMD execution of the same 8 states: one scalar
  // single-state sweep per lane. The batched sweep runs under the default
  // (AVX2) dispatch — the combined SIMD + SoA win is what the gate pins.
  double looped_ms = 0;
  {
    const simd::ScopedSimdMode scoped(simd::SimdMode::kScalar);
    best_of(sweep_looped);
    looped_ms = best_of(sweep_looped);
  }
  best_of(sweep_batched);
  const double batched_ms = best_of(sweep_batched);
  const double speedup_batched = looped_ms / batched_ms;
  std::printf(
      "simd guard: 1q at batch %zu on %zu qubits, looped scalar %.3f ms, "
      "batched %.3f ms (%.2fx, need >= 2.00x)\n",
      kLanes, static_cast<std::size_t>(kQubits), looped_ms, batched_ms,
      speedup_batched);

  if (speedup_batched < 2.0) {
    std::fprintf(stderr,
                 "simd guard FAILED: batched 1q speedup %.2fx < 2.00x\n",
                 speedup_batched);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = qugeo::bench::run_micro_benchmarks(argc, argv);
  if (rc != 0) return rc;
  return simd_speedup_guard();
}
