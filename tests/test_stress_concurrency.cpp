// Purpose-built contention stress for the ThreadSanitizer CI leg: hammers
// the shared thread pool, the CompiledCircuitCache, and the logger from
// many raw std::threads at once. The assertions are deliberately about
// invariants that survive any interleaving (coverage counts, the
// hits+compiles accounting identity, result equality against a
// single-threaded reference) — the real payload is that TSan observes the
// lock discipline under genuine concurrency, including the patterns a
// single parallel_for never produces: concurrent external submitters,
// cache clear() racing canonical(), and log-level flips mid-write.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "qsim/backend.h"
#include "qsim/compile_cache.h"

namespace qugeo::qsim {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 200;

/// Literal 1q runs on qubits 0 and 2 around a CX pair: fuse_gate_runs
/// collapses each run, so canonical() returns a non-null compiled circuit
/// with strictly fewer ops. `spin` varies the literal angles so
/// distinct values of it are distinct cache keys.
Circuit fusable_circuit(int spin) {
  Circuit c(3);
  const Real base = Real(0.1) * static_cast<Real>(spin + 1);
  c.rx(0, base);
  c.rz(0, base + Real(0.25));
  c.rx(0, base + Real(0.5));
  c.cx(0, 1);
  c.cx(0, 1);
  c.ry(2, base);
  c.rz(2, base + Real(1));
  return c;
}

/// Single trainable gate: canonicalization is the identity, so the cache
/// memoizes a null entry for it.
Circuit identity_circuit() {
  Circuit c(2);
  const ParamRef p = c.new_param();
  c.ry(0, p);
  c.cx(0, 1);
  return c;
}

TEST(StressConcurrency, CacheHammeredFromManyThreads) {
  // Shared read-only key set; every thread looks all of them up
  // repeatedly while thread 0 periodically drops the whole table.
  std::vector<Circuit> fusable;
  for (int s = 0; s < 4; ++s) fusable.push_back(fusable_circuit(s));
  const Circuit identity = identity_circuit();

  CompiledCircuitCache cache;
  std::atomic<std::size_t> calls{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const Circuit& key = fusable[static_cast<std::size_t>((t + i) % 4)];
        const auto compiled = cache.canonical(key, BackendKind::kStatevector);
        ASSERT_NE(compiled, nullptr);
        ASSERT_LT(compiled->num_ops(), key.num_ops());
        ASSERT_EQ(cache.canonical(identity, BackendKind::kStatevector),
                  nullptr);
        calls.fetch_add(2, std::memory_order_relaxed);
        // Same structure under a different backend kind: distinct entry.
        const auto density =
            cache.canonical(key, BackendKind::kDensityMatrix);
        ASSERT_NE(density, nullptr);
        calls.fetch_add(1, std::memory_order_relaxed);
        if (t == 0 && i % 64 == 63) cache.clear();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Every canonical() call lands in exactly one counter, clears or not.
  EXPECT_EQ(cache.compile_count() + cache.hit_count(), calls.load());
  // 9 distinct keys, cleared a handful of times: far fewer compiles than
  // lookups or the memoization is not actually shared.
  EXPECT_LT(cache.compile_count(), calls.load() / 10);
}

TEST(StressConcurrency, ConcurrentExternalSubmittersGetCorrectResults) {
  // parallel_for from several non-pool threads at once: submissions
  // overwrite each other's slot in the pool, so every submitter must
  // still see its own full iteration space (drained by itself if the
  // workers moved on).
  set_num_threads(4);
  constexpr std::size_t kRange = 4096;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<std::uint64_t> sums(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<std::atomic<std::uint32_t>> hits(kRange);
        parallel_for(0, kRange, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        std::uint64_t sum = 0;
        for (auto& h : hits) sum += h.load(std::memory_order_relaxed);
        ASSERT_EQ(sum, kRange) << "submitter " << t << " rep " << rep;
        sums[static_cast<std::size_t>(t)] += sum;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::uint64_t s : sums) EXPECT_EQ(s, 50u * kRange);
  set_num_threads(0);
}

TEST(StressConcurrency, NestedSubmissionInsidePoolWorkRunsInline) {
  set_num_threads(4);
  std::vector<std::atomic<std::uint32_t>> hits(64 * 64);
  parallel_for(0, 64, [&](std::size_t row) {
    parallel_for(0, 64, [&](std::size_t col) {
      hits[row * 64 + col].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1u);
  set_num_threads(0);
}

TEST(StressConcurrency, BackendsShareOneCacheAcrossThreads) {
  // The predict-style fan-out, but from raw external threads: every
  // thread builds its own backend against one shared cache and must
  // compute the identical distribution.
  const Circuit frozen = fusable_circuit(0);
  auto cache = std::make_shared<CompiledCircuitCache>();
  ExecutionConfig cfg;
  cfg.compile_cache = cache;

  std::vector<Real> reference;
  {
    const auto backend = make_backend(cfg, 3);
    backend->run(frozen, {});
    reference = backend->probabilities();
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const auto backend = make_backend(cfg, 3);
        backend->run(frozen, {});
        ASSERT_EQ(backend->probabilities(), reference);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(StressConcurrency, LoggerSurvivesConcurrentWritesAndLevelFlips) {
  const LogLevel before = log_level();
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    int flips = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      set_log_level(++flips % 2 ? LogLevel::kError : LogLevel::kWarn);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Below every active threshold: exercises the level load + early
        // return. A handful of kWarn lines take the stderr lock for real
        // without flooding the test log.
        log_debug("stress debug ", t, " ", i);
        if (i % 100 == 0) log_warn("stress warn ", t, " ", i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  set_log_level(before);
}

}  // namespace
}  // namespace qugeo::qsim
