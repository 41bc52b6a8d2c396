// Shared plumbing of the end-to-end benchmark: clocks, exact order-statistic
// quantiles, the metric table a run prints, and the benchmark-side
// tracer.
//
// Spans live only here, in the benchmark's own files: they wrap the public
// calls the benchmark makes into each QuGeo layer (seismic, data, nn, qsim,
// core, metrics, serve, common). A disabled Tracer records nothing, so the
// untraced runs that produce the end-to-end metrics pay one branch per
// span.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact quantile of a sample (linear interpolation between order
/// statistics, the "type 7" rule). Throws on an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Arithmetic mean. Throws on an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

/// A failed correctness check. main() turns it into a non-zero exit
/// without printing a result line.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

/// Bitwise equality of two vectors of doubles.
[[nodiscard]] inline bool same_bits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metric table keyed by name (printed in name order).
using Metrics = std::map<std::string, Metric>;

/// Counts of the operations a run attempted and saw fail, summed over the
/// stages into the result line's `attempted` / `failed`.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Benchmark-side span recorder. Each span keeps its name, start, end,
/// recording thread and the enclosing span on that thread; spans stay in
/// memory and are written out as Chrome trace events when the run ends.
/// Thread-safe: spans may close concurrently on pool workers.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Durations (seconds) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Write the recorded spans as Chrome trace-event JSON (viewable in
  /// Perfetto or chrome://tracing), at most `max_events` of them.
  void write_chrome_trace(const std::string& path, std::size_t max_events) const;

 private:
  friend class Span;
  struct Record {
    const char* name = "";  ///< a string literal
    double start_us = 0;
    double end_us = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = no enclosing span on that thread
    std::uint64_t thread = 0;
  };
  [[nodiscard]] std::uint64_t open_id();
  void close(Record record);
  [[nodiscard]] double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  const bool enabled_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Record> records_;
};

/// RAII span around one call into a layer; a no-op when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;  ///< null when tracing is off
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
};

}  // namespace perfbench
