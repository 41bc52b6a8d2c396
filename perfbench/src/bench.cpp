#include "stages.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <string_view>
#include <thread>

namespace perfbench {
namespace {

/// Innermost open span on this thread (its parent for the next span).
thread_local std::uint64_t t_current_span = 0;

std::uint64_t thread_tag() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Exact at an order statistic; also keeps +inf samples (requests that
  // never completed) from turning into NaN.
  if (frac == 0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of an empty sample");
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (rep + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_)
    if (name == r.name) out.push_back((r.end_us - r.start_us) * 1e-6);
  return out;
}

std::uint64_t Tracer::open_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::close(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

void Tracer::write_chrome_trace(const std::string& path,
                                std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return;  // the trace file is a convenience, never a result
  out << "{\"traceEvents\":[\n";
  const std::size_t n = std::min(max_events, records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = records_[i];
    const std::string_view name = r.name;
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << name
        << "\",\"cat\":\"" << name.substr(0, name.find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
        << ",\"ts\":" << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_recorded\":"
      << records_.size() << ",\"spans_written\":" << n << "}}\n";
}

Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer.enabled() ? &tracer : nullptr), name_(name) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->open_id();
  parent_ = t_current_span;
  t_current_span = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_current_span = parent_;
  tracer_->close({name_, tracer_->micros(start_), tracer_->micros(end), id_,
                  parent_, thread_tag()});
}

}  // namespace perfbench
