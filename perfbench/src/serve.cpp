// Serve stage: independent users, open loop, at a low and a high fixed rate,
// then a burst that measures capacity.
//
// One generator thread sends each request at its due time (rate-spaced from
// the start of a window) whether or not earlier ones have finished; one
// collector thread waits on the futures in send order and stamps each as it
// resolves. Latency runs from the due time, not the send time, so a
// generator stall is charged to the requests it delayed, and the
// generator's own lateness is reported beside it. Quantiles are exact order
// statistics over these timestamps (ServerStats' log2 histogram is not
// used for latency).
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <semaphore>
#include <thread>

#include "common/rng.h"
#include "serve/server.h"
#include "stages.h"

namespace perfbench {
namespace {

namespace core = qugeo::core;
namespace data = qugeo::data;
namespace serve = qugeo::serve;
using qugeo::Real;

/// Every this-many-th request keeps its prediction for the bit-identity
/// check against a direct QuGeoModel::predict.
constexpr std::size_t kCheckEvery = 37;

struct Kept {
  std::size_t payload = 0;  ///< index into the payloads
  std::vector<Real> prediction;
};

struct WindowResult {
  std::vector<double> latency_s;  ///< due -> resolved; +inf when not kOk
  std::vector<double> late_s;     ///< send - due
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::vector<Kept> kept;
};

/// Sends `n` requests `gap_s` apart (all at once when gap_s is 0) and
/// waits for every one of them.
WindowResult run_window(serve::ModelServer& server,
                    const std::vector<data::ScaledSample>& payloads,
                    const std::vector<std::size_t>& order, double gap_s, std::size_t n,
                    Tracer* tracer) {
  struct Slot {
    Clock::time_point due;
    std::future<serve::PredictResult> result;
  };
  std::vector<Slot> slots(n);
  // The generator fills slot i, bumps `sent`, then releases `ready`; the
  // collector stops early when woken with no new slot (generator failed).
  std::counting_semaphore<> ready(0);
  std::atomic<std::size_t> sent{0};
  WindowResult out;
  out.sent = n;
  out.latency_s.resize(n);
  out.late_s.resize(n);

  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      ready.acquire();
      if (i >= sent.load(std::memory_order_acquire)) break;
      slots[i].result.wait();
      const Clock::time_point done = Clock::now();
      serve::PredictResult r = slots[i].result.get();
      const bool ok = r.status == serve::RequestStatus::kOk;
      out.latency_s[i] = ok ? std::chrono::duration<double>(done - slots[i].due).count()
                            : std::numeric_limits<double>::infinity();
      out.ok += ok ? 1 : 0;
      if (ok && i % kCheckEvery == 0)
        out.kept.push_back({order[i % order.size()], std::move(r.prediction)});
    }
  });

  const auto gap = std::chrono::duration<double>(gap_s);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(gap * static_cast<double>(i));
      // Sleep, never spin: the generator must not take a core from the
      // server it is loading. Behind schedule it sends back to back.
      std::this_thread::sleep_until(due);
      const Clock::time_point sent_at = Clock::now();
      slots[i].due = due;
      const data::ScaledSample& payload = payloads[order[i % order.size()]];
      if (tracer != nullptr) {
        Span span(*tracer, "serve.submit");
        slots[i].result = server.submit(payload);
      } else {
        slots[i].result = server.submit(payload);
      }
      out.late_s[i] = std::chrono::duration<double>(sent_at - due).count();
      sent.store(i + 1, std::memory_order_release);
      ready.release();
    }
  } catch (...) {
    error = std::current_exception();
    ready.release();  // wake the collector so it can stop
  }
  collector.join();
  if (error) std::rethrow_exception(error);
  return out;
}

/// One repetition: a window at the low rate, a window at the high rate,
/// and a burst that keeps the queue from running dry.
struct Pass {
  WindowResult low, high, burst;
};

Pass run_pass(serve::ModelServer& server, const std::vector<data::ScaledSample>& payloads,
              const std::vector<std::size_t>& order, const ServeScale& scale,
              Tracer* tracer) {
  const auto window = [&](double rate, double seconds) {
    return run_window(server, payloads, order, 1.0 / rate,
                    static_cast<std::size_t>(std::llround(rate * seconds)), tracer);
  };
  Pass pass;
  pass.low = window(scale.low_rps, scale.low_window_s);
  pass.high = window(scale.high_rps, scale.high_window_s);
  pass.burst = run_window(server, payloads, order, 0, scale.burst_requests, tracer);
  return pass;
}

/// Requests per second a burst was served at: all were due at its start,
/// so the last one resolved after its largest latency.
double burst_rps(const WindowResult& burst) {
  return static_cast<double>(burst.ok) / quantile(burst.latency_s, 1.0);
}

class ServeStage final : public Stage {
 public:
  ServeStage(const ServeScale& scale, const std::vector<data::ScaledSample>& payloads,
             std::uint64_t seed, Tally& tally)
      : scale_(scale),
        payloads_(payloads),
        seed_(seed),
        tally_(tally),
        model_(make_model()),
        server_(model_, server_config(scale)) {
    // Warm the compile cache and the pool before any window is timed.
    std::vector<std::future<serve::PredictResult>> warm;
    for (std::size_t i = 0; i < 4 * scale.max_batch; ++i)
      warm.push_back(server_.submit(payloads_[i % payloads_.size()]));
    for (auto& f : warm)
      check(f.get().status == serve::RequestStatus::kOk, "serve warm-up request failed");
  }

  void rep() override {
    // Each repetition sends the payloads in its own seeded order.
    qugeo::Rng rng(rep_seed(seed_, passes_.size()));
    Pass pass = run_pass(server_, payloads_, rng.permutation(payloads_.size()), scale_, nullptr);
    keep(pass);
    passes_.push_back(std::move(pass));
  }

  void report(Metrics& m, Tracer* tracer) override {
    // Each repetition's exact quantile of one window, then the median
    // across repetitions.
    const auto lat_ms = [&](WindowResult Pass::*window, double q) {
      std::vector<double> per_pass;
      for (const Pass& p : passes_) per_pass.push_back(quantile((p.*window).latency_s, q));
      return median(per_pass) * 1e3;
    };
    // Capacity over all of the run's bursts: requests served / time taken.
    double burst_ok = 0, burst_s = 0;
    for (const Pass& p : passes_) {
      burst_ok += static_cast<double>(p.burst.ok);
      burst_s += quantile(p.burst.latency_s, 1.0);
    }
    m["lat_p50_ms.low"] = {lat_ms(&Pass::low, 0.5), "ms"};
    m["max_rps"] = {burst_ok / burst_s, "req/s"};
    m["ok_ratio"] = {static_cast<double>(ok_) / static_cast<double>(sent_), "1"};

    double traced_rps = 0;
    if (tracer != nullptr) {
      std::vector<std::size_t> order(payloads_.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      Pass traced = run_pass(server_, payloads_, order, scale_, tracer);
      traced_rps = burst_rps(traced.burst);
      keep(traced);
    }

    server_.shutdown();
    const serve::ServerStats st = server_.stats();
    check(st.pending() == 0 &&
              st.submitted == st.completed + st.failed + st.rejected_overload +
                                  st.rejected_shutdown,
          "server accounting identity broken after shutdown");
    check(!kept_.empty(), "no server prediction was checked");
    for (const Kept& k : kept_) {
      const data::ScaledSample* one = &payloads_[k.payload];
      check(same_bits(model_.predict({&one, 1}).at(0), k.prediction),
            "server prediction differs from a direct QuGeoModel::predict");
    }
    if (tracer == nullptr) return;

    m["trace.overhead.serve"] = {m.at("max_rps").value / traced_rps, "1"};
    // Latency of the untraced windows that has no bound (see "Serve load"
    // in perfbench/README.md): the high-rate median, and the p99s, which on
    // a shared host measure its wakeup stalls.
    m["serve.lat_p50_ms.high"] = {lat_ms(&Pass::high, 0.5), "ms"};
    m["serve.lat_p99_ms.low"] = {lat_ms(&Pass::low, 0.99), "ms"};
    m["serve.lat_p99_ms.high"] = {lat_ms(&Pass::high, 0.99), "ms"};
    const std::vector<double> submit = tracer->durations("serve.submit");
    m["serve.submit.us.p50"] = {median(submit) * 1e6, "us"};
    m["serve.submit.us.p99"] = {quantile(submit, 0.99) * 1e6, "us"};
    const double batches = static_cast<double>(st.batches_dispatched);
    m["serve.batches"] = {batches, "count"};
    m["serve.batch_fill"] = {static_cast<double>(st.completed + st.failed) / batches /
                                 static_cast<double>(scale_.max_batch),
                             "1"};
    m["serve.flush_deadline_ratio"] = {static_cast<double>(st.flush_deadline) / batches, "1"};
    m["serve.max_queue_depth"] = {static_cast<double>(st.max_queue_depth), "count"};
    m["serve.attempted"] = {static_cast<double>(st.submitted), "count"};
    m["serve.rejected"] = {static_cast<double>(st.rejected_overload + st.rejected_shutdown),
                           "count"};
    m["serve.failed"] = {static_cast<double>(st.failed), "count"};
    // The burst sends back to back by design; only the paced windows count.
    std::vector<double> late;
    for (const Pass& p : passes_)
      for (const WindowResult* r : {&p.low, &p.high})
        late.insert(late.end(), r->late_s.begin(), r->late_s.end());
    m["serve.generator_late_ms.p99"] = {quantile(late, 0.99) * 1e3, "ms"};
    m["serve.generator_late_ms.max"] = {quantile(late, 1.0) * 1e3, "ms"};

    const auto& cache = *model_.compile_cache();
    const double lookups = static_cast<double>(cache.hit_count() + cache.compile_count());
    m["qsim.compile_cache.hit_ratio"] = {static_cast<double>(cache.hit_count()) / lookups, "1"};
    m["qsim.compile_cache.lookups"] = {lookups, "count"};

    // core.predict.*: direct predict on 1 and on 16 samples, per sample.
    std::vector<const data::ScaledSample*> batch16;
    for (std::size_t i = 0; i < 16; ++i) batch16.push_back(&payloads_[i % payloads_.size()]);
    for (int rep = 0; rep < 200; ++rep) {
      Span span(*tracer, "core.predict.b1");
      check(model_.predict({batch16.data(), 1}).size() == 1, "predict b1 size");
    }
    for (int rep = 0; rep < 100; ++rep) {
      Span span(*tracer, "core.predict.b16");
      check(model_.predict(batch16).size() == 16, "predict b16 size");
    }
    m["core.predict.us_per_sample.b1"] = {
        median(tracer->durations("core.predict.b1")) * 1e6, "us"};
    m["core.predict.us_per_sample.b16"] = {
        median(tracer->durations("core.predict.b16")) * 1e6 / 16, "us"};
  }

 private:
  /// Counts a pass's requests and keeps its sampled predictions.
  void keep(Pass& pass) {
    for (WindowResult* r : {&pass.low, &pass.high, &pass.burst}) {
      tally_.attempted += r->sent;
      tally_.failed += r->sent - r->ok;
      sent_ += r->sent;
      ok_ += r->ok;
      for (Kept& k : r->kept) kept_.push_back(std::move(k));
      r->kept.clear();
    }
  }

  static core::QuGeoModel make_model() {
    // The paper model in its default execution config (exact statevector,
    // one state per kernel sweep). The SoA-batched config (batch > 1) is
    // not served: its AVX2 lanes differ from a single-sample predict by up
    // to one ulp, which the bit-identity check in report() would reject.
    qugeo::Rng init(0x5e7eULL);
    return core::QuGeoModel(paper_model_config(), init);
  }

  static serve::ServeConfig server_config(const ServeScale& scale) {
    serve::ServeConfig sc;
    sc.max_batch = scale.max_batch;
    // Deep enough that no request of a burst is refused: past capacity the
    // queue grows and latency shows it, instead of requests being shed.
    sc.queue_capacity = 1 << 16;
    return sc;
  }

  const ServeScale scale_;
  const std::vector<data::ScaledSample>& payloads_;
  const std::uint64_t seed_;
  Tally& tally_;
  const core::QuGeoModel model_;
  serve::ModelServer server_;  ///< declared after the model it serves
  std::vector<Pass> passes_;
  std::vector<Kept> kept_;
  std::size_t sent_ = 0, ok_ = 0;
};

}  // namespace

std::unique_ptr<Stage> make_serve_stage(const ServeScale& scale,
                                        const std::vector<data::ScaledSample>& payloads,
                                        std::uint64_t seed, Tally& tally) {
  return std::make_unique<ServeStage>(scale, payloads, seed, tally);
}

}  // namespace perfbench
