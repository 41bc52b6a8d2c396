// Inference serving front-end: concurrent request intake with dynamic
// micro-batching over QuGeoModel::predict_with.
//
// Many client threads submit single samples; a bounded MPSC ring queue
// absorbs them and one dispatcher thread coalesces consecutive requests
// into QuBatch-sized groups. A group is flushed when it reaches
// `max_batch` requests (size trigger) or when the OLDEST queued request
// has waited `deadline` (latency trigger), whichever comes first — so a
// lone request is never stranded behind a batch that will not fill, and a
// hot queue amortizes the per-dispatch cost (one predict_with call, one
// pool fan-out) across the whole group. Each group runs the model's
// trainable ansatz on its configured backend: canonicalization is the
// identity on it, and at the default ExecutionConfig::batch = 1 every
// QuBatch chunk executes on its own.
//
// Backpressure is explicit and non-blocking: once the queue holds
// `full_threshold` requests, submit() immediately completes the request
// with RequestStatus::kOverloaded instead of queueing (and never blocks
// the producer). Every rejection is counted, so
//   submitted == completed + failed + rejected_overload
//                + rejected_shutdown + pending()
// holds at all times once the numbers are read from a quiesced server —
// no request is ever silently dropped.
//
// Fault tolerance: submit() passes through fault::site("serve.enqueue")
// (an injected fault fails that one request, visibly); each batch
// dispatch passes through fault::site("serve.dispatch") inside a bounded
// retry (ServeConfig::retry), and on retry exhaustion the batch fails as
// a unit with a degradation event recorded via fault::report_degradation.
//
// Observability: ServerStats snapshots throughput counters, queue depth,
// flush-trigger counts, and two fixed-bucket log2 histograms (request
// latency in microseconds, dispatched batch sizes). Histograms use
// preallocated atomic counters — the hot path never allocates.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/model.h"
#include "data/dataset.h"

namespace qugeo::serve {

/// Terminal state of one submitted request.
enum class RequestStatus : std::uint8_t {
  kOk,          ///< prediction holds the velocity map
  kOverloaded,  ///< queue at full_threshold: rejected, never queued
  kShutdown,    ///< server no longer accepting requests
  kFailed,      ///< enqueue/dispatch fault after bounded retries
};

/// What a submit() future resolves to. `prediction` is valid only for
/// kOk; `error` carries the failure context otherwise.
struct PredictResult {
  RequestStatus status = RequestStatus::kOk;
  std::vector<Real> prediction;
  std::string error;
};

struct ServeConfig {
  /// Flush a batch as soon as this many requests have coalesced. The
  /// constructor applies the QUGEO_SERVE_BATCH override on top.
  std::size_t max_batch = 16;
  /// Flush once the oldest queued request has waited this long, even if
  /// the batch is short (QUGEO_SERVE_DEADLINE_US; 0 = flush immediately).
  std::chrono::microseconds deadline{500};
  /// Ring capacity; the queue never reallocates after construction.
  std::size_t queue_capacity = 1024;
  /// Reject new requests once the queue holds this many (backpressure);
  /// 0 means queue_capacity.
  std::size_t full_threshold = 0;
  /// Bounded retry for transient dispatch faults (serve.dispatch).
  fault::RetryPolicy retry;
};

/// QUGEO_SERVE_BATCH / QUGEO_SERVE_DEADLINE_US on top of `base`
/// (validated via common/env.h — malformed values throw).
[[nodiscard]] ServeConfig apply_serve_env_overrides(ServeConfig base);

/// Fixed log2 bucket count shared by both histograms: bucket i counts
/// values v with bit_width(v) == i, i.e. v in [2^(i-1), 2^i). 40 buckets
/// cover latencies up to ~2^39 us (~6 days) without saturating.
inline constexpr std::size_t kServeHistogramBuckets = 40;

/// Interpolated quantile (q in [0, 1]) over a log2-bucket snapshot,
/// assuming values uniform within each bucket. Returns 0 on an empty
/// histogram. Exposed so the load bench can difference two snapshots and
/// take the p99 of just the steady-state window.
[[nodiscard]] double histogram_quantile(
    const std::array<std::uint64_t, kServeHistogramBuckets>& buckets, double q);

/// One coherent snapshot of the server's counters. Counters advance in a
/// fixed order (submitted before a terminal count), so a snapshot taken
/// while producers are live can transiently show submitted ahead of the
/// sum; after shutdown() the accounting identity is exact.
struct ServerStats {
  std::uint64_t submitted = 0;          ///< submit() calls observed
  std::uint64_t completed = 0;          ///< resolved kOk
  std::uint64_t failed = 0;             ///< resolved kFailed
  std::uint64_t rejected_overload = 0;  ///< resolved kOverloaded
  std::uint64_t rejected_shutdown = 0;  ///< resolved kShutdown
  std::uint64_t batches_dispatched = 0;
  std::uint64_t flush_size = 0;      ///< batches flushed at max_batch
  std::uint64_t flush_deadline = 0;  ///< batches flushed by the deadline
  std::uint64_t flush_drain = 0;     ///< batches flushed by shutdown drain
  std::size_t queue_depth = 0;       ///< requests queued right now
  std::size_t max_queue_depth = 0;   ///< high-water mark since construction
  std::size_t in_flight = 0;         ///< popped but not yet resolved
  /// Submit-to-resolution latency, microseconds, log2 buckets.
  std::array<std::uint64_t, kServeHistogramBuckets> latency_us_buckets{};
  /// Sizes of dispatched batches, log2 buckets.
  std::array<std::uint64_t, kServeHistogramBuckets> batch_size_buckets{};

  [[nodiscard]] std::uint64_t pending() const {
    return queue_depth + in_flight;
  }
  /// p50 = latency_quantile_us(0.5), p99 = latency_quantile_us(0.99).
  [[nodiscard]] double latency_quantile_us(double q) const {
    return histogram_quantile(latency_us_buckets, q);
  }
};

/// The serving front-end. Thread-safe: any number of threads may call
/// submit() / stats() / shutdown() concurrently. The referenced model
/// must outlive the server and must not be mutated while it serves.
class ModelServer {
 public:
  /// Applies apply_serve_env_overrides(config), validates it, and starts
  /// the dispatcher thread. Throws std::invalid_argument on a malformed
  /// config (max_batch of 0, full_threshold above capacity, ...).
  ModelServer(const core::QuGeoModel& model, ServeConfig config);
  ~ModelServer();
  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Effective config (after environment overrides).
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

  /// Enqueue one sample for prediction. Never blocks: when the queue is
  /// at full_threshold the returned future is already resolved with
  /// kOverloaded (kShutdown after shutdown()). The sample must stay
  /// alive until the future resolves.
  [[nodiscard]] std::future<PredictResult> submit(
      const data::ScaledSample& sample) QUGEO_EXCLUDES(mutex_);

  /// Stop accepting, drain every queued request through the dispatcher,
  /// and join it. Idempotent; also called by the destructor. After it
  /// returns, every future ever handed out is resolved.
  void shutdown() QUGEO_EXCLUDES(mutex_);

  [[nodiscard]] ServerStats stats() const QUGEO_EXCLUDES(mutex_);

 private:
  /// One queued request; slots live in the preallocated ring.
  struct Request {
    const data::ScaledSample* sample = nullptr;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<PredictResult> promise;
  };

  /// Lock-free fixed-bucket histogram (see kServeHistogramBuckets).
  struct Histogram {
    std::array<std::atomic<std::uint64_t>, kServeHistogramBuckets> buckets{};
    void record(std::uint64_t value) noexcept;
    [[nodiscard]] std::array<std::uint64_t, kServeHistogramBuckets> snapshot()
        const noexcept;
  };

  /// Why a batch was flushed (drives the flush_* counters).
  enum class Flush : std::uint8_t { kSize, kDeadline, kDrain };

  void dispatcher_loop() QUGEO_EXCLUDES(mutex_);
  /// Pop up to `n` requests in FIFO order.
  [[nodiscard]] std::vector<Request> take_locked(std::size_t n)
      QUGEO_REQUIRES(mutex_);
  /// Run one coalesced batch through the model and resolve its promises.
  void dispatch_batch(std::vector<Request>& batch, Flush trigger);

  const core::QuGeoModel* model_;
  ServeConfig config_;
  qsim::ExecutionConfig exec_;  ///< model's effective execution config
  std::size_t full_threshold_;  ///< resolved (0 -> queue_capacity)

  mutable Mutex mutex_;
  CondVar work_;  ///< signalled on enqueue and on shutdown
  std::vector<Request> ring_ QUGEO_GUARDED_BY(mutex_);
  std::size_t head_ QUGEO_GUARDED_BY(mutex_) = 0;
  std::size_t size_ QUGEO_GUARDED_BY(mutex_) = 0;
  std::size_t max_depth_ QUGEO_GUARDED_BY(mutex_) = 0;
  bool accepting_ QUGEO_GUARDED_BY(mutex_) = true;
  bool stop_ QUGEO_GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> flush_size_{0};
  std::atomic<std::uint64_t> flush_deadline_{0};
  std::atomic<std::uint64_t> flush_drain_{0};
  std::atomic<std::size_t> in_flight_{0};
  Histogram latency_us_;
  Histogram batch_sizes_;

  std::thread dispatcher_;
};

}  // namespace qugeo::serve
