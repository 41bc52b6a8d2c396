// perfbench: one paper-harness run of QuGeo per process.
//
//   perfbench --workload <corpus_cold|train_paper> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Every run executes the three stages (corpus, train, serve; see stages.h)
// at fixed scales, so every workload reports every end-to-end metric. A
// round of interleaved repetitions runs every stage once and the train
// stage, the shortest and most variable, once more; the workload names the
// focus stage, which gets one more repetition per round and whose traced
// copy gives trace.overhead. The seed picks the inputs of every repetition but
// the fixed reference one; the model's initial angles are fixed.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. A failed correctness check exits 1 without that line. The
// program refuses to run when any QUGEO_* variable is set, so that a stray
// backend, batch, shots, fault or thread override cannot change what is
// measured.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "stages.h"

extern char** environ;

namespace perfbench {
namespace {

/// Fixed pool size of the measured work: one thread, so that every timing
/// is single-threaded compute plus the server's own threads. Four threads
/// made every timing spread 0.3-0.6 over ten runs on a shared host. The
/// traced run's common.pool.* probe measures what a larger pool gives.
constexpr std::size_t kPoolThreads = 1;
/// Set-up repetitions of the Q-D-FW pool build; setup_s is their median
/// plus the stages' own set-up.
constexpr int kSetupReps = 3;
/// Rounds run regardless of --seconds, so every median has three samples.
constexpr int kMinRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <corpus_cold|train_paper>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") { a.seed = std::stoull(val); have_seed = true; }
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--trace-out") a.trace_out = val;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload != "corpus_cold" && a.workload != "train_paper")
    usage("unknown workload '" + a.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

void refuse_qugeo_environment() {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "QUGEO_", 6) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; QUGEO_* variables change the measured program\n";
      std::exit(2);
    }
}

// Fixed stage scales (see perfbench/README.md for how they were chosen).
const CorpusScale kCorpus{};
const TrainScale kTrain{};
const ServeScale kServe{};

void print_config(const Args& a) {
  const auto exec = paper_model_config().execution;
  std::ostringstream os;
  os << "# config {\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
     << ",\"seconds\":" << a.seconds << ",\"trace\":" << a.trace
     << ",\"pool_threads\":" << qugeo::num_threads()
     << ",\"simd_level\":\"" << qugeo::simd::simd_level_name(qugeo::simd::active_level())
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"compiler\":\"" << __VERSION__
     << "\",\"execution\":{\"backend\":" << static_cast<int>(exec.backend)
     << ",\"shots\":" << exec.shots << ",\"fusion\":" << exec.fusion
     << ",\"grad_fusion\":" << exec.grad_fusion
     << ",\"simd\":\"" << qugeo::simd::simd_mode_name(exec.simd)
     << "\",\"batch\":" << exec.batch << ",\"serve_max_batch\":" << kServe.max_batch
     << "},\"serve\":[" << kServe.low_rps << "," << kServe.high_rps << ","
     << kServe.burst_requests << "],\"corpus\":[" << kCorpus.corpus_samples << ","
     << kCorpus.cnn_samples << ","
     << kCorpus.cnn_epochs << "],\"train\":[" << kTrain.train_samples << ","
     << kTrain.test_samples << "," << kTrain.epochs << "," << kTrain.pool_samples << "]}";
  std::cout << os.str() << std::endl;
}

int run(const Args& a) {
  qugeo::set_num_threads(kPoolThreads);
  check(!qugeo::fault::any_fault_armed(), "a fault site is armed");
  print_config(a);

  Metrics metrics;
  Tally tally;
  Tracer tracer(a.trace);

  // Set-up: the Q-D-FW pool the train stage draws its corpora from, which
  // also supplies the serve stage's request payloads; then the stages'
  // own set-up (models, the server and its warm-up).
  std::vector<double> setup_times;
  qugeo::data::ScaledDataset pool;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pool = build_qdfw_corpus(kTrain.pool_samples, kReferenceSeed);
    setup_times.push_back(seconds_since(t0));
  }
  const Clock::time_point stages_t0 = Clock::now();
  std::unique_ptr<Stage> corpus = make_corpus_stage(kCorpus, a.seed, tally);
  std::unique_ptr<Stage> train = make_train_stage(kTrain, pool, a.seed, tally);
  std::unique_ptr<Stage> serve = make_serve_stage(kServe, pool.samples, a.seed, tally);
  metrics["setup_s"] = {median(setup_times) + seconds_since(stages_t0), "s"};

  // Rounds of corpus, serve, train, the focus stage and train again, until
  // --seconds of timed work have passed (at least kMinRounds).
  const bool on_corpus = a.workload == "corpus_cold";
  Stage* const focus = on_corpus ? corpus.get() : train.get();
  const Clock::time_point timed_start = Clock::now();
  double last_round = 0;
  // Wall time of every repetition, per stage, printed as a record of how
  // the machine's speed moved during the run.
  std::map<Stage*, std::vector<double>> rep_s;
  for (int round = 0;
       round < kMinRounds || seconds_since(timed_start) + last_round <= a.seconds; ++round) {
    const Clock::time_point t0 = Clock::now();
    for (Stage* s : {corpus.get(), serve.get(), train.get(), focus, train.get()}) {
      const Clock::time_point r0 = Clock::now();
      s->rep();
      rep_s[s].push_back(seconds_since(r0));
    }
    last_round = seconds_since(t0);
  }
  std::ostringstream reps;
  reps.precision(4);
  reps << "# rep_seconds {\"corpus\":[";
  const auto list = [&](const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) reps << (i ? "," : "") << v[i];
  };
  list(rep_s[corpus.get()]);
  reps << "],\"train\":[";
  list(rep_s[train.get()]);
  reps << "],\"serve\":[";
  list(rep_s[serve.get()]);
  std::cout << reps.str() << "]}" << std::endl;

  // Serve reports first: it shuts its server down before the train
  // stage's traced probes resize the thread pool.
  Tracer* const t = a.trace ? &tracer : nullptr;
  for (Stage* s : {serve.get(), corpus.get(), train.get()}) s->report(metrics, t);

  const auto events = qugeo::fault::degradation_events();
  for (const auto& e : events)
    std::cerr << "degradation: " << e.component << ": " << e.detail << "\n";
  check(events.empty(), "the run recorded degradation events");
  metrics["common.fault.degradation_events"] = {static_cast<double>(events.size()), "count"};
  if (a.trace) {
    metrics["trace.overhead"] =
        metrics.at(on_corpus ? "trace.overhead.corpus" : "trace.overhead.train");
    if (!a.trace_out.empty()) tracer.write_chrome_trace(a.trace_out, 200000);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};

  for (const auto& [name, m] : metrics)
    check(std::isfinite(m.value), "metric " + name + " is not finite");

  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": true, \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::refuse_qugeo_environment();
  try {
    return perfbench::run(args);
  } catch (const perfbench::CheckFailed& e) {
    std::cerr << "perfbench: correctness check failed: " << e.what() << "\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
  }
  return 1;
}
