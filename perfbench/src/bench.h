// perfbench: the repository benchmark. One binary runs each named workload
// from a seed, checks the outputs, and reports the end-to-end metrics (or,
// with tracing on, the per-layer metrics) as one JSON line. It calls the
// fitact library only through its public headers and times every call
// from the outside; see main.cpp for the workload definitions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/activation.h"
#include "eval/experiment.h"
#include "nn/plan.h"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process / of the calling thread, seconds. On a
/// paravirtualised host the kernel leaves steal time out of both, so a
/// figure in CPU time does not move when a neighbour takes the CPU; time
/// spent blocked (a waiting lane, a pool join) is left out too.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

// ---- workloads -------------------------------------------------------------

enum class Kind { serve, campaign };

/// Classes of every workload's dataset (synthetic CIFAR-10).
constexpr std::int64_t kClasses = 10;

/// Everything that defines one workload. The table lives in main.cpp.
struct Workload {
  std::string name;
  std::string why;
  Kind kind = Kind::serve;
  std::string model;
  float width = 1.0f;
  fitact::core::Scheme scheme = fitact::core::Scheme::fitrelu;
  fitact::nn::Precision precision = fitact::nn::Precision::fp32;
  /// Stage-1 training budget of the cached checkpoint.
  std::int64_t train_size = 512;
  std::int64_t train_epochs = 4;
  std::int64_t test_size = 256;
  /// Serve workloads: fixed open-loop rates (requests/s) of the low and
  /// high phases, and the closed-loop client count of the saturation
  /// phase.
  double rate_low = 0.0;
  double rate_high = 0.0;
  std::size_t sat_clients = 0;
  /// Minimum requests in each latency phase.
  std::int64_t phase_requests = 0;
  /// Fault phase: passes over the request pool, one injection every
  /// `inject_every` requests, flipped words per injection. The campaign
  /// workload sets the last two for its traced serving probe.
  std::int64_t fault_passes = 0;
  std::int64_t inject_every = 0;
  std::uint64_t fault_flips = 0;
  /// Campaign: bit error rate, samples per trial, trials per chunk and the
  /// chunks whose accuracies feed fault_acc_mean (fixed per seed).
  double bit_error_rate = 0.0;
  std::int64_t eval_samples = 0;
  std::int64_t chunk_trials = 0;
  std::int64_t scored_chunks = 0;
  /// Share of --seconds the parallel campaign phase runs for.
  double campaign_share = 0.0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test.
  bool tiny = false;
  /// Corrupt one served answer before the gate (self-test of the gate).
  bool corrupt = false;
  /// Only train the stage-1 checkpoints into the cache and exit.
  bool prime = false;
  std::string cache_dir = ".bench_build/perfbench_cache";
  std::string trace_dir = ".bench_build/perfbench_traces";
  std::string commit = "unknown";
};

// ---- results ---------------------------------------------------------------

/// One run's outcome: the correctness verdict, the request/trial counts and
/// the metrics by name (run.py checks the names against BENCHMARK.json).
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> mismatches;  ///< first few gate failures
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 8) mismatches.push_back(what);
  }
};

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans carry name, start, end, parent span and
/// request id; each thread keeps its own stack of open spans so nested
/// calls record their parent. Off by default; a span costs one branch then.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
  };

  static Tracer& get();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Turning tracing on reserves the span storage, so recording a span
  /// does not allocate (serve.allocs_per_req is read in a traced run).
  void enable(bool on);

  std::int64_t open(const char* name, std::uint64_t request);
  void close(std::int64_t id);

  /// Durations (ms) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Self time per span name (span time minus the time its children cover).
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0)
      : id_(Tracer::get().enabled() ? Tracer::get().open(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::get().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t id_;
};

// ---- shared helpers ----------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (0 when empty).
[[nodiscard]] double pct(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
/// Percentile `p` of a phase, robust to a short stall of the host: the
/// median, over consecutive windows of at least `min_window` samples (at
/// most 8 windows), of each window's percentile.
[[nodiscard]] double windowed(const std::vector<double>& v,
                              std::size_t min_window, double p);

/// Heap allocations counted by the replaced operator new (main.cpp).
[[nodiscard]] std::uint64_t alloc_count() noexcept;

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Hardware threads available to this process.
[[nodiscard]] std::size_t hw_threads();

/// Time of a fixed scalar loop (ms): how fast the host runs this process
/// right now, for reading one run's figures against another's.
[[nodiscard]] double host_calibration_ms();
/// Steal time of the whole machine so far (/proc/stat ticks; 0 if absent).
[[nodiscard]] std::uint64_t steal_ticks();

/// One-line machine fingerprint (cpu flags, threads, kernel backend, build).
[[nodiscard]] std::string fingerprint(const Args& args);

/// Print the result as the final JSON line of standard output.
void emit(const Result& result);

// ---- set-up (setup.cpp) ------------------------------------------------------

/// Set-ups a run makes: the first serves the workload; the rest run after
/// it, once peak_rss_mb is read, so the peak is that of one set-up and its
/// run, not of the memory earlier set-ups left behind.
[[nodiscard]] int setup_reps(const Args& args);

/// CPU and wall time of each set-up of a run. setup_s is the median CPU
/// time, which leaves out steal and blocked time (see process_cpu_s).
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;

  /// Time `fn`, one set-up. Whatever it builds must outlive the call, so
  /// that tearing it down is not timed.
  template <typename Fn>
  void time(Fn&& fn) {
    const ScopedSpan span("bench.setup");
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    fn();
    cpu_s.push_back(process_cpu_s() - cpu0);
    wall_s.push_back(seconds_since(t0));
  }
  void report(Result& r) const {
    r.set("setup_s", median(cpu_s), "s");
    r.set("setup_wall_s", median(wall_s), "s");
  }
};

[[nodiscard]] fitact::ev::ExperimentScale scale_for(const Workload& w,
                                                    const Args& args);

/// Train (or find) the stage-1 checkpoint of every workload's model.
void prime(const std::vector<Workload>& workloads, const Args& args);

/// Load the cached checkpoint and protect it (profile + scheme, plus
/// post-training for fitrelu). Throws when the checkpoint is not cached.
[[nodiscard]] std::unique_ptr<fitact::ev::PreparedModel> load_and_protect(
    const Workload& w, const Args& args);

// ---- workloads ---------------------------------------------------------------

void run_serve(const Workload& w, const Args& args, Result& result);
void run_campaign(const Workload& w, const Args& args, Result& result);

/// Per-layer probe for traced runs: times each layer's public entry point
/// on the workload's own model and adds the kernel-level metrics.
void probe_layers(const Workload& w, fitact::ev::PreparedModel& pm,
                  const Args& args, Result& result);

/// core.* and eval.make_server_s from the spans of every set-up.
void setup_layer_metrics(Result& result);

/// A short campaign on a serve workload's model (eval.evaluate_ms, fault.*).
void campaign_probe(fitact::ev::PreparedModel& pm, const Args& args,
                    Result& result);
/// A short closed-loop serving session on the campaign's model (serve.*,
/// gen lag).
void serve_probe(const Workload& w, fitact::ev::PreparedModel& pm,
                 const Args& args,
                 Result& result);

}  // namespace pb
