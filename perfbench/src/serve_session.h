// The serving harness shared by the serve workloads and the traced
// campaign run's serve probe: an InferenceServer, the seeded request
// pool, the open/closed-loop generator and the correctness gate.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "bench.h"
#include "eval/serving.h"
#include "fault/injector.h"
#include "quant/param_image.h"
#include "serve/server.h"
#include "util/rng.h"

namespace pb {

/// warm, sat, fault and recheck are closed loops; low and high follow a
/// schedule.
enum class PhaseKind { warm, low, high, sat, fault, recheck };

struct Done {
  std::int32_t sample = 0;
  std::size_t lane = 0;
  bool recovered = false;
  std::int64_t predicted = -1;
  /// Latest injection (any lane) this request's batch ran after; -1: none.
  std::int64_t after_injection = -1;
};

struct PhaseStats {
  std::vector<double> latency_ms;  ///< from due time to completion
  std::vector<double> lag_ms;      ///< generator lateness per submit
  std::vector<double> batch_sizes;
  std::vector<Done> done;  ///< fault phase only
  std::int64_t attempted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t in_window = 0;  ///< timed closed loop: completions in time
  std::vector<double> window_rates;  ///< timed closed loop: per window, 1/s
  std::uint64_t allocs = 0;
  double wall_s = 0.0;
  /// CPU time the server spent on the phase: every thread but the
  /// generator, plus the generator's time inside submit.
  double server_cpu_s = 0.0;
};

struct FaultStats {
  std::int64_t injections = 0;
  std::int64_t exercised = 0;  ///< a later batch ran on the faulted lane
  std::int64_t detected = 0;   ///< one of those batches was re-run
  std::int64_t answered = 0;
  std::int64_t correct = 0;  ///< prediction equals the label
  std::int64_t silent = 0;   ///< prediction differs from the clean answer
};

/// The low, high and fault phases are skipped when they have no requests.
struct ServePlan {
  std::int64_t low_requests = 0;
  std::int64_t high_requests = 0;
  double sat_seconds = 0.0;
  std::size_t sat_clients = 0;  ///< also the fault and recheck loops' clients
  std::int64_t fault_requests = 0;
  std::int64_t inject_every = 0;
};

struct ServeSummary {
  PhaseStats low, high, sat, fault, recheck;
  FaultStats faults;
  fitact::serve::ServerStats clean_stats;  ///< low + high + sat only
};

class ServeSession {
 public:
  ServeSession(const Workload& w, const Args& args,
               fitact::ev::PreparedModel& pm, Result& result);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  [[nodiscard]] static std::unique_ptr<fitact::serve::InferenceServer>
  make_server(const Workload& w, fitact::ev::PreparedModel& pm);
  [[nodiscard]] static ServePlan plan_for(const Workload& w, const Args& args);

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  /// Take ownership of the server and compute the eager reference rows.
  void start(std::unique_ptr<fitact::serve::InferenceServer> server);
  /// Warm-up, then the low, high, saturation, fault and recheck phases.
  ServeSummary run_all(const ServePlan& plan);
  /// Saturation throughput with tracing off over with tracing on, minus 1.
  [[nodiscard]] double trace_overhead(double seconds);
  /// serve.* and bench.gen_lag_p99_ms from the spans and phase stats.
  void add_layer_metrics(const ServeSummary& s, Result& r) const;

 private:
  struct Pending {
    std::int32_t sample = 0;
    Clock::time_point due;
    std::future<fitact::serve::RequestResult> future;
    std::int64_t after_injection = -1;
  };

  std::vector<std::int32_t> sample_order(std::int64_t count);
  std::vector<double> poisson(double rate, std::int64_t count);
  std::vector<double> bursty(double rate, std::int64_t count);
  PhaseStats run_phase(const char* name, PhaseKind kind,
                       const std::vector<double>& due_s,
                       const std::vector<std::int32_t>& order, double seconds,
                       std::size_t clients);
  void check(const fitact::serve::RequestResult& r, std::int32_t sample,
             bool clean);
  void inject();
  [[nodiscard]] FaultStats score_faults(const PhaseStats& st) const;

  const Workload& w_;
  const Args& args_;
  fitact::ev::PreparedModel& pm_;
  Result& result_;
  fitact::ut::Rng rng_;
  std::unique_ptr<fitact::serve::InferenceServer> server_;
  std::size_t lanes_ = 0;
  std::vector<fitact::Tensor> samples_;
  std::vector<std::int64_t> labels_;
  std::vector<std::vector<float>> first_;  ///< first clean answer per sample
  std::vector<std::vector<float>> ref_;    ///< eager rows (fp32 only)
  std::vector<std::int64_t> clean_pred_;
  std::vector<Pending> pending_;
  std::vector<std::size_t> injection_lane_;  ///< lane of each injection
  std::int64_t inject_every_ = 0;
  bool corrupted_ = false;  ///< the --corrupt self-test has struck
};

}  // namespace pb
