// Campaign workload: the paper's Fig. 5 setting. A fault::CampaignSession
// runs parameter bit-flip campaigns on one replica lane per hardware
// thread, over lanes built by ev::make_campaign_worker_factory. The bench
// wraps that factory (to time lane builds) and each lane's evaluate (to
// time trials from the outside).
//
// Phases:
//   high — chunks of trials on every lane until the time share is used;
//   low  — the first kSerialTrials trials of chunk 0 re-run serially on
//          one lane. This is also the correctness gate: trial streams
//          depend only on the seed and the trial index, so every accuracy
//          must match the parallel run's.
// fault_acc_mean comes from the first `scored_chunks` chunks only, so it
// depends on the seed and not on the machine's speed.
#include <climits>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "fault/campaign.h"

namespace pb {

using namespace fitact;

namespace {

// Record tags: chunk numbers, plus these for the runs outside the phases.
constexpr std::int64_t kWarmTag = -1;
constexpr std::int64_t kSerialTag = -2;
constexpr std::int64_t kOverheadTag = -3;
// Trials of the serial re-run (the first few of chunk 0).
constexpr std::int64_t kSerialTrials = 4;

struct TrialRecord {
  std::int64_t tag = 0;
  double trial_ms = 0.0;  ///< since the lane's previous trial ended
  double eval_ms = 0.0;
};

/// Per-lane timing state; the engine drives a lane from one thread at a
/// time.
struct LaneTimes {
  std::int64_t tag = INT64_MIN;
  Clock::time_point prev_end;
  std::vector<TrialRecord> records;
};

std::uint64_t chunk_seed(std::uint64_t seed, std::int64_t chunk) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(chunk) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  return z;
}

class CampaignRunner {
 public:
  CampaignRunner(ev::PreparedModel& pm, std::int64_t eval_samples,
                 double bit_error_rate)
      : rate_(bit_error_rate), lanes_(hw_threads()) {
    ev::EvalConfig ec;
    ec.max_samples = eval_samples;
    session_ = std::make_unique<fault::CampaignSession>(
        timed(ev::make_campaign_worker_factory(pm, ec)));
    // Build every lane now, as part of set-up, with one warm trial each.
    (void)run_chunk(kWarmTag, -1, static_cast<std::int64_t>(lanes_), lanes_);
  }

  /// Run the trials of seed chunk `chunk` on `threads` lanes; their
  /// records carry `tag`.
  fault::CampaignResult run_chunk(std::int64_t tag, std::int64_t chunk,
                                  std::int64_t trials, std::size_t threads) {
    const ScopedSpan span("fault.run_campaign");
    fault::CampaignConfig cc;
    cc.bit_error_rate = rate_;
    cc.trials = trials;
    cc.seed = chunk_seed(seed_, chunk);
    cc.threads = threads;
    // Read by the lane threads; the engine starts them after this write.
    tag_ = tag;
    chunk_start_ = Clock::now();
    return session_->run(cc);
  }

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// Records of every lane with tags in [first, last].
  [[nodiscard]] std::vector<TrialRecord> records(std::int64_t first,
                                                 std::int64_t last) const {
    std::vector<TrialRecord> out;
    for (const auto& lane : times_) {
      for (const TrialRecord& r : lane->records) {
        if (r.tag >= first && r.tag <= last) out.push_back(r);
      }
    }
    return out;
  }

 private:
  fault::WorkerFactory timed(fault::WorkerFactory inner) {
    return [this, inner](std::size_t index) {
      fault::CampaignWorker w;
      {
        const ScopedSpan span("fault.lane_build");
        w = inner(index);
      }
      auto times = std::make_shared<LaneTimes>();
      times_.push_back(times);
      w.evaluate = [this, times, evaluate = w.evaluate] {
        const auto start = Clock::now();
        if (times->tag != tag_) {
          times->tag = tag_;
          times->prev_end = chunk_start_;
        }
        double acc = 0.0;
        {
          const ScopedSpan span("eval.evaluate_accuracy");
          acc = evaluate();
        }
        const auto end = Clock::now();
        const auto ms = [](Clock::duration d) {
          return std::chrono::duration<double, std::milli>(d).count();
        };
        times->records.push_back(
            {tag_, ms(end - times->prev_end), ms(end - start)});
        times->prev_end = end;
        return acc;
      };
      return w;
    };
  }

  double rate_;
  std::size_t lanes_;
  std::uint64_t seed_ = 1;
  std::unique_ptr<fault::CampaignSession> session_;
  std::vector<std::shared_ptr<LaneTimes>> times_;
  std::int64_t tag_ = kWarmTag;
  Clock::time_point chunk_start_;
};

struct CampaignSummary {
  std::vector<double> low_ms, high_ms, eval_ms, overhead_us;
  double trials_per_s = 0.0;
  double trials_per_cpu_s = 0.0;
  double acc_mean = 0.0;
  double flips_mean = 0.0;
  std::int64_t attempted = 0;
  std::int64_t completed = 0;
};

CampaignSummary run_phases(CampaignRunner& d, std::int64_t chunk_trials,
                           const Args& args, Result& result,
                           double high_seconds, std::int64_t scored_chunks) {
  CampaignSummary s;
  d.set_seed(args.seed);
  std::vector<double> accs;
  std::vector<double> flips;
  std::vector<double> first;
  std::vector<double> chunk_rates;  // trials/s of each chunk
  std::vector<double> chunk_cpu_rates;  // trials per CPU-second of each chunk
  const auto t0 = Clock::now();
  std::int64_t chunk = 0;
  {
    const ScopedSpan span("bench.phase_high");
    while (chunk < scored_chunks || seconds_since(t0) < high_seconds) {
      const auto c0 = Clock::now();
      const double cpu0 = process_cpu_s();
      const fault::CampaignResult r =
          d.run_chunk(chunk, chunk, chunk_trials, d.lanes());
      const auto done = static_cast<double>(r.accuracies.size());
      chunk_cpu_rates.push_back(done / (process_cpu_s() - cpu0));
      chunk_rates.push_back(done / seconds_since(c0));
      s.attempted += chunk_trials;
      s.completed += static_cast<std::int64_t>(r.accuracies.size());
      if (chunk < scored_chunks) {
        accs.insert(accs.end(), r.accuracies.begin(), r.accuracies.end());
      }
      for (const auto f : r.flip_counts) {
        flips.push_back(static_cast<double>(f));
      }
      if (chunk == 0) first = r.accuracies;
      ++chunk;
    }
  }
  s.trials_per_s = median(chunk_rates);
  s.trials_per_cpu_s = median(chunk_cpu_rates);
  for (const TrialRecord& r : d.records(0, chunk - 1)) {
    s.high_ms.push_back(r.trial_ms);
    s.eval_ms.push_back(r.eval_ms);
    s.overhead_us.push_back((r.trial_ms - r.eval_ms) * 1e3);
  }
  s.acc_mean = mean(accs);
  s.flips_mean = mean(flips);

  {
    const ScopedSpan span("bench.phase_low");
    const std::int64_t trials = std::min(kSerialTrials, chunk_trials);
    const fault::CampaignResult serial =
        d.run_chunk(kSerialTag, 0, trials, 1);
    s.attempted += trials;
    s.completed += static_cast<std::int64_t>(serial.accuracies.size());
    std::vector<double> got = serial.accuracies;
    if (args.corrupt && !got.empty()) got[0] += 1.0 / 64.0;  // gate self-test
    const auto n = static_cast<std::size_t>(trials);
    if (got.size() != n || first.size() < n ||
        std::memcmp(got.data(), first.data(), n * sizeof(double)) != 0) {
      result.mismatch(
          "serial re-run of chunk 0 differs from the parallel run");
    }
  }
  for (const TrialRecord& r : d.records(kSerialTag, kSerialTag)) {
    s.low_ms.push_back(r.trial_ms);
  }
  return s;
}

void add_layer_metrics(const CampaignSummary& s, Result& r) {
  const Tracer& tr = Tracer::get();
  r.set("eval.evaluate_ms", median(s.eval_ms), "ms");
  r.set("fault.trial_overhead_us", median(s.overhead_us), "us");
  r.set("fault.lane_build_s",
        median(tr.durations_ms("fault.lane_build")) / 1e3, "s");
  r.set("fault.flips_per_trial", s.flips_mean, "count");
}

}  // namespace

void run_campaign(const Workload& w, const Args& args, Result& result) {
  // Set-up: checkpoint load, protection and the campaign lanes.
  const std::int64_t eval_samples = args.tiny ? 16 : w.eval_samples;
  SetupTimes setup;
  std::unique_ptr<ev::PreparedModel> pm;
  std::unique_ptr<CampaignRunner> runner;
  setup.time([&] {
    pm = load_and_protect(w, args);
    runner =
        std::make_unique<CampaignRunner>(*pm, eval_samples, w.bit_error_rate);
  });
  const std::int64_t chunk_trials =
      args.tiny ? static_cast<std::int64_t>(runner->lanes()) : w.chunk_trials;
  const std::int64_t scored = args.tiny ? 1 : w.scored_chunks;
  const CampaignSummary s =
      run_phases(*runner, chunk_trials, args, result,
                 args.tiny ? 0.0 : w.campaign_share * args.seconds, scored);
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.attempted = s.attempted;
  result.failed = s.attempted - s.completed;
  result.set("throughput_cpu", s.trials_per_cpu_s, "1/cpu-s");
  result.set("throughput_wall", s.trials_per_s, "1/s");
  result.set("p50_ms_low", pct(s.low_ms, 0.50), "ms");
  result.set("p99_ms_low", pct(s.low_ms, 0.99), "ms");
  result.set("p50_ms_high", windowed(s.high_ms, 100, 0.50), "ms");
  result.set("p99_ms_high", windowed(s.high_ms, 100, 0.99), "ms");
  result.set("served_share",
             s.attempted > 0 ? static_cast<double>(s.completed) /
                                   static_cast<double>(s.attempted)
                             : 0.0,
             "fraction");
  result.set("fault_acc_mean", s.acc_mean, "fraction");
  std::fprintf(stderr,
               "campaign %s: %.2f trials/s (%.3f per CPU-s) on %zu lanes, "
               "fault accuracy %.4f over %lld scored trials, %.1f "
               "flips/trial\n",
               w.name.c_str(), s.trials_per_s, s.trials_per_cpu_s,
               runner->lanes(), s.acc_mean,
               static_cast<long long>(scored * chunk_trials), s.flips_mean);
  if (args.trace) {
    add_layer_metrics(s, result);
    // Tracing cost: one chunk with tracing off against one with it on.
    const auto rate = [&](bool traced) {
      Tracer::get().enable(traced);
      const auto t0 = Clock::now();
      const auto r = runner->run_chunk(kOverheadTag, INT32_MAX, chunk_trials,
                                       runner->lanes());
      return static_cast<double>(r.accuracies.size()) / seconds_since(t0);
    };
    const double off = rate(false);
    const double on = rate(true);
    result.set("bench.trace_overhead", off / on - 1.0, "fraction");
    probe_layers(w, *pm, args, result);
  }
  runner.reset();
  pm.reset();
  for (int rep = 1; rep < setup_reps(args); ++rep) {
    std::unique_ptr<ev::PreparedModel> p;
    std::unique_ptr<CampaignRunner> r;
    setup.time([&] {
      p = load_and_protect(w, args);
      r = std::make_unique<CampaignRunner>(*p, eval_samples,
                                           w.bit_error_rate);
    });
  }
  setup.report(result);
  std::fprintf(stderr,
               "campaign %s: set-up %.2f s CPU, %.2f s wall (medians)\n",
               w.name.c_str(), median(setup.cpu_s), median(setup.wall_s));
  if (args.trace) setup_layer_metrics(result);
}

void campaign_probe(ev::PreparedModel& pm, const Args& args,
                    Result& result) {
  CampaignRunner runner(pm, 32, 1e-5);
  const CampaignSummary s =
      run_phases(runner, static_cast<std::int64_t>(runner.lanes()) * 2, args,
                 result, 0.0, /*scored_chunks=*/1);
  add_layer_metrics(s, result);
}

}  // namespace pb
