// Serving workloads: one InferenceServer driven by an in-process load
// generator. After a warm-up burst, these phases run in order:
//   low     — open loop, Poisson arrivals at the workload's low fixed rate;
//   high    — open loop at the high fixed rate: Poisson plus periodic bursts;
//   sat     — closed loop with a fixed client count (saturation throughput);
//   fault   — closed loop over whole passes of the request pool while seeded
//             bit flips go into lane parameters between requests (detection,
//             scrub and re-run);
//   recheck — after the lanes are scrubbed, one closed-loop pass over the
//             whole pool, so every sample's first answer is compared with
//             at least one later answer.
// The generator is the calling thread; server lanes take the remaining
// hardware threads. Each request is timed from when it was due, and
// completions are stamped when a poll finds them ready — never by an
// in-order future::get, which would charge a fast request for a slow one.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "autograd/variable.h"
#include "serve_session.h"

namespace pb {

using namespace fitact;

namespace {

constexpr std::int64_t kMaxBatch = 8;
// Faults flip one high integer bit of the Q1.15.16 parameter image, a
// +/-4096 change per flipped word: loud enough to matter.
constexpr int kFaultBit = 28;
// High-rate bursts: a tenth of the traffic arrives in bursts every 50 ms.
// Kept small so the median stays on the Poisson traffic and the bursts
// show in p99.
constexpr double kBurstPeriodS = 0.05;
constexpr double kBurstShare = 0.1;
// The open-loop generator's poll interval when nothing is due or ready
// (timer slack is set to 1 us in main, so the nap is close to this).
constexpr std::chrono::microseconds kIdleNap{20};
// Saturation throughput is the median over windows of this length.
constexpr double kRateWindowS = 0.5;
// Records reserved for a timed phase (more than a 2 s phase completes).
constexpr std::size_t kTimedReserve = std::size_t{1} << 16;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

bool ready(const std::future<serve::RequestResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

}  // namespace

ServeSession::ServeSession(const Workload& w, const Args& args,
                           ev::PreparedModel& pm, Result& result)
    : w_(w), args_(args), pm_(pm), result_(result),
      rng_(args.seed * 0x9E3779B97F4A7C15ull + 17) {
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < pm.test->size(); ++i) {
    samples_.push_back(pm.test->batch(i, 1, &labels));
    labels_.push_back(labels.front());
  }
  // First answers are stored during the timed phases; reserved rows keep
  // that copy from allocating there.
  first_.resize(samples_.size());
  for (auto& row : first_) row.reserve(static_cast<std::size_t>(kClasses));
  clean_pred_.assign(samples_.size(), -1);
}

ServeSession::~ServeSession() = default;

std::unique_ptr<serve::InferenceServer> ServeSession::make_server(
    const Workload& w, ev::PreparedModel& pm) {
  ev::ServeOptions o;
  // The generator takes one hardware thread; lanes take the rest.
  o.server.lanes = std::max<std::size_t>(1, hw_threads() - 1);
  // Greedy batching (the server's default window of 0): a lane takes what
  // is queued at once. A waiting window adds a timer wake-up per batch,
  // which on a busy VM host measured as the largest source of latency
  // noise at the low rate.
  o.server.max_batch = kMaxBatch;
  o.server.detection = true;
  o.server.precision = w.precision;
  const ScopedSpan span("eval.make_server");
  return ev::make_server(pm, o);
}

ServePlan ServeSession::plan_for(const Workload& w, const Args& args) {
  ServePlan p;
  p.inject_every = w.inject_every;
  if (args.tiny) {
    p.low_requests = 64;
    p.high_requests = 64;
    p.sat_seconds = 0.2;
    p.sat_clients = w.sat_clients;
    p.fault_requests = 64;
    return p;
  }
  // Each latency phase holds at least phase_requests (>= 1000, so p99 has
  // ten samples beyond it) and stretches with --seconds.
  p.low_requests = std::max<std::int64_t>(
      w.phase_requests,
      static_cast<std::int64_t>(w.rate_low * 0.35 * args.seconds));
  p.high_requests = std::max<std::int64_t>(
      w.phase_requests,
      static_cast<std::int64_t>(w.rate_high * 0.3 * args.seconds));
  p.sat_seconds = 0.2 * args.seconds;
  p.sat_clients = w.sat_clients;
  p.fault_requests = w.fault_passes * w.test_size;
  return p;
}

void ServeSession::start(std::unique_ptr<serve::InferenceServer> server) {
  server_ = std::move(server);
  lanes_ = server_->lane_count();
  // Eager reference rows: pm.model now holds the deployed (fixed-point
  // round-tripped) parameters every lane serves. int8 lanes compute a
  // different function, so only the first-answer rule applies to them.
  if (w_.precision == nn::Precision::fp32) {
    const NoGradGuard no_grad;
    pm_.model->set_training(false);
    ref_.resize(samples_.size());
    for (std::size_t s = 0; s < samples_.size(); ++s) {
      const Variable out = pm_.model->forward(Variable(samples_[s]));
      const Tensor& v = out.value();
      ref_[s].assign(v.data(), v.data() + v.numel());
    }
  }
}

std::vector<std::int32_t> ServeSession::sample_order(std::int64_t count) {
  // Whole seeded permutations of the pool, so every pass serves each
  // sample once.
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(count));
  std::vector<std::size_t> perm(samples_.size());
  while (static_cast<std::int64_t>(out.size()) < count) {
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng_.shuffle(perm);
    for (const std::size_t p : perm) {
      if (static_cast<std::int64_t>(out.size()) == count) break;
      out.push_back(static_cast<std::int32_t>(p));
    }
  }
  return out;
}

std::vector<double> ServeSession::poisson(double rate, std::int64_t count) {
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng_.next_double()) / rate;
    due.push_back(t);
  }
  return due;
}

std::vector<double> ServeSession::bursty(double rate, std::int64_t count) {
  // Poisson at (1 - share) of the rate, plus a burst every period carrying
  // the remaining share, all due at the same instant.
  const auto burst = static_cast<std::int64_t>(
      std::max(1.0, std::round(kBurstShare * rate * kBurstPeriodS)));
  const double base = (1.0 - kBurstShare) * rate;
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  double next_burst = kBurstPeriodS;
  const auto full = [&] {
    return static_cast<std::int64_t>(due.size()) >= count;
  };
  while (!full()) {
    t += -std::log(1.0 - rng_.next_double()) / base;
    for (; next_burst <= t && !full(); next_burst += kBurstPeriodS) {
      for (std::int64_t b = 0; b < burst && !full(); ++b) {
        due.push_back(next_burst);
      }
    }
    if (!full()) due.push_back(t);
  }
  return due;
}

void ServeSession::check(const serve::RequestResult& r, std::int32_t s,
                         bool clean) {
  if (!clean) return;
  const float* row = r.logits.data();
  const auto n = static_cast<std::size_t>(r.logits.numel());
  const auto i = static_cast<std::size_t>(s);
  if (first_[i].empty()) {
    first_[i].assign(row, row + n);
    clean_pred_[i] = r.predicted;
    // Gate self-test: corrupt the first stored answer. The recheck pass
    // serves its sample again, so the gate must then trip.
    if (args_.corrupt && !corrupted_) {
      first_[i][0] += 1.0f;
      corrupted_ = true;
    }
  } else if (first_[i].size() != n ||
             std::memcmp(first_[i].data(), row, n * sizeof(float)) != 0) {
    result_.mismatch("sample " + std::to_string(s) +
                     ": served row differs from its first answer (batch of " +
                     std::to_string(r.batch_size) + ")");
  }
  if (!ref_.empty() &&
      (ref_[i].size() != n ||
       std::memcmp(ref_[i].data(), row, n * sizeof(float)) != 0)) {
    result_.mismatch("sample " + std::to_string(s) +
                     ": served row differs from the eager forward");
  }
}

PhaseStats ServeSession::run_phase(const char* name, PhaseKind kind,
                                   const std::vector<double>& due_s,
                                   const std::vector<std::int32_t>& order,
                                   double seconds, std::size_t clients) {
  const ScopedSpan phase_span(name);
  PhaseStats st;
  const bool open = kind == PhaseKind::low || kind == PhaseKind::high;
  const bool fault = kind == PhaseKind::fault;
  // Timed closed loops run for `seconds`; the fault and recheck loops run
  // `order` once.
  const bool timed = kind == PhaseKind::warm || kind == PhaseKind::sat;
  std::size_t next = 0;
  // Timed phases also count completions per window; their median rate is
  // the phase's wall-clock throughput.
  std::vector<std::int64_t> window_counts(
      timed ? static_cast<std::size_t>(std::max(1.0, seconds / kRateWindowS))
            : 0,
      0);
  // Reserve what the loop records, so the allocations counted below are
  // the library's: submit, the batch and the answer.
  const std::size_t expect = open ? due_s.size()
                             : timed ? kTimedReserve
                                     : order.size();
  st.latency_ms.reserve(expect);
  st.lag_ms.reserve(expect);
  st.batch_sizes.reserve(expect);
  if (fault) st.done.reserve(expect);
  pending_.clear();
  pending_.reserve(std::max(expect, clients));
  const std::uint64_t allocs0 = alloc_count();
  const double cpu0 = process_cpu_s();
  const double gen_cpu0 = thread_cpu_s();
  double submit_cpu_s = 0.0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto t_end = t0 + to_duration(seconds);

  const auto submit = [&](Clock::time_point due) {
    if (fault && inject_every_ > 0 &&
        next % static_cast<std::size_t>(inject_every_) == 0) {
      inject();
    }
    Pending p;
    p.sample = order[next % order.size()];
    p.due = due;
    p.after_injection = static_cast<std::int64_t>(injection_lane_.size()) - 1;
    {
      const ScopedSpan span("serve.submit", next);
      const double c = thread_cpu_s();
      p.future = server_->submit(samples_[static_cast<std::size_t>(p.sample)]);
      submit_cpu_s += thread_cpu_s() - c;
    }
    st.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    ++st.attempted;
    pending_.push_back(std::move(p));
    ++next;
  };
  const auto may_submit = [&](Clock::time_point now) {
    return timed ? now < t_end : next < order.size();
  };

  if (!open) {
    while (Clock::now() < t0) {
    }
    for (std::size_t c = 0; c < clients && may_submit(Clock::now()); ++c) {
      submit(Clock::now());
    }
  }
  while (true) {
    bool progressed = false;
    if (open) {
      const auto now = Clock::now();
      for (; next < due_s.size() && t0 + to_duration(due_s[next]) <= now;
           progressed = true) {
        submit(t0 + to_duration(due_s[next]));
      }
    }
    // Poll every outstanding request and stamp the ready ones. A closed-loop
    // client whose answer arrived submits again after the sweep.
    std::size_t resubmit = 0;
    for (std::size_t i = 0; i < pending_.size();) {
      if (!ready(pending_[i].future)) {
        ++i;
        continue;
      }
      const auto done = Clock::now();
      progressed = true;
      Pending& p = pending_[i];
      try {
        const serve::RequestResult r = p.future.get();
        ++st.completed;
        if (!timed || done <= t_end) {
          ++st.in_window;
          if (timed) {
            const auto w = static_cast<std::size_t>(
                std::chrono::duration<double>(done - t0).count() /
                kRateWindowS);
            if (w < window_counts.size()) ++window_counts[w];
          }
          st.latency_ms.push_back(
              std::chrono::duration<double, std::milli>(done - p.due).count());
        }
        st.batch_sizes.push_back(static_cast<double>(r.batch_size));
        check(r, p.sample, !fault);
        if (fault) {
          st.done.push_back(
              {p.sample, r.lane, r.recovered, r.predicted, p.after_injection});
        }
      } catch (const std::exception& e) {
        ++st.failed;
        result_.mismatch(std::string("request failed: ") + e.what());
      }
      if (i + 1 != pending_.size()) pending_[i] = std::move(pending_.back());
      pending_.pop_back();
      if (!open) ++resubmit;
    }
    for (; resubmit > 0 && may_submit(Clock::now()); --resubmit) {
      submit(Clock::now());
    }
    const bool schedule_done =
        open ? next >= due_s.size() : !may_submit(Clock::now());
    if (schedule_done && pending_.empty()) break;
    // Idle. An open loop naps until the next due time comes near, leaving
    // the CPU to the lanes; a closed loop's clients answer at once, so it
    // only yields (a nap there adds client think time that grows with the
    // host's wake-up latency).
    if (!progressed) {
      if (open) {
        std::this_thread::sleep_for(kIdleNap);
      } else {
        std::this_thread::yield();
      }
    }
  }
  st.wall_s = timed ? seconds : seconds_since(t0);
  for (const std::int64_t c : window_counts) {
    st.window_rates.push_back(static_cast<double>(c) / kRateWindowS);
  }
  st.allocs = alloc_count() - allocs0;
  // The generator thread polls without blocking; its CPU time is the
  // bench's, except for the time it spent inside submit.
  st.server_cpu_s =
      process_cpu_s() - cpu0 - (thread_cpu_s() - gen_cpu0) + submit_cpu_s;
  return st;
}

void ServeSession::inject() {
  const auto lane = static_cast<std::size_t>(rng_.next_below(lanes_));
  const auto k = static_cast<std::int64_t>(injection_lane_.size());
  injection_lane_.push_back(lane);
  const ScopedSpan span("serve.inject");
  // While the lane is held, every batch it ran has answered and none has
  // started since: a request still unanswered now runs after this fault.
  const auto mark_pending = [&] {
    for (Pending& p : pending_) {
      if (!ready(p.future)) p.after_injection = k;
    }
  };
  // int8 lanes read their quantized weights from the plan, so flips in
  // the image reach them only through the fp32 tensors the plan still
  // reads live (biases, folded BatchNorm shifts).
  server_->with_lane(lane, [&](nn::Module&, quant::ParamImage& image) {
    fault::Injector injector(image);
    (void)injector.inject_exact_at_bit(w_.fault_flips, kFaultBit, rng_);
    mark_pending();
  });
}

FaultStats ServeSession::score_faults(const PhaseStats& st) const {
  // A request served by lane L belongs to the latest injection on L that
  // its batch ran after. An injection is exercised when a batch belongs to
  // it, and detected when such a batch was re-run after a detection.
  FaultStats fs;
  const std::size_t n = injection_lane_.size();
  std::vector<std::vector<std::int64_t>> by_lane(lanes_);
  for (std::size_t k = 0; k < n; ++k) {
    by_lane[injection_lane_[k]].push_back(static_cast<std::int64_t>(k));
  }
  std::vector<char> exercised(n, 0);
  std::vector<char> detected(n, 0);
  for (const Done& d : st.done) {
    const auto& ks = by_lane[d.lane];
    const auto it =
        std::upper_bound(ks.begin(), ks.end(), d.after_injection);
    if (it != ks.begin()) {
      const auto k = static_cast<std::size_t>(*(it - 1));
      exercised[k] = 1;
      if (d.recovered) detected[k] = 1;
    }
    const auto s = static_cast<std::size_t>(d.sample);
    if (d.predicted == labels_[s]) ++fs.correct;
    if (clean_pred_[s] >= 0 && d.predicted != clean_pred_[s]) ++fs.silent;
  }
  fs.injections = static_cast<std::int64_t>(n);
  for (std::size_t k = 0; k < n; ++k) {
    fs.exercised += exercised[k];
    fs.detected += detected[k];
  }
  fs.answered = static_cast<std::int64_t>(st.done.size());
  return fs;
}

ServeSummary ServeSession::run_all(const ServePlan& plan) {
  ServeSummary sum;
  // Warm-up: lazy per-thread costs (pack buffers, first futures) are not
  // steady state. Gate-checked, not measured.
  (void)run_phase("bench.warmup", PhaseKind::warm, {},
                  sample_order(static_cast<std::int64_t>(samples_.size())),
                  0.2, lanes_ * kMaxBatch);
  const serve::ServerStats before = server_->stats();
  const auto pool = static_cast<std::int64_t>(samples_.size());
  if (plan.low_requests > 0) {
    sum.low = run_phase("bench.phase_low", PhaseKind::low,
                        poisson(w_.rate_low, plan.low_requests),
                        sample_order(plan.low_requests), 0.0, 0);
  }
  if (plan.high_requests > 0) {
    sum.high = run_phase("bench.phase_high", PhaseKind::high,
                         bursty(w_.rate_high, plan.high_requests),
                         sample_order(plan.high_requests), 0.0, 0);
  }
  sum.sat = run_phase("bench.phase_sat", PhaseKind::sat, {},
                      sample_order(pool), plan.sat_seconds, plan.sat_clients);
  server_->drain();
  sum.clean_stats = server_->stats();
  sum.clean_stats.batches -= before.batches;
  sum.clean_stats.forwards -= before.forwards;
  sum.clean_stats.detections -= before.detections;
  if (plan.fault_requests > 0) {
    inject_every_ = plan.inject_every;
    sum.fault = run_phase("bench.phase_fault", PhaseKind::fault, {},
                          sample_order(plan.fault_requests), 0.0,
                          plan.sat_clients);
    inject_every_ = 0;
    sum.faults = score_faults(sum.fault);
    // Scrub what detection missed, so later phases serve clean lanes.
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      server_->with_lane(lane, [](serve::Lane& l) {
        l.image->restore();
        if (l.plan) l.plan->restore_int8_weights();
      });
    }
  }
  sum.recheck = run_phase("bench.phase_recheck", PhaseKind::recheck, {},
                          sample_order(pool), 0.0, plan.sat_clients);
  return sum;
}

double ServeSession::trace_overhead(double seconds) {
  Tracer& tr = Tracer::get();
  const auto order = sample_order(static_cast<std::int64_t>(samples_.size()));
  tr.enable(false);
  const PhaseStats off = run_phase("bench.overhead_off", PhaseKind::sat, {},
                                   order, seconds, w_.sat_clients);
  tr.enable(true);
  const PhaseStats on = run_phase("bench.overhead_on", PhaseKind::sat, {},
                                  order, seconds, w_.sat_clients);
  return median(off.window_rates) / median(on.window_rates) - 1.0;
}

void ServeSession::add_layer_metrics(const ServeSummary& s, Result& r) const {
  const Tracer& tr = Tracer::get();
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  // Batching and allocations are read on the high-rate phase; a session
  // without open-loop phases (the campaign's probe) reads them on its
  // closed loop.
  const PhaseStats& load = s.high.attempted > 0 ? s.high : s.sat;
  r.set("serve.submit_us", pct(tr.durations_ms("serve.submit"), 0.5) * 1e3,
        "us");
  r.set("serve.batch_size_mean", mean(load.batch_sizes), "count");
  r.set("serve.allocs_per_req",
        ratio(static_cast<double>(load.allocs),
              static_cast<double>(load.attempted)),
        "count");
  r.set("serve.forwards_per_batch",
        ratio(static_cast<double>(s.clean_stats.forwards),
              static_cast<double>(s.clean_stats.batches)),
        "count");
  r.set("serve.false_detections",
        static_cast<double>(s.clean_stats.detections), "count");
  r.set("serve.silent_error_share",
        ratio(static_cast<double>(s.faults.silent),
              static_cast<double>(s.faults.answered)),
        "fraction");
  r.set("serve.detect_coverage",
        ratio(static_cast<double>(s.faults.detected),
              static_cast<double>(s.faults.exercised)),
        "fraction");
  std::vector<double> lag = s.low.lag_ms;
  lag.insert(lag.end(), s.high.lag_ms.begin(), s.high.lag_ms.end());
  if (lag.empty()) lag = s.sat.lag_ms;
  r.set("bench.gen_lag_p99_ms", pct(lag, 0.99), "ms");
}

void run_serve(const Workload& w, const Args& args, Result& result) {
  // Set-up: checkpoint load, protection and make_server.
  SetupTimes setup;
  std::unique_ptr<ev::PreparedModel> pm;
  std::unique_ptr<serve::InferenceServer> server;
  setup.time([&] {
    pm = load_and_protect(w, args);
    server = ServeSession::make_server(w, *pm);
  });
  {
    ServeSession session(w, args, *pm, result);
    session.start(std::move(server));
    const ServeSummary s = session.run_all(ServeSession::plan_for(w, args));
    result.set("peak_rss_mb", peak_rss_mb(), "MB");

    const auto share = [](std::int64_t a, std::int64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    result.attempted = s.low.attempted + s.high.attempted + s.sat.attempted +
                       s.fault.attempted + s.recheck.attempted;
    result.failed = s.low.failed + s.high.failed + s.sat.failed +
                    s.fault.failed + s.recheck.failed;
    result.set("throughput_cpu",
               static_cast<double>(s.sat.completed) / s.sat.server_cpu_s,
               "1/cpu-s");
    result.set("throughput_wall", median(s.sat.window_rates), "1/s");
    result.set("p50_ms_low", windowed(s.low.latency_ms, 1000, 0.50), "ms");
    result.set("p99_ms_low", windowed(s.low.latency_ms, 1000, 0.99), "ms");
    result.set("p50_ms_high", windowed(s.high.latency_ms, 1000, 0.50), "ms");
    result.set("p99_ms_high", windowed(s.high.latency_ms, 1000, 0.99), "ms");
    result.set("served_share",
               share(result.attempted - result.failed, result.attempted),
               "fraction");
    result.set("fault_acc_mean", share(s.faults.correct, s.faults.answered),
               "fraction");
    std::fprintf(stderr,
                 "serve %s: low %lld req at %.0f/s, high %lld at %.0f/s, sat "
                 "%lld in %.2f s (%.2f CPU-s); %lld injections, %lld "
                 "exercised, %lld detected; %lld silent errors in %lld "
                 "answers\n",
                 w.name.c_str(), static_cast<long long>(s.low.attempted),
                 w.rate_low, static_cast<long long>(s.high.attempted),
                 w.rate_high, static_cast<long long>(s.sat.in_window),
                 s.sat.wall_s, s.sat.server_cpu_s,
                 static_cast<long long>(s.faults.injections),
                 static_cast<long long>(s.faults.exercised),
                 static_cast<long long>(s.faults.detected),
                 static_cast<long long>(s.faults.silent),
                 static_cast<long long>(s.faults.answered));
    if (args.trace) {
      session.add_layer_metrics(s, result);
      result.set("bench.trace_overhead",
                 session.trace_overhead(args.tiny ? 0.1 : 0.1 * args.seconds),
                 "fraction");
      probe_layers(w, *pm, args, result);
    }
  }
  pm.reset();
  for (int rep = 1; rep < setup_reps(args); ++rep) {
    std::unique_ptr<ev::PreparedModel> p;
    std::unique_ptr<serve::InferenceServer> srv;
    setup.time([&] {
      p = load_and_protect(w, args);
      srv = ServeSession::make_server(w, *p);
    });
  }
  setup.report(result);
  std::fprintf(stderr, "serve %s: set-up %.2f s CPU, %.2f s wall (medians)\n",
               w.name.c_str(), median(setup.cpu_s), median(setup.wall_s));
  if (args.trace) setup_layer_metrics(result);
}

void serve_probe(const Workload& w, ev::PreparedModel& pm, const Args& args,
                 Result& result) {
  ServeSession session(w, args, pm, result);
  session.start(ServeSession::make_server(w, pm));
  // Closed loops only, so no rate has to be chosen for this model: enough
  // clients to keep every lane's batch full.
  ServePlan p;
  p.sat_seconds = args.tiny ? 0.1 : 0.3;
  p.sat_clients = session.lanes() * static_cast<std::size_t>(kMaxBatch);
  p.fault_requests = args.tiny ? 32 : 128;
  p.inject_every = w.inject_every;
  const ServeSummary s = session.run_all(p);
  session.add_layer_metrics(s, result);
}

}  // namespace pb
