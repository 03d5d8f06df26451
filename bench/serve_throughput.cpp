// Serving benchmark: throughput and latency of the resilient inference
// server, the micro-batching speedup over single-request serving, and
// detection coverage under live bit-flip injection.
//
// Three phases:
//   1. direct   — raw model->forward one sample at a time (no server), the
//                 floor a serving layer must not sink below;
//   2. single   — the server at max_batch 1, synchronous round-trips
//                 (single-request serving);
//   3. batched  — the server at the configured batch size and lane count,
//                 all requests in flight at once (micro-batched serving),
//                 in repeated bursts over at least 2 s; the median burst
//                 is reported.
// The headline number is batched/single throughput — what micro-batching
// buys. The batched phase counts global operator new calls per request.
// The server has one execution path, the recorded plan, so the two A/Bs
// against it are timed on one replica at the forward level, where
// serving-layer jitter cannot swamp them: plan_speedup is plan->execute
// against the eager Module::forward over the request pool cut into
// batches (the eager side is the batched_eager row and also counts its
// allocations per request), and fuse_speedup is fused against unfused
// plan execute. Both ratios and the allocation counts land in the CSV as
// the CI bench-smoke artifact. Latency columns (p50/p95/p99) all go
// through ut::percentile's ceil nearest-rank form. A final phase replays
// the batched load while periodically corrupting a lane's live parameters
// (deterministic bit flips at a high integer bit) and reports detection
// coverage: how many injections the clamp-rate detector caught, and how
// many requests were answered with outputs that differ from the clean
// model's.
//
// When the protection scheme supports it (a clamp-bound scheme: clip_act,
// ranger, or fitrelu_naive — the bounds fix the int8 activation scales),
// the batched phase also runs at nn::Precision::int8 and the CSV gains an
// int8_speedup row (int8 vs fp32 micro-batched throughput) and an
// int8_top1_delta row (fp32 minus int8 top-1 on the request pool's labels
// — the served-accuracy cost of the quantization). Both rows are always
// emitted so the CI greps cannot silently lose them; under a non-clampable
// scheme they carry zeros and a "skipped" marker.
//
// Usage: serve_throughput [--model tinycnn] [--classes 10] [--width 1.0]
//          [--requests 256] [--batch 8] [--lanes 0] [--window-us 200]
//          [--train-size 96] [--epochs 2] [--scheme clip_act]
//          [--inject-every 8] [--flips 24] [--bit 28]
//          [--kernels auto] [--precision fp32] [--min-speedup 0]
//          [--csv serve_throughput.csv]
// --min-speedup S exits non-zero when the micro-batching speedup lands
// below S (CI gate; 0 disables). --kernels scalar|avx2|auto pins the
// process-wide kernel backend (tensor/kernels) for every phase — the A/B
// lever for measuring what SIMD dispatch buys the serving path; the bench
// always reports the active backend and a scalar-vs-dispatched sgemm
// speedup in the CSV. --precision int8 serves every server phase
// quantized (the int8 A/B phase then measures ~1.0x against itself);
// the default fp32 keeps the baseline phases full-precision and lets the
// dedicated int8 phase carry the comparison.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <new>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "eval/campaign_cli.h"
#include "eval/experiment.h"
#include "eval/serving.h"
#include "fault/injector.h"
#include "nn/plan.h"
#include "serve/server.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/percentile.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

// Process-wide allocation counter: the replaced global operator new below
// bumps it on every heap allocation. The batched phases report the delta
// per request for the planned vs eager execution paths — the number the CI
// bench-smoke lane archives to pin the planned path's allocation behaviour.
std::atomic<std::uint64_t> g_alloc_count{0};

void* fitact_counted_malloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

struct PhaseReport {
  double wall_ms = 0.0;
  double req_per_s = 0.0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double allocs_per_req = -1.0;  // < 0: not measured for this phase
};

PhaseReport summarize(double wall_ms, std::vector<double> latencies) {
  PhaseReport r;
  r.wall_ms = wall_ms;
  const auto n = static_cast<double>(latencies.size());
  if (latencies.empty()) return r;
  r.req_per_s = n / (wall_ms / 1000.0);
  double sum = 0.0;
  for (const double l : latencies) sum += l;
  r.mean_latency_ms = sum / n;
  std::sort(latencies.begin(), latencies.end());
  // Ceil nearest-rank throughout (ut::percentile): the smallest sample >=
  // the requested fraction of the distribution. The old floor form
  // (p * (n-1) truncated) indexed below the requested rank for most n —
  // e.g. n=10 picked index 8 for p95, a p90 — and p50/p99 had the same
  // bias until they went through the shared helper.
  r.p50_latency_ms = fitact::ut::percentile(latencies, 0.50);
  r.p95_latency_ms = fitact::ut::percentile(latencies, 0.95);
  r.p99_latency_ms = fitact::ut::percentile(latencies, 0.99);
  return r;
}

// Timed scalar-vs-dispatched sgemm A/B on one fixed square problem: the
// kernel-dispatch headline the CI bench-smoke lane archives next to the
// serving numbers. Both passes run the identical buffers; BackendGuard
// restores whatever backend the serving phases used. Best-of-reps wall
// time per backend keeps the single-number ratio stable on busy hosts.
double measure_sgemm_speedup(std::int64_t n, double* scalar_ms_out,
                             double* active_ms_out) {
  fitact::ut::Rng rng(20220318);  // paper-date seed; any fixed value works
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n), 0.0f);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  const auto time_best = [&] {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      fitact::ut::Timer t;
      fitact::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                    0.0f, c.data(), n);
      best = std::min(best, t.elapsed_ms());
    }
    return best;
  };
  const double active_ms = time_best();
  double scalar_ms = 0.0;
  {
    const fitact::kern::BackendGuard guard(fitact::kern::Backend::scalar);
    scalar_ms = time_best();
  }
  if (scalar_ms_out != nullptr) *scalar_ms_out = scalar_ms;
  if (active_ms_out != nullptr) *active_ms_out = active_ms;
  return active_ms > 0.0 ? scalar_ms / active_ms : 0.0;
}

// Planned-vs-eager A/B on one replica lane: the request pool, cut into
// batches of `batch`, runs through the eager Module::forward and through
// plan->execute (staging included) — identical batches, identical backend,
// interleaved best-of-three per side. It is timed at the forward level
// because the serving phases' queue and future scheduling jitter (several
// percent at smoke scale) would swamp the ratio. Per request, latency is
// the latency of its batch. Both reports count heap allocations per
// request.
struct ForwardAB {
  PhaseReport eager;
  PhaseReport planned;
};

ForwardAB measure_plan_vs_eager(fitact::ev::PreparedModel& pm,
                                const std::vector<fitact::Tensor>& samples,
                                std::int64_t batch) {
  using namespace fitact;
  const serve::Lane lane = ev::make_lane(pm, ev::replicate_model(pm), batch);
  const Shape& ss = lane.plan->sample_shape();
  std::vector<Tensor> batches;
  for (std::size_t i = 0; i < samples.size();
       i += static_cast<std::size_t>(batch)) {
    const std::int64_t b = std::min<std::int64_t>(
        batch, static_cast<std::int64_t>(samples.size() - i));
    Tensor x(Shape{b, ss[0], ss[1], ss[2]});
    for (std::int64_t j = 0; j < b; ++j) {
      std::memcpy(x.data() + j * ss.numel(),
                  samples[i + static_cast<std::size_t>(j)].data(),
                  sizeof(float) * static_cast<std::size_t>(ss.numel()));
    }
    batches.push_back(std::move(x));
  }
  const NoGradGuard no_grad;
  const auto run = [&](bool planned) {
    std::vector<double> latencies;
    latencies.reserve(samples.size());
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    ut::Timer wall;
    for (const Tensor& x : batches) {
      const std::int64_t b = x.shape()[0];
      ut::Timer t;
      if (planned) {
        std::memcpy(lane.plan->input_view(b).data(), x.data(),
                    sizeof(float) * static_cast<std::size_t>(x.numel()));
        (void)lane.plan->execute(b);
      } else {
        (void)lane.model->forward(Variable(x));
      }
      latencies.insert(latencies.end(), static_cast<std::size_t>(b),
                       t.elapsed_ms());
    }
    const double wall_ms = wall.elapsed_ms();
    const std::uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    PhaseReport r = summarize(wall_ms, std::move(latencies));
    r.allocs_per_req =
        static_cast<double>(allocs) / static_cast<double>(samples.size());
    return r;
  };
  (void)run(true);  // one-time lazy costs (pack buffers) on both paths
  (void)run(false);
  ForwardAB best{run(false), run(true)};
  for (int rep = 1; rep < 3; ++rep) {
    PhaseReport eager = run(false);
    if (eager.req_per_s > best.eager.req_per_s) best.eager = std::move(eager);
    PhaseReport planned = run(true);
    if (planned.req_per_s > best.planned.req_per_s) {
      best.planned = std::move(planned);
    }
  }
  return best;
}

// Fused-epilogue A/B on the served model, measured at the plan level like
// the planned-vs-eager A/B above: plan->execute directly, identical input,
// identical backend, best-of-reps wall time per variant. The fused plan
// finishes each conv/linear with one kern::epilogue pass over the GEMM
// output (bias, BatchNorm, residual add, clamp or FitReLU, counting); the
// unfused one runs those as separate ops through intermediate slots.
double measure_fuse_speedup(const std::shared_ptr<fitact::nn::Module>& model,
                            const fitact::Shape& sample_shape,
                            std::int64_t batch, double* unfused_ms_out,
                            double* fused_ms_out) {
  using namespace fitact;
  ut::Rng rng(20220318);
  const Tensor x = Tensor::randn(
      Shape{batch, sample_shape[0], sample_shape[1], sample_shape[2]}, rng);
  const auto prime = [&](nn::InferencePlan& plan) {
    std::memcpy(plan.input_view(batch).data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    (void)plan.execute(batch);  // one-time lazy costs (pack buffers)
  };
  const auto time_once = [&](nn::InferencePlan& plan) {
    ut::Timer t;
    for (int it = 0; it < 4; ++it) (void)plan.execute(batch);
    return t.elapsed_ms();
  };
  // Two noise sources need designing out of a ~5% effect: timing jitter
  // (frequency dips, scheduler steals) and arena-placement luck — the two
  // variants' arenas differ in size, so a given allocation can land on a
  // cache-aliasing address for one of them and stay there for the plan's
  // lifetime. Interleaving the reps handles the former; recompiling both
  // plans each round samples fresh arena placements for the latter. The
  // best across rounds is each variant at a good layout on a quiet slice
  // of the host.
  double fused_ms = 1e300;
  double unfused_ms = 1e300;
  for (int round = 0; round < 4; ++round) {
    const auto fused =
        nn::InferencePlan::compile(model, sample_shape, batch, /*fuse=*/true);
    const auto unfused =
        nn::InferencePlan::compile(model, sample_shape, batch, /*fuse=*/false);
    prime(*fused);
    prime(*unfused);
    for (int rep = 0; rep < 4; ++rep) {
      fused_ms = std::min(fused_ms, time_once(*fused));
      unfused_ms = std::min(unfused_ms, time_once(*unfused));
    }
  }
  if (unfused_ms_out != nullptr) *unfused_ms_out = unfused_ms;
  if (fused_ms_out != nullptr) *fused_ms_out = fused_ms;
  return fused_ms > 0.0 ? unfused_ms / fused_ms : 0.0;
}

}  // namespace

// Counting replacements for the usual global allocation functions. Only the
// unaligned forms are replaced; over-aligned allocations fall through to the
// default aligned operator new and go uncounted, which is fine for a
// comparative A/B figure.
void* operator new(std::size_t size) { return fitact_counted_malloc(size); }
void* operator new[](std::size_t size) { return fitact_counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  const std::string model_name = cli.get("model", "tinycnn");
  const std::int64_t classes = cli.get_int("classes", 10);
  const std::int64_t requests = cli.get_int("requests", 256);
  const std::int64_t batch = cli.get_int("batch", 8);
  // 0 = one lane per hardware thread (the campaign engine's convention):
  // micro-batching's throughput win comes from keeping every core busy
  // with whole batches, so the default saturates the host.
  std::size_t lanes = cli.get_count("lanes", 0);
  if (lanes == 0) lanes = ut::default_thread_count();
  const std::int64_t window_us = cli.get_int("window-us", 200);
  const std::int64_t inject_every = cli.get_int("inject-every", 8);
  const std::uint64_t flips = static_cast<std::uint64_t>(
      std::max<std::int64_t>(cli.get_int("flips", 24), 1));
  const int bit = static_cast<int>(cli.get_int("bit", 28));
  const double min_speedup = cli.get_double("min-speedup", 0.0);
  const std::string scheme_name = cli.get("scheme", "clip_act");
  const std::string kernels = cli.get("kernels", "auto");
  const std::string precision_name = cli.get("precision", "fp32");
  if (precision_name != "fp32" && precision_name != "int8") {
    std::fprintf(stderr, "unknown --precision %s (fp32|int8)\n",
                 precision_name.c_str());
    return 2;
  }
  ut::set_log_level(ut::LogLevel::warn);

  // Pin the kernel backend before any model work, so preparation, every
  // server built below, every serving phase and the sgemm A/B all run the
  // requested arithmetic. Dispatch is process-wide (kern::force_backend).
  if (kernels == "scalar") {
    (void)kern::force_backend(kern::Backend::scalar);
  } else if (kernels == "avx2") {
    if (kern::force_backend(kern::Backend::avx2) != kern::Backend::avx2) {
      std::fprintf(stderr,
                   "warning: --kernels avx2 unavailable on this host/build; "
                   "running scalar\n");
    }
  } else if (kernels != "auto") {
    std::fprintf(stderr, "unknown --kernels %s (scalar|avx2|auto)\n",
                 kernels.c_str());
    return 2;
  }

  ev::CampaignCliDefaults defaults;
  defaults.train_size = 96;
  defaults.train_epochs = 2;
  defaults.allow_full = false;
  ev::ExperimentScale scale = ev::scale_from_cli(cli, defaults);
  if (!cli.has("test-size")) {
    scale.test_size = std::max<std::int64_t>(64, scale.train_size / 2);
  }
  if (cli.has("width")) {
    const auto width = static_cast<float>(cli.get_double("width", 1.0));
    scale.width_alexnet = width;
    scale.width_vgg16 = width;
    scale.width_resnet50 = width;
  }

  const core::Scheme scheme = [&] {
    for (const auto s : {core::Scheme::clip_act, core::Scheme::ranger,
                         core::Scheme::fitrelu_naive, core::Scheme::fitrelu,
                         core::Scheme::relu}) {
      if (core::to_string(s) == scheme_name) return s;
    }
    std::fprintf(stderr, "unknown --scheme %s\n", scheme_name.c_str());
    std::exit(2);
    return core::Scheme::relu;  // unreachable
  }();

  ev::PreparedModel pm =
      ev::prepare_model(model_name, classes, scale, "fitact_cache");
  (void)ev::protect_model(pm, scheme, scale);

  // Request pool: cycle the test split. Labels are kept per request
  // (Dataset::batch clears its labels_out each call) so the int8 phase can
  // score top-1 over the exact traffic it served.
  const std::int64_t pool = std::min<std::int64_t>(pm.test->size(), requests);
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(requests));
  std::vector<std::int64_t> labels_all;
  labels_all.reserve(static_cast<std::size_t>(requests));
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < requests; ++i) {
    samples.push_back(pm.test->batch(i % pool, 1, &labels));
    labels_all.push_back(labels.front());
  }

  // Int8 serving needs clamp bounds to fix the activation scales; under
  // other schemes the quantization pass finds nothing to convert and
  // make_server refuses (no silent fp32-under-an-int8-label).
  const bool int8_capable = scheme == core::Scheme::clip_act ||
                            scheme == core::Scheme::ranger ||
                            scheme == core::Scheme::fitrelu_naive;
  if (precision_name == "int8" && !int8_capable) {
    std::fprintf(stderr,
                 "--precision int8 requires a clamp-bound scheme "
                 "(clip_act|ranger|fitrelu_naive), got %s\n",
                 scheme_name.c_str());
    return 2;
  }

  ev::ServeOptions base;
  base.server.lanes = lanes;
  base.server.max_batch = batch;
  base.server.batch_window = std::chrono::microseconds(window_us);
  if (precision_name == "int8") base.server.precision = nn::Precision::int8;

  std::printf("Resilient serving throughput: %s (%lld params), %lld requests\n"
              "batch %lld, %zu lanes, %lld us window, scheme %s\n\n",
              model_name.c_str(),
              static_cast<long long>(pm.model->parameter_count()),
              static_cast<long long>(requests), static_cast<long long>(batch),
              lanes, static_cast<long long>(window_us), scheme_name.c_str());

  // Phase 1: direct forwards, no serving layer. Also yields the clean
  // reference predictions the injection phase checks against. Run after a
  // throwaway make_server so pm.model holds the deployed (fixed-point
  // round-tripped) parameter values every phase serves.
  { const auto warm = ev::make_server(pm, base); }
  std::vector<std::int64_t> clean_predictions;
  clean_predictions.reserve(samples.size());
  PhaseReport direct;
  {
    const NoGradGuard no_grad;
    pm.model->set_training(false);
    std::vector<double> latencies;
    latencies.reserve(samples.size());
    ut::Timer wall;
    for (const auto& s : samples) {
      ut::Timer t;
      const Variable out = pm.model->forward(Variable(s));
      clean_predictions.push_back(argmax_rows(out.value()).front());
      latencies.push_back(t.elapsed_ms());
    }
    direct = summarize(wall.elapsed_ms(), std::move(latencies));
  }

  // Phase 2: single-request serving — synchronous round-trips at batch 1.
  PhaseReport single;
  {
    ev::ServeOptions options = base;
    options.server.max_batch = 1;
    options.server.batch_window = std::chrono::microseconds(0);
    const auto server = ev::make_server(pm, options);
    std::vector<double> latencies;
    latencies.reserve(samples.size());
    ut::Timer wall;
    for (const auto& s : samples) {
      ut::Timer t;
      (void)server->infer(s);
      latencies.push_back(t.elapsed_ms());
    }
    single = summarize(wall.elapsed_ms(), std::move(latencies));
  }

  // Phase 3: micro-batched serving — everything in flight at once, as
  // repeated bursts of the whole request pool against one server. At smoke
  // scale one burst lasts ~10-15 ms, but a host that was idle serves the
  // first ~second of multi-threaded load at a fraction of its cores: on a
  // 4-vCPU VM, after a 45 s pause, bursts took 36-42 ms for the first
  // ~1 s and 11-14 ms after it. So the phase keeps bursting until it has
  // run for kMinBatchedMs and at least kMinBursts bursts, and reports the
  // median burst by throughput.
  // Allocations are counted per request over every burst; the count covers
  // the whole serving layer (request copies, futures, queue nodes), not
  // just the plan, whose steady-state execute allocates nothing.
  constexpr double kMinBatchedMs = 2000.0;
  constexpr int kMinBursts = 7;
  constexpr int kMaxBursts = 1000;
  const auto run_batched = [&](const ev::ServeOptions& options,
                               std::vector<std::int64_t>* preds) {
    const auto server = ev::make_server(pm, options);
    if (preds != nullptr) {
      preds->assign(samples.size(), -1);
    }
    // Warm-up wave: the first batches pay one-time lazy costs (worker
    // spin-up, thread-local pack buffers) that are not steady state.
    {
      const std::size_t n = std::min<std::size_t>(
          samples.size(), static_cast<std::size_t>(batch));
      std::vector<std::future<serve::RequestResult>> warm;
      warm.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        warm.push_back(server->submit(samples[i]));
      }
      for (auto& f : warm) (void)f.get();
    }
    std::vector<PhaseReport> bursts;
    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(samples.size());
    std::vector<ut::Timer> submit_time(samples.size());
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const ut::Timer phase;
    while (bursts.size() < static_cast<std::size_t>(kMaxBursts) &&
           (bursts.size() < static_cast<std::size_t>(kMinBursts) ||
            phase.elapsed_ms() < kMinBatchedMs)) {
      futures.clear();
      std::vector<double> latencies;
      latencies.reserve(samples.size());
      ut::Timer wall;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        submit_time[i].reset();
        futures.push_back(server->submit(samples[i]));
      }
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const serve::RequestResult result = futures[i].get();
        // Serving outputs are deterministic for a fixed configuration, so
        // every burst's predictions are interchangeable.
        if (preds != nullptr) (*preds)[i] = result.predicted;
        latencies.push_back(submit_time[i].elapsed_ms());
      }
      bursts.push_back(summarize(wall.elapsed_ms(), std::move(latencies)));
    }
    const double allocs =
        static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) -
                            allocs_before) /
        static_cast<double>(samples.size() * bursts.size());
    std::sort(bursts.begin(), bursts.end(),
              [](const PhaseReport& x, const PhaseReport& y) {
                return x.req_per_s < y.req_per_s;
              });
    PhaseReport r = bursts[bursts.size() / 2];
    r.allocs_per_req = allocs;
    return r;
  };
  const PhaseReport batched = run_batched(base, nullptr);
  // Planned-vs-eager A/B at the forward level. Eager has no int8 form, so
  // under --precision int8 it keeps measuring what planning buys the
  // full-precision path.
  const ForwardAB forward_ab = measure_plan_vs_eager(pm, samples, batch);
  const PhaseReport& eager_batched = forward_ab.eager;
  // Int8 A/B: the batched phase again with lane plans quantized — same
  // lanes, same batching, the arithmetic is the only variable. Predictions
  // are collected so the throughput win is priced against its top-1 cost.
  PhaseReport int8_batched;
  std::vector<std::int64_t> int8_preds;
  if (int8_capable) {
    ev::ServeOptions int8_options = base;
    int8_options.server.precision = nn::Precision::int8;
    int8_batched = run_batched(int8_options, &int8_preds);
  }

  // Phase 4: batched load with live fault injection every `inject_every`
  // waves of `batch` requests, closed-loop — each wave's futures are
  // collected before the next injection, so every injection is sampled by
  // traffic before the following one overwrites it (inject rebuilds from
  // the clean snapshot). Coverage = detections / injections; the
  // wrong-answer count is the real damage metric (an undetected fault that
  // still classifies every request correctly costs nothing — e.g. an
  // excursion driven negative that ReLU zeroes).
  std::uint64_t injections = 0;
  std::uint64_t wrong = 0;
  serve::ServerStats inj_stats;
  PhaseReport injected;
  {
    const auto server = ev::make_server(pm, base);
    ut::Rng inj_rng(4242);
    std::vector<double> latencies(samples.size(), 0.0);
    ut::Timer wall;
    std::size_t i = 0;
    std::int64_t wave = 0;
    while (i < samples.size()) {
      if (inject_every > 0 && wave % inject_every == 0) {
        const std::size_t lane =
            static_cast<std::size_t>(inj_rng.next_below(lanes));
        if (base.server.precision == nn::Precision::int8) {
          // Int8 lanes serve from the plan's quantized weight bytes — the
          // fp32 image is calibration-time storage the forward never
          // reads, so faults go into the deployed int8 bytes instead. Bit
          // 6 is the int8 analogue of the fp32 exponent flip at --bit 28:
          // a +/-64 magnitude change, the loud corruption the clamp-rate
          // detector exists for.
          server->with_lane(lane, [&](serve::Lane& l) {
            if (l.plan->int8_op_count() == 0) return;
            for (std::uint64_t f = 0; f < flips; ++f) {
              const std::size_t op = static_cast<std::size_t>(
                  inj_rng.next_below(l.plan->int8_op_count()));
              const auto span = l.plan->int8_weight_span(op);
              span.first[static_cast<std::size_t>(
                  inj_rng.next_below(span.second))] ^= 0x40;
            }
          });
        } else {
          server->with_lane(lane,
                            [&](nn::Module&, quant::ParamImage& image) {
                              fault::Injector injector(image);
                              (void)injector.inject_exact_at_bit(flips, bit,
                                                                 inj_rng);
                            });
        }
        ++injections;
      }
      const std::size_t end = std::min(
          samples.size(), i + static_cast<std::size_t>(batch));
      std::vector<std::future<serve::RequestResult>> futures;
      futures.reserve(end - i);
      const std::size_t wave_begin = i;
      for (; i < end; ++i) futures.push_back(server->submit(samples[i]));
      for (std::size_t r = 0; r < futures.size(); ++r) {
        const serve::RequestResult result = futures[r].get();
        if (result.predicted != clean_predictions[wave_begin + r]) ++wrong;
      }
      ++wave;
    }
    injected = summarize(wall.elapsed_ms(), std::move(latencies));
    server->drain();
    inj_stats = server->stats();
  }

  // Kernel-dispatch A/B, after the serving phases so its cache traffic
  // cannot perturb them. Under --kernels scalar this reports ~1.0x.
  const std::string backend_name = kern::backend_name(kern::active_backend());
  double sgemm_scalar_ms = 0.0;
  double sgemm_active_ms = 0.0;
  const double sgemm_speedup =
      measure_sgemm_speedup(256, &sgemm_scalar_ms, &sgemm_active_ms);

  const double speedup =
      single.req_per_s > 0.0 ? batched.req_per_s / single.req_per_s : 0.0;
  // Int8 headline pair: throughput ratio against the fp32 batched phase,
  // and the top-1 it costs — both over the identical request pool.
  const double int8_speedup =
      int8_capable && batched.req_per_s > 0.0
          ? int8_batched.req_per_s / batched.req_per_s
          : 0.0;
  const auto top1 = [&](const std::vector<std::int64_t>& preds) {
    if (preds.empty()) return 0.0;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == labels_all[i]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(preds.size());
  };
  const double top1_fp32 = top1(clean_predictions);
  const double top1_int8 = top1(int8_preds);
  const double int8_top1_delta = int8_capable ? top1_fp32 - top1_int8 : 0.0;
  const double coverage =
      injections > 0 ? static_cast<double>(inj_stats.detections) /
                           static_cast<double>(injections)
                     : 0.0;

  ut::TextTable table({"phase", "wall ms", "req/s", "mean lat ms",
                       "p50 lat ms", "p95 lat ms", "p99 lat ms",
                       "allocs/req"});
  const auto row = [&](const std::string& name, const PhaseReport& r,
                       bool lat) {
    table.row({name, ut::TextTable::fixed(r.wall_ms, 1),
               ut::TextTable::fixed(r.req_per_s, 1),
               lat ? ut::TextTable::fixed(r.mean_latency_ms, 2) : "-",
               lat ? ut::TextTable::fixed(r.p50_latency_ms, 2) : "-",
               lat ? ut::TextTable::fixed(r.p95_latency_ms, 2) : "-",
               lat ? ut::TextTable::fixed(r.p99_latency_ms, 2) : "-",
               r.allocs_per_req >= 0.0
                   ? ut::TextTable::fixed(r.allocs_per_req, 1)
                   : "-"});
  };
  row("direct forward", direct, true);
  row("server, single-request", single, true);
  row("server, micro-batched", batched, true);
  row("eager forward, batches", eager_batched, true);
  row("plan execute, batches", forward_ab.planned, true);
  if (int8_capable) row("server, micro-batched (int8)", int8_batched, true);
  row("micro-batched + injection", injected, false);
  table.print();

  const double plan_speedup =
      eager_batched.req_per_s > 0.0
          ? forward_ab.planned.req_per_s / eager_batched.req_per_s
          : 0.0;
  // Plan-level fused/unfused ratio on the served model (see
  // measure_plan_vs_eager for why this is not derived from the phases).
  const Shape request_shape = samples.front().shape();
  double fuse_unfused_ms = 0.0;
  double fuse_fused_ms = 0.0;
  const double fuse_speedup = measure_fuse_speedup(
      pm.model, Shape{request_shape[1], request_shape[2], request_shape[3]},
      batch, &fuse_unfused_ms, &fuse_fused_ms);
  std::printf("\nmicrobatch_speedup: %.2fx (batched vs single-request)\n",
              speedup);
  std::printf("plan_speedup: %.2fx (plan execute vs eager forward at batch "
              "%lld); allocs/request served %.1f, eager forward %.1f\n",
              plan_speedup, static_cast<long long>(batch),
              batched.allocs_per_req, eager_batched.allocs_per_req);
  std::printf("fuse_speedup: %.2fx (plan execute at batch %lld, "
              "unfused %.2f ms vs fused %.2f ms)\n",
              fuse_speedup, static_cast<long long>(batch), fuse_unfused_ms,
              fuse_fused_ms);
  if (int8_capable) {
    std::printf("int8_speedup: %.2fx (int8 vs fp32 micro-batched); "
                "top-1 fp32 %.4f, int8 %.4f, delta %.4f\n",
                int8_speedup, top1_fp32, top1_int8, int8_top1_delta);
  } else {
    std::printf("int8_speedup: skipped (scheme %s has no clamp bounds to "
                "fix the activation scales)\n",
                scheme_name.c_str());
  }
  std::printf("kernel_backend: %s  sgemm_speedup: %.2fx "
              "(256^3 GEMM, scalar %.2f ms vs dispatched %.2f ms)\n",
              backend_name.c_str(), sgemm_speedup, sgemm_scalar_ms,
              sgemm_active_ms);
  std::printf("injections: %llu  detections: %llu  recoveries: %llu  "
              "coverage: %.0f%%\n",
              static_cast<unsigned long long>(injections),
              static_cast<unsigned long long>(inj_stats.detections),
              static_cast<unsigned long long>(inj_stats.recoveries),
              coverage * 100.0);
  std::printf("wrong answers under injection: %llu / %zu requests\n",
              static_cast<unsigned long long>(wrong), samples.size());

  const std::string csv_path = cli.get("csv", "serve_throughput.csv");
  ut::CsvWriter csv(csv_path,
                    {"phase", "wall_ms", "req_per_s", "mean_latency_ms",
                     "p50_latency_ms", "p95_latency_ms", "p99_latency_ms"});
  const auto csv_row = [&](const std::string& name, const PhaseReport& r,
                           bool has_latency) {
    csv.row({name, ut::CsvWriter::num(r.wall_ms),
             ut::CsvWriter::num(r.req_per_s),
             has_latency ? ut::CsvWriter::num(r.mean_latency_ms) : "",
             has_latency ? ut::CsvWriter::num(r.p50_latency_ms) : "",
             has_latency ? ut::CsvWriter::num(r.p95_latency_ms) : "",
             has_latency ? ut::CsvWriter::num(r.p99_latency_ms) : ""});
  };
  csv_row("direct", direct, true);
  csv_row("single", single, true);
  csv_row("batched", batched, true);
  csv_row("batched_eager", eager_batched, true);
  if (int8_capable) csv_row("batched_int8", int8_batched, true);
  // Per-request latency is not measured in the closed-loop injection phase.
  csv_row("injected", injected, false);
  csv.row({"speedup", ut::CsvWriter::num(speedup), "", "", "", "", ""});
  csv.row({"plan_speedup", ut::CsvWriter::num(plan_speedup), "", "", "", "",
           ""});
  csv.row({"fuse_speedup", ut::CsvWriter::num(fuse_speedup),
           ut::CsvWriter::num(fuse_unfused_ms),
           ut::CsvWriter::num(fuse_fused_ms), "", "", ""});
  // Served (whole front end, planned lanes) and eager-forward-only counts.
  csv.row({"allocs_per_request", ut::CsvWriter::num(batched.allocs_per_req),
           ut::CsvWriter::num(eager_batched.allocs_per_req), "", "", "", ""});
  // Always present so the CI greps fail loudly if the int8 phase ever
  // vanishes; a non-clampable scheme marks them skipped instead of lying
  // with a measured-looking zero.
  csv.row({"int8_speedup", ut::CsvWriter::num(int8_speedup),
           int8_capable ? "" : "skipped", "", "", "", ""});
  csv.row({"int8_top1_delta", ut::CsvWriter::num(int8_top1_delta),
           ut::CsvWriter::num(top1_fp32), ut::CsvWriter::num(top1_int8),
           int8_capable ? "" : "skipped", "", ""});
  csv.row({"kernel_backend", backend_name, "", "", "", "", ""});
  csv.row({"sgemm_speedup", ut::CsvWriter::num(sgemm_speedup),
           ut::CsvWriter::num(sgemm_scalar_ms),
           ut::CsvWriter::num(sgemm_active_ms), "", "", ""});
  csv.row({"detection_coverage", ut::CsvWriter::num(coverage),
           ut::CsvWriter::num(static_cast<double>(injections)),
           ut::CsvWriter::num(static_cast<double>(inj_stats.detections)),
           ut::CsvWriter::num(static_cast<double>(wrong)), "", ""});
  std::printf("CSV: %s\n", csv_path.c_str());

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: micro-batching speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
