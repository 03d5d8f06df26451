// Per-layer probe for traced runs. Times each layer's public entry point on
// the workload's own model (plan compile and execute, eager forward,
// parameter-image restore), the kernels at fixed shapes, and the layer the
// workload itself does not drive: a short campaign on a serve workload's
// model, a short serving session on the campaign's model. Kernel operation
// counts are computed from the shapes, not measured.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "autograd/variable.h"
#include "bench.h"
#include "eval/serving.h"
#include "quant/param_image.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"

namespace pb {

using namespace fitact;

namespace {

/// Median wall time (ms) of `fn` over repeated calls: at least `min_reps`
/// calls and at least `min_s` seconds.
template <typename Fn>
double time_ms(Fn&& fn, int min_reps, double min_s) {
  std::vector<double> ms;
  const auto t0 = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps || seconds_since(t0) < min_s) {
    const auto a = Clock::now();
    fn();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - a).count());
  }
  return median(ms);
}

double sgemm_gflops(std::int64_t m, std::int64_t n, std::int64_t k) {
  ut::Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  const double ms = time_ms(
      [&] {
        sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
              c.data(), n);
      },
      20, 0.15);
  return 2.0 * static_cast<double>(m * n * k) / (ms * 1e6);
}

double i8_gemm_gops(std::int64_t m, std::int64_t n, std::int64_t k) {
  ut::Rng rng(7);
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * k));
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.next_int(-127, 127));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.next_int(0, 127));
  const double ms = time_ms(
      [&] {
        kern::gemm_i8u8_dot(m, n, k, a.data(), k, b.data(), k, c.data(), n,
                            /*a_unsigned=*/false);
      },
      20, 0.15);
  return 2.0 * static_cast<double>(m * n * k) / (ms * 1e6);
}

void probe_plan(const Workload& w, ev::PreparedModel& pm, Result& r) {
  const std::shared_ptr<nn::Module> model = ev::replicate_model(pm);
  model->set_training(false);
  const Tensor x8 = pm.test->batch(0, 8, nullptr);
  const Shape sample{x8.shape()[1], x8.shape()[2], x8.shape()[3]};
  const std::int64_t per = x8.numel() / 8;
  float input_range = -1.0f;
  if (w.precision == nn::Precision::int8) {
    // ev::make_server's int8 input calibration over its 64 samples.
    const Tensor cal = pm.test->batch(0, std::min<std::int64_t>(
                                             64, pm.test->size()),
                                      nullptr);
    for (std::int64_t j = 0; j < cal.numel(); ++j) {
      input_range = std::max(input_range, std::abs(cal.data()[j]));
    }
  }
  std::shared_ptr<nn::InferencePlan> plan;
  std::vector<double> compile_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const ScopedSpan span("nn.compile");
    const auto t0 = Clock::now();
    plan = nn::InferencePlan::compile(model, sample, 8, /*fuse=*/true,
                                      w.precision, input_range);
    compile_ms.push_back(seconds_since(t0) * 1e3);
  }
  r.set("nn.compile_ms", median(compile_ms), "ms");
  r.set("nn.arena_mb", static_cast<double>(plan->arena_bytes()) / (1 << 20),
        "MB");
  r.set("nn.ops", static_cast<double>(plan->op_count()), "count");
  r.set("nn.fused_ops", static_cast<double>(plan->fused_op_count()), "count");
  r.set("nn.int8_ops", static_cast<double>(plan->int8_op_count()), "count");

  const auto execute_us = [&](std::int64_t b) {
    std::memcpy(plan->input_view(b).data(), x8.data(),
                sizeof(float) * static_cast<std::size_t>(per * b));
    (void)plan->execute(b);  // lazy per-thread buffers
    const ScopedSpan span("nn.execute");
    return time_ms([&] { (void)plan->execute(b); }, 10, 0.2) * 1e3 /
           static_cast<double>(b);
  };
  r.set("nn.execute_us_b1", execute_us(1), "us");
  r.set("nn.execute_us_b8", execute_us(8), "us");
  {
    const NoGradGuard no_grad;
    const ScopedSpan span("nn.eager_forward");
    const double ms = time_ms(
        [&] { (void)model->forward(Variable(x8)); }, 3, 0.2);
    r.set("nn.eager_us_b8", ms * 1e3 / 8.0, "us");
  }
  {
    quant::ParamImage image(*model);
    const ScopedSpan span("quant.restore");
    r.set("quant.restore_us", time_ms([&] { image.restore(); }, 10, 0.1) * 1e3,
          "us");
  }
  {
    // A no-op on fp32 plans: the call's own cost.
    const ScopedSpan span("quant.restore_int8_weights");
    r.set("quant.int8_restore_us",
          time_ms([&] { plan->restore_int8_weights(); }, 10, 0.05) * 1e3,
          "us");
  }
}

}  // namespace

void probe_layers(const Workload& w, ev::PreparedModel& pm, const Args& args,
                  Result& r) {
  {
    const ScopedSpan span("eval.peak_clean_clamp_rate");
    const auto t0 = Clock::now();
    (void)ev::peak_clean_clamp_rate(pm, 64);
    r.set("eval.calibrate_s", seconds_since(t0), "s");
  }
  probe_plan(w, pm, r);
  // Shapes: VGG16 at width 0.25 ends in 128-channel 3x3 convs on 2x2 maps
  // (GEMM M=128, N=4, K=1152 per sample); tinycnn's largest conv is
  // 16->32 channels on 16x16 (M=32, N=256, K=144); ResNet50 at width 0.25
  // has 32-channel 3x3 convs on 8x8 maps (int8 M=32, N=64*8 at batch 8,
  // K=288).
  r.set("tensor.sgemm_gflops_n4", sgemm_gflops(128, 4, 1152), "GFLOP/s");
  r.set("tensor.sgemm_gflops_large", sgemm_gflops(32, 256, 144), "GFLOP/s");
  r.set("tensor.i8_gemm_gops", i8_gemm_gops(32, 512, 288), "GOP/s");
  std::fprintf(stderr,
               "perfbench: tensor.* rates count 2*M*N*K operations per call, "
               "computed from the shapes, not measured\n");
  if (w.kind == Kind::serve) {
    campaign_probe(pm, args, r);
  } else {
    serve_probe(w, pm, args, r);
  }
}

void setup_layer_metrics(Result& r) {
  const Tracer& tr = Tracer::get();
  r.set("core.profile_s", median(tr.durations_ms("core.profile_bounds")) / 1e3,
        "s");
  r.set("core.protect_s", median(tr.durations_ms("core.protect")) / 1e3, "s");
  r.set("eval.make_server_s",
        median(tr.durations_ms("eval.make_server")) / 1e3, "s");
}

}  // namespace pb
