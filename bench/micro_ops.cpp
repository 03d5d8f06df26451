// google-benchmark micro suite for the compute substrate: GEMM, conv2d
// forward, the activation-function family (the per-element cost behind
// Table I's runtime overhead), the fixed-point codec, and fault injection.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/activation.h"
#include "core/protection.h"
#include "models/registry.h"
#include "quant/fixed_point.h"
#include "quant/param_image.h"
#include "fault/injector.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

using namespace fitact;

// The dispatched-vs-scalar pairs below (BM_Sgemm / BM_SgemmScalar, the
// activation family / BM_ActivationClipActScalar and
// BM_ActivationFitRelu{,Backward}Scalar, BM_ModelForwardPlanned /
// BM_ModelForwardPlannedScalar) are the kernel-dispatch A/B: the unsuffixed
// form runs whatever backend the process resolved (AVX2 where supported),
// the Scalar form pins the portable backend for the duration of the
// benchmark. On a host without AVX2 the pairs coincide.

void sgemm_bench(benchmark::State& state) {
  const auto n = state.range(0);
  ut::Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  for (auto _ : state) {
    sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
          c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

void BM_Sgemm(benchmark::State& state) { sgemm_bench(state); }
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(128)->Arg(256);

void BM_SgemmScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  sgemm_bench(state);
}
BENCHMARK(BM_SgemmScalar)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2dForward(benchmark::State& state) {
  const auto ch = state.range(0);
  ut::Rng rng(2);
  const Variable x(Tensor::randn(Shape{1, ch, 32, 32}, rng), false);
  const Variable w(Tensor::randn(Shape{ch, ch, 3, 3}, rng), false);
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = ag::conv2d(x, w, Variable(), 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

// The small-spatial shape of VGG16's last convs: [B,128,2,2] in, 128 out,
// 3x3, pad 1. Each sample's GEMM has N = 4, narrower than one 16-column
// panel tile, so conv2d_forward_batch groups samples; B = 1 stays on the
// per-sample path and shows what grouping buys at B = 8 and 64.
void BM_Conv2dForwardSmallSpatial(benchmark::State& state) {
  const auto batch = state.range(0);
  constexpr std::int64_t kCh = 128;
  ut::Rng rng(7);
  const Variable x(Tensor::randn(Shape{batch, kCh, 2, 2}, rng), false);
  const Variable w(Tensor::randn(Shape{kCh, kCh, 3, 3}, rng), false);
  const Variable b(Tensor::randn(Shape{kCh}, rng), false);
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = ag::conv2d(x, w, b, 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * kCh * kCh * 9 * 4);
}
// Real time: the eager op fans GEMM groups over the pool, so main-thread
// CPU time would overstate the rate.
BENCHMARK(BM_Conv2dForwardSmallSpatial)->Arg(1)->Arg(8)->Arg(64)->UseRealTime();

void activation_bench(benchmark::State& state, core::Scheme scheme) {
  constexpr std::int64_t kFeat = 16 * 16 * 16;
  ut::Rng rng(3);
  core::ActivationConfig cfg;
  cfg.scheme = scheme;
  cfg.granularity = core::Granularity::per_neuron;
  core::BoundedActivation act(cfg);
  const Variable x(
      Tensor::rand_uniform(Shape{4, 16, 16, 16}, rng, -1.0f, 3.0f), false);
  if (scheme != core::Scheme::relu) {
    act.set_profiling(true);
    act.forward(x);
    act.set_profiling(false);
    act.init_bounds_from_profile();
  }
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = act.forward(x);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * kFeat);
}

void BM_ActivationRelu(benchmark::State& state) {
  activation_bench(state, core::Scheme::relu);
}
void BM_ActivationClipAct(benchmark::State& state) {
  activation_bench(state, core::Scheme::clip_act);
}
void BM_ActivationRanger(benchmark::State& state) {
  activation_bench(state, core::Scheme::ranger);
}
void BM_ActivationFitReluNaive(benchmark::State& state) {
  activation_bench(state, core::Scheme::fitrelu_naive);
}
void BM_ActivationFitRelu(benchmark::State& state) {
  activation_bench(state, core::Scheme::fitrelu);
}
void BM_ActivationClipActScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  activation_bench(state, core::Scheme::clip_act);
}
void BM_ActivationFitReluScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  activation_bench(state, core::Scheme::fitrelu);
}

// The post-training backward of FitReLU on the activation_bench shape with
// per-neuron λ: dx and dλ accumulated by one dispatched pass.
void fitrelu_backward_bench(benchmark::State& state) {
  constexpr std::int64_t kFeat = 16 * 16 * 16;
  constexpr std::int64_t kN = 4 * kFeat;
  ut::Rng rng(4);
  const Tensor x = Tensor::rand_uniform(Shape{kN}, rng, -1.0f, 3.0f);
  const Tensor g = Tensor::randn(Shape{kN}, rng);
  const Tensor lambda = Tensor::rand_uniform(Shape{kFeat}, rng, 1.0f, 2.5f);
  Tensor dx = Tensor::zeros(Shape{kN});
  Tensor dlambda = Tensor::zeros(Shape{kFeat});
  for (auto _ : state) {
    kern::fitrelu_backward(x.data(), g.data(), lambda.data(), kFeat, kFeat, 1,
                           8.0f, dx.data(), dlambda.data(), kN);
    benchmark::DoNotOptimize(dx.data());
    benchmark::DoNotOptimize(dlambda.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
void BM_ActivationFitReluBackward(benchmark::State& state) {
  fitrelu_backward_bench(state);
}
void BM_ActivationFitReluBackwardScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  fitrelu_backward_bench(state);
}
BENCHMARK(BM_ActivationRelu);
BENCHMARK(BM_ActivationClipAct);
BENCHMARK(BM_ActivationClipActScalar);
BENCHMARK(BM_ActivationRanger);
BENCHMARK(BM_ActivationFitReluNaive);
BENCHMARK(BM_ActivationFitRelu);
BENCHMARK(BM_ActivationFitReluScalar);
BENCHMARK(BM_ActivationFitReluBackward);
BENCHMARK(BM_ActivationFitReluBackwardScalar);

// Whole-model inference A/B: the eager forward (fresh tensors per op, graph
// bookkeeping) vs the recorded plan (pre-planned arena, zero steady-state
// allocations) on the same protected tinycnn — the per-forward cost the
// serving lanes pay on each micro-batch. Arg = batch size.
std::shared_ptr<nn::Module> protected_tinycnn() {
  models::ModelConfig cfg;
  cfg.num_classes = 10;
  cfg.seed = 7;
  auto model = models::make_tinycnn(cfg);
  model->set_training(false);
  const auto sites = core::collect_activations(*model);
  for (const auto& site : sites) site->set_profiling(true);
  ut::Rng rng(8);
  const NoGradGuard no_grad;
  (void)model->forward(Variable(Tensor::randn(Shape{2, 3, 32, 32}, rng),
                                false));
  for (const auto& site : sites) site->set_profiling(false);
  core::apply_protection(*model, core::Scheme::clip_act);
  return model;
}

void BM_ModelForwardEager(benchmark::State& state) {
  const auto batch = state.range(0);
  const auto model = protected_tinycnn();
  ut::Rng rng(9);
  const Variable x(Tensor::randn(Shape{batch, 3, 32, 32}, rng), false);
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = model->forward(x);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ModelForwardEager)->Arg(1)->Arg(8);

void planned_forward_bench(benchmark::State& state, bool fuse) {
  const auto batch = state.range(0);
  const auto model = protected_tinycnn();
  const auto plan =
      nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8, fuse);
  ut::Rng rng(9);
  const Tensor x = Tensor::randn(Shape{batch, 3, 32, 32}, rng);
  std::memcpy(plan->input_view(batch).data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.numel()));
  for (auto _ : state) {
    const Tensor& y = plan->execute(batch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

// Planned / Fused is the fusion A/B (same plan machinery, fusion pass off
// vs on); Planned / PlannedScalar stays the kernel-dispatch A/B.
void BM_ModelForwardPlanned(benchmark::State& state) {
  planned_forward_bench(state, /*fuse=*/false);
}
BENCHMARK(BM_ModelForwardPlanned)->Arg(1)->Arg(8);

void BM_ModelForwardPlannedScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  planned_forward_bench(state, /*fuse=*/false);
}
BENCHMARK(BM_ModelForwardPlannedScalar)->Arg(1)->Arg(8);

void BM_ModelForwardFused(benchmark::State& state) {
  planned_forward_bench(state, /*fuse=*/true);
}
BENCHMARK(BM_ModelForwardFused)->Arg(1)->Arg(8);

// The int8 serving plan: ResNet50 w0.25 under per-neuron Clip-Act bounds,
// compiled with Precision::int8, where every conv (block heads, residual
// tails, projection shortcuts) runs int8 and only the pool and classifier
// stay fp32. Arg = batch size; items are samples.
void BM_PlanExecuteInt8(benchmark::State& state) {
  const auto batch = state.range(0);
  models::ModelConfig cfg;
  cfg.num_classes = 10;
  cfg.width_mult = 0.25f;
  cfg.seed = 7;
  auto model = models::make_model("resnet50", cfg);
  model->set_training(false);
  const auto sites = core::collect_activations(*model);
  for (const auto& site : sites) site->set_profiling(true);
  ut::Rng rng(8);
  {
    const NoGradGuard no_grad;
    (void)model->forward(
        Variable(Tensor::randn(Shape{8, 3, 32, 32}, rng), false));
  }
  for (const auto& site : sites) site->set_profiling(false);
  core::apply_protection(*model, core::Scheme::clip_act,
                         core::ProtectionOptions{});
  const Tensor x = Tensor::randn(Shape{batch, 3, 32, 32}, rng);
  float range = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    range = std::max(range, std::abs(x[i]));
  }
  const auto plan = nn::InferencePlan::compile(
      model, Shape{3, 32, 32}, 8, /*fuse=*/true, nn::Precision::int8, range);
  std::memcpy(plan->input_view(batch).data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.numel()));
  for (auto _ : state) {
    const Tensor& y = plan->execute(batch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PlanExecuteInt8)->Arg(1)->Arg(8);

void BM_FixedPointEncode(benchmark::State& state) {
  ut::Rng rng(4);
  std::vector<float> src(65536);
  for (auto& v : src) v = rng.uniform(-100.0f, 100.0f);
  std::vector<std::int32_t> dst(src.size());
  for (auto _ : state) {
    quant::encode_span(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_FixedPointEncode);

void BM_FixedPointDecode(benchmark::State& state) {
  ut::Rng rng(5);
  std::vector<std::int32_t> src(65536);
  for (auto& v : src) v = static_cast<std::int32_t>(rng.next_u64());
  std::vector<float> dst(src.size());
  for (auto _ : state) {
    quant::decode_span(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_FixedPointDecode);

void BM_FaultInjection(benchmark::State& state) {
  ut::Rng rng(6);
  nn::Sequential net;
  net.add(std::make_shared<nn::Linear>(512, 512, true, rng));
  quant::ParamImage image(net);
  fault::Injector injector(image);
  ut::Rng fault_rng(7);
  for (auto _ : state) {
    injector.inject(1e-5, fault_rng);
    injector.restore();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.word_count()));
}
BENCHMARK(BM_FaultInjection);

}  // namespace
