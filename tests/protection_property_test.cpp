// Property tests for the protection machinery as a whole — invariants the
// paper's method depends on, checked at model level:
//
//   P1. Clip-Act/Ranger protection (bounds at the profiled maxima) is a
//       no-op on the data it was profiled on (every activation is <= its
//       recorded max), so clean predictions are bit-identical.
//   P2. Bounded outputs never exceed the bound under adversarially large
//       inputs, for every scheme and granularity.
//   P3. A single injected bit flip changes exactly one parameter, by
//       exactly +/- 2^(bit-16) (up to encode saturation).
//   P4. Protection + injection + restore leaves the model bit-identical to
//       its quantised clean state (no state leaks across campaigns).
//   P5. Per-neuron bounds are pointwise <= per-channel <= per-layer bounds
//       derived from the same profile.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/variable.h"
#include "core/bound_profiler.h"
#include "core/protection.h"
#include "data/synthetic_cifar.h"
#include "fault/injector.h"
#include "models/registry.h"
#include "nn/layers.h"
#include "quant/fixed_point.h"
#include "quant/param_image.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace fitact {
namespace {

struct ProtectedModel {
  std::shared_ptr<nn::Module> model;
  data::SyntheticCifar data;

  static ProtectedModel make() {
    models::ModelConfig mc;
    mc.width_mult = 0.25f;
    mc.num_classes = 10;
    data::SyntheticCifarConfig dc;
    dc.size = 64;
    ProtectedModel pm{models::make_model("tinycnn", mc),
                      data::SyntheticCifar(dc)};
    core::ProfileConfig pc;
    pc.max_samples = 64;
    core::profile_bounds(*pm.model, pm.data, pc);
    return pm;
  }

  Tensor logits(std::int64_t begin, std::int64_t count) {
    const NoGradGuard no_grad;
    model->set_training(false);
    Tensor batch = data.batch(begin, count, nullptr);
    return model->forward(Variable(std::move(batch))).value().clone();
  }
};

TEST(ProtectionProperty, P1_ClipActIsNoopOnProfiledData) {
  ProtectedModel pm = ProtectedModel::make();
  core::apply_protection(*pm.model, core::Scheme::relu);
  const Tensor before = pm.logits(0, 32);
  core::apply_protection(*pm.model, core::Scheme::clip_act);
  const Tensor after = pm.logits(0, 32);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(before[i], after[i]) << "clip_act altered profiled data at "
                                   << i;
  }
}

TEST(ProtectionProperty, P1_RangerIsNoopOnProfiledData) {
  ProtectedModel pm = ProtectedModel::make();
  core::apply_protection(*pm.model, core::Scheme::relu);
  const Tensor before = pm.logits(0, 32);
  core::apply_protection(*pm.model, core::Scheme::ranger);
  const Tensor after = pm.logits(0, 32);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(before[i], after[i]);
  }
}

TEST(ProtectionProperty, P1_FitReluNaiveIsNoopOnProfiledData) {
  // Per-neuron bounds equal each neuron's profiled max, and Eq. 5 passes
  // x <= lambda unchanged, so profiled activations survive exactly.
  ProtectedModel pm = ProtectedModel::make();
  core::apply_protection(*pm.model, core::Scheme::relu);
  const Tensor before = pm.logits(0, 32);
  core::apply_protection(*pm.model, core::Scheme::fitrelu_naive);
  const Tensor after = pm.logits(0, 32);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(before[i], after[i]);
  }
}

TEST(ProtectionProperty, P1_FitReluKeepsLogitsClose) {
  // The smooth gate perturbs values near the bound, so logits move, but
  // only by a bounded relative amount. (On this *untrained* model argmax
  // ties are common, so the invariant is on logit distance, not flips.)
  ProtectedModel pm = ProtectedModel::make();
  core::apply_protection(*pm.model, core::Scheme::relu);
  const Tensor before = pm.logits(0, 64);
  core::apply_protection(*pm.model, core::Scheme::fitrelu);
  const Tensor after = pm.logits(0, 64);
  double diff2 = 0.0;
  double norm2 = 0.0;
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    diff2 += static_cast<double>(after[i] - before[i]) *
             (after[i] - before[i]);
    norm2 += static_cast<double>(before[i]) * before[i];
  }
  EXPECT_LT(std::sqrt(diff2), 0.5 * std::sqrt(norm2))
      << "smooth FitReLU moved logits too far";
}

struct SchemeGranCase {
  core::Scheme scheme;
  core::Granularity gran;
};

class BoundedEverywhere : public ::testing::TestWithParam<SchemeGranCase> {};

TEST_P(BoundedEverywhere, P2_WildInputsStayBounded) {
  const auto [scheme, gran] = GetParam();
  core::ActivationConfig cfg;
  cfg.scheme = scheme;
  cfg.granularity = gran;
  cfg.k = 8.0f;
  core::BoundedActivation act(cfg);
  ut::Rng rng(31);
  act.set_profiling(true);
  act.forward(Variable(
      Tensor::rand_uniform(Shape{8, 4, 3, 3}, rng, 0.0f, 3.0f), false));
  act.set_profiling(false);
  act.init_bounds_from_profile();

  float bound_max = 0.0f;
  for (const float b : act.bounds().value().span()) {
    bound_max = std::max(bound_max, b);
  }
  const Variable y = act.forward(Variable(
      Tensor::rand_uniform(Shape{8, 4, 3, 3}, rng, -32768.0f, 32768.0f),
      false));
  for (const float v : y.value().span()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, bound_max + 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, BoundedEverywhere,
    ::testing::Values(
        SchemeGranCase{core::Scheme::clip_act, core::Granularity::per_layer},
        SchemeGranCase{core::Scheme::clip_act, core::Granularity::per_channel},
        SchemeGranCase{core::Scheme::clip_act, core::Granularity::per_neuron},
        SchemeGranCase{core::Scheme::ranger, core::Granularity::per_layer},
        SchemeGranCase{core::Scheme::ranger, core::Granularity::per_channel},
        SchemeGranCase{core::Scheme::ranger, core::Granularity::per_neuron},
        SchemeGranCase{core::Scheme::fitrelu_naive,
                       core::Granularity::per_neuron},
        SchemeGranCase{core::Scheme::fitrelu, core::Granularity::per_layer},
        SchemeGranCase{core::Scheme::fitrelu, core::Granularity::per_channel},
        SchemeGranCase{core::Scheme::fitrelu,
                       core::Granularity::per_neuron}));

TEST(ProtectionProperty, P3_SingleBitFlipChangesOneParamByPowerOfTwo) {
  ut::Rng rng(7);
  nn::Linear lin(16, 8, true, rng);
  quant::ParamImage img(lin);
  img.restore();  // quantised clean state
  std::vector<float> clean;
  for (auto& p : lin.named_parameters()) {
    for (const float v : p.var.value().span()) clean.push_back(v);
  }
  // Flip a specific known bit: word 5, bit 20 (integer bit 4 -> delta 16.0).
  auto words = img.clean_words();
  words[5] = quant::flip_bit(words[5], 20);
  img.write_back(words);
  std::size_t changed = 0;
  std::size_t changed_at = 0;
  std::size_t i = 0;
  for (auto& p : lin.named_parameters()) {
    for (const float v : p.var.value().span()) {
      if (v != clean[i]) {
        ++changed;
        changed_at = i;
      }
      ++i;
    }
  }
  ASSERT_EQ(changed, 1u);
  EXPECT_EQ(changed_at, 5u);
  float delta = 0.0f;
  {
    std::size_t j = 0;
    for (auto& p : lin.named_parameters()) {
      for (const float v : p.var.value().span()) {
        if (j == changed_at) delta = v - clean[j];
        ++j;
      }
    }
  }
  EXPECT_NEAR(std::abs(delta), 16.0f, 1e-4f);  // 2^(20-16)
  img.restore();
}

TEST(ProtectionProperty, P4_CampaignLeavesNoResidue) {
  ProtectedModel pm = ProtectedModel::make();
  core::apply_protection(*pm.model, core::Scheme::fitrelu);
  quant::ParamImage img(*pm.model);
  img.restore();
  const Tensor logits_before = pm.logits(0, 16);

  fault::Injector inj(img);
  ut::Rng rng(17);
  for (int t = 0; t < 5; ++t) {
    inj.inject(1e-3, rng);
    inj.restore();
  }
  const Tensor logits_after = pm.logits(0, 16);
  for (std::int64_t i = 0; i < logits_before.numel(); ++i) {
    ASSERT_EQ(logits_before[i], logits_after[i]);
  }
}

TEST(ProtectionProperty, P5_GranularityBoundsNest) {
  core::ActivationConfig cfg;
  core::BoundedActivation act(cfg);
  ut::Rng rng(23);
  act.set_profiling(true);
  act.forward(Variable(
      Tensor::rand_uniform(Shape{4, 3, 4, 4}, rng, 0.0f, 5.0f), false));
  act.set_profiling(false);

  act.set_granularity(core::Granularity::per_neuron);
  act.init_bounds_from_profile();
  const Tensor neuron = act.bounds().value().clone();
  act.set_granularity(core::Granularity::per_channel);
  act.init_bounds_from_profile();
  const Tensor channel = act.bounds().value().clone();
  act.set_granularity(core::Granularity::per_layer);
  act.init_bounds_from_profile();
  const float layer = act.bounds().value()[0];

  const std::int64_t hw = 16;
  for (std::int64_t f = 0; f < neuron.numel(); ++f) {
    const float nc = channel[f / hw];
    EXPECT_LE(neuron[f], nc + 1e-6f);
    EXPECT_LE(nc, layer + 1e-6f);
  }
}

TEST(ProtectionProperty, LambdaFaultCannotUnboundOtherNeurons) {
  // A fault on one neuron's lambda affects that neuron only: outputs of
  // all other neurons remain bounded by their own lambdas.
  core::ActivationConfig cfg;
  cfg.scheme = core::Scheme::fitrelu_naive;
  cfg.granularity = core::Granularity::per_neuron;
  core::BoundedActivation act(cfg);
  ut::Rng rng(29);
  act.set_profiling(true);
  act.forward(Variable(
      Tensor::rand_uniform(Shape{4, 8}, rng, 0.0f, 2.0f), false));
  act.set_profiling(false);
  act.init_bounds_from_profile();

  // Corrupt neuron 3's bound to a huge value (a high-bit flip).
  act.bounds().value()[3] = 20000.0f;
  const Variable y = act.forward(Variable(
      Tensor::full(Shape{1, 8}, 100.0f), false));
  for (std::int64_t f = 0; f < 8; ++f) {
    if (f == 3) {
      EXPECT_FLOAT_EQ(y.value()[f], 100.0f);  // unprotected, as expected
    } else {
      EXPECT_FLOAT_EQ(y.value()[f], 0.0f);  // still protected
    }
  }
}

}  // namespace
}  // namespace fitact
