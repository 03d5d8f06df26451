// Tests for the paper's core contribution (src/core): the activation zoo,
// profiling, bound initialisation at all three granularities, and the
// FitReLU <-> FitReLU-Naive convergence property.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "core/activation.h"
#include "core/bound_profiler.h"
#include "core/protection.h"
#include "data/synthetic_cifar.h"
#include "models/registry.h"
#include "util/rng.h"

namespace fitact::core {
namespace {

Variable input_2d(std::initializer_list<float> vals, std::int64_t features) {
  Tensor t = Tensor::zeros(
      Shape{static_cast<std::int64_t>(vals.size()) / features, features});
  std::int64_t i = 0;
  for (const float v : vals) t[i++] = v;
  return Variable(std::move(t), false);
}

TEST(BoundedActivation, ReluSchemeMatchesPlainRelu) {
  BoundedActivation act(ActivationConfig{});
  const Variable y = act.forward(input_2d({-1.0f, 2.0f}, 2));
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 2.0f);
}

TEST(BoundedActivation, BoundedSchemesRequireBounds) {
  ActivationConfig cfg;
  cfg.scheme = Scheme::clip_act;
  BoundedActivation act(cfg);
  EXPECT_THROW(act.forward(input_2d({1.0f}, 1)), std::logic_error);
}

TEST(BoundedActivation, ProfilingRecordsPerNeuronMax) {
  BoundedActivation act(ActivationConfig{});
  act.set_profiling(true);
  act.forward(input_2d({1.0f, 5.0f, 3.0f, 2.0f}, 2));  // batch of 2
  act.forward(input_2d({4.0f, 1.0f}, 2));
  act.set_profiling(false);
  ASSERT_TRUE(act.has_profile());
  EXPECT_FLOAT_EQ(act.profile_max()[0], 4.0f);  // max(1, 3, 4)
  EXPECT_FLOAT_EQ(act.profile_max()[1], 5.0f);  // max(5, 2, 1)
}

TEST(BoundedActivation, InitBoundsPerNeuron) {
  ActivationConfig cfg;
  cfg.granularity = Granularity::per_neuron;
  BoundedActivation act(cfg);
  act.set_profiling(true);
  act.forward(input_2d({1.0f, 5.0f}, 2));
  act.set_profiling(false);
  act.init_bounds_from_profile();
  ASSERT_EQ(act.bound_count(), 2);
  EXPECT_FLOAT_EQ(act.bounds().value()[0], 1.0f);
  EXPECT_FLOAT_EQ(act.bounds().value()[1], 5.0f);
}

TEST(BoundedActivation, InitBoundsPerLayerTakesGlobalMax) {
  ActivationConfig cfg;
  cfg.granularity = Granularity::per_layer;
  BoundedActivation act(cfg);
  act.set_profiling(true);
  act.forward(input_2d({1.0f, 5.0f, 2.0f, 3.0f}, 4));
  act.set_profiling(false);
  act.init_bounds_from_profile();
  ASSERT_EQ(act.bound_count(), 1);
  EXPECT_FLOAT_EQ(act.bounds().value()[0], 5.0f);
}

TEST(BoundedActivation, InitBoundsPerChannelOn4d) {
  ActivationConfig cfg;
  cfg.granularity = Granularity::per_channel;
  BoundedActivation act(cfg);
  Tensor x = Tensor::zeros(Shape{1, 2, 1, 2});
  x[0] = 1.0f;
  x[1] = 7.0f;  // channel 0
  x[2] = 3.0f;
  x[3] = 2.0f;  // channel 1
  act.set_profiling(true);
  act.forward(Variable(std::move(x), false));
  act.set_profiling(false);
  act.init_bounds_from_profile();
  ASSERT_EQ(act.bound_count(), 2);
  EXPECT_FLOAT_EQ(act.bounds().value()[0], 7.0f);
  EXPECT_FLOAT_EQ(act.bounds().value()[1], 3.0f);
}

TEST(BoundedActivation, InitWithoutProfileThrows) {
  BoundedActivation act(ActivationConfig{});
  act.forward(input_2d({1.0f}, 1));
  EXPECT_THROW(act.init_bounds_from_profile(), std::logic_error);
}

TEST(BoundedActivation, ShapeChangeBetweenForwardsThrows) {
  BoundedActivation act(ActivationConfig{});
  act.forward(input_2d({1.0f, 2.0f}, 2));
  EXPECT_THROW(act.forward(input_2d({1.0f, 2.0f, 3.0f}, 3)),
               std::logic_error);
}

TEST(BoundedActivation, ClipActZeroesAboveBound) {
  ActivationConfig cfg;
  cfg.scheme = Scheme::clip_act;
  BoundedActivation act(cfg);
  act.set_layer_bound(2.0f);
  const Variable y = act.forward(input_2d({1.0f, 3.0f}, 2));
  EXPECT_FLOAT_EQ(y.value()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 0.0f);
}

TEST(BoundedActivation, RangerSaturatesAboveBound) {
  ActivationConfig cfg;
  cfg.scheme = Scheme::ranger;
  BoundedActivation act(cfg);
  act.set_layer_bound(2.0f);
  const Variable y = act.forward(input_2d({1.0f, 3.0f}, 2));
  EXPECT_FLOAT_EQ(y.value()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 2.0f);
}

TEST(BoundedActivation, LambdaRegisteredAsParameter) {
  BoundedActivation act(ActivationConfig{});
  act.set_profiling(true);
  act.forward(input_2d({1.0f, 2.0f}, 2));
  act.set_profiling(false);
  act.init_bounds_from_profile();
  const auto params = act.named_parameters();
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0].name, "lambda");
  EXPECT_EQ(params[0].var.numel(), 2);
}

TEST(BoundedActivation, ReRegistrationAtNewGranularityReplaces) {
  BoundedActivation act(ActivationConfig{});
  act.set_profiling(true);
  act.forward(input_2d({1.0f, 2.0f, 3.0f, 4.0f}, 4));
  act.set_profiling(false);
  act.set_granularity(Granularity::per_neuron);
  act.init_bounds_from_profile();
  EXPECT_EQ(act.named_parameters()[0].var.numel(), 4);
  act.set_granularity(Granularity::per_layer);
  act.init_bounds_from_profile();
  const auto params = act.named_parameters();
  ASSERT_EQ(params.size(), 1u);  // replaced, not duplicated
  EXPECT_EQ(params[0].var.numel(), 1);
}

// Property: FitReLU converges pointwise to FitReLU-Naive as k grows.
class FitReluConvergence : public ::testing::TestWithParam<float> {};

TEST_P(FitReluConvergence, ApproachesNaiveAsKGrows) {
  const float k = GetParam();
  const float lambda = 2.0f;
  ut::Rng rng(42);
  double max_err = 0.0;
  for (int i = 0; i < 400; ++i) {
    const float x = rng.uniform(-4.0f, 8.0f);
    // Skip the transition band around lambda, where the smooth version is
    // intentionally intermediate.
    if (std::abs(x - lambda) < 8.0f / k) continue;
    Variable vx(Tensor::full(Shape{1, 1}, x), false);
    Variable vl(Tensor::scalar(lambda), false);
    const float smooth = ag::fitrelu(vx, vl, k).value()[0];
    const float naive =
        (x > 0.0f && x <= lambda) ? x : 0.0f;  // paper Eq. 5
    max_err = std::max(max_err, static_cast<double>(std::abs(smooth - naive)));
  }
  // Error outside the band shrinks with k.
  EXPECT_LT(max_err, 8.0 / static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(Steepness, FitReluConvergence,
                         ::testing::Values(2.0f, 5.0f, 10.0f, 25.0f, 50.0f));

// Property: every bounded activation output is <= its bound (plus smooth-tail
// epsilon for FitReLU).
class BoundInvariant : public ::testing::TestWithParam<Scheme> {};

TEST_P(BoundInvariant, OutputNeverExceedsBound) {
  ActivationConfig cfg;
  cfg.scheme = GetParam();
  cfg.granularity = Granularity::per_neuron;
  cfg.k = 8.0f;
  BoundedActivation act(cfg);
  ut::Rng rng(7);
  Tensor profile_input = Tensor::rand_uniform(Shape{4, 10}, rng, 0.0f, 2.0f);
  act.set_profiling(true);
  act.forward(Variable(profile_input, false));
  act.set_profiling(false);
  act.init_bounds_from_profile();

  // Hit it with wild (faulty) inputs.
  Tensor wild = Tensor::rand_uniform(Shape{8, 10}, rng, -100.0f, 30000.0f);
  const Variable y = act.forward(Variable(wild, false));
  const auto& bounds = act.bounds().value();
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const float b = bounds[i % 10];
    EXPECT_LE(y.value()[i], b + 0.51f * b + 1e-4f);
    EXPECT_GE(y.value()[i], 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, BoundInvariant,
                         ::testing::Values(Scheme::clip_act, Scheme::ranger,
                                           Scheme::fitrelu_naive,
                                           Scheme::fitrelu));

TEST(CollectActivations, FindsAllSitesInModelTree) {
  models::ModelConfig cfg;
  cfg.width_mult = 0.25f;
  auto model = models::make_model("tinycnn", cfg);
  const auto acts = collect_activations(*model);
  EXPECT_EQ(acts.size(), 3u);  // two conv sites + one FC site
}

TEST(Profiler, ProfilesWholeModel) {
  models::ModelConfig cfg;
  cfg.width_mult = 0.25f;
  auto model = models::make_model("tinycnn", cfg);
  data::SyntheticCifarConfig dcfg;
  dcfg.size = 32;
  const data::SyntheticCifar ds(dcfg);
  ProfileConfig pc;
  pc.max_samples = 32;
  pc.batch_size = 8;
  EXPECT_EQ(profile_bounds(*model, ds, pc), 32);
  for (const auto& act : collect_activations(*model)) {
    EXPECT_TRUE(act->has_profile());
    EXPECT_FALSE(act->profiling());
  }
}

TEST(Protection, AppliesSchemeAndBoundsEverywhere) {
  models::ModelConfig cfg;
  cfg.width_mult = 0.25f;
  auto model = models::make_model("tinycnn", cfg);
  data::SyntheticCifarConfig dcfg;
  dcfg.size = 16;
  const data::SyntheticCifar ds(dcfg);
  profile_bounds(*model, ds, {16, 8});

  apply_protection(*model, Scheme::clip_act);
  for (const auto& act : collect_activations(*model)) {
    EXPECT_EQ(act->scheme(), Scheme::clip_act);
    EXPECT_EQ(act->bound_count(), 1);  // per-layer default for Clip-Act
  }
  apply_protection(*model, Scheme::fitrelu);
  for (const auto& act : collect_activations(*model)) {
    EXPECT_EQ(act->scheme(), Scheme::fitrelu);
    EXPECT_EQ(act->bound_count(), act->feature_count());  // per-neuron
  }
}

TEST(Protection, DefaultGranularitiesMatchPaper) {
  EXPECT_EQ(default_options(Scheme::clip_act).granularity,
            Granularity::per_layer);
  EXPECT_EQ(default_options(Scheme::ranger).granularity,
            Granularity::per_layer);
  EXPECT_EQ(default_options(Scheme::fitrelu).granularity,
            Granularity::per_neuron);
}

TEST(SchemeNames, RoundTrip) {
  EXPECT_EQ(to_string(Scheme::fitrelu), "fitrelu");
  EXPECT_EQ(to_string(Scheme::clip_act), "clip_act");
  EXPECT_EQ(to_string(Granularity::per_neuron), "per_neuron");
}

}  // namespace
}  // namespace fitact::core
