// Set-up: the cached stage-1 checkpoint, then protection. The checkpoint is
// trained once by `perfbench --prime` (untimed), so a timed set-up always
// loads it and never flips between a cache miss and a cache hit.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "core/bound_profiler.h"
#include "core/post_training.h"
#include "core/protection.h"

namespace pb {

using namespace fitact;

namespace {
// The checkpoint seed is fixed: the run seed drives the inputs, never the
// model, so every run of a workload measures the same network.
constexpr std::uint64_t kModelSeed = 42;
}  // namespace

int setup_reps(const Args& args) { return args.tiny ? 1 : 3; }

ev::ExperimentScale scale_for(const Workload& w, const Args& args) {
  ev::ExperimentScale s = ev::ExperimentScale::scaled();
  s.width_alexnet = w.width;
  s.width_vgg16 = w.width;
  s.width_resnet50 = w.width;
  s.train_size = w.train_size;
  s.test_size = w.test_size;
  s.train_epochs = w.train_epochs;
  s.profile_samples = std::min<std::int64_t>(w.train_size, 256);
  s.eval_samples = w.eval_samples > 0 ? w.eval_samples : s.eval_samples;
  s.campaign_threads = hw_threads();
  // FitAct post-training: one epoch of 8 mini-batches of 32, the accuracy
  // constraint checked on 128 samples. Set-up runs three times per run, so
  // this is sized to keep a run short when the host is busy (VGG16's three
  // set-ups then dominate its run).
  s.post.epochs = 1;
  s.post.max_batches_per_epoch = 8;
  s.post.val_samples = 128;
  if (args.tiny) {
    // Self-test sizes: enough to exercise every path, not to measure.
    s.profile_samples = 64;
    s.post.epochs = 1;
    s.post.max_batches_per_epoch = 2;
    s.post.val_samples = 32;
  }
  return s;
}

void prime(const std::vector<Workload>& workloads, const Args& args) {
  for (const Workload& w : workloads) {
    const auto t0 = Clock::now();
    const ev::PreparedModel pm = ev::prepare_model(
        w.model, kClasses, scale_for(w, args), args.cache_dir, kModelSeed);
    std::fprintf(stderr,
                 "prime %s: %s in %.1f s, clean accuracy %.4f\n",
                 w.name.c_str(), pm.from_cache ? "cached" : "trained",
                 seconds_since(t0), pm.baseline_accuracy);
  }
}

std::unique_ptr<ev::PreparedModel> load_and_protect(const Workload& w,
                                                    const Args& args) {
  const ev::ExperimentScale scale = scale_for(w, args);
  auto out = std::make_unique<ev::PreparedModel>();
  {
    const ScopedSpan span("eval.prepare_model");
    *out = ev::prepare_model(w.model, kClasses, scale, args.cache_dir,
                             kModelSeed);
  }
  if (!out->from_cache) {
    throw std::runtime_error("checkpoint for " + w.name +
                             " was not cached; run perfbench --prime first");
  }
  ev::PreparedModel& pm = *out;
  {
    // ev::protect_model's profiling step, called directly so the traced
    // run can time profiling and post-training apart.
    const ScopedSpan span("core.profile_bounds");
    core::apply_protection(*pm.model, core::Scheme::relu);
    core::ProfileConfig pc;
    pc.max_samples = scale.profile_samples;
    (void)core::profile_bounds(*pm.model, *pm.train, pc);
    pm.profiled = true;
  }
  {
    const ScopedSpan span("core.protect");
    core::apply_protection(*pm.model, w.scheme,
                           core::default_options(w.scheme));
    if (w.scheme == core::Scheme::fitrelu) {
      const ScopedSpan post("core.post_train_bounds");
      (void)core::post_train_bounds(*pm.model, *pm.train, *pm.test,
                                    pm.baseline_accuracy, scale.post);
    }
  }
  pm.touch();
  return out;
}

}  // namespace pb
