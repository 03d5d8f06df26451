// Protection application: switches every activation site of a profiled
// model to a protection scheme and initialises its bounds.
//
//   apply_protection(model, Scheme::clip_act)   -> Clip-Act  (layer bounds)
//   apply_protection(model, Scheme::ranger)     -> Ranger    (layer bounds)
//   apply_protection(model, Scheme::fitrelu)    -> FitAct    (neuron bounds;
//                                        post-train with core/post_training)
#pragma once

#include "core/activation.h"

namespace fitact::core {

/// Bounds are always seeded at the profiled maxima (paper Sec. V); only
/// their granularity and the FitReLU steepness are choices.
struct ProtectionOptions {
  /// Bound granularity for the bounded schemes. Clip-Act and Ranger use
  /// per-layer bounds in the paper; FitAct uses per-neuron. Overridable for
  /// the granularity ablation.
  Granularity granularity = Granularity::per_neuron;
  /// FitReLU steepness.
  float k = 8.0f;
};

/// Default options matching the paper for the given scheme.
[[nodiscard]] ProtectionOptions default_options(Scheme scheme);

/// Switch all activation sites to `scheme` and seed bounds from the profile
/// (no-op bound initialisation for Scheme::relu). Requires profile_bounds()
/// to have run for bounded schemes.
void apply_protection(nn::Module& model, Scheme scheme,
                      const ProtectionOptions& options);

inline void apply_protection(nn::Module& model, Scheme scheme) {
  apply_protection(model, scheme, default_options(scheme));
}

/// Copy scheme, granularity, steepness, and bound storage from every
/// activation site of `src` onto the matching site of `dst` (same
/// architecture; sites are matched by registration order). Unlike
/// apply_protection this needs no profile on `dst`, so it can stamp out
/// ready-to-evaluate replicas of a protected model — the per-worker model
/// copies of the parallel fault-campaign engine. Throws std::invalid_argument
/// when the two trees have different activation-site counts.
void replicate_protection(const nn::Module& src, nn::Module& dst);

}  // namespace fitact::core
