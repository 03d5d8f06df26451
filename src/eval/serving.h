// Adapter from the experiment layer to the serving subsystem: stands an
// serve::InferenceServer up from a PreparedModel, building its lanes with
// the campaign engine's lane builder (ev::make_lane over ev::replicate_model
// replicas) and calibrating the clamp-rate fault-detection threshold from
// clean traffic.
#pragma once

#include <cstdint>
#include <memory>

#include "eval/experiment.h"
#include "serve/server.h"

namespace fitact::ev {

struct ServeOptions {
  /// Server shape (lanes, batch size, window, detection threshold,
  /// precision). A negative clamp_rate_threshold means "calibrate
  /// from clean traffic" (the default here, overriding the ServerOptions
  /// default): make_server sets it to max(3 x the peak clean per-sample
  /// clamp rate over the first 64 test samples, 1e-3).
  serve::ServerOptions server = [] {
    serve::ServerOptions c;
    c.clamp_rate_threshold = -1.0;
    return c;
  }();

  /// Validates the embedded server shape (serve::ServerOptions::validate).
  /// make_server calls this first, so every invalid combination surfaces
  /// through the same std::invalid_argument path instead of being silently
  /// patched by driver defaults.
  void validate() const;
};

/// Peak per-sample, per-site clamp rate of pm.model over the first
/// `samples` test samples (clean traffic) — the detection statistic
/// serve::InferenceServer thresholds. `samples` must be positive (throws
/// std::invalid_argument otherwise) and is clamped to the test split size.
/// Enables clamp counting for the measurement and restores the sites'
/// previous counting state afterwards. Runs one fp32 nn::InferencePlan of
/// pm.model at batch 1 (bit-identical to its eager forward) whatever the
/// serving precision, so it throws PlanError when pm.model cannot be
/// recorded.
[[nodiscard]] double peak_clean_clamp_rate(const PreparedModel& pm,
                                           std::int64_t samples);

/// Stand up a resilient inference server over the prepared (protected)
/// model:
///   1. quantisation-round-trips pm.model's parameters once (deployment
///      stores parameters in Q1.15.16; this also makes every later lane
///      scrub value-stable, so recovered lanes match pm.model bit-for-bit)
///      and bumps pm.state_epoch;
///   2. calibrates the clamp-rate threshold from clean test traffic when
///      options ask for it (threshold < 0);
///   3. builds `lanes` independent replicas, each with its own clean
///      ParamImage, clamp counting enabled when detection is on;
///   4. compiles each lane's nn::InferencePlan (make_lane) for the test
///      split's sample shape at options.server.max_batch, so lanes serve
///      through recorded zero-allocation execution. There is no eager
///      fallback: a prepared model without a test split throws
///      std::invalid_argument, and one that cannot be recorded throws
///      nn::PlanError.
/// pm must outlive the returned server. Detection requires a bounded
/// scheme: when no activation site has bounds installed the clamp rate is
/// identically zero, so rather than serving with a detector that can never
/// fire (a threshold calibrated to the floor, "on" but blind), make_server
/// logs a warning naming the condition and disables detection for this
/// server.
[[nodiscard]] std::unique_ptr<serve::InferenceServer> make_server(
    PreparedModel& pm, const ServeOptions& options = {});

}  // namespace fitact::ev
