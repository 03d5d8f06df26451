#include "eval/serving.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/plan.h"
#include "util/log.h"

namespace fitact::ev {

namespace {

/// Clean test samples that calibrate the detection threshold (and the int8
/// input range).
constexpr std::int64_t kCalibrationSamples = 64;
/// Threshold = max(peak clean per-sample clamp rate * margin, floor).
/// The peak *per-sample* statistic bounds every possible batch's
/// statistic: a batch's per-site rate is the mean of its samples'
/// per-site rates (every sample contributes the same activation count to
/// a site), so the batch's peak site rate cannot exceed the peak over
/// its samples. The calibrated detector is therefore false-positive-free
/// on the calibration set for any batch assembly.
constexpr double kCalibrationMargin = 3.0;
constexpr double kCalibrationFloor = 1e-3;

}  // namespace

void ServeOptions::validate() const {
  // A negative clamp_rate_threshold is this layer's "calibrate from clean
  // traffic" sentinel — make_server resolves it to a concrete non-negative
  // value before the server is constructed — so it is exempt from
  // ServerOptions' non-negativity check at this stage.
  serve::ServerOptions shape = server;
  if (shape.detection && shape.clamp_rate_threshold < 0.0) {
    shape.clamp_rate_threshold = 0.0;
  }
  shape.validate();
}

double peak_clean_clamp_rate(const PreparedModel& pm, std::int64_t samples) {
  if (!pm.model || !pm.test) {
    throw std::invalid_argument(
        "peak_clean_clamp_rate: prepared model has no model or test split");
  }
  if (samples <= 0) {
    throw std::invalid_argument(
        "peak_clean_clamp_rate: samples must be positive, got " +
        std::to_string(samples));
  }
  const auto sites = core::collect_activations(*pm.model);
  std::vector<bool> was_counting;
  was_counting.reserve(sites.size());
  for (const auto& site : sites) {
    was_counting.push_back(site->clamp_counting());
    site->set_clamp_counting(true);
  }

  // One fp32 plan at batch 1, whatever the serving precision: calibration
  // measures the clamp rate of the fp32 model, so thresholds do not depend
  // on the lanes' arithmetic. Recording requires eval mode.
  pm.model->set_training(false);
  const Shape s = pm.test->batch(0, 1, nullptr).shape();
  const auto plan =
      nn::InferencePlan::compile(pm.model, Shape{s[1], s[2], s[3]}, 1);
  Tensor& input = plan->input_view(1);
  // Rejecting samples <= 0 above means this is a pure clamp to the split
  // size, never a silent substitution of a driver default.
  const std::int64_t total = std::min<std::int64_t>(samples, pm.test->size());
  double peak = 0.0;
  for (std::int64_t i = 0; i < total; ++i) {
    core::reset_clamp_counters(sites);
    const Tensor x = pm.test->batch(i, 1, nullptr);
    std::memcpy(input.data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    (void)plan->execute(1);
    peak = std::max(peak, core::peak_site_clamp_rate(sites));
  }

  core::reset_clamp_counters(sites);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    sites[i]->set_clamp_counting(was_counting[i]);
  }
  return peak;
}

std::unique_ptr<serve::InferenceServer> make_server(
    PreparedModel& pm, const ServeOptions& options) {
  if (!pm.model || !pm.test || pm.test->size() == 0) {
    throw std::invalid_argument(
        "make_server: prepared model has no model or no test split (the "
        "test split fixes the lane plans' sample shape)");
  }
  options.validate();
  // Deployment stores parameters in fixed point: round-trip the source once
  // so pm.model itself holds the Q1.15.16-representable values the lanes
  // will serve. Lane images snapshot these exact values, so a recovery
  // restore is value-stable and recovered lanes stay bit-identical to
  // pm.model. (The round-trip is idempotent, pinned by
  // FixedPoint.RoundTripIsIdempotent; campaign lanes rely on it too.)
  {
    quant::ParamImage image(*pm.model);
    image.restore();
    pm.touch();
  }

  serve::ServerOptions config = options.server;
  const auto source_sites = core::collect_activations(*pm.model);
  const bool any_bounds =
      std::any_of(source_sites.begin(), source_sites.end(),
                  [](const auto& s) {
                    return s->scheme() != core::Scheme::relu && s->has_bounds();
                  });
  if (config.detection && !any_bounds) {
    // A detector over a clamp rate that is identically zero would calibrate
    // to the floor and then never fire — "on" but blind. Disabling it makes
    // the server's true capability visible in its options() instead of
    // silently serving unprotected traffic behind an armed-looking flag.
    ut::log_warn() << "make_server: no activation site has bounds installed "
                      "(any_bounds == false); the clamp rate is identically "
                      "zero, so clamp-rate fault detection is disabled for "
                      "this server";
    config.detection = false;
    if (config.clamp_rate_threshold < 0.0) config.clamp_rate_threshold = 0.0;
  }
  if (config.detection && config.clamp_rate_threshold < 0.0) {
    const double peak = peak_clean_clamp_rate(pm, kCalibrationSamples);
    config.clamp_rate_threshold =
        std::max(peak * kCalibrationMargin, kCalibrationFloor);
    ut::log_info() << "make_server: calibrated clamp-rate threshold "
                   << config.clamp_rate_threshold << " (peak clean rate "
                   << peak << ")";
  }

  // Int8 input calibration: the first layer's activation scale comes from
  // the max-abs of real input samples (deeper layers derive theirs from the
  // clamp bounds). Reuses the detection-calibration sample budget.
  float input_range = -1.0f;
  if (config.precision == nn::Precision::int8) {
    const std::int64_t total =
        std::min<std::int64_t>(kCalibrationSamples, pm.test->size());
    for (std::int64_t i = 0; i < total; ++i) {
      const Tensor x = pm.test->batch(i, 1, nullptr);
      const float* p = x.data();
      for (std::int64_t j = 0; j < x.numel(); ++j) {
        input_range = std::max(input_range, std::abs(p[j]));
      }
    }
    ut::log_info() << "make_server: int8 input range calibrated to "
                   << input_range << " over " << total << " samples";
  }

  // The server itself enables clamp counting on lane sites when detection
  // is on, so the factory only assembles the lane anatomy. A model without
  // a test split or one that cannot be recorded fails here: there is no
  // eager serving path to fall back to.
  serve::LaneFactory factory = [&pm, &config, input_range](std::size_t index) {
    serve::Lane lane = make_lane(pm, replicate_model(pm), config.max_batch,
                                 config.precision, input_range);
    if (index == 0) {
      ut::log_info() << "make_server: compiled lane plan ("
                     << lane.plan->op_count() << " ops, "
                     << lane.plan->fused_op_count() << " fused, "
                     << lane.plan->int8_op_count() << " int8, arena "
                     << lane.plan->arena_bytes() / 1024 << " KiB)";
    }
    return lane;
  };
  return std::make_unique<serve::InferenceServer>(factory, config);
}

}  // namespace fitact::ev
