// Top-1 accuracy evaluation (the paper's metric throughout).
#pragma once

#include <cstdint>

#include "data/dataset.h"
#include "nn/module.h"
#include "nn/plan.h"

namespace fitact::ev {

struct EvalConfig {
  std::int64_t batch_size = 64;
  /// Cap on evaluated samples (<=0: the whole dataset). Fault campaigns use
  /// a fixed subset so every trial sees identical inputs.
  std::int64_t max_samples = 0;
};

/// Top-1 accuracy in [0,1]. Puts the model in eval mode; no gradients.
[[nodiscard]] double evaluate_accuracy(nn::Module& model,
                                       const data::Dataset& dataset,
                                       const EvalConfig& config = {});

/// The same accuracy through a recorded plan (equal to the eager overload on
/// the plan's model: plans are bit-identical to eager). Throws
/// std::invalid_argument when config.batch_size exceeds plan.max_batch().
[[nodiscard]] double evaluate_accuracy(nn::InferencePlan& plan,
                                       const data::Dataset& dataset,
                                       const EvalConfig& config = {});

}  // namespace fitact::ev
