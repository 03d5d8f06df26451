#include "eval/metrics.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace fitact::ev {

namespace {

/// Top-1 over the evaluated subset in config.batch_size chunks;
/// `forward(images)` returns a chunk's [count, classes] logits.
template <class Forward>
double top1_accuracy(const data::Dataset& dataset, const EvalConfig& config,
                     Forward&& forward) {
  const std::int64_t total = config.max_samples > 0
                                 ? std::min(config.max_samples, dataset.size())
                                 : dataset.size();
  std::int64_t correct = 0;
  std::int64_t done = 0;
  std::vector<std::int64_t> labels;
  while (done < total) {
    const std::int64_t count =
        std::min<std::int64_t>(config.batch_size, total - done);
    const auto pred = argmax_rows(forward(dataset.batch(done, count, &labels)));
    for (std::int64_t i = 0; i < count; ++i) {
      if (pred[static_cast<std::size_t>(i)] ==
          labels[static_cast<std::size_t>(i)]) {
        ++correct;
      }
    }
    done += count;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace

double evaluate_accuracy(nn::Module& model, const data::Dataset& dataset,
                         const EvalConfig& config) {
  const NoGradGuard no_grad;
  model.set_training(false);
  return top1_accuracy(dataset, config, [&](Tensor images) {
    return model.forward(Variable(std::move(images))).value();
  });
}

double evaluate_accuracy(nn::InferencePlan& plan, const data::Dataset& dataset,
                         const EvalConfig& config) {
  if (config.batch_size > plan.max_batch()) {
    throw std::invalid_argument(
        "evaluate_accuracy: batch_size exceeds the plan's max_batch");
  }
  return top1_accuracy(dataset, config, [&](const Tensor& images) {
    Tensor& staged = plan.input_view(images.shape()[0]);
    if (images.shape() != staged.shape()) {
      throw std::invalid_argument(
          "evaluate_accuracy: dataset batch " + images.shape().str() +
          " does not match the plan's input " + staged.shape().str());
    }
    std::memcpy(staged.data(), images.data(),
                static_cast<std::size_t>(images.numel()) * sizeof(float));
    return plan.execute(images.shape()[0]);
  });
}

}  // namespace fitact::ev
