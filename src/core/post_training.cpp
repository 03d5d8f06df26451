#include "core/post_training.h"

#include <limits>
#include <stdexcept>

#include "autograd/ops.h"
#include "data/data_loader.h"
#include "eval/metrics.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/timer.h"

namespace fitact::core {
namespace {

double bound_energy(const std::vector<Variable>& lambdas) {
  double acc = 0.0;
  for (const auto& l : lambdas) {
    for (const auto v : l.value().span()) acc += static_cast<double>(v) * v;
  }
  return acc;
}

}  // namespace

PostTrainReport post_train_bounds(nn::Module& model,
                                  const data::Dataset& train,
                                  const data::Dataset& val,
                                  double baseline_accuracy,
                                  const PostTrainConfig& config) {
  const ut::Timer timer;
  PostTrainReport report;
  report.baseline_accuracy = baseline_accuracy;

  // Gather the trainable bounds (Theta_R).
  std::vector<Variable> lambdas;
  std::int64_t bound_n = 0;
  for (const auto& act : collect_activations(model)) {
    if (act->scheme() != Scheme::fitrelu) continue;
    if (!act->has_bounds()) {
      throw std::logic_error(
          "post_train_bounds: fitrelu site without initialised bounds");
    }
    act->bounds().set_requires_grad(true);
    lambdas.push_back(act->bounds());
    bound_n += act->bounds().numel();
  }
  if (lambdas.empty()) {
    throw std::logic_error(
        "post_train_bounds: model has no fitrelu activation sites");
  }

  // Snapshots for the constraint-driven rollback.
  auto snapshot = [&lambdas] {
    std::vector<Tensor> s;
    s.reserve(lambdas.size());
    for (const auto& l : lambdas) s.push_back(l.value().clone());
    return s;
  };
  auto restore = [&lambdas](const std::vector<Tensor>& s) {
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      lambdas[i].value().copy_from(s[i]);
    }
  };
  const std::vector<Tensor> initial = snapshot();
  std::vector<Tensor> best = snapshot();
  double best_energy = std::numeric_limits<double>::infinity();

  // The Eq. 9 constraint is checked on top-1 over config.val_samples.
  ev::EvalConfig val_config;
  val_config.batch_size = config.batch_size;
  val_config.max_samples = config.val_samples;
  const auto clean_accuracy = [&] {
    return ev::evaluate_accuracy(model, val, val_config);
  };

  report.initial_accuracy = clean_accuracy();
  report.initial_bound_energy = bound_energy(lambdas);

  // Theta_A stays frozen: only lambdas enter the optimiser, and the model
  // runs in eval mode so BatchNorm statistics are not perturbed.
  model.set_training(false);
  nn::Adam adam(lambdas, config.lr);
  const float reg_scale = config.zeta / static_cast<float>(bound_n);

  data::DataLoader loader(train, config.batch_size, /*shuffle=*/true,
                          config.seed);
  data::Batch batch;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.start_epoch();
    double loss_sum = 0.0;
    double ce_sum = 0.0;
    std::int64_t batches = 0;
    while (loader.next(batch)) {
      if (config.max_batches_per_epoch > 0 &&
          batches >= config.max_batches_per_epoch) {
        break;
      }
      adam.zero_grad();
      const Variable logits = model.forward(Variable(batch.images));
      const Variable ce = ag::softmax_cross_entropy(logits, batch.labels);
      Variable reg = ag::sum_of_squares(lambdas[0]);
      for (std::size_t i = 1; i < lambdas.size(); ++i) {
        reg = ag::add(reg, ag::sum_of_squares(lambdas[i]));
      }
      Variable loss = ag::add(ce, ag::scale(reg, reg_scale));
      loss.backward();
      adam.step();
      // Projection: bounds are magnitudes; keep them non-negative.
      for (auto& l : lambdas) clamp_min_inplace(l.value(), 0.0f);
      loss_sum += loss.value().item();
      ce_sum += ce.value().item();
      ++batches;
    }

    PostTrainEpoch ep;
    ep.loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    ep.ce_loss = batches > 0 ? ce_sum / static_cast<double>(batches) : 0.0;
    ep.bound_energy = bound_energy(lambdas);
    ep.val_accuracy = clean_accuracy();
    ep.feasible =
        (baseline_accuracy - ep.val_accuracy) < static_cast<double>(config.delta);
    if (ep.feasible && ep.bound_energy < best_energy) {
      best_energy = ep.bound_energy;
      best = snapshot();
      report.any_feasible = true;
    }
    report.epochs.push_back(ep);
  }

  if (report.any_feasible) {
    restore(best);
  } else {
    restore(initial);
  }
  for (auto& l : lambdas) {
    l.zero_grad();
    l.set_requires_grad(false);
  }
  report.final_accuracy = clean_accuracy();
  report.final_bound_energy = bound_energy(lambdas);
  report.wall_time_s = timer.elapsed_s();
  return report;
}

}  // namespace fitact::core
