#include "fault/campaign.h"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.h"

namespace fitact::fault {

void aggregate(CampaignResult& result) {
  if (result.accuracies.empty()) {
    result.mean_accuracy = 0.0;
    result.min_accuracy = 0.0;
    result.max_accuracy = 0.0;
    return;
  }
  double sum = 0.0;
  double lo = result.accuracies.front();
  double hi = lo;
  for (const double a : result.accuracies) {
    sum += a;
    lo = std::min(lo, a);
    hi = std::max(hi, a);
  }
  result.mean_accuracy = sum / static_cast<double>(result.accuracies.size());
  result.min_accuracy = lo;
  result.max_accuracy = hi;
}

namespace {

/// Lane count for a run: resolve the 0 = auto setting, clamp to the trial
/// count, and (for parallel runs) shrink to the number of contiguous chunks
/// parallel_for will actually produce. This is a pure efficiency heuristic
/// (don't build replicas no chunk will use); correctness relies only on
/// parallel_for_slotted's slot < size() + 1 contract.
std::size_t lane_count_for(const CampaignConfig& config, std::size_t trials) {
  std::size_t lanes =
      config.threads == 0 ? ut::default_thread_count() : config.threads;
  lanes = std::min(lanes, trials);
  if (lanes > 1) {
    const std::size_t chunk = (trials + lanes - 1) / lanes;
    lanes = (trials + chunk - 1) / chunk;
  }
  return std::max<std::size_t>(lanes, 1);
}

/// The trial loop shared by the one-shot entry points and CampaignSession:
/// fan `trials` out over the first `lanes` entries of `workers`. Every
/// worker must already be built (and synced); trial t always consumes
/// stream t and writes slot t, so the result is bit-identical for any lane
/// count. Lock-free by construction: `streams` and both result vectors are
/// fully sized before the fan-out, every trial touches disjoint elements,
/// and parallel_for_slotted's join is the only synchronisation needed (see
/// the contract note in campaign.h).
CampaignResult run_trials(std::vector<CampaignWorker>& workers,
                          std::size_t lanes, const CampaignConfig& config,
                          std::size_t trials) {
  CampaignResult result;
  result.accuracies.assign(trials, 0.0);
  result.flip_counts.assign(trials, 0);
  if (trials == 0) return result;

  // Pre-split every trial's stream from the root in serial order: trial t
  // always sees the same stream no matter which lane runs it.
  ut::Rng root(config.seed);
  std::vector<ut::Rng> streams;
  streams.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) streams.push_back(root.split());

  FaultModel model = config.fault_model;
  model.bit_error_rate = config.bit_error_rate;

  const auto run_range = [&](CampaignWorker& w, std::size_t begin,
                             std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const InjectionRecord rec = w.injector->inject(model, streams[t]);
      try {
        result.accuracies[t] = w.evaluate();
      } catch (...) {
        // Keep the restore contract even when evaluate throws: the lane's
        // model (for lane 0, the caller's model) must not stay corrupted.
        w.injector->restore();
        throw;
      }
      w.injector->restore();
      result.flip_counts[t] = rec.fault_events;
    }
  };

  if (lanes <= 1) {
    run_range(workers.at(0), 0, trials);
  } else {
    // The calling thread runs one chunk itself; each concurrently running
    // chunk checks out a distinct slot (< lanes), and a slot's worker is
    // reused when the chunking produces more chunks than lanes. A lane
    // that throws surfaces here: parallel_for_slotted finishes the other
    // chunks and rethrows the first exception on this thread.
    ut::ThreadPool pool(lanes - 1);
    pool.parallel_for_slotted(
        0, trials,
        [&](std::size_t slot, std::size_t begin, std::size_t end) {
          if (slot >= lanes || slot >= workers.size()) {
            throw std::logic_error(
                "run_campaign: slot id exceeds the lane count");
          }
          run_range(workers[slot], begin, end);
        });
  }
  aggregate(result);
  return result;
}

}  // namespace

CampaignResult run_campaign(const WorkerFactory& make_worker,
                            const CampaignConfig& config) {
  return CampaignSession(make_worker).run(config);
}

CampaignResult run_campaign(Injector& injector,
                            const std::function<double()>& evaluate,
                            const CampaignConfig& config) {
  CampaignConfig serial = config;
  serial.threads = 1;
  return run_campaign(
      [&](std::size_t) {
        CampaignWorker w;
        w.injector = &injector;
        w.evaluate = evaluate;
        return w;
      },
      serial);
}

CampaignSession::CampaignSession(WorkerFactory make_worker)
    : make_worker_(std::move(make_worker)) {
  if (!make_worker_) {
    throw std::invalid_argument("CampaignSession: null worker factory");
  }
}

CampaignResult CampaignSession::run(const CampaignConfig& config) {
  const std::size_t trials =
      config.trials > 0 ? static_cast<std::size_t>(config.trials) : 0;
  if (trials == 0) {
    CampaignResult empty;
    aggregate(empty);
    return empty;
  }
  const std::size_t lanes = lane_count_for(config, trials);

  // Grow the lane set if this run needs more lanes than any earlier one,
  // then bring every lane this run uses in sync with its source. A lane a
  // narrower run skips syncs when it is next used.
  workers_.reserve(lanes);
  for (std::size_t i = workers_.size(); i < lanes; ++i) {
    workers_.push_back(make_worker_(i));
  }
  for (std::size_t i = 0; i < lanes; ++i) {
    if (workers_[i].sync) workers_[i].sync();
  }
  return run_trials(workers_, lanes, config, trials);
}

}  // namespace fitact::fault
