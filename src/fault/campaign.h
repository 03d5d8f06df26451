// Fault-injection campaign: repeated inject -> evaluate -> restore trials at
// a fixed bit error rate, producing the accuracy distribution behind the
// paper's Fig. 5 (box plots) and Fig. 6 (means).
//
// The engine fans trials out over a thread pool. Per-trial RNG streams are
// pre-split from the campaign seed in serial order, each trial writes its
// results into a fixed slot, and every worker lane operates on its own
// model replica, so a campaign's CampaignResult is bit-identical for any
// `threads` setting (including the serial threads = 1 path).
//
// Concurrency contract: the engine holds no locks of its own. Cross-thread
// isolation comes from structure — trial t writes only result slot t and
// reads only stream t (both sized before the fan-out, so no reallocation
// races), and each concurrently running chunk owns a distinct worker lane
// via ut::ThreadPool::parallel_for_slotted, whose join publishes every
// slot's writes to the calling thread. The locking that backs this lives in
// the pool and is annotated there (util/thread_annotations.h); the TSan CI
// lane checks the disjointness claim dynamically (fault_test carries the
// `stress` label it selects).
//
// A CampaignSession keeps the lanes across the runs of a sweep. It does not
// track whether a lane's source changed: each lane answers that itself in
// CampaignWorker::sync, which the session calls before every run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/injector.h"

namespace fitact::fault {

struct CampaignConfig {
  double bit_error_rate = 1e-6;
  std::int64_t trials = 16;
  std::uint64_t seed = 1234;
  /// Worker lanes for the parallel engine: 1 runs serially on the calling
  /// thread, 0 uses one lane per hardware thread. Only the factory overload
  /// of run_campaign can use more than one lane (each lane needs its own
  /// model replica); results are bit-identical for every value.
  ///
  /// Utilization note: every factory lane, the serial one included, runs
  /// its plan inline on one core, so total concurrency is the lane count:
  /// use 0 (or >= the core count) to saturate the machine. Using idle
  /// cores inside a lane is ROADMAP item 3.
  std::size_t threads = 1;
  /// Fault class and bit-range; bit_error_rate above overrides the model's
  /// own rate field. Defaults to the paper's uniform transient bit flips.
  FaultModel fault_model;
};

struct CampaignResult {
  std::vector<double> accuracies;       ///< one entry per trial
  std::vector<std::uint64_t> flip_counts;
  double mean_accuracy = 0.0;
  double min_accuracy = 0.0;
  double max_accuracy = 0.0;
};

/// Recompute mean/min/max from `accuracies` (zeros when empty).
void aggregate(CampaignResult& result);

/// Everything one worker lane needs: an injector over the lane's own
/// parameter image and an `evaluate` bound to the same replica. `evaluate`
/// measures model accuracy on the (faulty) replica and must not mutate its
/// parameters; the engine restores the clean image after every trial.
/// `keepalive` owns whatever the lane's pointers reference (replica model,
/// image, injector) for the duration of the campaign.
struct CampaignWorker {
  std::shared_ptr<void> keepalive;
  Injector* injector = nullptr;
  std::function<double()> evaluate;
  /// Optional: make this lane match its source. The engine calls it on the
  /// calling thread before every run that uses the lane, so it must be
  /// cheap when nothing changed; the lane itself knows when it is stale.
  /// Must leave `injector` valid. Empty for a lane with no source to follow.
  std::function<void()> sync;
};

/// Builds the worker for one lane (0-based). Lane 0 may wrap the original
/// model; every other lane must return an independent replica so trials can
/// run concurrently. The engine builds every lane on the calling thread
/// before any trial runs (replicas typically clone the lane-0 model, which
/// the trials then corrupt).
using WorkerFactory = std::function<CampaignWorker(std::size_t lane)>;

/// Runs the campaign over `config.threads` lanes built by `make_worker`
/// (one run of a fresh CampaignSession). Each lane's model is restored to
/// its clean image after every trial and at the end.
CampaignResult run_campaign(const WorkerFactory& make_worker,
                            const CampaignConfig& config);

/// Single-model convenience entry point. The engine cannot replicate the
/// model behind `injector`, so this overload always runs serially on the
/// calling thread regardless of `config.threads`.
CampaignResult run_campaign(Injector& injector,
                            const std::function<double()>& evaluate,
                            const CampaignConfig& config);

/// Persistent campaign engine for sweeps: owns the worker lanes (replica
/// models, parameter images, injectors) across every run() of a rate grid
/// instead of rebuilding them per rate, which removes replica construction
/// from the per-rate cost. Results are bit-identical to calling
/// run_campaign with the same factory and config at every thread count:
/// the trial-stream and slot contracts are unchanged, and each run first
/// calls CampaignWorker::sync on every lane it uses, so a lane whose source
/// changed re-syncs before it injects. Not thread-safe; drive one session
/// from one thread.
class CampaignSession {
 public:
  explicit CampaignSession(WorkerFactory make_worker);

  /// Run one campaign over the cached lanes, growing the lane set if this
  /// config needs more than any earlier run.
  CampaignResult run(const CampaignConfig& config);

  /// Lanes currently cached (0 before the first run).
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return workers_.size();
  }

 private:
  WorkerFactory make_worker_;
  std::vector<CampaignWorker> workers_;
};

}  // namespace fitact::fault
