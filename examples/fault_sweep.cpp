// Fault-rate sweep on one model: protect with a chosen scheme and print the
// accuracy curve over a geometric grid of bit-error rates, with five-number
// summaries per point. A minimal version of the Fig. 5/6 harness for
// interactive exploration.
//
// Run: ./fault_sweep --scheme fitact [--model tinycnn] [--trials 6]
//                    [--threads 1]   (campaign worker lanes; 0 = auto)
#include <cstdio>
#include <stdexcept>
#include <string>

#include "eval/campaign_cli.h"
#include "eval/experiment.h"
#include "eval/stats.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

fitact::core::Scheme parse_scheme(const std::string& s) {
  using fitact::core::Scheme;
  if (s == "fitact" || s == "fitrelu") return Scheme::fitrelu;
  if (s == "clipact" || s == "clip_act") return Scheme::clip_act;
  if (s == "ranger") return Scheme::ranger;
  if (s == "none" || s == "relu" || s == "unprotected") return Scheme::relu;
  if (s == "naive" || s == "fitrelu_naive") return Scheme::fitrelu_naive;
  throw std::invalid_argument(
      "unknown scheme '" + s +
      "' (expected fitact|clipact|ranger|naive|none)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  const std::string model_name = cli.get("model", "tinycnn");
  const core::Scheme scheme = parse_scheme(cli.get("scheme", "fitact"));

  ev::CampaignCliDefaults defaults;
  defaults.train_size = 512;
  defaults.train_epochs = 6;
  defaults.eval_samples = 96;
  defaults.trials = 6;
  defaults.allow_full = false;
  const ev::ExperimentScale scale = ev::scale_from_cli(cli, defaults);

  ev::PreparedModel pm =
      ev::prepare_model(model_name, cli.get_int("classes", 10), scale,
                        "fitact_cache");
  const ev::ProtectReport rep = ev::protect_model(pm, scheme, scale);
  std::printf("%s protected with %s: clean accuracy %.2f%% "
              "(baseline %.2f%%)\n\n",
              model_name.c_str(), ev::paper_label(scheme).c_str(),
              rep.clean_accuracy * 100.0, pm.baseline_accuracy * 100.0);

  ut::TextTable table(
      {"bit error rate", "mean", "min", "q1", "median", "q3", "max"});
  // The session keeps one set of worker-lane replicas across the whole
  // sweep; the protection doesn't change between rates, so each lane's
  // pre-run epoch check finds nothing to re-sync.
  fault::CampaignSession session = ev::campaign_session(pm, scale);
  for (const double rate :
       {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3}) {
    const auto result = session.run(ev::campaign_config(scale, rate, 1000));
    const ev::Summary s = ev::summarize(result.accuracies);
    table.row({ut::TextTable::sci(rate), ut::TextTable::percent(s.mean),
               ut::TextTable::percent(s.min), ut::TextTable::percent(s.q1),
               ut::TextTable::percent(s.median), ut::TextTable::percent(s.q3),
               ut::TextTable::percent(s.max)});
  }
  table.print();
  return 0;
}
