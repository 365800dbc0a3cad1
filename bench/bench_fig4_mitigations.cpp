// Fig. 4: do data augmentation (a) and adversarial training (b) improve
// robustness against SysNoise? Expected shape vs the paper: no strategy
// helps across all five axes; adversarial training often *increases* the
// deltas (and costs clean accuracy).
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "core/mitigation.h"
#include "core/report.h"
#include "models/eval_tasks.h"

using namespace sysnoise;

namespace {

double axis_mean(const core::AxisReport& r, const char* axis) {
  const core::AxisResult* res = r.find(axis);
  return res != nullptr ? res->mean : 0.0;
}

void add_row(core::TextTable& table, std::string& csv, const std::string& label,
             models::TrainedClassifier& tc, core::SweepCache& cache) {
  models::ClassifierTask task(tc);
  const core::AxisReport r =
      models::sweep_seeded(task, task.trained_metric(), cache);
  const core::AxisResult* prec = r.find("Precision");
  const core::OptionDelta* int8 =
      prec != nullptr ? prec->option("INT8") : nullptr;
  const core::AxisResult* ceil = r.find("Ceil Mode");
  table.add_row({label, core::fmt(r.trained), core::fmt(axis_mean(r, "Decode")),
                 core::fmt(axis_mean(r, "Resize")),
                 core::fmt(axis_mean(r, "Color Mode")),
                 int8 != nullptr ? core::fmt(int8->delta) : "-",
                 ceil != nullptr ? core::fmt(ceil->mean) : "-"});
  csv += label + "," + core::fmt(r.trained) + "," +
         core::fmt(axis_mean(r, "Decode")) + "," +
         core::fmt(axis_mean(r, "Resize")) + "," +
         core::fmt(axis_mean(r, "Color Mode")) + "," +
         (int8 != nullptr ? core::fmt(int8->delta) : "") + "," +
         (ceil != nullptr ? core::fmt(ceil->mean) : "") + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "fig4_mitigations");
  bench::banner("Fig. 4 — augmentations & adversarial training vs SysNoise",
                "Sec. 4.3, Fig. 4");
  bench::BenchTrace trace(cli);

  const PipelineSpec spec = models::cls_pipeline_spec();
  const std::string model = "ResNet-S";

  core::TextTable table({"Training", "ACC", "dDecode", "dResize", "dColor",
                         "dINT8", "dCeil"});
  std::string csv = "training,acc,decode,resize,color,int8,ceil\n";

  // One cache across every variant: retrained twins share a display name
  // but ClassifierTask folds the training tag into the cache identity.
  core::SweepCache cache;

  // Row labels: (a) the augmentation strategies, (b) clean + adversarially
  // trained members of two families (paper: ResNet-50, RegNetX).
  int n_strategies = core::kNumAugStrategies;
  if (bench::fast_mode()) n_strategies = 2;
  std::vector<std::string> aug_labels;
  std::vector<std::string> labels;
  for (int s = 0; s < n_strategies; ++s) {
    aug_labels.push_back(
        core::aug_strategy_name(static_cast<core::AugStrategy>(s)));
    labels.push_back(aug_labels.back());
  }
  for (const std::string base : {"ResNet-S", "RegNetX-S"}) {
    labels.push_back(base);
    labels.push_back(base + "-Adv");
    if (bench::fast_mode()) break;
  }

  return bench::run_standard_modes(
      cli, labels,
      [&](const std::string& label) {
        for (int s = 0; s < n_strategies; ++s) {
          if (label != aug_labels[static_cast<std::size_t>(s)]) continue;
          std::printf("[fig4] training %s with %s augmentation...\n",
                      model.c_str(), label.c_str());
          std::fflush(stdout);
          const auto prep = core::augmented_preprocessor(
              spec, static_cast<core::AugStrategy>(s));
          auto tc = models::get_classifier(model, "f4_" + label, &prep);
          add_row(table, csv, label, tc, cache);
          return;
        }
        const bool adv = label.size() > 4 &&
                         label.compare(label.size() - 4, 4, "-Adv") == 0;
        if (adv) {
          const std::string base = label.substr(0, label.size() - 4);
          std::printf("[fig4] adversarially training %s...\n", base.c_str());
          std::fflush(stdout);
          auto tc = core::adversarial_train_classifier(base);
          add_row(table, csv, label, tc, cache);
        } else {
          std::printf("[fig4] baseline %s...\n", label.c_str());
          std::fflush(stdout);
          auto tc = models::get_classifier(label);
          add_row(table, csv, label, tc, cache);
        }
      },
      [&] { return std::make_pair(table.str(), csv); });
}
