// Table 6: does test-time adaptation (TENT) help against SysNoise?
// Expected shape vs the paper: TENT *hurts* on almost every model/noise
// pair — deployment noise is a far smaller shift than the corruptions
// TENT was designed for, so entropy minimization mostly destroys accuracy.
//
// The noise grid comes from core::sweep() over a restricted registry
// (Decode / Resize / Color Mode), so the option vectors are the same ones
// every other bench sweeps — no hand-rolled per-axis loops to drift out of
// sync with the registry.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/mitigation.h"
#include "core/report.h"

using namespace sysnoise;

namespace {

// Adapts a plain metric closure (e.g. the stateful fresh-model-per-config
// TENT evaluation) to the sweep engine.
class FnTask : public core::EvalTask {
 public:
  FnTask(std::string name, std::function<double(const SysNoiseConfig&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  const std::string& name() const override { return name_; }
  core::TaskTraits traits() const override {
    return {core::TaskKind::kClassification, true};
  }
  double evaluate(const SysNoiseConfig& cfg) const override {
    return fn_(cfg);
  }

 private:
  std::string name_;
  std::function<double(const SysNoiseConfig&)> fn_;
};

double color_delta(const core::AxisReport& r) {
  const core::AxisResult* color = r.find("Color Mode");
  const core::OptionDelta* nv12 =
      color != nullptr
          ? color->option(color_mode_name(ColorMode::kNv12RoundTrip))
          : nullptr;
  return nv12 != nullptr ? nv12->delta : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table6_tent");
  bench::banner("Table 6 — TENT test-time adaptation vs SysNoise",
                "Sec. 4.3, Table 6");
  bench::BenchTrace trace(cli);

  // Light members of four families (the paper's Table 6 spans the same
  // families at ImageNet scale; the TENT sweep re-adapts a fresh model per
  // noise configuration, so heavyweight rows are disproportionately slow).
  std::vector<std::string> names = {"MCUNet", "ResNet-XS", "ViT-T", "Swin-T"};
  if (bench::fast_mode()) names.resize(2);

  const auto& ds = models::benchmark_cls_dataset();
  const PipelineSpec spec = models::cls_pipeline_spec();

  // Table 6's grid: the pre-processing axes the paper pairs TENT against.
  core::AxisRegistry grid;
  grid.add(*core::AxisRegistry::global().find("Decode"));
  grid.add(*core::AxisRegistry::global().find("Resize"));
  grid.add(*core::AxisRegistry::global().find("Color Mode"));

  core::TextTable table({"Architecture", "Trained ACC", "Decode", "Resize",
                         "Color Mode"});
  std::string csv =
      "model,tent,decode_mean,decode_max,resize_mean,resize_max,color\n";

  auto run_variant = [&](const FnTask& task, double base) {
    core::SweepCache cache;
    cache.seed(task, SysNoiseConfig::training_default(), base);
    core::SweepOptions opts;
    opts.cache = &cache;
    opts.registry = &grid;
    opts.threads = 1;  // the TENT closure retrains per config — keep serial
    return core::sweep(task, opts);
  };
  auto add_row = [&](const std::string& label, int tent,
                     const core::AxisReport& r) {
    const core::AxisResult* decode = r.find("Decode");
    const core::AxisResult* resize = r.find("Resize");
    const double color = color_delta(r);
    table.add_row({label, core::fmt(r.trained),
                   core::fmt_mm(decode->mean, decode->max),
                   core::fmt_mm(resize->mean, resize->max), core::fmt(color)});
    csv += label.substr(0, label.find(' ')) + "," + std::to_string(tent) +
           "," + core::fmt(decode->mean) + "," + core::fmt(decode->max) + "," +
           core::fmt(resize->mean) + "," + core::fmt(resize->max) + "," +
           core::fmt(color) + "\n";
  };

  return bench::run_standard_modes(
      cli, names,
      [&](const std::string& name) {
        std::printf("[table6] %s (w/o TENT sweep)...\n", name.c_str());
        std::fflush(stdout);
        // Without TENT: plain evaluation of one trained model.
        auto tc = models::get_classifier(name);
        const FnTask plain(name + " (w/o TENT)",
                           [&](const SysNoiseConfig& c) {
                             return models::eval_classifier(*tc.model, ds.eval,
                                                            c, spec,
                                                            &tc.ranges);
                           });
        add_row(plain.name(), 0, run_variant(plain, tc.trained_acc));

        std::printf("[table6] %s (w/ TENT sweep)...\n", name.c_str());
        std::fflush(stdout);
        // With TENT: fresh model per noise config (adaptation is stateful).
        const FnTask tent(name + " (w/ TENT)", [&](const SysNoiseConfig& c) {
          auto fresh = models::get_classifier(name);
          return core::eval_classifier_tent(*fresh.model, ds.eval, c, spec,
                                            &fresh.ranges);
        });
        add_row(tent.name(), 1, run_variant(tent, tc.trained_acc));
      },
      [&] { return std::make_pair(table.str(), csv); });
}
