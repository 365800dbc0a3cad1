// Table 7: mix training on the resize method — train x test accuracy
// matrix plus per-row mean/std. Expected shape vs the paper: diagonal
// (train==test) entries are the row maxima, single-method rows have large
// std across test methods, the "mix" row has the smallest std without
// losing clean accuracy.
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "core/mitigation.h"
#include "core/report.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table7_mix_resize");
  bench::banner("Table 7 — mix training on resize", "Sec. 4.3, Table 7 / Algo. 1");
  bench::BenchTrace trace(cli);

  // The six resize methods of the paper's Table 7 grid.
  const std::vector<ResizeMethod> grid = {
      ResizeMethod::kPillowBilinear, ResizeMethod::kPillowNearest,
      ResizeMethod::kPillowBicubic,  ResizeMethod::kOpenCVNearest,
      ResizeMethod::kOpenCVBilinear, ResizeMethod::kOpenCVBicubic};
  const std::string model = "ResNet-S";  // the ResNet-50 stand-in of this repro

  const auto& ds = models::benchmark_cls_dataset();
  const PipelineSpec spec = models::cls_pipeline_spec();

  std::vector<std::string> headers = {"Train \\ Test"};
  for (auto m : grid) headers.push_back(resize_method_name(m));
  headers.push_back("Mean");
  headers.push_back("Std.");
  core::TextTable table(headers);
  std::string csv = "train,test,acc\n";

  auto add_row = [&](const std::string& row_name,
                     const models::ClsPreprocessor& prep, const std::string& tag) {
    std::printf("[table7] training %s with %s preprocessing...\n", model.c_str(),
                row_name.c_str());
    std::fflush(stdout);
    auto tc = models::get_classifier(model, tag, &prep);
    std::vector<std::string> cells = {row_name};
    double sum = 0.0, sq = 0.0;
    for (auto m : grid) {
      SysNoiseConfig cfg = SysNoiseConfig::training_default();
      cfg.resize = m;
      const double acc =
          models::eval_classifier(*tc.model, ds.eval, cfg, spec, &tc.ranges);
      cells.push_back(core::fmt(acc));
      csv += row_name + "," + resize_method_name(m) + "," + core::fmt(acc) + "\n";
      sum += acc;
      sq += acc * acc;
    }
    const double mean = sum / static_cast<double>(grid.size());
    const double var = sq / static_cast<double>(grid.size()) - mean * mean;
    cells.push_back(core::fmt(mean));
    cells.push_back(core::fmt(std::sqrt(std::max(var, 0.0)), 3));
    table.add_row(std::move(cells));
  };

  auto rows = grid;
  if (bench::fast_mode()) rows.resize(1);
  std::vector<std::string> labels;
  for (auto train_m : rows) labels.push_back(resize_method_name(train_m));
  labels.push_back("mix");

  return bench::run_standard_modes(
      cli, labels,
      [&](const std::string& label) {
        if (label == "mix") {
          const auto mix = core::mix_training_preprocessor(
              spec, /*mix_decoder=*/false, /*mix_resize=*/true);
          add_row("mix", mix, "t7_mix");
          return;
        }
        SysNoiseConfig cfg = SysNoiseConfig::training_default();
        cfg.resize = resize_method_from_name(label);
        const auto prep = core::fixed_config_preprocessor(spec, cfg);
        add_row(label, prep, "t7_" + label);
      },
      [&] { return std::make_pair(table.str(), csv); });
}
