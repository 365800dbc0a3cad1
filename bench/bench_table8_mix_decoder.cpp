// Table 8: mix training on the decoder — train x test matrix + mean/std.
// Expected shape vs the paper: the mix row's std collapses (paper: 0.36 ->
// 0.065) while clean accuracy is preserved.
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "core/mitigation.h"
#include "core/report.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table8_mix_decoder");
  bench::banner("Table 8 — mix training on the decoder",
                "Sec. 4.3, Table 8 / Algo. 1");
  bench::BenchTrace trace(cli);

  const std::vector<jpeg::DecoderVendor> grid = {jpeg::DecoderVendor::kPillow,
                                                 jpeg::DecoderVendor::kOpenCV,
                                                 jpeg::DecoderVendor::kFFmpeg};
  const std::string model = "ResNet-S";

  const auto& ds = models::benchmark_cls_dataset();
  const PipelineSpec spec = models::cls_pipeline_spec();

  std::vector<std::string> headers = {"Train \\ Test"};
  for (auto v : grid) headers.push_back(jpeg::vendor_name(v));
  headers.push_back("Mean");
  headers.push_back("Std.");
  core::TextTable table(headers);
  std::string csv = "train,test,acc\n";

  auto add_row = [&](const std::string& row_name,
                     const models::ClsPreprocessor& prep, const std::string& tag) {
    std::printf("[table8] training %s with %s decoding...\n", model.c_str(),
                row_name.c_str());
    std::fflush(stdout);
    auto tc = models::get_classifier(model, tag, &prep);
    std::vector<std::string> cells = {row_name};
    double sum = 0.0, sq = 0.0;
    for (auto v : grid) {
      SysNoiseConfig cfg = SysNoiseConfig::training_default();
      cfg.decoder = v;
      const double acc =
          models::eval_classifier(*tc.model, ds.eval, cfg, spec, &tc.ranges);
      cells.push_back(core::fmt(acc));
      csv += row_name + "," + std::string(jpeg::vendor_name(v)) + "," +
             core::fmt(acc) + "\n";
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
  for (auto train_v : rows) labels.push_back(jpeg::vendor_name(train_v));
  labels.push_back("mix");

  return bench::run_standard_modes(
      cli, labels,
      [&](const std::string& label) {
        if (label == "mix") {
          const auto mix = core::mix_training_preprocessor(
              spec, /*mix_decoder=*/true, /*mix_resize=*/false);
          add_row("mix", mix, "t8_mix");
          return;
        }
        SysNoiseConfig cfg = SysNoiseConfig::training_default();
        cfg.decoder = decoder_vendor_from_name(label);
        const auto prep = core::fixed_config_preprocessor(spec, cfg);
        add_row(label, prep, "t8_" + label);
      },
      [&] { return std::make_pair(table.str(), csv); });
}
