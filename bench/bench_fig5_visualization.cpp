// Fig. 5: visualization of SysNoise — per-noise pixel differences, scaled
// to [0,255], dumped as PPM images plus summary statistics. Expected shape
// vs the paper: decode noise is irregular/speckled, resize and color noise
// concentrate on edges, ceil-mode noise appears as bands at the bottom and
// right borders, INT8 noise has no obvious spatial pattern.
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "core/report.h"
#include "image/metrics.h"
#include "image/ppm_io.h"
#include "models/zoo.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli =
      bench::parse_cli(argc, argv, "fig5_visualization");
  bench::banner("Fig. 5 — SysNoise visualization", "Sec. 4.3, Fig. 5");
  bench::BenchTrace trace(cli);

  const auto& ds = models::benchmark_cls_dataset();
  const PipelineSpec spec = models::cls_pipeline_spec();
  const auto& sample = ds.eval[3];
  const SysNoiseConfig base = SysNoiseConfig::training_default();
  const ImageU8 clean = preprocess_image(sample.jpeg, base, spec);

  core::TextTable table({"Noise", "MAE (px)", "Max diff", "Pixels changed (%)"});
  std::string csv = "noise,mae,max_diff,changed_pct\n";

  auto emit = [&](const std::string& name, const ImageU8& noisy) {
    const ImageU8 diff = image_diff_visual(clean, noisy);
    write_ppm(bench::results_dir() + "/fig5_" + name + ".ppm", diff);
    const double mae = image_mae(clean, noisy);
    const int mx = image_max_diff(clean, noisy);
    const double frac = 100.0 * image_diff_fraction(clean, noisy);
    table.add_row({name, core::fmt(mae, 3), std::to_string(mx), core::fmt(frac, 1)});
    csv += name + "," + core::fmt(mae, 3) + "," + std::to_string(mx) + "," +
           core::fmt(frac, 1) + "\n";
  };

  const std::vector<std::string> labels = {"decode", "resize", "color_mode",
                                           "logits"};
  return bench::run_standard_modes(
      cli, labels,
      [&](const std::string& label) {
        if (label == "decode") {
          write_ppm(bench::results_dir() + "/fig5_original.ppm", clean);
          SysNoiseConfig c = base;
          c.decoder = jpeg::DecoderVendor::kDALI;
          emit("decode", preprocess_image(sample.jpeg, c, spec));
        } else if (label == "resize") {
          SysNoiseConfig c = base;
          c.resize = ResizeMethod::kOpenCVNearest;
          emit("resize", preprocess_image(sample.jpeg, c, spec));
        } else if (label == "color_mode") {
          SysNoiseConfig c = base;
          c.color = ColorMode::kNv12RoundTrip;
          emit("color_mode", preprocess_image(sample.jpeg, c, spec));
        } else {
          // INT8 and ceil-mode are feature-space noises: visualize through a
          // trained backbone by comparing logits.
          auto tc = models::get_classifier("ResNet-XS");
          const Tensor x = preprocess(sample.jpeg, base, spec);
          auto run_logits = [&](const SysNoiseConfig& cfg) {
            nn::Tape t;
            t.ctx = cfg.inference_ctx(&tc.ranges);
            return tc.model->forward(t, t.input(x), nn::BnMode::kEval)->value;
          };
          const Tensor base_logits = run_logits(base);
          SysNoiseConfig c8 = base;
          c8.precision = nn::Precision::kINT8;
          SysNoiseConfig cc = base;
          cc.ceil_mode = true;
          const float d8 = max_abs_diff(base_logits, run_logits(c8));
          const float dc = max_abs_diff(base_logits, run_logits(cc));
          table.add_row({"int8 (logit shift)", core::fmt(d8, 4), "-", "-"});
          table.add_row({"ceil_mode (logit shift)", core::fmt(dc, 4), "-", "-"});
          csv += "int8_logits," + core::fmt(d8, 4) + ",,\n";
          csv += "ceil_logits," + core::fmt(dc, 4) + ",,\n";
        }
      },
      [&] {
        std::printf("PPM difference images written to %s/fig5_*.ppm\n",
                    bench::results_dir().c_str());
        return std::make_pair(table.str(), csv);
      });
}
