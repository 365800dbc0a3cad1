// sysnoise_serve — command-line front end for the serving subsystem
// (src/serve/): generate request traces and replay them against a model.
//
//   sysnoise_serve gen [--seed S] [--num-samples N] [--random-samples]
//                  [--phase poisson:DUR_MS:RATE]
//                  [--phase burst:DUR_MS:EVERY_MS:SIZE]
//                  [--phase ramp:DUR_MS:RATE0:RATE1]  (repeatable, in order)
//                  [--out FILE]
//   sysnoise_serve replay --trace FILE
//                  [--model synthetic|MCUNet] [--config NAME]
//                  [--workers N] [--max-batch N] [--max-delay-ms X]
//                  [--queue-capacity N]
//                  [--time-scale X] [--gemm-workers N] [--out FILE]
//
// `gen` expands a spec into its concrete arrival list (deterministic from
// the seed) and writes it as JSON: {"spec": ..., "requests": ...,
// "trace": [...]} — a file `replay --trace` takes back verbatim, so a trace
// generated on one machine replays bit-exactly on another. With no --phase,
// a single 1000ms/100rps Poisson phase is used.
//
// `replay` drives the trace through the real InferenceServer: wall-clock
// sleeps to each arrival (scaled by --time-scale) and real worker threads.
// --config picks the deployment config for --model MCUNet:
// training_default, backend=blocked, backend=simd, or
// resize=opencv_nearest. The replay report is printed as JSON (or written
// to --out).
//
// Numbers are parsed whole and range-checked, so "--workers 0" or
// "--max-delay-ms 2ms" fails loudly instead of being clamped or half-read;
// so does a malformed trace file.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/noise_config.h"
#include "models/zoo.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/trace.h"
#include "tensor/backend.h"
#include "util/json.h"

using namespace sysnoise;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s gen [--seed S] [--num-samples N] [--random-samples]\n"
      "          [--phase poisson:DUR:RATE | burst:DUR:EVERY:SIZE |\n"
      "           ramp:DUR:RATE0:RATE1]... [--out FILE]\n"
      "       %s replay --trace FILE [--model synthetic|MCUNet]\n"
      "          [--config NAME] [--workers N] [--max-batch N]\n"
      "          [--max-delay-ms X] [--queue-capacity N] [--gemm-workers N]\n"
      "          [--time-scale X] [--out FILE]\n",
      argv0, argv0);
  std::exit(2);
}

// All-digit style: digits only for counts, plus at most one '.' for
// decimals (no sign, exponent, "nan" or "inf"), then the range check.
double number_arg(const std::string& s, const std::string& what, double lo,
                  double hi, bool integer = false) {
  int digits = 0, dots = 0;
  bool ok = true;
  for (const char ch : s) {
    if (ch >= '0' && ch <= '9')
      ++digits;
    else if (ch != '.' || integer || ++dots > 1)
      ok = false;
  }
  const double v = std::strtod(s.c_str(), nullptr);
  if (!ok || digits == 0 || !(v >= lo && v <= hi)) {
    std::fprintf(stderr, "bad %s \"%s\"\n", what.c_str(), s.c_str());
    std::exit(2);
  }
  return v;
}

int int_arg(const std::string& s, const std::string& what, int lo) {
  return static_cast<int>(number_arg(s, what, lo, INT_MAX, true));
}

double decimal_arg(const std::string& s, const std::string& what,
                   double lo = 0.0) {
  return number_arg(s, what, lo, std::numeric_limits<double>::max());
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_output(const std::string& out, const std::string& content) {
  if (out.empty()) {
    std::printf("%s\n", content.c_str());
    return;
  }
  std::ofstream f(out);
  f << content << "\n";
  f.flush();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s\n", out.c_str());
}

// "poisson:1000:250" / "burst:500:100:10" / "ramp:1000:50:400"
serve::TracePhase parse_phase(const std::string& arg) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char ch : arg) {
    if (ch == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  parts.push_back(cur);
  serve::TracePhase p;
  const auto want = [&](std::size_t n) {
    if (parts.size() != n) {
      std::fprintf(stderr, "bad --phase \"%s\"\n", arg.c_str());
      std::exit(2);
    }
  };
  if (parts[0] == "poisson") {
    want(3);
    p.kind = serve::PhaseKind::kPoisson;
    p.duration_ms = decimal_arg(parts[1], "phase duration");
    p.rate_rps = decimal_arg(parts[2], "phase rate");
  } else if (parts[0] == "burst") {
    want(4);
    p.kind = serve::PhaseKind::kBurst;
    p.duration_ms = decimal_arg(parts[1], "phase duration");
    p.burst_every_ms = decimal_arg(parts[2], "burst period (> 0)",
                                   std::numeric_limits<double>::min());
    p.burst_size = int_arg(parts[3], "burst size", 0);
  } else if (parts[0] == "ramp") {
    want(4);
    p.kind = serve::PhaseKind::kRamp;
    p.duration_ms = decimal_arg(parts[1], "phase duration");
    p.rate_rps = decimal_arg(parts[2], "ramp start rate");
    p.end_rate_rps = decimal_arg(parts[3], "ramp end rate");
  } else {
    std::fprintf(stderr, "unknown phase kind \"%s\"\n", parts[0].c_str());
    std::exit(2);
  }
  return p;
}

SysNoiseConfig config_by_name(const std::string& name) {
  SysNoiseConfig cfg = SysNoiseConfig::training_default();
  if (name == "training_default" || name.empty()) return cfg;
  if (name == "backend=blocked") {
    cfg.backend = ComputeBackend::kBlocked;
    return cfg;
  }
  if (name == "backend=simd") {
    cfg.backend = ComputeBackend::kSimd;
    return cfg;
  }
  if (name == "resize=opencv_nearest") {
    cfg.resize = ResizeMethod::kOpenCVNearest;
    return cfg;
  }
  std::fprintf(stderr,
               "unknown --config \"%s\" (want training_default, "
               "backend=blocked, backend=simd, resize=opencv_nearest)\n",
               name.c_str());
  std::exit(2);
}

int run_gen(int argc, char** argv) {
  serve::TraceSpec spec;
  spec.num_samples = 1;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      // Below 2^53, so every accepted string is exactly representable.
      spec.seed = static_cast<std::uint64_t>(number_arg(
          argv[++i], "--seed (0..2^53-1)", 0, (1ull << 53) - 1, true));
    } else if (arg == "--num-samples" && i + 1 < argc) {
      spec.num_samples = int_arg(argv[++i], "--num-samples (>= 1)", 1);
    } else if (arg == "--random-samples") {
      spec.random_samples = true;
    } else if (arg == "--phase" && i + 1 < argc) {
      spec.phases.push_back(parse_phase(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (spec.phases.empty()) {
    serve::TracePhase p;  // defaults: poisson, 1000ms, 100 rps
    spec.phases.push_back(p);
  }
  const auto trace = serve::generate_trace(spec);
  util::Json j = serve::trace_to_json(trace);
  j.set("spec", spec.to_json());
  write_output(out, j.dump(2));
  std::fprintf(stderr, "%zu requests over %.1f ms\n", trace.size(),
               spec.duration_ms());
  return 0;
}

int run_replay(int argc, char** argv) {
  std::string trace_file, model_name = "synthetic", config_name, out;
  serve::ReplayOptions opts;
  opts.server.workers = 2;
  opts.server.max_batch = 8;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--config" && i + 1 < argc) {
      config_name = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      opts.server.workers = int_arg(argv[++i], "--workers (>= 1)", 1);
    } else if (arg == "--max-batch" && i + 1 < argc) {
      opts.server.max_batch = int_arg(argv[++i], "--max-batch (>= 1)", 1);
    } else if (arg == "--max-delay-ms" && i + 1 < argc) {
      opts.server.max_delay_ms = decimal_arg(argv[++i], "--max-delay-ms");
    } else if (arg == "--queue-capacity" && i + 1 < argc) {
      opts.server.queue_capacity = static_cast<std::size_t>(
          int_arg(argv[++i], "--queue-capacity", 0));
    } else if (arg == "--gemm-workers" && i + 1 < argc) {
      opts.server.gemm_workers = int_arg(
          argv[++i], "--gemm-workers (>= 0; 0 = one per hardware thread)", 0);
    } else if (arg == "--time-scale" && i + 1 < argc) {
      opts.time_scale = decimal_arg(argv[++i], "--time-scale");
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (trace_file.empty()) usage(argv[0]);
  const auto trace =
      serve::trace_from_json(util::Json::parse(read_file(trace_file)));
  std::fprintf(stderr, "replaying %zu requests\n", trace.size());

  // Keep the heavyweight model alive for the whole replay.
  std::unique_ptr<serve::ServingModel> model;
  models::TrainedClassifier tc;
  std::unique_ptr<serve::ClassifierServingModel> classifier;
  if (model_name == "synthetic") {
    int max_sample = 0;
    for (const serve::TraceRequest& r : trace)
      max_sample = std::max(max_sample, r.sample);
    model = std::make_unique<serve::SyntheticServingModel>(max_sample + 1);
  } else {
    tc = models::get_classifier(model_name);
    classifier = std::make_unique<serve::ClassifierServingModel>(
        tc, models::benchmark_cls_dataset().eval, models::cls_pipeline_spec(),
        config_by_name(config_name));
  }
  const serve::ServingModel& m = classifier ? *classifier : *model;

  util::Json j = serve::replay_wall_clock(m, trace, opts).to_json();
  j.set("model", model_name);
  if (classifier) j.set("config", config_name.empty() ? "training_default"
                                                      : config_name);
  write_output(out, j.dump(2));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return run_gen(argc, argv);
    if (cmd == "replay") return run_replay(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sysnoise_serve %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  usage(argv[0]);
}
