// Trace-driven serving benchmark: replays synthetic request traces against
// MCUNet under a grid of deployment shapes — {deployment config/backend,
// micro-batch cap, worker count, offered arrival rate} — and emits a
// machine-readable BENCH_serving.json the CI perf-gate asserts invariants
// on.
//
// Every cell runs on the real InferenceServer (serve/server.h:
// replay_wall_clock): real worker threads, real sleeps, real forwards on
// this host. Latency quantiles, throughput and shed counts are therefore
// measurements and move from run to run; the accounting identities and the
// served accuracy (by per-sample batch independence) are exact. Each cell
// also reports gen_late_p99_ms, how late the open-loop generator submitted
// its requests, so a cell that was offered less than its nominal rate is
// visible.
//
// Offered rates are derived per config from a measured cap-1 capacity (the
// "calibration" section: a saturating burst through a 1-worker, cap-1,
// unbounded-queue server, served / wall time), scaled by the worker count
// and factors 0.5 / 1.0 / 2.0; the factor-2.0 cells are where the gate
// checks that micro-batching beats cap-1 throughput at the same offered
// load. Sizing applies the SLO rule (p99 <= --slo-ms, zero shed) to the
// measured cells.
//
// Flags: --slo-ms X (sizing SLO, default 50), --trace DIR (span trace +
// metrics snapshot; SYSNOISE_TRACE=DIR works too).
// Env: SYSNOISE_SERVING_JSON overrides the output path (default
// $SYSNOISE_RESULTS_DIR/BENCH_serving.json); SYSNOISE_FAST=1 trims the grid.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "data/noise_config.h"
#include "models/zoo.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/trace.h"
#include "tensor/backend.h"
#include "util/json.h"

using namespace sysnoise;

namespace {

struct NamedConfig {
  std::string name;
  SysNoiseConfig cfg;
};

std::vector<NamedConfig> deployment_configs() {
  std::vector<NamedConfig> configs;
  configs.push_back({"training_default", SysNoiseConfig::training_default()});
  {
    NamedConfig c{"backend=blocked", SysNoiseConfig::training_default()};
    c.cfg.backend = ComputeBackend::kBlocked;
    configs.push_back(std::move(c));
  }
  if (!bench::fast_mode()) {
    NamedConfig simd{"backend=simd", SysNoiseConfig::training_default()};
    simd.cfg.backend = ComputeBackend::kSimd;
    configs.push_back(std::move(simd));
    NamedConfig nearest{"resize=opencv_nearest",
                        SysNoiseConfig::training_default()};
    nearest.cfg.resize = ResizeMethod::kOpenCVNearest;
    configs.push_back(std::move(nearest));
  }
  return configs;
}

// A trace covering every sample exactly `repeats` times (round-robin), the
// layout under which served accuracy must equal the offline metric.
std::vector<serve::TraceRequest> coverage_trace(int n, int repeats,
                                                double gap_ms) {
  std::vector<serve::TraceRequest> trace;
  trace.reserve(static_cast<std::size_t>(n) * repeats);
  for (int i = 0; i < n * repeats; ++i) {
    serve::TraceRequest r;
    r.id = i;
    r.arrival_ms = i * gap_ms;
    r.sample = i % n;
    trace.push_back(r);
  }
  return trace;
}

util::Json cell_json(const std::string& config, int workers, int max_batch,
                     double rate_rps, double rate_factor,
                     const serve::ReplayReport& r) {
  util::Json j = util::Json::object();
  j.set("config", config);
  j.set("workers", workers);
  j.set("max_batch", max_batch);
  j.set("offered_rps", rate_rps);
  j.set("rate_factor", rate_factor);
  j.set("requests", r.requests);
  j.set("served", r.stats.served);
  j.set("shed", r.stats.shed);
  j.set("histogram_total", r.stats.latency.total());
  j.set("batches", r.stats.batches);
  j.set("mean_batch_occupancy", r.stats.batch_occupancy.mean());
  j.set("mean_queue_depth", r.stats.queue_depth.mean());
  j.set("max_queue_depth", r.stats.queue_depth.max);
  j.set("p50_ms", r.stats.latency.quantile_bound(0.5));
  j.set("p95_ms", r.stats.latency.quantile_bound(0.95));
  j.set("p99_ms", r.stats.latency.quantile_bound(0.99));
  j.set("mean_ms", r.stats.latency.mean_ms());
  j.set("duration_ms", r.duration_ms);
  j.set("throughput_rps", r.throughput_rps);
  j.set("gen_late_p99_ms", r.gen_late.quantile_bound(0.99));
  j.set("served_accuracy", r.stats.served_accuracy());
  return j;
}

// The cap-1 capacity of one worker, measured on the server itself: every
// request of a saturating burst goes into a 1-worker, cap-1,
// unbounded-queue InferenceServer at once; capacity = served / wall time.
util::Json measure_capacity(const NamedConfig& nc,
                            const serve::ServingModel& model, int requests) {
  serve::ServerOptions so;
  so.workers = 1;
  so.max_batch = 1;
  so.queue_capacity = 0;
  serve::InferenceServer server(model, so);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i)
    server.submit(i, i % model.num_samples());
  server.drain();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const std::size_t served = server.stats().served;
  util::Json j = util::Json::object();
  j.set("config", nc.name);
  j.set("backend", backend_name(nc.cfg.backend));
  j.set("burst_requests", requests);
  j.set("burst_served", served);
  j.set("burst_wall_ms", wall_ms);
  j.set("cap1_worker_rps", 1000.0 * static_cast<double>(served) / wall_ms);
  return j;
}

// --slo-ms in the all-digit style: digits with at most one '.', no sign,
// exponent, "nan" or "inf"; finite and > 0.
bool parse_slo_ms(const char* s, double* out) {
  int digits = 0, dots = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p >= '0' && *p <= '9')
      ++digits;
    else if (*p != '.' || ++dots > 1)
      return false;
  }
  *out = std::strtod(s, nullptr);
  return digits > 0 && *out > 0.0 && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  double slo_ms = 50.0;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--slo-ms") == 0 && i + 1 < argc &&
        parse_slo_ms(argv[i + 1], &slo_ms)) {
      ++i;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--slo-ms X (> 0)] [--trace DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  // Span trace + metrics snapshot for the serving grid (obs/trace.h);
  // --trace wins over SYSNOISE_TRACE, both off by default and inert.
  obs::TraceSession trace =
      trace_dir.empty() ? obs::TraceSession::from_env("serving")
                        : obs::TraceSession(trace_dir, "serving");

  bench::banner("serving benchmark (trace-driven latency/throughput grid)",
                "deployment-noise serving study (secs 3, 5: backend and "
                "pipeline noise under load)");

  const bool fast = bench::fast_mode();
  auto tc = models::get_classifier("MCUNet");
  const auto& eval = models::benchmark_cls_dataset().eval;
  const auto spec = models::cls_pipeline_spec();
  const int n = static_cast<int>(eval.size());

  const std::vector<int> caps = fast ? std::vector<int>{1, 8}
                                     : std::vector<int>{1, 4, 8, 16};
  const std::vector<int> worker_counts =
      fast ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const std::vector<double> rate_factors =
      fast ? std::vector<double>{0.5, 2.0}
           : std::vector<double>{0.5, 1.0, 2.0};
  const double duration_ms = fast ? 120.0 : 300.0;

  util::Json root = util::Json::object();
  root.set("bench", "serving");
  root.set("model", "MCUNet");
  root.set("eval_samples", n);
  root.set("simd_isa", simd_isa_name());
  root.set("hardware_threads",
           static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  root.set("slo_ms", slo_ms);
  root.set("trace_duration_ms", duration_ms);

  util::Json jgrid = util::Json::array();
  util::Json jaccuracy = util::Json::array();
  util::Json jcalibration = util::Json::array();
  util::Json jsizing = util::Json::array();

  const std::vector<NamedConfig> configs = deployment_configs();
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const NamedConfig& nc = configs[ci];
    // Structural seeds (config x workers x rate), not a running counter, so
    // a cell replays the same trace whatever else the grid holds.
    const std::uint64_t config_seed = 1000 + 1000 * ci;
    std::printf("[serving] preprocessing %d samples under %s...\n", n,
                nc.name.c_str());
    std::fflush(stdout);
    const serve::ClassifierServingModel model(tc, eval, spec, nc.cfg);

    // --- calibration: the measured cap-1 capacity the rates scale --------
    // 20 passes over the eval set: long enough (~0.1 s on a 4-thread AVX2
    // host) that a scheduling hiccup does not set every rate below.
    util::Json jc = measure_capacity(nc, model, 20 * n);
    const double cap1_worker_rps = jc.at("cap1_worker_rps").as_number();
    jcalibration.push_back(std::move(jc));

    // --- grid: one real-server replay per cell ----------------------------
    struct Cell {
      int workers, cap;
      double factor, rate, p99, throughput;
      std::size_t shed;
    };
    std::vector<Cell> cells;
    for (std::size_t wi = 0; wi < worker_counts.size(); ++wi) {
      const int workers = worker_counts[wi];
      for (std::size_t fi = 0; fi < rate_factors.size(); ++fi) {
        const double factor = rate_factors[fi];
        const double rate = factor * workers * cap1_worker_rps;
        const auto trace = serve::generate_trace(serve::poisson_spec(
            config_seed + 10 * wi + fi, duration_ms, rate, n));
        for (const int cap : caps) {
          serve::ReplayOptions opts;
          opts.server.workers = workers;
          opts.server.max_batch = cap;
          opts.server.max_delay_ms = 2.0;
          opts.server.queue_capacity = 64;
          const serve::ReplayReport r =
              serve::replay_wall_clock(model, trace, opts);
          jgrid.push_back(cell_json(nc.name, workers, cap, rate, factor, r));
          cells.push_back({workers, cap, factor, rate,
                           r.stats.latency.quantile_bound(0.99),
                           r.throughput_rps, r.stats.shed});
        }
      }
    }

    // --- sizing: requests/core at the p99 SLO, batch-size sweet spot -------
    {
      double best_rate = 0.0, best_per_core = 0.0;
      int best_rate_workers = 0, best_rate_cap = 0;
      for (const Cell& c : cells)
        if (c.p99 <= slo_ms && c.shed == 0 && c.rate > best_rate) {
          best_rate = c.rate;
          best_per_core = c.rate / c.workers;
          best_rate_workers = c.workers;
          best_rate_cap = c.cap;
        }
      const double top_factor = rate_factors.back();
      int sweet_cap = caps.front();
      double sweet_tput = -1.0;
      for (const Cell& c : cells)
        if (c.factor == top_factor && c.workers == worker_counts.back() &&
            c.throughput > sweet_tput) {
          sweet_tput = c.throughput;
          sweet_cap = c.cap;
        }
      util::Json js = util::Json::object();
      js.set("config", nc.name);
      js.set("backend", backend_name(nc.cfg.backend));
      js.set("slo_ms", slo_ms);
      js.set("max_rate_rps_at_slo", best_rate);
      js.set("requests_per_core_at_slo", best_per_core);
      js.set("at_slo_workers", best_rate_workers);
      js.set("at_slo_max_batch", best_rate_cap);
      js.set("batch_size_sweet_spot", sweet_cap);
      js.set("sweet_spot_throughput_rps", sweet_tput);
      jsizing.push_back(std::move(js));
    }

    // --- accuracy: served (coverage trace) vs the offline sweep metric -----
    {
      const double offline = model.offline_accuracy();
      serve::ReplayOptions opts;
      opts.server.workers = 2;
      opts.server.max_batch = 16;
      opts.server.max_delay_ms = 1.0;
      opts.server.queue_capacity = 0;  // coverage must not shed
      const serve::ReplayReport r =
          serve::replay_wall_clock(model, coverage_trace(n, 1, 0.5), opts);
      const double served = r.stats.served_accuracy();
      util::Json ja = util::Json::object();
      ja.set("config", nc.name);
      ja.set("backend", backend_name(nc.cfg.backend));
      ja.set("requests", r.requests);
      ja.set("shed", r.stats.shed);
      ja.set("offline_accuracy", offline);
      ja.set("served_accuracy", served);
      ja.set("drift", served - offline);
      ja.set("bit_identical", served == offline);
      jaccuracy.push_back(std::move(ja));
      std::printf("[serving] %s: offline %.2f%% served %.2f%% (%s)\n",
                  nc.name.c_str(), offline, served,
                  served == offline ? "bit-identical" : "DRIFT");
    }

    std::fflush(stdout);
  }

  root.set("grid", std::move(jgrid));
  root.set("sizing", std::move(jsizing));
  root.set("accuracy", std::move(jaccuracy));
  root.set("calibration", std::move(jcalibration));

  const char* override_path = std::getenv("SYSNOISE_SERVING_JSON");
  const std::string path = override_path != nullptr
                               ? std::string(override_path)
                               : bench::results_dir() + "/BENCH_serving.json";
  std::ofstream f(path);
  f << root.dump(2) << "\n";
  f.flush();
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
