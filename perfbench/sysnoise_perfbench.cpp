// Performance benchmark binary. Runs one workload through the library's
// public entry points, checks every output against an untimed reference, and
// prints one JSON line with the raw measurements (perfbench/run.py turns it
// into the benchmark's result line).
//
//   sysnoise_perfbench --state DIR --prepare
//       train (or load) the benchmark's model zoo under DIR/zoo and record
//       how long training took in DIR/zoo/perfbench_zoo.json
//   sysnoise_perfbench --state DIR --workload W --seed N --seconds S
//                      [--trace 0|1] [--t0 MONOTONIC_S] [--setup-only]
//       run workload W (sweep_cold | sweep_warm_dist | serve_mcunet)
//
// Workloads:
//   sweep_cold       every planned config of four classifiers and one
//                    detector through core::StagedExecutor (4 threads) with a
//                    disk stage cache that starts empty on every sweep
//   sweep_warm_dist  the same plans served by an in-process dist::Coordinator
//                    to two in-process dist::run_worker threads (2 sweep
//                    threads each) over loopback, stage cache pre-filled by a
//                    child process (this binary with --fill-only)
//   serve_mcunet     open-loop Poisson traffic at 8000 req/s into a
//                    serve::InferenceServer (MCUNet, simd backend, 2 workers,
//                    batch 16, 2 ms, queue 4096), alternating with windows
//                    that keep the server saturated
//
// With --trace 1 the binary wraps the interfaces it calls (StagedEvalTask,
// dist::TaskResolver, serve::ServingModel) in timing decorators that forward
// every virtual unchanged, so each layer is timed from outside the library.
// Traced and untraced iterations alternate; their ratio is the reported
// tracing overhead.
//
// All models, stage products and scratch files live under --state; the
// process never reads $SYSNOISE_CACHE_DIR or the library's default caches.
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/axis.h"
#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "dist/coordinator.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "tensor/backend.h"
#include "util/json.h"

using namespace sysnoise;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double now_monotonic_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

const std::vector<std::string> kClassifiers = {"MCUNet", "ResNet-S",
                                               "MobileNetV2-0.5", "ViT-T"};
const std::vector<std::string> kDetectors = {"FasterRCNN-ResNet"};

constexpr int kSweepThreads = 4;
constexpr int kDistWorkers = 2;
constexpr int kDistWorkerThreads = 2;
constexpr double kNominalRps = 8000.0;
constexpr double kSloP99Ms = 10.0;
constexpr double kLadderBaseRps = 1000.0;
constexpr int kLadderStepsPerOctave = 16;
constexpr int kLadderRungs = 96;  // 1000 .. 64000 req/s
constexpr int kNominalRung = 48;  // 1000 * 2^(48/16) = 8000 req/s

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Peak resident memory of one measured iteration: free heap pages are
// returned to the kernel and the kernel's high-water mark is reset before the
// iteration, so what an earlier sweep left cached does not count. Falls back
// to the process-lifetime peak where the high-water mark cannot be reset.
class RssWindow {
 public:
  RssWindow() {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset_ = static_cast<bool>(clear);
  }
  double peak_mb() const {
    if (!reset_) return peak_rss_mb();
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // kB
    return peak_rss_mb();
  }

 private:
  bool reset_ = false;
};

// ---------------------------------------------------------------------------
// Layer log: what the timing decorators record
// ---------------------------------------------------------------------------

// Wall time during which at least one call of an owner was in flight (one
// per distributed worker: its busy time, however many threads it runs).
class BusyClock {
 public:
  void enter() {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_++ == 0) since_ = Clock::now();
  }
  void leave() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--inflight_ == 0) busy_ms_ += ms_between(since_, Clock::now());
  }
  double busy_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_ms_;
  }

 private:
  mutable std::mutex mu_;
  int inflight_ = 0;
  Clock::time_point since_;
  double busy_ms_ = 0.0;
};

struct LayerAcc {
  std::size_t calls = 0;
  double busy_ms = 0.0;
  std::size_t configs = 0;
  std::size_t bytes = 0;
  std::vector<double> call_ms;  // kept for per-call medians
};

class LayerLog {
 public:
  void add(const std::string& layer, double ms, std::size_t configs,
           std::size_t bytes, bool keep_sample) {
    std::lock_guard<std::mutex> lock(mu_);
    LayerAcc& a = acc_[layer];
    a.calls++;
    a.busy_ms += ms;
    a.configs += configs;
    a.bytes += bytes;
    if (keep_sample) a.call_ms.push_back(ms);
  }
  std::map<std::string, LayerAcc> all() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acc_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, LayerAcc> acc_;
};

// One timed call: records into the log (and the owner's busy clock) when it
// goes out of scope, whether the call returned or threw.
class CallTimer {
 public:
  CallTimer(LayerLog& log, std::string layer, BusyClock* busy,
            std::size_t configs = 0, bool keep_sample = false)
      : log_(log),
        layer_(std::move(layer)),
        busy_(busy),
        configs_(configs),
        keep_sample_(keep_sample),
        t0_(Clock::now()) {
    if (busy_ != nullptr) busy_->enter();
  }
  ~CallTimer() {
    log_.add(layer_, ms_between(t0_, Clock::now()), configs_, bytes_,
             keep_sample_);
    if (busy_ != nullptr) busy_->leave();
  }
  void set_bytes(std::size_t b) { bytes_ = b; }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  LayerLog& log_;
  std::string layer_;
  BusyClock* busy_;
  std::size_t configs_;
  bool keep_sample_;
  std::size_t bytes_ = 0;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// Timing decorator for core::StagedEvalTask
// ---------------------------------------------------------------------------

// Forwards every virtual of StagedEvalTask (and EvalTask) to `inner`; only
// the stage calls and the disk-cache encode/decode are timed. Keys, scopes
// and identities pass through verbatim, so plans, metric keys and disk
// entries are those of the undecorated task.
class TimedStagedTask final : public core::StagedEvalTask {
 public:
  TimedStagedTask(const core::StagedEvalTask& inner, LayerLog& log,
                  BusyClock* busy)
      : inner_(inner),
        log_(log),
        busy_(busy),
        post_layer_(inner.traits().kind == core::TaskKind::kDetection
                        ? "stage.detect.postprocess"
                        : "stage.other.postprocess") {}

  const std::string& name() const override { return inner_.name(); }
  core::TaskTraits traits() const override { return inner_.traits(); }
  double evaluate(const SysNoiseConfig& cfg) const override {
    return inner_.evaluate(cfg);
  }
  std::string cache_identity() const override {
    return inner_.cache_identity();
  }

  std::string preprocess_key(const SysNoiseConfig& cfg) const override {
    return inner_.preprocess_key(cfg);
  }
  std::string forward_key(const SysNoiseConfig& cfg) const override {
    return inner_.forward_key(cfg);
  }
  std::string forward_batch_key(const SysNoiseConfig& cfg) const override {
    return inner_.forward_batch_key(cfg);
  }
  std::string preprocess_scope() const override {
    return inner_.preprocess_scope();
  }
  std::string forward_scope() const override { return inner_.forward_scope(); }

  core::StageProduct run_preprocess(const SysNoiseConfig& cfg) const override {
    CallTimer t(log_, "stage.data.preprocess", busy_, 1);
    return inner_.run_preprocess(cfg);
  }
  core::StageProduct run_forward(
      const SysNoiseConfig& cfg,
      const core::StageProduct& pre) const override {
    CallTimer per_model(log_, forward_sample_layer(cfg), nullptr, 1, true);
    CallTimer t(log_, "stage.nn.forward", busy_, 1);
    return inner_.run_forward(cfg, pre);
  }
  std::vector<core::StageProduct> run_forward_batched(
      const std::vector<const SysNoiseConfig*>& cfgs,
      const std::vector<core::StageProduct>& pres) const override {
    // Configs of one batched call share forward_batch_key, which includes
    // the backend.
    CallTimer per_model(log_, forward_sample_layer(*cfgs.front()), nullptr,
                        cfgs.size(), true);
    CallTimer t(log_, "stage.nn.forward", busy_, cfgs.size());
    return inner_.run_forward_batched(cfgs, pres);
  }
  double run_postprocess(const SysNoiseConfig& cfg,
                         const core::StageProduct& fwd) const override {
    CallTimer t(log_, post_layer_, busy_, 1);
    return inner_.run_postprocess(cfg, fwd);
  }

  bool encode_preprocess(const core::StageProduct& product,
                         std::string* bytes) const override {
    CallTimer t(log_, "stage.core.disk.encode", busy_);
    const bool ok = inner_.encode_preprocess(product, bytes);
    if (ok && bytes != nullptr) t.set_bytes(bytes->size());
    return ok;
  }
  core::StageProduct decode_preprocess(
      const std::string& bytes) const override {
    CallTimer t(log_, "stage.core.disk.decode", busy_);
    t.set_bytes(bytes.size());
    return inner_.decode_preprocess(bytes);
  }
  bool encode_forward(const core::StageProduct& product,
                      std::string* bytes) const override {
    CallTimer t(log_, "stage.core.disk.encode", busy_);
    const bool ok = inner_.encode_forward(product, bytes);
    if (ok && bytes != nullptr) t.set_bytes(bytes->size());
    return ok;
  }
  core::StageProduct decode_forward(const std::string& bytes) const override {
    CallTimer t(log_, "stage.core.disk.decode", busy_);
    t.set_bytes(bytes.size());
    return inner_.decode_forward(bytes);
  }

 private:
  std::string forward_sample_layer(const SysNoiseConfig& cfg) const {
    return "nn.forward_ms." + inner_.name() + "." + backend_name(cfg.backend);
  }

  const core::StagedEvalTask& inner_;
  LayerLog& log_;
  BusyClock* busy_;
  std::string post_layer_;
};

// Decorated tasks must be indistinguishable from their inner task to the
// executors: every key and scope the plan or the disk cache relies on must
// match. Returns the number of mismatching plan configs.
std::size_t transparency_mismatches(const core::StagedEvalTask& inner,
                                    const core::StagedEvalTask& outer,
                                    const core::SweepPlan& plan) {
  std::size_t bad = 0;
  if (outer.cache_identity() != inner.cache_identity() ||
      outer.preprocess_scope() != inner.preprocess_scope() ||
      outer.forward_scope() != inner.forward_scope() ||
      outer.name() != inner.name())
    ++bad;
  for (const core::PlannedConfig& p : plan.configs) {
    if (outer.preprocess_key(p.cfg) != p.preprocess_key ||
        outer.forward_key(p.cfg) != p.forward_key ||
        outer.forward_batch_key(p.cfg) != inner.forward_batch_key(p.cfg) ||
        core::SweepCache::key_for(outer, p.cfg) != p.metric_key)
      ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string state;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double t0 = -1.0;
  bool setup_only = false;
  bool prepare = false;
  bool fill_only = false;  // internal: sweep_warm_dist's filling pass
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sysnoise_perfbench --state DIR --prepare\n"
               "       sysnoise_perfbench --state DIR --workload "
               "sweep_cold|sweep_warm_dist|serve_mcunet --seed N "
               "--seconds S [--trace 0|1] [--t0 MONOTONIC_S] "
               "[--setup-only]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--state") a.state = value();
    else if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--t0") a.t0 = std::stod(value());
    else if (flag == "--setup-only") a.setup_only = true;
    else if (flag == "--fill-only") a.fill_only = true;
    else if (flag == "--prepare") a.prepare = true;
    else usage();
  }
  if (a.state.empty()) usage();
  if (!a.prepare && a.workload != "sweep_cold" &&
      a.workload != "sweep_warm_dist" && a.workload != "serve_mcunet")
    usage();
  if (!(a.seconds > 0.0)) usage();
  return a;
}

// Point every cache the library consults at the benchmark's own directory
// before anything touches the zoo, and make the default backend explicit.
void isolate_caches(const std::string& state) {
  const std::string zoo = state + "/zoo";
  fs::create_directories(zoo);
  setenv("SYSNOISE_CACHE_DIR", zoo.c_str(), 1);
  setenv("SYSNOISE_STAGE_CACHE_DIR", (state + "/unused_stage_cache").c_str(),
         1);
  unsetenv("SYSNOISE_BACKEND");
  unsetenv("SYSNOISE_TRACE");
  unsetenv("SYSNOISE_DISK_STAGE_CACHE");
}

std::string zoo_record_path(const std::string& state) {
  return state + "/zoo/perfbench_zoo.json";
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// ---------------------------------------------------------------------------
// Sweep workloads: setup
// ---------------------------------------------------------------------------

struct ClsHolder {
  models::TrainedClassifier trained;
  models::ClassifierTask task;
  explicit ClsHolder(models::TrainedClassifier t)
      : trained(std::move(t)), task(trained) {}
};

struct DetHolder {
  models::TrainedDetector trained;
  models::DetectorTask task;
  explicit DetHolder(models::TrainedDetector t)
      : trained(std::move(t)), task(trained) {}
};

struct SweepUnit {
  std::string model;
  util::Json task_spec;
  const core::StagedEvalTask* task = nullptr;  // owned by `owner`
  std::shared_ptr<void> owner;
  double trained_metric = 0.0;
  core::SweepPlan plan;
};

struct SweepSetup {
  std::vector<SweepUnit> units;
  double zoo_load_ms = 0.0;
  std::size_t configs = 0;  // planned configs per sweep
};

template <typename Holder, typename Load>
void add_unit(SweepSetup* s, const std::string& name, util::Json spec,
              Load load) {
  const Clock::time_point t0 = Clock::now();
  auto holder = std::make_shared<Holder>(load(name));
  s->zoo_load_ms += ms_between(t0, Clock::now());
  SweepUnit u;
  u.model = name;
  u.task_spec = std::move(spec);
  u.task = &holder->task;
  u.trained_metric = holder->task.trained_metric();
  u.plan = core::plan_sweep(holder->task, core::AxisRegistry::global());
  u.owner = std::move(holder);
  s->configs += u.plan.configs.size();
  s->units.push_back(std::move(u));
}

SweepSetup load_sweep_units() {
  SweepSetup s;
  for (const std::string& name : kClassifiers)
    add_unit<ClsHolder>(&s, name, dist::classifier_spec(name).to_json(),
                        [](const std::string& n) {
                          return models::get_classifier(n);
                        });
  for (const std::string& name : kDetectors)
    add_unit<DetHolder>(&s, name, dist::detector_spec(name).to_json(),
                        models::get_detector);
  return s;
}

// The seed-dependent input of the sweep workloads: the order in which the
// models' plans are executed (results are order-independent).
std::vector<std::size_t> unit_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng() % i]);
  return order;
}

// Configs of `plan` whose metric in `got` is missing or differs bit-wise
// from `want`.
std::size_t metric_mismatches(const core::SweepPlan& plan,
                              const core::MetricMap& want,
                              const core::MetricMap& got) {
  std::size_t bad = 0;
  for (const core::PlannedConfig& p : plan.configs) {
    const auto w = want.find(p.metric_key);
    const auto g = got.find(p.metric_key);
    if (w == want.end() || g == got.end() || !same_bits(w->second, g->second))
      ++bad;
  }
  return bad;
}

// The table benches' seeding: the trained-baseline metric the zoo computed
// at load time stands in for the training-default config.
void seed_cache(const SweepSetup& s, core::SweepCache* cache) {
  for (const SweepUnit& u : s.units)
    cache->seed(*u.task, SysNoiseConfig::training_default(), u.trained_metric);
}

core::SweepOptions sweep_options(int threads, core::SweepCache* cache) {
  core::SweepOptions opts;
  opts.threads = threads;
  opts.cache = cache;
  return opts;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  util::Json context = util::Json::object();
  util::Json layers = util::Json::object();
  double latency_ms = 0.0;
  double throughput_per_s = 0.0;
  std::vector<double> peak_rss_mb;  // per untraced iteration
};

using LayerValues = std::map<std::string, double>;

// Per-layer values of one traced sweep, from the stage decorators' log and
// the executor's own StageStats.
LayerValues stage_layer_values(const LayerLog& log, double sweep_ms,
                               const core::StageStats& stats, int threads) {
  const std::map<std::string, LayerAcc> all = log.all();
  auto acc = [&all](const char* layer) {
    const auto it = all.find(layer);
    return it == all.end() ? LayerAcc{} : it->second;
  };
  const LayerAcc pre = acc("stage.data.preprocess");
  const LayerAcc fwd = acc("stage.nn.forward");
  const LayerAcc post = acc("stage.detect.postprocess");
  const LayerAcc enc = acc("stage.core.disk.encode");
  const LayerAcc dec = acc("stage.core.disk.decode");
  double stage_busy_ms = 0.0;
  LayerValues v;
  for (const auto& [layer, a] : all) {
    if (layer.rfind("stage.", 0) == 0) stage_busy_ms += a.busy_ms;
    if (layer.rfind("nn.forward_ms.", 0) == 0) v[layer] = median(a.call_ms);
  }
  v["data.preprocess.calls"] = double(pre.calls);
  v["data.preprocess.busy_ms"] = pre.busy_ms;
  v["nn.forward.calls"] = double(fwd.calls);
  v["nn.forward.busy_ms"] = fwd.busy_ms;
  v["nn.forward.configs_per_call"] =
      fwd.calls == 0 ? 0.0 : double(fwd.configs) / double(fwd.calls);
  v["detect.postprocess.calls"] = double(post.calls);
  v["detect.postprocess.busy_ms"] = post.busy_ms;
  v["core.executor.busy_share"] = stage_busy_ms / (threads * sweep_ms);
  v["core.stage.preprocess_computed"] = double(stats.preprocess_computed);
  v["core.stage.forward_computed"] = double(stats.forward_computed);
  v["core.stage.preprocess_disk_hits"] = double(stats.preprocess_disk_hits);
  v["core.stage.forward_disk_hits"] = double(stats.forward_disk_hits);
  v["core.stage.batched_forward_calls"] = double(stats.batched_forward_calls);
  v["core.disk.encode_ms"] = enc.busy_ms;
  v["core.disk.bytes_written"] = double(enc.bytes);
  v["core.disk.decode_ms"] = dec.busy_ms;
  v["core.disk.bytes_read"] = double(dec.bytes);
  return v;
}

void set_overhead(const std::vector<double>& untraced,
                  const std::vector<double>& traced, util::Json* out) {
  if (untraced.empty() || traced.empty()) return;
  const double u = median(untraced), t = median(traced);
  out->set("trace.untraced_ms", u);
  out->set("trace.traced_ms", t);
  out->set("trace.overhead_pct", 100.0 * (t - u) / u);
}

// Keep iterating until the time budget is spent, with at least three
// iterations (four when tracing, so there are two of each kind).
bool keep_going(Clock::time_point start, double seconds, std::size_t done,
                bool trace) {
  if (done < (trace ? 4u : 3u)) return true;
  return ms_between(start, Clock::now()) < seconds * 1000.0;
}

// One sweep over every unit: per-unit metric maps (unit order), its wall
// time, and its per-layer values when traced.
struct SweepRun {
  std::vector<core::MetricMap> results;
  double sweep_ms = 0.0;
  LayerValues layers;
  std::vector<std::string> errors;
};

// The measuring loop both sweep workloads share: sweeps until the budget is
// spent (untraced and traced alternating with --trace 1, so both see the
// same machine state), each checked bit for bit against `want`. The
// latency is the median untraced sweep; per-layer values are medians over
// the traced sweeps.
Outcome time_sweeps(const SweepSetup& s, const Args& args,
                    const std::vector<core::MetricMap>& want,
                    const std::string& want_name,
                    const std::function<SweepRun(bool traced)>& sweep) {
  Outcome o;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<LayerValues> traced_layers;
  const Clock::time_point start = Clock::now();
  for (std::size_t it = 0; keep_going(start, args.seconds, it, args.trace);
       ++it) {
    const bool traced = args.trace && it % 2 == 1;
    const RssWindow rss;
    SweepRun run = sweep(traced);
    if (!traced) o.peak_rss_mb.push_back(rss.peak_mb());
    for (std::size_t i = 0; i < s.units.size(); ++i) {
      const std::size_t bad =
          metric_mismatches(s.units[i].plan, want[i], run.results[i]);
      o.attempted += s.units[i].plan.configs.size();
      o.failed += bad;
      if (bad != 0)
        o.problems.push_back(std::to_string(bad) + " config(s) of " +
                             s.units[i].model + " differ from the " +
                             want_name + (traced ? " (traced sweep)" : ""));
    }
    for (const std::string& e : run.errors) o.problems.push_back(e);
    if (traced) {
      traced_ms.push_back(run.sweep_ms);
      traced_layers.push_back(std::move(run.layers));
    } else {
      untraced_ms.push_back(run.sweep_ms);
    }
  }
  o.latency_ms = median(untraced_ms);
  o.throughput_per_s = double(s.configs) / (o.latency_ms / 1000.0);
  o.context.set("sweeps_timed", untraced_ms.size());
  util::Json rss = util::Json::array();
  for (const double mb : o.peak_rss_mb) rss.push_back(mb);
  o.context.set("peak_rss_per_sweep_mb", std::move(rss));
  o.context.set("configs_per_sweep", s.configs);
  std::map<std::string, std::vector<double>> per_key;
  for (const LayerValues& l : traced_layers)
    for (const auto& [k, v] : l) per_key[k].push_back(v);
  for (const auto& [k, v] : per_key) o.layers.set(k, median(v));
  set_overhead(untraced_ms, traced_ms, &o.layers);
  return o;
}

// ---------------------------------------------------------------------------
// sweep_cold
// ---------------------------------------------------------------------------

Outcome run_sweep_cold(const SweepSetup& s, const Args& args) {
  const std::vector<std::size_t> order = unit_order(s.units.size(), args.seed);
  const std::string dir = args.state + "/work/sweep_cold_stages";

  // Untimed reference: the monolithic thread-pool path, no stage cache.
  std::vector<core::MetricMap> reference(s.units.size());
  {
    core::SweepCache cache;
    seed_cache(s, &cache);
    const core::ThreadPoolExecutor pool;
    for (std::size_t i = 0; i < s.units.size(); ++i)
      reference[i] = pool.execute(*s.units[i].task, s.units[i].plan,
                                  sweep_options(kSweepThreads, &cache));
  }

  Outcome o = time_sweeps(s, args, reference, "thread-pool reference",
                          [&](bool traced) {
    reset_dir(dir);
    LayerLog log;
    std::vector<std::unique_ptr<TimedStagedTask>> timed;
    if (traced)
      for (const SweepUnit& u : s.units)
        timed.push_back(std::make_unique<TimedStagedTask>(*u.task, log,
                                                          nullptr));
    core::DiskStageCache disk(dir);
    core::StageStats stats;
    const core::StagedExecutor staged(&stats, &disk);
    core::SweepCache cache;
    seed_cache(s, &cache);
    SweepRun run;
    run.results.resize(s.units.size());
    const Clock::time_point t0 = Clock::now();
    for (const std::size_t i : order) {
      const core::StagedEvalTask& task =
          traced ? *timed[i] : *s.units[i].task;
      run.results[i] = staged.execute(task, s.units[i].plan,
                                      sweep_options(kSweepThreads, &cache));
    }
    run.sweep_ms = ms_between(t0, Clock::now());
    if (traced)
      run.layers = stage_layer_values(log, run.sweep_ms, stats, kSweepThreads);
    return run;
  });
  fs::remove_all(dir);
  o.context.set("stage_cache", "empty");
  return o;
}

// ---------------------------------------------------------------------------
// sweep_warm_dist
// ---------------------------------------------------------------------------

// What one distributed worker's decorators record.
struct WorkerTrace {
  BusyClock busy;
  std::mutex mu;
  double setup_ms = 0.0;  // time inside TaskResolver calls (zoo loads)
};

struct DecoratedResolved {
  std::shared_ptr<void> inner_owner;
  TimedStagedTask task;
  DecoratedResolved(std::shared_ptr<void> owner,
                    const core::StagedEvalTask& inner, LayerLog& log,
                    BusyClock* busy)
      : inner_owner(std::move(owner)), task(inner, log, busy) {}
};

// Timing decorator for dist::TaskResolver: times the resolve and wraps the
// resolved task so the worker's stage calls are timed too. Seeds and the
// task's identity pass through unchanged.
dist::TaskResolver timed_resolver(dist::TaskResolver inner, LayerLog& log,
                                  WorkerTrace& wt) {
  return [inner = std::move(inner), &log, &wt](const util::Json& spec) {
    const Clock::time_point t0 = Clock::now();
    dist::ResolvedWorkerTask r = inner(spec);
    {
      std::lock_guard<std::mutex> lock(wt.mu);
      wt.setup_ms += ms_between(t0, Clock::now());
    }
    const auto* staged = dynamic_cast<const core::StagedEvalTask*>(r.task);
    if (staged == nullptr) return r;
    auto holder =
        std::make_shared<DecoratedResolved>(r.owner, *staged, log, &wt.busy);
    r.task = &holder->task;
    r.owner = std::move(holder);
    return r;
  };
}

// One distributed sweep: an in-process coordinator serving every plan to
// kDistWorkers in-process workers over loopback, all sharing the disk stage
// cache in `dir`. Timed from starting the workers to the merged results.
SweepRun run_distributed(const SweepSetup& s,
                         const std::vector<std::size_t>& order,
                         const std::string& dir, bool traced) {
  std::vector<dist::DistJob> jobs;
  for (const std::size_t i : order)
    jobs.push_back({s.units[i].task_spec, s.units[i].plan});

  dist::CoordinatorOptions copts;
  copts.min_workers = kDistWorkers;
  copts.min_workers_timeout_s = 60;
  auto coordinator = std::make_unique<dist::Coordinator>(copts);
  const int port = coordinator->port();

  LayerLog log;
  std::vector<core::StageStats> stats(kDistWorkers);
  std::vector<dist::WorkerRunStats> wstats(kDistWorkers);
  std::vector<std::string> thrown(kDistWorkers);
  std::vector<std::unique_ptr<WorkerTrace>> traces;
  for (int w = 0; w < kDistWorkers; ++w)
    traces.push_back(std::make_unique<WorkerTrace>());

  std::vector<core::MetricMap> job_results;
  std::exception_ptr coord_error;
  std::vector<std::thread> workers;
  const Clock::time_point t0 = Clock::now();
  for (int w = 0; w < kDistWorkers; ++w) {
    workers.emplace_back([&, w] {
      try {
        core::DiskStageCache disk(dir);
        dist::WorkerOptions wopts;
        wopts.threads = kDistWorkerThreads;
        wopts.stats = &stats[w];
        wopts.disk = &disk;
        const dist::TaskResolver resolver =
            traced ? timed_resolver(dist::zoo_task_resolver(), log, *traces[w])
                   : dist::zoo_task_resolver();
        wstats[w] = dist::run_worker("127.0.0.1", port, resolver, wopts);
      } catch (const std::exception& e) {
        thrown[w] = e.what();
      }
    });
  }
  try {
    job_results = coordinator->run(jobs);
  } catch (...) {
    coord_error = std::current_exception();
  }
  SweepRun run;
  run.sweep_ms = ms_between(t0, Clock::now());
  const dist::CoordinatorStats coord = coordinator->stats();
  coordinator.reset();  // closes every connection, so workers return
  for (std::thread& t : workers) t.join();
  if (coord_error) std::rethrow_exception(coord_error);

  run.results.resize(s.units.size());
  for (std::size_t j = 0; j < order.size(); ++j)
    run.results[order[j]] = std::move(job_results[j]);
  core::StageStats total;
  double setup_ms = 0.0, busy_ms = 0.0;
  for (int w = 0; w < kDistWorkers; ++w) {
    total += stats[w];
    setup_ms += traces[w]->setup_ms;
    busy_ms += traces[w]->busy.busy_ms();
    const std::string& err =
        !thrown[w].empty() ? thrown[w] : wstats[w].error;
    if (!err.empty())
      run.errors.push_back("worker error: " + err);
    else if (!wstats[w].done)
      run.errors.push_back("worker stopped before the coordinator was done");
  }
  if (traced) {
    run.layers = stage_layer_values(log, run.sweep_ms, total,
                                    kDistWorkers * kDistWorkerThreads);
    const double units = double(coord.scheduler.completed);
    run.layers["dist.units"] = units;
    run.layers["dist.re_leases"] = double(coord.scheduler.re_leases);
    run.layers["dist.worker_setup_ms"] = setup_ms;
    run.layers["dist.worker_busy_ms"] = busy_ms;
    run.layers["dist.overhead_ms_per_unit"] =
        units == 0
            ? 0.0
            : (kDistWorkers * run.sweep_ms - busy_ms - setup_ms) / units;
  }
  return run;
}

std::string warm_dir(const Args& args) {
  return args.state + "/work/sweep_warm_dist_stages";
}
std::string warm_fill_path(const Args& args) {
  return args.state + "/work/sweep_warm_dist_fill.json";
}

// --fill-only: the untimed filling pass, the same distributed path over an
// empty cache. Leaves the filled stage cache and the pass's metric maps (in
// unit order) in the state directory.
int fill_warm_cache(const SweepSetup& s, const Args& args) {
  reset_dir(warm_dir(args));
  const SweepRun fill = run_distributed(
      s, unit_order(s.units.size(), args.seed), warm_dir(args), false);
  for (const std::string& e : fill.errors)
    std::fprintf(stderr, "[perfbench] filling pass %s\n", e.c_str());
  util::Json maps = util::Json::array();
  for (const core::MetricMap& m : fill.results) {
    util::Json jm = util::Json::object();
    for (const auto& [key, value] : m) jm.set(key, value);
    maps.push_back(std::move(jm));
  }
  std::ofstream(warm_fill_path(args)) << maps.dump() << "\n";
  return fill.errors.empty() ? 0 : 1;
}

// Runs the filling pass in a child process (this binary with --fill-only),
// so the measuring process's heap keeps nothing of a cold sweep: its
// resident memory is that of setup plus warm sweeps.
std::vector<core::MetricMap> fill_in_child(const Args& args) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  std::vector<std::string> arg_strings = {
      exe, "--state", args.state, "--workload", args.workload, "--seed",
      std::to_string(args.seed), "--seconds", "1", "--fill-only"};
  std::vector<char*> argv;
  for (std::string& a : arg_strings) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  int status = 0;
  if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0 ||
      waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("the filling pass failed");
  std::ifstream f(warm_fill_path(args));
  std::stringstream ss;
  ss << f.rdbuf();
  std::vector<core::MetricMap> out;
  const util::Json maps = util::Json::parse(ss.str());
  for (std::size_t i = 0; i < maps.size(); ++i) {
    core::MetricMap m;
    for (const auto& [key, value] : maps.at(i).items())
      m.emplace(key, value.as_number());
    out.push_back(std::move(m));
  }
  return out;
}

Outcome run_sweep_warm_dist(const SweepSetup& s, const Args& args) {
  const std::vector<std::size_t> order = unit_order(s.units.size(), args.seed);
  const std::vector<core::MetricMap> fill = fill_in_child(args);
  Outcome o = time_sweeps(s, args, fill, "filling pass", [&](bool traced) {
    return run_distributed(s, order, warm_dir(args), traced);
  });
  fs::remove_all(warm_dir(args));
  fs::remove(warm_fill_path(args));
  o.context.set("stage_cache", "filled");
  return o;
}

// ---------------------------------------------------------------------------
// serve_mcunet
// ---------------------------------------------------------------------------

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// Timing decorator for serve::ServingModel: times each predict (one
// micro-batch forward) and forwards everything else.
class TimedServingModel final : public serve::ServingModel {
 public:
  explicit TimedServingModel(const serve::ServingModel& inner)
      : inner_(inner) {}
  const std::string& name() const override { return inner_.name(); }
  int num_samples() const override { return inner_.num_samples(); }
  std::vector<int> predict(const std::vector<int>& samples) const override {
    const Clock::time_point t0 = Clock::now();
    std::vector<int> preds = inner_.predict(samples);
    const double ms = ms_between(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    compute_ms_.push_back(ms);
    batch_sizes_.push_back(static_cast<double>(samples.size()));
    return preds;
  }
  bool correct(int sample, int prediction) const override {
    return inner_.correct(sample, prediction);
  }
  std::vector<double> compute_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return compute_ms_;
  }
  std::vector<double> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  const serve::ServingModel& inner_;
  mutable std::mutex mu_;
  mutable std::vector<double> compute_ms_;
  mutable std::vector<double> batch_sizes_;
};

// The request-id model the server sees: every request carries a unique id,
// mapped here to the real evaluation sample, so each request's batch start,
// completion and prediction are recorded exactly. Slots are written by one
// server worker each and read only after drain().
class RequestModel final : public serve::ServingModel {
 public:
  RequestModel(const serve::ServingModel& inner,
               const std::vector<int>& sample)
      : inner_(inner),
        sample_(sample),
        start_ns_(sample.size(), -1),
        done_ns_(sample.size(), -1),
        pred_(sample.size(), -1) {}
  const std::string& name() const override { return inner_.name(); }
  int num_samples() const override { return static_cast<int>(sample_.size()); }
  std::vector<int> predict(const std::vector<int>& ids) const override {
    const std::int64_t start = to_ns(Clock::now());
    std::vector<int> real;
    real.reserve(ids.size());
    for (const int id : ids) real.push_back(sample_.at(std::size_t(id)));
    std::vector<int> preds = inner_.predict(real);
    const std::int64_t done = to_ns(Clock::now());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t id = static_cast<std::size_t>(ids[i]);
      start_ns_[id] = start;
      done_ns_[id] = done;
      pred_[id] = preds[i];
    }
    return preds;
  }
  bool correct(int id, int prediction) const override {
    return inner_.correct(sample_.at(std::size_t(id)), prediction);
  }
  std::int64_t start_ns(std::size_t id) const { return start_ns_[id]; }
  std::int64_t done_ns(std::size_t id) const { return done_ns_[id]; }
  int pred(std::size_t id) const { return pred_[id]; }

 private:
  const serve::ServingModel& inner_;
  const std::vector<int>& sample_;
  mutable std::vector<std::int64_t> start_ns_;
  mutable std::vector<std::int64_t> done_ns_;
  mutable std::vector<int> pred_;
};

// Benchmark-side input generator: Poisson arrivals at `rps` for
// `duration_s`, samples drawn uniformly, both from a seeded stream.
struct Traffic {
  std::vector<double> arrival_s;
  std::vector<int> sample;
};

Traffic make_traffic(std::uint64_t seed, double rps, double duration_s,
                     int num_samples) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
  };
  Traffic t;
  double at = 0.0;
  while (true) {
    at += -std::log(1.0 - uniform()) / rps;
    if (at >= duration_s) break;
    t.arrival_s.push_back(at);
    t.sample.push_back(static_cast<int>(rng() % std::uint64_t(num_samples)));
  }
  return t;
}

struct RateResult {
  std::size_t requests = 0;
  std::size_t shed = 0;
  std::size_t mismatches = 0;
  std::vector<double> latency_ms;  // per request, shed = +inf
  std::vector<double> queue_wait_ms;
  std::vector<double> gen_late_ms;
  std::vector<double> compute_ms;
  std::vector<double> batch_sizes;
  bool backlog_growing = false;

  void append(const RateResult& r) {
    requests += r.requests;
    shed += r.shed;
    mismatches += r.mismatches;
    for (auto [to, from] :
         {std::pair{&latency_ms, &r.latency_ms},
          std::pair{&queue_wait_ms, &r.queue_wait_ms},
          std::pair{&gen_late_ms, &r.gen_late_ms},
          std::pair{&compute_ms, &r.compute_ms},
          std::pair{&batch_sizes, &r.batch_sizes}})
      to->insert(to->end(), from->begin(), from->end());
    backlog_growing = backlog_growing || r.backlog_growing;
  }
  double p50() const { return quantile(latency_ms, 0.50); }
  double p99() const { return quantile(latency_ms, 0.99); }
  bool meets_slo() const {
    return shed == 0 && !backlog_growing && p99() <= kSloP99Ms;
  }
};

serve::ServerOptions server_options() {
  serve::ServerOptions so;
  so.workers = 2;
  so.max_batch = 16;
  so.max_delay_ms = 2.0;
  so.queue_capacity = 4096;
  return so;
}

// Drive one open-loop run at `rps` and time every request from its due send
// time to the return of its predict call.
RateResult serve_at_rate(const serve::ServingModel& model,
                         const std::vector<int>& offline, double rps,
                         double duration_s, std::uint64_t seed, bool traced) {
  const Traffic traffic =
      make_traffic(seed, rps, duration_s, model.num_samples());
  const std::size_t n = traffic.arrival_s.size();
  TimedServingModel timed(model);
  const serve::ServingModel& inner =
      traced ? static_cast<const serve::ServingModel&>(timed) : model;
  RequestModel requests(inner, traffic.sample);
  std::vector<std::int64_t> due_ns(n), sent_ns(n);
  std::vector<char> admitted(n, 0);
  {
    serve::InferenceServer server(requests, server_options());
    const Clock::time_point base =
        Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point due =
          base + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(traffic.arrival_s[i]));
      // Sleeping (not spinning) keeps the generator off the cores the
      // server needs; its lateness is part of every request's latency.
      std::this_thread::sleep_until(due);
      sent_ns[i] = to_ns(Clock::now());
      due_ns[i] = to_ns(due);
      admitted[i] = server.submit(static_cast<int>(i), static_cast<int>(i))
                        ? 1
                        : 0;
    }
    server.drain();
  }

  RateResult r;
  r.requests = n;
  r.latency_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    r.gen_late_ms.push_back(double(sent_ns[i] - due_ns[i]) / 1e6);
    if (!admitted[i] || requests.done_ns(i) < 0) {
      ++r.shed;
      r.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    r.latency_ms.push_back(double(requests.done_ns(i) - due_ns[i]) / 1e6);
    r.queue_wait_ms.push_back(double(requests.start_ns(i) - sent_ns[i]) / 1e6);
    if (requests.pred(i) != offline[std::size_t(traffic.sample[i])])
      ++r.mismatches;
  }
  // A growing backlog shows as the last quarter of requests waiting much
  // longer than the first quarter.
  if (n >= 8) {
    const std::size_t q = n / 4;
    const std::vector<double> first(r.latency_ms.begin(),
                                    r.latency_ms.begin() + long(q));
    const std::vector<double> last(r.latency_ms.end() - long(q),
                                   r.latency_ms.end());
    r.backlog_growing = median(last) > 1.5 * median(first) + 1.0;
  }
  if (traced) {
    r.compute_ms = timed.compute_ms();
    r.batch_sizes = timed.batch_sizes();
  }
  return r;
}

double ladder_rate(int rung) {
  return kLadderBaseRps *
         std::pow(2.0, double(rung) / double(kLadderStepsPerOctave));
}

// Highest rung of the fixed ladder whose probe window meets the SLO, or -1
// when none does. Starts from the nominal rung (whose verdict the caller
// measured), strides half an octave to bracket the SLO edge, then bisects the
// bracket down to one rung.
int search_capacity(const std::function<bool(int)>& probe, bool nominal_ok) {
  const int stride = kLadderStepsPerOctave / 2;
  int pass = -1, fail = kLadderRungs + 1;
  if (nominal_ok) {
    pass = kNominalRung;
    for (int rung = pass + stride; rung <= kLadderRungs; rung += stride) {
      if (!probe(rung)) {
        fail = rung;
        break;
      }
      pass = rung;
    }
  } else {
    fail = kNominalRung;
    for (int rung = fail - stride; rung >= 0; rung -= stride) {
      if (probe(rung)) {
        pass = rung;
        break;
      }
      fail = rung;
    }
  }
  if (pass < 0) return -1;
  while (fail - pass > 1 && fail <= kLadderRungs) {
    const int mid = (pass + fail) / 2;
    if (probe(mid)) pass = mid;
    else fail = mid;
  }
  return pass;
}

// Closed loop at saturation: keep the server's admission queue full for
// `duration_s` (a shed request is re-submitted once there is room) and count
// the requests completed per second, leaving out the first quarter while the
// queue fills. Served predictions are checked like every other request's.
struct Saturation {
  double served_per_s = 0.0;
  std::size_t mismatches = 0;
};

Saturation serve_saturated(const serve::ServingModel& model,
                           const std::vector<int>& offline, double duration_s,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> sample(static_cast<std::size_t>(100000 * duration_s));
  for (int& x : sample)
    x = static_cast<int>(rng() % std::uint64_t(model.num_samples()));
  RequestModel requests(model, sample);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point from =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(0.25 * duration_s));
  const Clock::time_point until =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(duration_s));
  std::size_t next = 0;
  {
    serve::InferenceServer server(requests, server_options());
    while (next < sample.size() && Clock::now() < until) {
      if (server.submit(static_cast<int>(next), static_cast<int>(next)))
        ++next;
      else
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    server.drain();
  }
  Saturation out;
  std::size_t in_window = 0;
  for (std::size_t i = 0; i < next; ++i) {
    const std::int64_t done = requests.done_ns(i);
    if (done >= to_ns(from) && done < to_ns(until)) ++in_window;
    if (requests.pred(i) != offline[std::size_t(sample[i])]) ++out.mismatches;
  }
  out.served_per_s = double(in_window) / (0.75 * duration_s);
  return out;
}

// Windows of a sixteenth of the budget each. Untraced: segments at the
// nominal rate alternate with saturation windows, so slow phases of the host
// spread over both figures. Traced: untraced and traced nominal segments
// alternate for half the budget; the other half searches the highest rate
// that meets the SLO, a per-layer figure because on a shared host a single
// stall moves it by whole rungs.
Outcome run_serve(const serve::ClassifierServingModel& model, const Args& args,
                  const std::vector<int>& offline) {
  Outcome o;
  const double window_s = std::max(0.25, args.seconds / 16.0);
  std::uint64_t stream = args.seed * 1000003ull;

  // Untimed warm-up: thread pools, allocator, caches.
  serve_at_rate(model, offline, kNominalRps, 0.25, ++stream, false);

  RateResult nominal, traced;
  std::size_t other_mismatches = 0, probes = 0;
  auto nominal_segment = [&] {
    const RateResult r = serve_at_rate(model, offline, kNominalRps, window_s,
                                       ++stream, false);
    nominal.append(r);
    return r.meets_slo();
  };

  const Clock::time_point start = Clock::now();
  if (!args.trace) {
    std::vector<double> saturated;
    for (std::size_t cycle = 0; keep_going(start, args.seconds, cycle, false);
         ++cycle) {
      nominal_segment();
      const Saturation sat =
          serve_saturated(model, offline, window_s, ++stream);
      saturated.push_back(sat.served_per_s);
      other_mismatches += sat.mismatches;
    }
    o.throughput_per_s = median(saturated);
  } else {
    for (std::size_t cycle = 0;
         keep_going(start, args.seconds / 2.0, cycle, false); ++cycle) {
      nominal_segment();
      traced.append(serve_at_rate(model, offline, kNominalRps, window_s,
                                  ++stream, true));
    }
    auto window_meets_slo = [&](int r) {
      const RateResult res = serve_at_rate(model, offline, ladder_rate(r),
                                           window_s, ++stream, false);
      other_mismatches += res.mismatches;
      ++probes;
      return res.meets_slo();
    };
    // A rung misses the SLO only when a second window confirms it: one
    // stall of the host must not cap the search, while a real overload
    // misses every window.
    auto meets_slo = [&](int r) {
      return window_meets_slo(r) || window_meets_slo(r);
    };
    const int rung = search_capacity(meets_slo, meets_slo(kNominalRung));
    // No passing rung: half the lowest rung, below anything the ladder
    // could certify.
    o.layers.set("serve.max_rps_at_slo",
                 rung >= 0 ? ladder_rate(rung) : 0.5 * kLadderBaseRps);
  }

  o.attempted = nominal.requests;
  o.failed = nominal.shed + nominal.mismatches;
  if (nominal.mismatches != 0)
    o.problems.push_back(std::to_string(nominal.mismatches) +
                         " served prediction(s) differ from the offline "
                         "single-sample prediction");
  if (other_mismatches != 0)
    o.problems.push_back(std::to_string(other_mismatches) +
                         " served prediction(s) at saturation or on the "
                         "capacity ladder differ from the offline "
                         "prediction");
  if (traced.mismatches != 0)
    o.problems.push_back(std::to_string(traced.mismatches) +
                         " served prediction(s) differ under the timing "
                         "decorator");
  o.latency_ms = nominal.p50();

  if (args.trace) {
    o.layers.set("serve.compute_ms.p50", quantile(traced.compute_ms, 0.5));
    o.layers.set("serve.compute_ms.p99", quantile(traced.compute_ms, 0.99));
    o.layers.set("serve.batch_size.mean", mean(traced.batch_sizes));
    o.layers.set("serve.queue_wait_ms.p50",
                 quantile(traced.queue_wait_ms, 0.5));
    o.layers.set("serve.queue_wait_ms.p99",
                 quantile(traced.queue_wait_ms, 0.99));
    o.layers.set("serve.shed", double(traced.shed));
    o.layers.set("serve.gen_late_ms.p99", quantile(traced.gen_late_ms, 0.99));
    o.layers.set("serve.request_p99_ms", traced.p99());
    set_overhead({nominal.p50()}, {traced.p50()}, &o.layers);
  }
  if (args.trace) o.context.set("capacity_probes", probes);
  o.context.set("nominal_requests", nominal.requests);
  o.context.set("nominal_rps", kNominalRps);
  o.context.set("nominal_p99_ms", nominal.p99());
  o.context.set("stage_cache", "none (stage 1 precomputed in setup)");
  return o;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

util::Json read_zoo_record(const std::string& state) {
  std::ifstream f(zoo_record_path(state));
  if (!f) return util::Json();
  std::stringstream ss;
  ss << f.rdbuf();
  return util::Json::parse(ss.str());
}

int prepare(const Args& args) {
  const Clock::time_point t0 = Clock::now();
  for (const std::string& name : kClassifiers) {
    std::fprintf(stderr, "[perfbench] zoo: %s\n", name.c_str());
    models::get_classifier(name);
  }
  for (const std::string& name : kDetectors) {
    std::fprintf(stderr, "[perfbench] zoo: %s\n", name.c_str());
    models::get_detector(name);
  }
  const double train_s = ms_between(t0, Clock::now()) / 1000.0;
  util::Json j = util::Json::object();
  j.set("zoo_train_s", train_s);
  std::ofstream(zoo_record_path(args.state)) << j.dump() << "\n";
  std::printf("%s\n", j.dump().c_str());
  return 0;
}

int run(const Args& args) {
  const double t0 = args.t0 >= 0.0 ? args.t0 : now_monotonic_s();
  const util::Json zoo = read_zoo_record(args.state);
  if (zoo.is_null()) {
    std::fprintf(stderr, "[perfbench] zoo not prepared under %s/zoo\n",
                 args.state.c_str());
    return 2;
  }
  fs::create_directories(args.state + "/work");

  Outcome o;
  double setup_s = 0.0;
  double zoo_load_ms = 0.0;
  if (args.workload == "serve_mcunet") {
    const Clock::time_point l0 = Clock::now();
    models::TrainedClassifier tc = models::get_classifier("MCUNet");
    zoo_load_ms = ms_between(l0, Clock::now());
    SysNoiseConfig cfg = SysNoiseConfig::training_default();
    cfg.backend = ComputeBackend::kSimd;
    const serve::ClassifierServingModel model(
        tc, models::benchmark_cls_dataset().eval, models::cls_pipeline_spec(),
        cfg);
    setup_s = now_monotonic_s() - t0;
    if (args.setup_only) {
      std::printf("{\"setup_s\": %.9f}\n", setup_s);
      return 0;
    }
    // Untimed reference: every sample's offline single-sample prediction.
    std::vector<int> offline;
    for (int s = 0; s < model.num_samples(); ++s)
      offline.push_back(model.predict({s}).at(0));
    o = run_serve(model, args, offline);
  } else {
    SweepSetup s = load_sweep_units();
    zoo_load_ms = s.zoo_load_ms;
    setup_s = now_monotonic_s() - t0;
    if (args.setup_only) {
      std::printf("{\"setup_s\": %.9f}\n", setup_s);
      return 0;
    }
    if (args.fill_only) return fill_warm_cache(s, args);
    // Decorator transparency: keys, scopes and identities of a decorated
    // task must match the plan built from the undecorated one.
    LayerLog probe_log;
    std::size_t opaque = 0;
    for (const SweepUnit& u : s.units) {
      const TimedStagedTask probe(*u.task, probe_log, nullptr);
      opaque += transparency_mismatches(*u.task, probe, u.plan);
    }
    o = args.workload == "sweep_cold" ? run_sweep_cold(s, args)
                                      : run_sweep_warm_dist(s, args);
    if (opaque != 0) {
      o.failed += opaque;
      o.problems.push_back(std::to_string(opaque) +
                           " planned config(s) see different keys through "
                           "the timing decorator");
    }
  }

  if (args.trace) {
    o.layers.set("models.zoo_load_ms", zoo_load_ms);
    o.layers.set("models.zoo_train_s", zoo.at("zoo_train_s").as_number());
  }

  util::Json ctx = std::move(o.context);
  ctx.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  ctx.set("simd_isa", simd_isa_name());
  ctx.set("default_backend", backend_name(default_backend()));
  ctx.set("seed", static_cast<double>(args.seed));

  util::Json problems = util::Json::array();
  for (const std::string& p : o.problems) problems.push_back(p);
  const bool correct = o.problems.empty() && o.failed == 0;

  util::Json out = util::Json::object();
  out.set("workload", args.workload);
  out.set("trace", args.trace);
  out.set("correct", correct);
  out.set("attempted", o.attempted);
  out.set("failed", o.failed);
  out.set("setup_s", setup_s);
  out.set("latency_ms", o.latency_ms);
  out.set("throughput_per_s", o.throughput_per_s);
  out.set("peak_rss_mb",
          o.peak_rss_mb.empty() ? peak_rss_mb() : median(o.peak_rss_mb));
  out.set("context", std::move(ctx));
  out.set("problems", std::move(problems));
  if (args.trace) out.set("layers", std::move(o.layers));
  std::printf("%s\n", out.dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  isolate_caches(args.state);
  try {
    return args.prepare ? prepare(args) : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
    return 1;
  }
}
