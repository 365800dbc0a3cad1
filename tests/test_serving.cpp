// The serving subsystem (src/serve/): histogram quantiles exact against a
// reference computation and merge-stable (merged == single-histogram, bit
// for bit), trace generation byte-identical per seed with JSON round trips,
// malformed traces, specs and server options rejected loudly, shed/served
// accounting identities, deterministic micro-batching and overload
// shedding on the real server (gated model, no timing asserts), graceful
// drain, and the headline contract: served accuracy over a coverage trace
// equals the offline sweep metric bit-exactly per deployment config.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/noise_config.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/trace.h"
#include "tensor/rng.h"
#include "util/json.h"

namespace sysnoise::serve {
namespace {

// ---------------------------------------------------------------------------
// metrics

// Reference quantile: the bucket upper bound of the ceil(q*n)-th smallest
// value, computed directly from the sorted sample list.
double reference_quantile(std::vector<double> vals, double q) {
  std::sort(vals.begin(), vals.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(vals.size()))));
  const double v = vals[rank - 1];
  const auto& bounds = obs::LatencyHistogram::bucket_bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  return it == bounds.end() ? bounds.back() : *it;
}

TEST(ServeMetrics, QuantilesExactOnKnownDistributions) {
  // Two-point mass: ranks land exactly on the bucket boundaries.
  obs::LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.record(1.0);
  for (int i = 0; i < 50; ++i) h.record(100.0);
  const std::vector<double> low(50, 1.0);
  std::vector<double> all = low;
  all.insert(all.end(), 50, 100.0);
  // rank(0.5) = 50 -> still inside the 1ms bucket; anything above crosses.
  EXPECT_EQ(h.quantile_bound(0.5), reference_quantile(all, 0.5));
  EXPECT_EQ(h.quantile_bound(0.5), reference_quantile(low, 1.0));
  EXPECT_GT(h.quantile_bound(0.51), h.quantile_bound(0.5));
  EXPECT_EQ(h.quantile_bound(0.99), reference_quantile(all, 0.99));
  EXPECT_EQ(h.quantile_bound(1.0), reference_quantile(all, 1.0));

  // A spread over many decades: every quantile matches the reference.
  Rng rng(11);
  obs::LatencyHistogram g;
  std::vector<double> vals;
  for (int i = 0; i < 500; ++i) {
    const double ms = 0.01 * std::pow(2.0, rng.uniform() * 20.0);
    vals.push_back(ms);
    g.record(ms);
  }
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_EQ(g.quantile_bound(q), reference_quantile(vals, q)) << "q=" << q;
  EXPECT_EQ(g.total(), 500u);
}

TEST(ServeMetrics, EmptyAndOverflowBehavior) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.quantile_bound(0.5), 0.0);
  EXPECT_EQ(h.total(), 0u);
  h.record(1e9);  // far above the last finite bound
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.quantile_bound(0.5),
            obs::LatencyHistogram::bucket_bounds().back());
}

TEST(ServeMetrics, MergedHistogramEqualsSingleHistogram) {
  Rng rng(29);
  obs::LatencyHistogram single;
  obs::LatencyHistogram parts[3];
  for (int i = 0; i < 600; ++i) {
    // Power-of-two values spanning the grid: every partial sum is exactly
    // representable, so even sum_ms is invariant to recording order and the
    // merged dump can be compared byte-for-byte.
    const double ms =
        std::pow(2.0, -7 + static_cast<int>(rng.uniform() * 22.0));
    single.record(ms);
    parts[i % 3].record(ms);
  }
  obs::LatencyHistogram merged;
  for (const obs::LatencyHistogram& p : parts) merged.merge(p);
  EXPECT_EQ(merged.counts(), single.counts());
  EXPECT_EQ(merged.total(), single.total());
  EXPECT_EQ(merged.sum_ms(), single.sum_ms());
  for (const double q : {0.5, 0.95, 0.99})
    EXPECT_EQ(merged.quantile_bound(q), single.quantile_bound(q));
  EXPECT_EQ(merged.to_json().dump(), single.to_json().dump());
}

TEST(ServeMetrics, GaugeMergeMatchesCombinedSeries) {
  obs::GaugeStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    const double v = (i * 7) % 13;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  obs::GaugeStats merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count, all.count);
  EXPECT_EQ(merged.sum, all.sum);
  EXPECT_EQ(merged.min, all.min);
  EXPECT_EQ(merged.max, all.max);
}

// ---------------------------------------------------------------------------
// traces

TraceSpec mixed_spec(std::uint64_t seed) {
  TraceSpec spec;
  spec.seed = seed;
  spec.num_samples = 7;
  TracePhase steady;
  steady.kind = PhaseKind::kPoisson;
  steady.duration_ms = 300.0;
  steady.rate_rps = 400.0;
  TracePhase burst;
  burst.kind = PhaseKind::kBurst;
  burst.duration_ms = 100.0;
  burst.burst_every_ms = 25.0;
  burst.burst_size = 6;
  TracePhase ramp;
  ramp.kind = PhaseKind::kRamp;
  ramp.duration_ms = 200.0;
  ramp.rate_rps = 100.0;
  ramp.end_rate_rps = 800.0;
  spec.phases = {steady, burst, ramp};
  return spec;
}

TEST(ServeTrace, ByteIdenticalForFixedSeed) {
  const TraceSpec spec = mixed_spec(42);
  const auto a = generate_trace(spec);
  const auto b = generate_trace(spec);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(trace_to_json(a).dump(), trace_to_json(b).dump());

  TraceSpec other = spec;
  other.seed = 43;
  EXPECT_NE(trace_to_json(generate_trace(other)).dump(),
            trace_to_json(a).dump());

  // Well-formed: arrivals non-decreasing within the spec's span, ids dense,
  // samples round-robin by arrival index.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_EQ(a[i].sample, static_cast<int>(i % 7));
    EXPECT_GE(a[i].arrival_ms, 0.0);
    EXPECT_LE(a[i].arrival_ms, spec.duration_ms());
    if (i > 0) EXPECT_GE(a[i].arrival_ms, a[i - 1].arrival_ms);
  }
}

TEST(ServeTrace, SpecAndTraceJsonRoundTrip) {
  const TraceSpec spec = mixed_spec(9);
  const TraceSpec back =
      TraceSpec::from_json(util::Json::parse(spec.to_json().dump()));
  EXPECT_EQ(back.to_json().dump(), spec.to_json().dump());
  const auto trace = generate_trace(spec);
  EXPECT_EQ(trace_to_json(generate_trace(back)).dump(),
            trace_to_json(trace).dump());

  const auto trace_back =
      trace_from_json(util::Json::parse(trace_to_json(trace).dump()));
  EXPECT_EQ(trace_to_json(trace_back).dump(), trace_to_json(trace).dump());
}

TEST(ServeTrace, RandomSamplesStayInRangeWithoutPerturbingArrivals) {
  TraceSpec spec = poisson_spec(5, 200.0, 500.0, 13);
  const auto round_robin = generate_trace(spec);
  spec.random_samples = true;
  const auto random = generate_trace(spec);
  ASSERT_EQ(random.size(), round_robin.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < random.size(); ++i) {
    EXPECT_EQ(random[i].arrival_ms, round_robin[i].arrival_ms);
    EXPECT_GE(random[i].sample, 0);
    EXPECT_LT(random[i].sample, 13);
    any_differs |= random[i].sample != round_robin[i].sample;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ServeTrace, UnknownPhaseKindFailsLoudly) {
  EXPECT_THROW(phase_kind_from_name("sawtooth"), std::invalid_argument);
}

// A hand-written trace file: one request per (arrival_ms, sample) pair.
util::Json trace_file(const std::vector<std::pair<double, double>>& reqs) {
  util::Json arr = util::Json::array();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    util::Json r = util::Json::object();
    r.set("id", i);
    r.set("arrival_ms", reqs[i].first);
    r.set("sample", reqs[i].second);
    arr.push_back(std::move(r));
  }
  util::Json j = util::Json::object();
  j.set("trace", std::move(arr));
  return j;
}

TEST(ServeTrace, TraceJsonRejectsNegativeSample) {
  EXPECT_NO_THROW(trace_from_json(trace_file({{0.0, 0.0}, {1.0, 3.0}})));
  EXPECT_THROW(trace_from_json(trace_file({{0.0, 0.0}, {1.0, -1.0}})),
               std::invalid_argument);
}

TEST(ServeTrace, TraceJsonRejectsNonFiniteOrNegativeArrival) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-0.5, inf, std::nan("")})
    EXPECT_THROW(trace_from_json(trace_file({{0.0, 0.0}, {bad, 1.0}})),
                 std::invalid_argument)
        << bad;
}

TEST(ServeTrace, TraceJsonRejectsDecreasingArrivals) {
  EXPECT_NO_THROW(trace_from_json(trace_file({{2.0, 0.0}, {2.0, 1.0}})));
  EXPECT_THROW(trace_from_json(trace_file({{2.0, 0.0}, {1.0, 1.0}})),
               std::invalid_argument);
}

// mixed_spec's JSON with one field of phase `phase` (or of the spec itself
// when phase < 0) replaced by `value`.
util::Json spec_with(int phase, const std::string& key, double value) {
  util::Json j = mixed_spec(3).to_json();
  util::Json phases = util::Json::array();
  for (std::size_t i = 0; i < j.at("phases").size(); ++i) {
    util::Json p = j.at("phases").at(i);
    if (static_cast<int>(i) == phase) p.set(key, value);
    phases.push_back(std::move(p));
  }
  j.set("phases", std::move(phases));
  if (phase < 0) j.set(key, value);
  return j;
}

TEST(ServeTrace, SpecJsonRejectsBadDurationsAndRates) {
  const double inf = std::numeric_limits<double>::infinity();
  // Phases: 0 poisson, 1 burst, 2 ramp.
  for (const double bad : {-1.0, inf, std::nan("")}) {
    EXPECT_THROW(TraceSpec::from_json(spec_with(0, "duration_ms", bad)),
                 std::invalid_argument);
    EXPECT_THROW(TraceSpec::from_json(spec_with(0, "rate_rps", bad)),
                 std::invalid_argument);
    EXPECT_THROW(TraceSpec::from_json(spec_with(2, "end_rate_rps", bad)),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(TraceSpec::from_json(spec_with(0, "rate_rps", 0.0)));
}

TEST(ServeTrace, SpecJsonRejectsNonPositiveBurstPeriod) {
  for (const double bad : {0.0, -25.0})
    EXPECT_THROW(TraceSpec::from_json(spec_with(1, "burst_every_ms", bad)),
                 std::invalid_argument);
}

TEST(ServeTrace, SpecJsonRejectsTooFewSamples) {
  EXPECT_THROW(TraceSpec::from_json(spec_with(-1, "num_samples", 0.0)),
               std::invalid_argument);
  EXPECT_THROW(TraceSpec::from_json(spec_with(-1, "num_samples", -3.0)),
               std::invalid_argument);
}

TEST(ServeTrace, SpecJsonRejectsOutOfRangeSeed) {
  const double two53 = static_cast<double>(1ull << 53);
  EXPECT_NO_THROW(TraceSpec::from_json(spec_with(-1, "seed", two53)));
  for (const double bad : {-1.0, 2.0 * two53, 1.5})
    EXPECT_THROW(TraceSpec::from_json(spec_with(-1, "seed", bad)),
                 std::invalid_argument)
        << bad;
}

// A trace covering every sample exactly `repeats` times, evenly spaced.
std::vector<TraceRequest> coverage_trace(int n, int repeats, double gap_ms) {
  std::vector<TraceRequest> trace;
  trace.reserve(static_cast<std::size_t>(n) * repeats);
  for (int i = 0; i < n * repeats; ++i) {
    TraceRequest r;
    r.id = i;
    r.arrival_ms = i * gap_ms;
    r.sample = i % n;
    trace.push_back(r);
  }
  return trace;
}

// ---------------------------------------------------------------------------
// served accuracy vs the offline sweep (real model)

TEST(ServeAccuracy, ServedAccuracyMatchesOfflineSweepBitExact) {
  auto tc = models::get_classifier("MCUNet");
  const auto& eval = models::benchmark_cls_dataset().eval;
  const auto spec = models::cls_pipeline_spec();
  const int n = static_cast<int>(eval.size());

  std::vector<SysNoiseConfig> configs;
  configs.push_back(SysNoiseConfig::training_default());
  configs.push_back(SysNoiseConfig::training_default());
  configs.back().backend = ComputeBackend::kBlocked;

  for (const SysNoiseConfig& cfg : configs) {
    const ClassifierServingModel model(tc, eval, spec, cfg);
    const double offline = model.offline_accuracy();

    for (const int repeats : {1, 3}) {
      ReplayOptions opts;
      opts.server.workers = 2;
      opts.server.max_batch = 16;
      opts.server.max_delay_ms = 1.0;
      opts.server.queue_capacity = 0;  // coverage must not shed
      opts.time_scale = 0.1;
      const ReplayReport r =
          replay_wall_clock(model, coverage_trace(n, repeats, 0.5), opts);
      ASSERT_EQ(r.stats.shed, 0u);
      ASSERT_EQ(r.stats.served, static_cast<std::size_t>(n) * repeats);
      // Bit-exact, not approximately equal: the dynamic batcher's request
      // mixes must not move the metric by a single ULP.
      EXPECT_EQ(r.stats.served_accuracy(), offline)
          << "backend=" << static_cast<int>(cfg.backend)
          << " repeats=" << repeats;
    }
  }
}

// The per-sample forward contract (nn/ops.h) serving relies on: a request's
// prediction is bit-identical whatever else shares its micro-batch. Batches
// of 1, 7 (a short odd tail) and 16 (the production cap) over a shuffled
// request order must all reproduce the single-sample predictions.
TEST(ServeAccuracy, ClassifierPredictionsAreIndependentOfBatchMix) {
  auto tc = models::get_classifier("MCUNet");
  const auto& eval = models::benchmark_cls_dataset().eval;
  const auto spec = models::cls_pipeline_spec();
  const int n = static_cast<int>(eval.size());

  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng(17);
  for (int i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(i + 1))]);

  SysNoiseConfig blocked = SysNoiseConfig::training_default();
  blocked.backend = ComputeBackend::kBlocked;
  for (const SysNoiseConfig& cfg :
       {SysNoiseConfig::training_default(), blocked}) {
    const ClassifierServingModel model(tc, eval, spec, cfg);
    std::vector<int> single(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      single[static_cast<std::size_t>(i)] = model.predict({i}).at(0);
    for (const int bs : {1, 7, 16}) {
      for (int begin = 0; begin < n; begin += bs) {
        const std::vector<int> batch(
            order.begin() + begin, order.begin() + std::min(n, begin + bs));
        const std::vector<int> preds = model.predict(batch);
        ASSERT_EQ(preds.size(), batch.size());
        for (std::size_t k = 0; k < batch.size(); ++k)
          EXPECT_EQ(preds[k], single[static_cast<std::size_t>(batch[k])])
              << "backend=" << backend_name(cfg.backend) << " bs=" << bs
              << " sample=" << batch[k];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// real server (gated model: deterministic, no timing asserts)

// Blocks every predict() until open(); used to pin the worker deterministically
// so admission-control tests never race the service rate.
class GatedModel : public ServingModel {
 public:
  explicit GatedModel(int num_samples) : num_samples_(num_samples) {}

  const std::string& name() const override { return name_; }
  int num_samples() const override { return num_samples_; }
  std::vector<int> predict(const std::vector<int>& samples) const override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
    return std::vector<int>(samples.size(), 0);
  }
  bool correct(int, int prediction) const override { return prediction == 0; }

  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::string name_ = "gated";
  int num_samples_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

void wait_for_batches(const InferenceServer& server, std::size_t n) {
  while (server.stats().batches < n)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(ServeServer, BoundedQueueShedsExactlyTheOverflow) {
  GatedModel model(4);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.queue_capacity = 4;
  InferenceServer server(model, opts);

  // Pin the only worker inside predict() so the queue state is ours.
  ASSERT_TRUE(server.submit(0, 0));
  wait_for_batches(server, 1);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(server.submit(1 + i, i % 4));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(server.submit(5 + i, i % 4));

  model.open();
  server.drain();
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.shed, 5u);
  EXPECT_EQ(stats.latency.total(), 5u);
  EXPECT_EQ(stats.correct, 5);
  EXPECT_EQ(stats.queue_depth.count, 10u);
  EXPECT_EQ(stats.queue_depth.max, 4.0);
}

TEST(ServeServer, DynamicBatcherFillsToTheCap) {
  GatedModel model(8);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 8;
  // Zero delay: the first request launches as a singleton immediately; the
  // eight queued behind the gate then form one full batch (a full queue
  // never waits on the deadline).
  opts.max_delay_ms = 0.0;
  opts.queue_capacity = 0;
  InferenceServer server(model, opts);

  ASSERT_TRUE(server.submit(0, 0));
  wait_for_batches(server, 1);  // worker holds a singleton batch, gated
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(server.submit(1 + i, i));
  model.open();
  server.drain();

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.served, 9u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.batches, 2u);  // the gated singleton + one full batch
  EXPECT_EQ(stats.batch_occupancy.max, 8.0);
  EXPECT_EQ(stats.batch_occupancy.min, 1.0);
}

TEST(ServeServer, GracefulDrainServesEverythingAdmitted) {
  const SyntheticServingModel model(20, 10, 1, 0, 2000);
  ServerOptions opts;
  opts.workers = 3;
  opts.max_batch = 4;
  opts.max_delay_ms = 0.5;
  opts.queue_capacity = 0;  // unbounded: every submit admitted
  InferenceServer server(model, opts);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(server.submit(i, i % 20));
  server.drain();
  server.drain();  // idempotent

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.served, 100u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.latency.total(), 100u);
  // Batch composition through real threads must not change predictions:
  // expected correctness from singleton calls.
  int expected_correct = 0;
  for (int i = 0; i < 100; ++i) {
    const int s = i % 20;
    if (model.correct(s, model.predict({s})[0])) expected_correct++;
  }
  EXPECT_EQ(stats.correct, expected_correct);
  EXPECT_FALSE(server.submit(999, 0));  // draining: accounted as shed
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(ServeServer, WallClockReplaySmoke) {
  const SyntheticServingModel model(10, 10, 2, 0, 500);
  const auto trace = generate_trace(poisson_spec(13, 100.0, 300.0, 10));
  ASSERT_FALSE(trace.empty());
  ReplayOptions opts;
  opts.server.workers = 2;
  opts.server.max_batch = 4;
  opts.server.max_delay_ms = 1.0;
  opts.server.queue_capacity = 64;
  opts.time_scale = 0.2;
  const ReplayReport r = replay_wall_clock(model, trace, opts);
  EXPECT_EQ(r.requests, trace.size());
  EXPECT_EQ(r.stats.submitted, trace.size());
  EXPECT_EQ(r.stats.served + r.stats.shed, r.stats.submitted);
  EXPECT_EQ(r.gen_late.total(), trace.size());
  EXPECT_GE(r.gen_late.sum_ms(), 0.0);
  EXPECT_GT(r.duration_ms, 0.0);
  EXPECT_GT(r.throughput_rps, 0.0);
  // Report JSON carries the full accounting and the generator's lateness.
  const util::Json j = util::Json::parse(r.to_json().dump());
  EXPECT_EQ(static_cast<std::size_t>(j.at("requests").as_number()),
            trace.size());
  EXPECT_TRUE(j.at("stats").get("latency") != nullptr);
  EXPECT_EQ(static_cast<std::size_t>(j.at("gen_late").at("total").as_number()),
            trace.size());
}

TEST(ServeServer, ReplayAccountingIdentities) {
  // One worker behind a bounded queue: whatever the host's timing makes of
  // the trace, every request is accounted exactly once and every batch
  // respects the cap.
  const SyntheticServingModel model(20);
  const auto trace = generate_trace(poisson_spec(3, 300.0, 1500.0, 20));
  ReplayOptions opts;
  opts.server.workers = 1;
  opts.server.max_batch = 4;
  opts.server.queue_capacity = 8;
  opts.time_scale = 0.2;
  const ReplayReport r = replay_wall_clock(model, trace, opts);

  EXPECT_EQ(r.requests, trace.size());
  EXPECT_EQ(r.stats.submitted, trace.size());
  EXPECT_EQ(r.stats.served + r.stats.shed, r.stats.submitted);
  EXPECT_EQ(r.stats.latency.total(), r.stats.served);
  EXPECT_EQ(r.stats.queue_depth.count, trace.size());
  EXPECT_EQ(static_cast<std::size_t>(r.stats.batch_occupancy.count),
            r.stats.batches);
  EXPECT_EQ(static_cast<std::size_t>(r.stats.batch_occupancy.sum),
            r.stats.served);
  EXPECT_LE(r.stats.batch_occupancy.max, 4.0);
  EXPECT_GE(r.stats.batch_occupancy.min, 1.0);
  EXPECT_GT(r.throughput_rps, 0.0);
}

TEST(ServeServer, AccuracyInvariantAcrossDeploymentShapes) {
  // Per-sample batch independence means the served accuracy over a coverage
  // trace cannot depend on workers, batch caps or arrival spacing, as long
  // as nothing is shed.
  const SyntheticServingModel model(30);
  std::vector<double> accs;
  for (const int workers : {1, 2, 4}) {
    for (const int max_batch : {1, 8}) {
      ReplayOptions opts;
      opts.server.workers = workers;
      opts.server.max_batch = max_batch;
      opts.server.queue_capacity = 0;  // unbounded: no sheds
      opts.time_scale = 0.1;
      const ReplayReport r =
          replay_wall_clock(model, coverage_trace(30, 3, 0.2), opts);
      EXPECT_EQ(r.stats.shed, 0u);
      EXPECT_EQ(r.stats.served, 90u);
      accs.push_back(r.stats.served_accuracy());
    }
  }
  for (std::size_t i = 1; i < accs.size(); ++i) EXPECT_EQ(accs[i], accs[0]);
}

TEST(ServeServer, ReplayRejectsOutOfRangeSampleBeforeServing) {
  // A worker thread would otherwise meet the bad sample and terminate the
  // process (or, for the synthetic model, read out of bounds).
  const SyntheticServingModel model(5);
  for (const int bad : {5, -1}) {
    std::vector<TraceRequest> trace = coverage_trace(5, 2, 0.1);
    trace[3].sample = bad;
    try {
      replay_wall_clock(model, trace, ReplayOptions{});
      ADD_FAILURE() << "sample " << bad << " was not rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("request 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeServer, ConstructorRejectsBadOptions) {
  const SyntheticServingModel model(4);
  const auto rejects = [&](void (*edit)(ServerOptions&)) {
    ServerOptions opts;
    edit(opts);
    EXPECT_THROW((InferenceServer{model, opts}), std::invalid_argument);
  };
  rejects([](ServerOptions& o) { o.workers = 0; });
  rejects([](ServerOptions& o) { o.max_batch = 0; });
  rejects([](ServerOptions& o) { o.max_batch = -4; });
  rejects([](ServerOptions& o) { o.max_delay_ms = -1.0; });
  rejects([](ServerOptions& o) {
    o.max_delay_ms = std::numeric_limits<double>::infinity();
  });
  rejects([](ServerOptions& o) { o.max_delay_ms = std::nan(""); });
  ServerOptions ok;
  ok.max_delay_ms = 0.0;
  EXPECT_NO_THROW((InferenceServer{model, ok}));
}

}  // namespace
}  // namespace sysnoise::serve
