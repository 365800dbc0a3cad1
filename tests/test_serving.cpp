// The serving subsystem (src/serve/): histogram quantiles exact against a
// reference computation and merge-stable (merged == single-histogram, bit
// for bit), trace generation byte-identical per seed with JSON round trips,
// virtual-clock replay bit-exact across compute-thread counts and repeats,
// shed/served accounting identities, deterministic micro-batching and
// overload shedding on the real server (gated model, no timing asserts),
// graceful drain, and the headline contract: served accuracy over a
// coverage trace equals the offline sweep metric bit-exactly per
// deployment config.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
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

// ---------------------------------------------------------------------------
// virtual-clock replay

TEST(ServeVirtualReplay, BitExactAcrossComputeThreadsAndRepeats) {
  const SyntheticServingModel model(50);
  // Overloaded on purpose so batching, queueing AND shedding all engage:
  // two workers at base 2ms + 0.5ms/item sustain ~2.7k rps of full batches,
  // offered 6k rps.
  const auto trace = generate_trace(poisson_spec(7, 250.0, 6000.0, 50));
  ReplayOptions opts;
  opts.server.workers = 2;
  opts.server.max_batch = 8;
  opts.server.max_delay_ms = 2.0;
  opts.server.queue_capacity = 16;
  opts.cost.batch_base_ms = 2.0;
  opts.cost.batch_item_ms = 0.5;

  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 5, 8, 1}) {
    opts.compute_threads = threads;
    dumps.push_back(replay_virtual(model, trace, opts).to_json().dump());
  }
  for (std::size_t i = 1; i < dumps.size(); ++i) EXPECT_EQ(dumps[i], dumps[0]);

  opts.compute_threads = 1;
  const ReplayReport r = replay_virtual(model, trace, opts);
  // Non-vacuous: the cell really sheds and really serves.
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.served, 0u);
}

TEST(ServeVirtualReplay, AccountingIdentities) {
  const SyntheticServingModel model(20);
  const auto trace = generate_trace(poisson_spec(3, 300.0, 1500.0, 20));
  ReplayOptions opts;
  opts.server.workers = 1;
  opts.server.max_batch = 4;
  opts.server.queue_capacity = 8;
  opts.cost.batch_base_ms = 2.0;
  opts.cost.batch_item_ms = 0.5;
  const ReplayReport r = replay_virtual(model, trace, opts);

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
  EXPECT_GE(r.duration_ms, trace.back().arrival_ms);
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

TEST(ServeVirtualReplay, AccuracyInvariantAcrossDeploymentShapes) {
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
      opts.cost.batch_base_ms = 1.0;
      opts.cost.batch_item_ms = 0.3;
      const ReplayReport r =
          replay_virtual(model, coverage_trace(30, 3, 0.2), opts);
      EXPECT_EQ(r.stats.shed, 0u);
      EXPECT_EQ(r.stats.served, 90u);
      accs.push_back(r.stats.served_accuracy());
    }
  }
  for (std::size_t i = 1; i < accs.size(); ++i) EXPECT_EQ(accs[i], accs[0]);
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
      opts.cost.batch_base_ms = 3.0;
      opts.cost.batch_item_ms = 0.4;
      opts.compute_threads = 2;
      const ReplayReport r =
          replay_virtual(model, coverage_trace(n, repeats, 0.5), opts);
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
  EXPECT_EQ(r.stats.latency.total(), r.stats.served);
  EXPECT_GT(r.duration_ms, 0.0);
  EXPECT_GT(r.throughput_rps, 0.0);
  // Report JSON carries the full accounting.
  const util::Json j = util::Json::parse(r.to_json().dump());
  EXPECT_EQ(static_cast<std::size_t>(j.at("requests").as_number()),
            trace.size());
  EXPECT_TRUE(j.at("stats").get("latency") != nullptr);
}

}  // namespace
}  // namespace sysnoise::serve
