// Tests of the observability layer (src/obs/): the inertness contract
// (tracing disabled = zero events AND byte-identical sweep output; enabling
// must not change a single report byte), trace-stream well-formedness
// (balanced B/E pairs, non-decreasing per-thread timestamps, attribute
// round-trips), metrics snapshot merging (two workers' snapshots fold into
// exactly the single-process registry), histogram/gauge JSON round-trips,
// the TraceSession file flush, and the EventLog sequence contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/plan.h"
#include "core/report.h"
#include "core/staged_eval.h"
#include "core/synthetic_task.h"
#include "core/sweep.h"
#include "models/zoo.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace sysnoise {
namespace {

using core::AxisReport;
using core::StageStats;
using core::SweepOptions;
using core::SyntheticStagedTask;
using core::TaskKind;

// Every test owns the global tracer for its duration and leaves it the way
// benches expect it: disabled and empty.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace_disable();
    obs::trace_reset();
    obs::metrics().reset();
  }
  void TearDown() override {
    obs::trace_disable();
    obs::trace_reset();
    obs::metrics().reset();
  }
};

std::string report_bytes(const AxisReport& report) {
  return core::render_axis_table({report}, "mAP") + "\n" +
         core::axis_report_csv({report});
}

// ---------------------------------------------------------------------------
// Inertness: off by default, and enabling changes no output byte
// ---------------------------------------------------------------------------

// Trains a one-epoch MCUNet into a fresh model cache, then loads it back:
// one get_classifier call down each branch of the zoo.
void train_then_load_tiny_classifier() {
  const char* prev_env = std::getenv("SYSNOISE_CACHE_DIR");
  const std::string prev = prev_env != nullptr ? prev_env : "";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sysnoise_obs_zoo_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ::setenv("SYSNOISE_CACHE_DIR", dir.c_str(), 1);
  models::TrainConfig one_epoch;
  one_epoch.epochs = 1;
  const auto trained =
      models::get_classifier("MCUNet", "obs", nullptr, &one_epoch);
  const auto loaded =
      models::get_classifier("MCUNet", "obs", nullptr, &one_epoch);
  EXPECT_EQ(trained.trained_acc, loaded.trained_acc);
  if (prev_env != nullptr)
    ::setenv("SYSNOISE_CACHE_DIR", prev.c_str(), 1);
  else
    ::unsetenv("SYSNOISE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  EXPECT_FALSE(obs::trace_enabled());
  {
    obs::TraceSpan span("obs.test");
    EXPECT_FALSE(span.active());
    span.attr("ignored", std::string("value"));
  }
  EXPECT_EQ(obs::trace_drain().at("traceEvents").size(), 0u);

  // The zoo's spans: zoo.train, zoo.load and zoo.baseline_eval (a tiny
  // classifier trained, then loaded), and a detector and a segmenter from
  // the shared cache.
  train_then_load_tiny_classifier();
  models::get_detector("RetinaNet-MobileNet");
  models::get_segmenter("UNet");
  EXPECT_EQ(obs::trace_drain().at("traceEvents").size(), 0u);
}

TEST_F(ObsTest, ZooSpansCoverTrainLoadAndBaselineEval) {
  obs::trace_enable();
  train_then_load_tiny_classifier();
  obs::trace_disable();
  const util::Json trace = obs::trace_drain();
  const util::Json summary = obs::summarize_events(trace);
  const util::Json& spans = summary.at("spans");
  // A failed load attempt precedes the training; every call ends in the
  // trained-metric eval.
  EXPECT_EQ(spans.at("zoo.train").at("count").as_number(), 1.0);
  EXPECT_EQ(spans.at("zoo.load").at("count").as_number(), 2.0);
  EXPECT_EQ(spans.at("zoo.baseline_eval").at("count").as_number(), 2.0);
  bool saw_attrs = false;
  const util::Json& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& ev = events.at(i);
    if (ev.at("name").as_string() != "zoo.train" ||
        ev.at("ph").as_string() != "E")
      continue;
    const util::Json& args = ev.at("args");
    EXPECT_EQ(args.at("model").as_string(), "MCUNet");
    EXPECT_EQ(args.at("tag").as_string(), "obs");
    EXPECT_EQ(args.at("epochs").as_string(), "1");
    saw_attrs = true;
  }
  EXPECT_TRUE(saw_attrs);
}

TEST_F(ObsTest, TracedSweepIsByteIdenticalToUntraced) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SweepOptions opts;
  opts.threads = 4;

  const AxisReport untraced = core::staged_sweep(task, opts);
  EXPECT_EQ(obs::trace_drain().at("traceEvents").size(), 0u);

  obs::trace_enable();
  const AxisReport traced = core::staged_sweep(task, opts);
  obs::trace_disable();

  // The report a user sees must not differ by one byte...
  EXPECT_EQ(report_bytes(untraced), report_bytes(traced));
  // ...while the tracer actually recorded the run.
  EXPECT_GT(obs::trace_drain().at("traceEvents").size(), 0u);
}

// ---------------------------------------------------------------------------
// Stream shape: balanced pairs, monotonic per-thread timestamps, attrs
// ---------------------------------------------------------------------------

TEST_F(ObsTest, EnabledTraceIsBalancedWithMonotonicPerThreadTimestamps) {
  obs::trace_enable();
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SweepOptions opts;
  opts.threads = 4;
  core::staged_sweep(task, opts);
  // Extra hand-made nesting from a second thread.
  std::thread t([] {
    obs::TraceSpan outer("obs.outer");
    obs::TraceSpan inner("obs.inner");
  });
  t.join();
  obs::trace_disable();

  const util::Json trace = obs::trace_drain();
  const util::Json& events = trace.at("traceEvents");
  ASSERT_GT(events.size(), 0u);
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    const int tid = e.at("tid").as_int();
    const double ts = e.at("ts").as_number();
    auto [it, fresh] = last_ts.emplace(tid, ts);
    EXPECT_GE(ts, it->second) << "event " << i << " on tid " << tid;
    it->second = ts;
    const std::string ph = e.at("ph").as_string();
    if (ph == "B") {
      stacks[tid].push_back(e.at("name").as_string());
    } else {
      ASSERT_EQ(ph, "E");
      ASSERT_FALSE(stacks[tid].empty()) << "E with no open span, event " << i;
      EXPECT_EQ(stacks[tid].back(), e.at("name").as_string());
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;

  const util::Json summary = obs::summarize_events(trace);
  EXPECT_GT(summary.at("threads").as_int(), 1);
  EXPECT_GT(summary.at("spans").size(), 0u);
}

TEST_F(ObsTest, SpanAttributesRoundTripThroughDrain) {
  obs::trace_enable();
  {
    obs::TraceSpan span("obs.attrs");
    ASSERT_TRUE(span.active());
    span.attr("key", std::string("j3u7"));
    span.attr("configs", 42);
  }
  obs::trace_disable();
  const util::Json trace = obs::trace_drain();
  const util::Json& events = trace.at("traceEvents");
  bool found = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    if (e.at("name").as_string() != "obs.attrs" ||
        e.at("ph").as_string() != "E")
      continue;
    found = true;
    const util::Json& args = e.at("args");
    EXPECT_EQ(args.at("key").as_string(), "j3u7");
    EXPECT_EQ(args.at("configs").as_string(), "42");
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Metrics: merging two processes' snapshots == one process seeing all ops
// ---------------------------------------------------------------------------

void record_ops(obs::MetricsRegistry& r, bool first_half) {
  if (first_half) {
    r.counter_add("dist.lease.granted", 3);
    r.counter_add("staged.evaluations", 10);
    r.gauge_add("svc.queue_depth", 2.0);
    r.gauge_add("svc.queue_depth", 7.0);
    r.observe_ms("worker.heartbeat_rtt_ms", 0.5);
    r.observe_ms("worker.heartbeat_rtt_ms", 12.0);
  } else {
    r.counter_add("dist.lease.granted", 2);
    r.counter_add("serve.shed", 1);
    r.gauge_add("svc.queue_depth", 11.0);
    r.observe_ms("worker.heartbeat_rtt_ms", 3.25);
    r.observe_ms("svc.journal.fsync_ms", 1.5);
  }
}

TEST_F(ObsTest, SnapshotMergeEqualsSingleProcessRegistry) {
  obs::MetricsRegistry worker_a, worker_b, single;
  record_ops(worker_a, true);
  record_ops(worker_b, false);
  record_ops(single, true);
  record_ops(single, false);

  // Pure-JSON merge (what the trace tool does)...
  const util::Json merged =
      obs::merge_snapshots(worker_a.snapshot(), worker_b.snapshot());
  EXPECT_EQ(merged.dump(), single.snapshot().dump());

  // ...and the registry fold (what the coordinator does) agree exactly.
  obs::MetricsRegistry coordinator;
  coordinator.merge_snapshot(worker_a.snapshot());
  coordinator.merge_snapshot(worker_b.snapshot());
  EXPECT_EQ(coordinator.snapshot().dump(), single.snapshot().dump());
}

TEST_F(ObsTest, HistogramJsonRoundTripIsExact) {
  obs::LatencyHistogram h;
  for (double ms : {0.0005, 0.01, 0.5, 3.0, 3.1, 250.0, 1e9}) h.record(ms);
  const util::Json j = h.to_json();
  const obs::LatencyHistogram back = obs::LatencyHistogram::from_json(j);
  EXPECT_EQ(back.total(), h.total());
  EXPECT_EQ(back.sum_ms(), h.sum_ms());
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(back.quantile_bound(0.5), h.quantile_bound(0.5));
  EXPECT_EQ(back.quantile_bound(0.99), h.quantile_bound(0.99));
}

TEST_F(ObsTest, GaugeJsonRoundTripIsExact) {
  obs::GaugeStats g;
  g.add(4.0);
  g.add(-1.5);
  g.add(100.25);
  const util::Json j = g.to_json();
  const obs::GaugeStats back = obs::GaugeStats::from_json(j);
  EXPECT_EQ(back.count, g.count);
  EXPECT_EQ(back.sum, g.sum);
  EXPECT_EQ(back.min, g.min);
  EXPECT_EQ(back.max, g.max);
  EXPECT_EQ(back.to_json().dump(), j.dump());
}

// ---------------------------------------------------------------------------
// TraceSession: the per-process flight-recorder flush
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceSessionWritesTraceMetricsAndSummaryFiles) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "sysnoise_obs_test";
  std::filesystem::remove_all(dir);
  {
    obs::TraceSession session(dir, "unit");
    ASSERT_TRUE(session.active());
    EXPECT_TRUE(obs::trace_enabled());
    {
      obs::TraceSpan span("obs.session_span");
      obs::metrics().counter_add("obs.test_counter", 5);
    }
    session.add_summary("extra", util::Json(std::string("hello")));
    session.finish();
    EXPECT_FALSE(obs::trace_enabled());

    std::ifstream trace_file(session.trace_path());
    ASSERT_TRUE(trace_file.good()) << session.trace_path();
    std::ostringstream os;
    os << trace_file.rdbuf();
    const util::Json trace = util::Json::parse(os.str());
    EXPECT_GT(trace.at("traceEvents").size(), 0u);

    std::string summary_path = session.trace_path();
    summary_path.replace(summary_path.find("_trace.json"), std::string::npos,
                         "_summary.json");
    const util::Json summary = [&] {
      std::ifstream f(summary_path);
      std::ostringstream s;
      s << f.rdbuf();
      return util::Json::parse(s.str());
    }();
    EXPECT_NE(summary.at("spans").get("obs.session_span"), nullptr);
    EXPECT_EQ(summary.at("metrics")
                  .at("counters")
                  .at("obs.test_counter")
                  .as_int(),
              5);
    EXPECT_EQ(summary.at("extra").as_string(), "hello");
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, InactiveSessionIsANoOp) {
  obs::TraceSession session;
  EXPECT_FALSE(session.active());
  session.finish();
  EXPECT_FALSE(obs::trace_enabled());
}

// ---------------------------------------------------------------------------
// EventLog: one line per event, seq is the ordering authority
// ---------------------------------------------------------------------------

TEST_F(ObsTest, EventLogEmitsMonotonicSeqLines) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::EventLog log(sink);
  EXPECT_TRUE(log.enabled());

  util::Json fields = util::Json::object();
  fields.set("job", 3);
  log.emit("job_submitted", std::move(fields));
  log.emit("worker_join");
  log.emit("job_done");
  EXPECT_EQ(log.events_emitted(), 3u);

  std::rewind(sink);
  std::vector<util::Json> lines;
  char buf[512];
  while (std::fgets(buf, sizeof buf, sink) != nullptr)
    lines.push_back(util::Json::parse(buf));
  std::fclose(sink);

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].at("seq").as_int(), 1);
  EXPECT_EQ(lines[0].at("ev").as_string(), "job_submitted");
  EXPECT_EQ(lines[0].at("job").as_int(), 3);
  EXPECT_EQ(lines[1].at("seq").as_int(), 2);
  EXPECT_EQ(lines[1].at("ev").as_string(), "worker_join");
  EXPECT_EQ(lines[2].at("seq").as_int(), 3);
}

TEST_F(ObsTest, NullSinkEventLogIsANoOp) {
  obs::EventLog log;
  EXPECT_FALSE(log.enabled());
  log.emit("ignored");
  EXPECT_EQ(log.events_emitted(), 0u);
}

// ---------------------------------------------------------------------------
// Instrumented layers actually count while tracing
// ---------------------------------------------------------------------------

TEST_F(ObsTest, StagedExecutorRecordsCountersOnlyWhileTracing) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  core::staged_sweep(task, {});
  EXPECT_EQ(obs::metrics().counter_value("staged.evaluations"), 0u);

  obs::trace_enable();
  StageStats stats;
  core::staged_sweep(task, {}, &stats);
  obs::trace_disable();
  EXPECT_EQ(obs::metrics().counter_value("staged.evaluations"),
            stats.evaluations);
  EXPECT_EQ(obs::metrics().counter_value("staged.preprocess_hits"),
            stats.preprocess_hits);
}

// The calling thread's span around each executor call: without it, the
// time a bench spends in execute() shows on its thread as unspanned.
TEST_F(ObsTest, StagedExecuteSpanWrapsEachExecutorCall) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const core::SweepPlan plan =
      core::plan_sweep(task, core::AxisRegistry::global());
  obs::trace_enable();
  core::StagedExecutor().execute(task, plan);
  obs::trace_disable();
  const util::Json trace = obs::trace_drain();
  EXPECT_EQ(obs::summarize_events(trace)
                .at("spans")
                .at("staged.execute")
                .at("count")
                .as_number(),
            1.0);
  bool saw_attrs = false;
  const util::Json& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& ev = events.at(i);
    if (ev.at("name").as_string() != "staged.execute" ||
        ev.at("ph").as_string() != "E")
      continue;
    const util::Json& args = ev.at("args");
    EXPECT_EQ(args.at("task").as_string(), task.name());
    EXPECT_EQ(args.at("configs").as_string(),
              std::to_string(plan.configs.size()));
    saw_attrs = true;
  }
  EXPECT_TRUE(saw_attrs);
}

TEST_F(ObsTest, StageStatsToJsonCarriesEveryField) {
  StageStats s;
  s.preprocess_hits = 1;
  s.preprocess_misses = 2;
  s.forward_hits = 3;
  s.forward_misses = 4;
  s.evaluations = 5;
  s.preprocess_disk_hits = 6;
  s.preprocess_computed = 7;
  s.preprocess_persisted = 8;
  s.forward_disk_hits = 9;
  s.forward_computed = 10;
  s.forward_persisted = 11;
  s.batched_forward_calls = 12;
  const util::Json j = s.to_json();
  EXPECT_EQ(j.at("preprocess_hits").as_int(), 1);
  EXPECT_EQ(j.at("forward_disk_hits").as_int(), 9);
  EXPECT_EQ(j.at("batched_forward_calls").as_int(), 12);
  EXPECT_EQ(j.size(), 12u);
}

}  // namespace
}  // namespace sysnoise
