// Tests of the distributed sweep runtime: net framing, protocol round
// trips, work-unit grouping, the lease scheduler (expiry, re-lease,
// disconnect release, duplicate completion), coordinator/worker loopback
// bit-identity for N ∈ {1,2,3} workers, fault tolerance (a worker killed
// mid-lease — by disconnect and by silent death — still yields a
// byte-identical report), the DistExecutor seam, and a real-model loopback
// run matching the seeded single-process sweep.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/plan.h"
#include "core/report.h"
#include "core/synthetic_task.h"
#include "core/sweep.h"
#include "dist/coordinator.h"
#include "dist/dist_executor.h"
#include "dist/protocol.h"
#include "dist/scheduler.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace sysnoise::dist {
namespace {

using core::AxisRegistry;
using core::AxisReport;
using core::MetricMap;
using core::SweepPlan;
using core::SyntheticStagedTask;
using core::TaskKind;

void expect_reports_identical(const AxisReport& a, const AxisReport& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.trained, b.trained);
  EXPECT_EQ(a.combined, b.combined);
  ASSERT_EQ(a.axes.size(), b.axes.size());
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    EXPECT_EQ(a.axes[i].axis, b.axes[i].axis);
    EXPECT_EQ(a.axes[i].mean, b.axes[i].mean) << a.axes[i].axis;
    EXPECT_EQ(a.axes[i].max, b.axes[i].max) << a.axes[i].axis;
    ASSERT_EQ(a.axes[i].options.size(), b.axes[i].options.size());
    for (std::size_t j = 0; j < a.axes[i].options.size(); ++j)
      EXPECT_EQ(a.axes[i].options[j].delta, b.axes[i].options[j].delta)
          << a.axes[i].axis << "/" << a.axes[i].options[j].label;
  }
}

// The resolver loopback workers run with: every spec resolves to the one
// in-process task (the coordinator and workers share the process in tests).
TaskResolver fixed_resolver(const core::EvalTask& task) {
  return [&task](const util::Json&) {
    ResolvedWorkerTask out;
    out.task = &task;
    return out;
  };
}

CoordinatorOptions fast_opts() {
  CoordinatorOptions opts;
  opts.lease_timeout = std::chrono::milliseconds(400);
  opts.heartbeat_interval = std::chrono::milliseconds(50);
  return opts;
}

// ---------------------------------------------------------------------------
// net: framing
// ---------------------------------------------------------------------------

TEST(NetFrame, JsonRoundTripsIncludingLargeFrames) {
  net::TcpListener listener = net::TcpListener::listen(0);
  ASSERT_GT(listener.port(), 0);

  util::Json big = util::Json::object();
  std::string blob(300000, 'x');
  blob[7] = '"';  // exercise escaping
  big.set("blob", blob);
  big.set("n", 42);

  std::thread client([&] {
    net::TcpSocket sock = net::TcpSocket::connect("127.0.0.1", listener.port());
    util::Json m;
    ASSERT_TRUE(net::recv_json(sock, &m));
    EXPECT_EQ(m.at("n").as_int(), 42);
    EXPECT_EQ(m.at("blob").as_string(), blob);
    // echo back
    ASSERT_TRUE(net::send_json(sock, m));
  });
  net::TcpSocket conn = listener.accept(2000);
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(net::send_json(conn, big));
  util::Json echo;
  ASSERT_TRUE(net::recv_json(conn, &echo));
  EXPECT_EQ(echo.dump(), big.dump());
  client.join();

  // Clean close reads as false, not an exception.
  conn.close();
  util::Json dummy;
  net::TcpSocket closed;
  EXPECT_FALSE(net::recv_json(closed, &dummy));
}

// ---------------------------------------------------------------------------
// protocol
// ---------------------------------------------------------------------------

TEST(Protocol, TaskSpecRoundTrips) {
  TaskSpec spec = classifier_spec("ResNet-M", "mix");
  spec.seed_baseline = false;
  const TaskSpec back = TaskSpec::from_json(spec.to_json());
  EXPECT_EQ(back.kind, "classification");
  EXPECT_EQ(back.model, "ResNet-M");
  EXPECT_EQ(back.tag, "mix");
  EXPECT_FALSE(back.seed_baseline);
  EXPECT_EQ(TaskSpec::from_json(detector_spec("RetinaNet-ResNet").to_json()).kind,
            "detection");
  EXPECT_EQ(TaskSpec::from_json(segmenter_spec("UNet").to_json()).kind,
            "segmentation");

  EXPECT_EQ(message_type(make_message(msg::kHello)), "hello");
  EXPECT_EQ(message_type(util::Json()), "");
}

// ---------------------------------------------------------------------------
// work units
// ---------------------------------------------------------------------------

TEST(WorkUnits, PartitionCoversPlanAndKeepsForwardGroupsTogether) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const auto units = core::plan_work_units(plan);

  // Exact partition of the config indices.
  std::set<std::size_t> seen;
  for (const auto& unit : units)
    for (const std::size_t i : unit) {
      EXPECT_LT(i, plan.configs.size());
      EXPECT_TRUE(seen.insert(i).second) << "index leased twice: " << i;
    }
  EXPECT_EQ(seen.size(), plan.configs.size());

  // Configs sharing a forward key are in the same unit (the post-proc axis
  // options ride on the baseline's forward pass).
  std::map<std::string, std::set<const std::vector<std::size_t>*>> by_fwd;
  for (const auto& unit : units)
    for (const std::size_t i : unit)
      by_fwd[plan.configs[i].forward_key].insert(&unit);
  for (const auto& [key, owners] : by_fwd)
    EXPECT_EQ(owners.size(), 1u) << key;
  // The detection plan has more units than forward keys would suggest if
  // grouping were per config, and fewer than configs.
  EXPECT_EQ(units.size(), by_fwd.size());
  EXPECT_LT(units.size(), plan.configs.size());
}

// ---------------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, LeasesInOrderThenWaits) {
  using Clock = LeaseScheduler::Clock;
  const auto now = Clock::now();
  LeaseScheduler sched({{0, {0}}, {0, {1}}}, std::chrono::milliseconds(1000));
  EXPECT_EQ(sched.acquire(1, now), std::optional<std::size_t>(0));
  EXPECT_EQ(sched.acquire(2, now), std::optional<std::size_t>(1));
  EXPECT_EQ(sched.acquire(3, now), std::nullopt);  // everything leased
  EXPECT_FALSE(sched.all_done());
  EXPECT_TRUE(sched.complete(0));
  EXPECT_TRUE(sched.complete(1));
  EXPECT_TRUE(sched.all_done());
  EXPECT_EQ(sched.acquire(3, now), std::nullopt);
}

TEST(Scheduler, ExpiredLeaseIsReLeasedAndDeadWorkerLosesLeases) {
  using Clock = LeaseScheduler::Clock;
  const auto now = Clock::now();
  LeaseScheduler sched({{0, {0}}, {0, {1}}}, std::chrono::milliseconds(100));
  ASSERT_TRUE(sched.acquire(1, now).has_value());
  ASSERT_TRUE(sched.acquire(1, now).has_value());

  // Heartbeats keep leases alive past the nominal deadline.
  sched.heartbeat(1, now + std::chrono::milliseconds(90));
  EXPECT_EQ(sched.acquire(2, now + std::chrono::milliseconds(150)),
            std::nullopt);

  // Silence past the deadline expires both leases to the next worker.
  const auto later = now + std::chrono::milliseconds(300);
  EXPECT_EQ(sched.acquire(2, later), std::optional<std::size_t>(0));
  EXPECT_EQ(sched.acquire(2, later), std::optional<std::size_t>(1));
  EXPECT_EQ(sched.stats().expired, 2u);
  EXPECT_EQ(sched.stats().re_leases, 2u);

  // Disconnect release: worker 2 dies, worker 3 inherits immediately.
  sched.release_worker(2);
  EXPECT_EQ(sched.stats().released, 2u);
  EXPECT_EQ(sched.acquire(3, later), std::optional<std::size_t>(0));
  EXPECT_TRUE(sched.complete(0));
  EXPECT_FALSE(sched.complete(0));  // duplicate (late worker finished too)
  EXPECT_EQ(sched.stats().duplicate_results, 1u);
}

// ---------------------------------------------------------------------------
// coordinator/worker loopback
// ---------------------------------------------------------------------------

// One coordinator + `workers` in-process workers over the synthetic staged
// task; returns the assembled report and the coordinator stats.
AxisReport loopback_sweep(const SyntheticStagedTask& task, int workers,
                          CoordinatorOptions opts, CoordinatorStats* stats_out,
                          WorkerOptions worker_opts = {}) {
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  Coordinator coordinator(opts);
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w)
    pool.emplace_back([&coordinator, &task, worker_opts] {
      run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task),
                 worker_opts);
    });
  const std::vector<MetricMap> results =
      coordinator.run({DistJob{util::Json::object(), plan}});
  for (std::thread& t : pool) t.join();
  if (stats_out != nullptr) *stats_out = coordinator.stats();
  return core::assemble_report(plan, results.at(0));
}

TEST(Distributed, LoopbackMatchesThreadPoolForOneTwoThreeWorkers) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected =
      core::assemble_report(plan, core::ThreadPoolExecutor().execute(task, plan));

  for (const int workers : {1, 2, 3}) {
    CoordinatorStats stats;
    const AxisReport report =
        loopback_sweep(task, workers, fast_opts(), &stats);
    expect_reports_identical(expected, report);
    EXPECT_EQ(stats.workers_joined, static_cast<std::size_t>(workers))
        << workers;
    EXPECT_EQ(stats.worker_errors, 0u);
    EXPECT_GE(stats.results_received,
              stats.scheduler.completed);  // duplicates allowed, gaps not
  }
}

TEST(Distributed, MinWorkersHoldsLeasesUntilQuorum) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  CoordinatorOptions opts = fast_opts();
  opts.min_workers = 2;
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected =
      core::assemble_report(plan, core::ThreadPoolExecutor().execute(task, plan));
  Coordinator coordinator(opts);
  std::thread first([&] {
    run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
  });
  // The second worker is held back until the first has joined and asked
  // for leases for several heartbeat intervals: none may be granted.
  std::thread second([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (coordinator.stats().workers_joined < 1 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(coordinator.stats().workers_joined, 1u);
    std::this_thread::sleep_for(4 * opts.heartbeat_interval);
    const std::size_t granted = coordinator.stats().scheduler.leases_granted;
    EXPECT_EQ(granted, 0u);
    // Without the gate the first worker may already have finished the
    // sweep and closed the port; only a held sweep needs a second worker.
    if (granted == 0)
      run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
  });
  const std::vector<MetricMap> results =
      coordinator.run({DistJob{util::Json::object(), plan}});
  first.join();
  second.join();
  expect_reports_identical(expected,
                           core::assemble_report(plan, results.at(0)));
  EXPECT_EQ(coordinator.stats().workers_joined, 2u);
}

TEST(Distributed, MinWorkersTimeoutFailsLoudly) {
  // A quorum that never arrives must fail the run with a diagnostic, not
  // hold leases forever.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  CoordinatorOptions opts = fast_opts();
  opts.min_workers = 2;
  opts.min_workers_timeout_s = 1;
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  Coordinator coordinator(opts);
  EXPECT_THROW(
      {
        try {
          coordinator.run({DistJob{util::Json::object(), plan}});
        } catch (const std::runtime_error& e) {
          EXPECT_NE(
              std::string(e.what()).find("required workers joined within"),
              std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST(Distributed, WorkerRetryReportsAttemptCount) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  // Grab an ephemeral port, then close it: connecting gets refused, and the
  // retry loop must give up after the timeout naming its attempt count.
  int dead_port = 0;
  {
    net::TcpListener probe = net::TcpListener::listen(0);
    dead_port = probe.port();
  }
  const WorkerRunStats stats = run_worker_retrying(
      "127.0.0.1", dead_port, fixed_resolver(task), {},
      std::chrono::seconds(1));
  EXPECT_FALSE(stats.done);
  EXPECT_NE(stats.error.find("attempt"), std::string::npos) << stats.error;
}

TEST(Distributed, MultipleJobsMergePerJob) {
  const SyntheticStagedTask det(TaskKind::kDetection, true);
  const SyntheticStagedTask seg(TaskKind::kSegmentation, false, 2, 2, 2);
  const SweepPlan det_plan = core::plan_sweep(det, AxisRegistry::global());
  const SweepPlan seg_plan = core::plan_sweep(seg, AxisRegistry::global());

  // Spec-aware resolver: jobs name which task they are.
  const TaskResolver resolver = [&](const util::Json& spec) {
    ResolvedWorkerTask out;
    out.task = spec.at("which").as_string() == "det"
                   ? static_cast<const core::EvalTask*>(&det)
                   : &seg;
    return out;
  };
  util::Json det_spec = util::Json::object();
  det_spec.set("which", "det");
  util::Json seg_spec = util::Json::object();
  seg_spec.set("which", "seg");

  Coordinator coordinator(fast_opts());
  std::vector<std::thread> pool;
  for (int w = 0; w < 2; ++w)
    pool.emplace_back([&] {
      run_worker("127.0.0.1", coordinator.port(), resolver, {});
    });
  const std::vector<MetricMap> results = coordinator.run(
      {DistJob{det_spec, det_plan}, DistJob{seg_spec, seg_plan}});
  for (std::thread& t : pool) t.join();

  expect_reports_identical(
      core::assemble_report(det_plan,
                            core::ThreadPoolExecutor().execute(det, det_plan)),
      core::assemble_report(det_plan, results.at(0)));
  expect_reports_identical(
      core::assemble_report(seg_plan,
                            core::ThreadPoolExecutor().execute(seg, seg_plan)),
      core::assemble_report(seg_plan, results.at(1)));
}

// ---------------------------------------------------------------------------
// fault tolerance
// ---------------------------------------------------------------------------

TEST(Distributed, WorkerKilledMidLeaseByDisconnectIsReLeased) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected =
      core::assemble_report(plan, core::ThreadPoolExecutor().execute(task, plan));

  Coordinator coordinator(fast_opts());
  // The doomed worker completes one lease, takes another, and drops the
  // connection without a result — a worker killed mid-lease.
  WorkerOptions doomed;
  doomed.abandon_after_leases = 1;
  std::thread crasher([&] {
    const WorkerRunStats stats = run_worker(
        "127.0.0.1", coordinator.port(), fixed_resolver(task), doomed);
    EXPECT_TRUE(stats.abandoned);
  });
  // The survivor joins a beat later and finishes everything.
  std::thread survivor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const WorkerRunStats stats =
        run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
    EXPECT_TRUE(stats.done);
  });
  const std::vector<MetricMap> results =
      coordinator.run({DistJob{util::Json::object(), plan}});
  crasher.join();
  survivor.join();

  const AxisReport report = core::assemble_report(plan, results.at(0));
  expect_reports_identical(expected, report);
  // Byte-identical all the way to the rendered artifact, not just the
  // doubles: the CI diff contract.
  EXPECT_EQ(core::render_axis_table({expected}, "METRIC"),
            core::render_axis_table({report}, "METRIC"));
  EXPECT_EQ(core::axis_report_csv({expected}), core::axis_report_csv({report}));
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_GE(stats.scheduler.released + stats.scheduler.expired, 1u);
  EXPECT_GE(stats.scheduler.re_leases, 1u);
}

TEST(Distributed, SilentWorkerLeaseExpiresAndIsReLeased) {
  const SyntheticStagedTask task(TaskKind::kClassification, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected =
      core::assemble_report(plan, core::ThreadPoolExecutor().execute(task, plan));

  CoordinatorOptions opts = fast_opts();
  opts.lease_timeout = std::chrono::milliseconds(200);
  Coordinator coordinator(opts);

  // A raw client that takes a lease and then holds the socket open in
  // silence — no heartbeat, no disconnect. Only lease expiry can save the
  // sweep.
  std::thread zombie([&] {
    net::TcpSocket sock =
        net::TcpSocket::connect("127.0.0.1", coordinator.port());
    util::Json hello = make_message(msg::kHello);
    hello.set("protocol", kProtocolVersion);
    ASSERT_TRUE(net::send_json(sock, hello));
    util::Json welcome;
    ASSERT_TRUE(net::recv_json(sock, &welcome));
    ASSERT_TRUE(net::send_json(sock, make_message(msg::kLeaseRequest)));
    util::Json lease;
    ASSERT_TRUE(net::recv_json(sock, &lease));
    ASSERT_EQ(message_type(lease), "lease");
    // ... and say nothing until the coordinator shuts the sweep down.
    util::Json ignored;
    net::recv_json(sock, &ignored);
  });
  std::thread survivor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const WorkerRunStats stats =
        run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
    EXPECT_TRUE(stats.done);
  });
  const std::vector<MetricMap> results =
      coordinator.run({DistJob{util::Json::object(), plan}});
  zombie.join();
  survivor.join();

  expect_reports_identical(expected,
                           core::assemble_report(plan, results.at(0)));
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_GE(stats.scheduler.expired, 1u);
  EXPECT_GE(stats.scheduler.re_leases, 1u);
}

TEST(Distributed, LateResultFromExpiredLeaseIsAcceptedOrDuplicate) {
  // A worker whose lease expired (and was completed by someone else) sends
  // its result anyway: the coordinator verifies agreement instead of
  // failing, and the run stays byte-identical.
  const SyntheticStagedTask task(TaskKind::kSegmentation, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected =
      core::assemble_report(plan, core::ThreadPoolExecutor().execute(task, plan));

  CoordinatorOptions opts = fast_opts();
  opts.lease_timeout = std::chrono::milliseconds(150);
  Coordinator coordinator(opts);

  std::thread slow([&] {
    net::TcpSocket sock =
        net::TcpSocket::connect("127.0.0.1", coordinator.port());
    util::Json hello = make_message(msg::kHello);
    hello.set("protocol", kProtocolVersion);
    ASSERT_TRUE(net::send_json(sock, hello));
    util::Json welcome;
    ASSERT_TRUE(net::recv_json(sock, &welcome));
    ASSERT_TRUE(net::send_json(sock, make_message(msg::kLeaseRequest)));
    util::Json lease;
    ASSERT_TRUE(net::recv_json(sock, &lease));
    ASSERT_EQ(message_type(lease), "lease");
    util::Json request = make_message(msg::kJobRequest);
    request.set("job", lease.at("job").as_int());
    ASSERT_TRUE(net::send_json(sock, request));
    util::Json info;
    ASSERT_TRUE(net::recv_json(sock, &info));
    ASSERT_EQ(message_type(info), "job_info");
    const SweepPlan wplan = SweepPlan::from_json(info.at("plan"));
    // Sleep past expiry, then evaluate honestly and submit late.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    std::vector<std::size_t> indices;
    const util::Json& jconfigs = lease.at("configs");
    for (std::size_t i = 0; i < jconfigs.size(); ++i)
      indices.push_back(static_cast<std::size_t>(jconfigs.at(i).as_int()));
    const MetricMap metrics = core::ThreadPoolExecutor().execute(
        task, wplan.slice(indices));
    util::Json result = make_message(msg::kResult);
    result.set("job", lease.at("job").as_int());
    result.set("unit", lease.at("unit").as_int());
    util::Json jm = util::Json::object();
    for (const auto& [key, value] : metrics) jm.set(key, value);
    result.set("metrics", std::move(jm));
    if (net::send_json(sock, result)) {
      util::Json ok;
      net::recv_json(sock, &ok);  // ok — or the run already shut down
    }
  });
  std::thread survivor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
  });
  const std::vector<MetricMap> results =
      coordinator.run({DistJob{util::Json::object(), plan}});
  slow.join();
  survivor.join();
  expect_reports_identical(expected,
                           core::assemble_report(plan, results.at(0)));
}

TEST(Distributed, DisagreeingDuplicateResultFailsTheRunLoudly) {
  // Executors must be bit-identical; a worker contradicting an already-
  // merged metric has to fail the sweep with a diagnostic — not average,
  // not hang.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  Coordinator coordinator(fast_opts());

  std::thread liar([&] {
    net::TcpSocket sock =
        net::TcpSocket::connect("127.0.0.1", coordinator.port());
    util::Json hello = make_message(msg::kHello);
    hello.set("protocol", kProtocolVersion);
    ASSERT_TRUE(net::send_json(sock, hello));
    util::Json welcome;
    ASSERT_TRUE(net::recv_json(sock, &welcome));
    ASSERT_TRUE(net::send_json(sock, make_message(msg::kLeaseRequest)));
    util::Json lease;
    ASSERT_TRUE(net::recv_json(sock, &lease));
    ASSERT_EQ(message_type(lease), "lease");
    auto submit = [&](double value) {
      util::Json result = make_message(msg::kResult);
      result.set("job", lease.at("job").as_int());
      result.set("unit", lease.at("unit").as_int());
      // The unit's planned keys, so the frame passes the key check and
      // reaches the merge it is meant to poison.
      util::Json jm = util::Json::object();
      const util::Json& jconfigs = lease.at("configs");
      for (std::size_t i = 0; i < jconfigs.size(); ++i)
        jm.set(plan.configs[static_cast<std::size_t>(jconfigs.at(i).as_int())]
                   .metric_key,
               value);
      result.set("metrics", std::move(jm));
      if (!net::send_json(sock, result)) return;
      util::Json reply;
      net::recv_json(sock, &reply);
    };
    submit(1.0);
    submit(2.0);  // contradicts the first — poisons the run
  });
  EXPECT_THROW(
      {
        try {
          coordinator.run({DistJob{util::Json::object(), plan}});
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("disagree"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
  liar.join();
}

TEST(Distributed, GarbageConnectionDoesNotKillTheCoordinator) {
  // A non-protocol client (port scanner, version skew) sends a length-valid
  // frame of non-JSON bytes: the handler contains the parse error, the
  // sweep completes off the healthy worker.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected =
      core::assemble_report(plan, core::ThreadPoolExecutor().execute(task, plan));
  Coordinator coordinator(fast_opts());

  std::thread scanner([&] {
    net::TcpSocket sock =
        net::TcpSocket::connect("127.0.0.1", coordinator.port());
    const unsigned char frame[] = {0, 0, 0, 4, 'j', 'u', 'n', 'k'};
    sock.send_all(frame, sizeof(frame));
    util::Json ignored;
    net::recv_json(sock, &ignored);  // error reply or close — either is fine
  });
  std::thread worker([&] {
    run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
  });
  const std::vector<MetricMap> results =
      coordinator.run({DistJob{util::Json::object(), plan}});
  scanner.join();
  worker.join();
  expect_reports_identical(expected,
                           core::assemble_report(plan, results.at(0)));
  EXPECT_GE(coordinator.stats().worker_errors, 1u);
}

TEST(Distributed, RunIsOnceOnly) {
  Coordinator coordinator(fast_opts());
  EXPECT_TRUE(coordinator.run({}).empty());
  EXPECT_THROW(coordinator.run({}), std::logic_error);
}

// ---------------------------------------------------------------------------
// fleet metrics
// ---------------------------------------------------------------------------

// A 2-worker loopback through the coordinator; returns worker_metrics().
util::Json loopback_worker_metrics(const SyntheticStagedTask& task) {
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  Coordinator coordinator(fast_opts());
  std::vector<std::thread> pool;
  for (int w = 0; w < 2; ++w)
    pool.emplace_back([&] {
      run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
    });
  coordinator.run({DistJob{util::Json::object(), plan}});
  for (std::thread& t : pool) t.join();
  return coordinator.worker_metrics();
}

TEST(Distributed, WorkerMetricsCarryTheWorkersSnapshotsWhileTracing) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  obs::metrics().reset();
  obs::trace_enable();
  const util::Json fleet = loopback_worker_metrics(task);
  obs::trace_disable();
  obs::trace_reset();
  obs::metrics().reset();
  ASSERT_TRUE(fleet.is_object());
  const util::Json* counters = fleet.get("counters");
  ASSERT_NE(counters, nullptr) << fleet.dump();
  const util::Json* leases = counters->get("worker.leases_completed");
  ASSERT_NE(leases, nullptr) << fleet.dump();
  EXPECT_GE(leases->as_number(), 1.0);
}

TEST(Distributed, WorkerMetricsAreEmptyWithTracingOff) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  ASSERT_FALSE(obs::trace_enabled());
  EXPECT_EQ(loopback_worker_metrics(task).dump(), "{}");
}

// ---------------------------------------------------------------------------
// DistExecutor seam
// ---------------------------------------------------------------------------

TEST(Distributed, DistExecutorMatchesStagedExecutorAndFillsTheCache) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::StagedExecutor().execute(task, plan);

  Coordinator coordinator(fast_opts());
  std::thread worker([&] {
    run_worker("127.0.0.1", coordinator.port(), fixed_resolver(task), {});
  });
  core::SweepCache cache;
  core::SweepOptions opts;
  opts.cache = &cache;
  const DistExecutor dist(coordinator, util::Json::object());
  const MetricMap metrics = dist.execute(task, plan, opts);
  worker.join();

  EXPECT_EQ(metrics, expected);  // bit-identical, key for key
  EXPECT_EQ(cache.size(), metrics.size());  // remote results memoized
  EXPECT_STREQ(dist.name(), "dist");
}

// ---------------------------------------------------------------------------
// real models
// ---------------------------------------------------------------------------

TEST(Distributed, RealClassifierLoopbackMatchesSeededSingleProcessSweep) {
  auto tc = models::get_classifier("MCUNet");
  models::ClassifierTask task(tc);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());

  // Reference: the seeded staged sweep the table benches run.
  core::SweepCache cache;
  const AxisReport expected = models::staged_sweep_seeded(
      task, tc.trained_acc, cache);

  // Distributed: two workers resolving the spec through the zoo, exactly
  // like sysnoise_worker would (same process here, so the zoo cache is
  // warm and the resolution is instant).
  CoordinatorOptions opts = fast_opts();
  opts.lease_timeout = std::chrono::milliseconds(5000);
  Coordinator coordinator(opts);
  std::vector<std::thread> pool;
  for (int w = 0; w < 2; ++w)
    pool.emplace_back([&] {
      const WorkerRunStats stats = run_worker(
          "127.0.0.1", coordinator.port(), zoo_task_resolver(), {});
      EXPECT_TRUE(stats.done);
      EXPECT_TRUE(stats.error.empty()) << stats.error;
    });
  const std::vector<MetricMap> results = coordinator.run(
      {DistJob{classifier_spec("MCUNet").to_json(), plan}});
  for (std::thread& t : pool) t.join();

  expect_reports_identical(expected,
                           core::assemble_report(plan, results.at(0)));
}

}  // namespace
}  // namespace sysnoise::dist
