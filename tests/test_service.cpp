// Tests of the resident sweep service: the write-ahead journal (round trip,
// torn-tail tolerance, corrupt-record refusal), the job queue lifecycle
// (submit/status/watch/fetch/cancel over the control plane), priority
// ordering of lease grants, shared-secret auth rejection, and — the heart
// of the subsystem — crash/resume: a service killed after k journaled
// results (the in-process kill -9 stand-in) restarts from its journal,
// re-runs only the unjournaled units, and produces merged metrics
// bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/executor.h"
#include "core/plan.h"
#include "core/synthetic_task.h"
#include "dist/protocol.h"
#include "dist/scheduler.h"
#include "dist/worker.h"
#include "net/frame.h"
#include "net/socket.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/service.h"
#include "tensor/backend.h"
#include "util/json.h"

namespace sysnoise::svc {
namespace {

using core::AxisRegistry;
using core::MetricMap;
using core::SweepPlan;
using core::SyntheticStagedTask;
using core::TaskKind;
using dist::LeaseScheduler;
using dist::TaskResolver;
using dist::WorkerRunStats;
using dist::WorkUnit;

// Every spec resolves to the one in-process task (loopback tests share the
// process between service and workers).
TaskResolver fixed_resolver(const core::EvalTask& task) {
  return [&task](const util::Json&) {
    dist::ResolvedWorkerTask out;
    out.task = &task;
    return out;
  };
}

ServiceOptions fast_svc() {
  ServiceOptions opts;
  opts.lease_timeout = std::chrono::milliseconds(400);
  opts.heartbeat_interval = std::chrono::milliseconds(50);
  return opts;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "sysnoise_" + name + "_" +
         std::to_string(::getpid());
}

std::string read_all(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::size_t unit_count(const SweepPlan& plan) {
  return core::plan_work_units(plan).size();
}

// ---------------------------------------------------------------------------
// journal
// ---------------------------------------------------------------------------

TEST(Journal, AppendedRecordsReplayInOrder) {
  const std::string path = temp_path("journal_roundtrip");
  std::remove(path.c_str());
  {
    Journal journal(path);
    for (int i = 0; i < 3; ++i) {
      util::Json rec = Journal::make_record(rec::kResult);
      rec.set("job", i);
      rec.set("metrics", util::Json::object());
      journal.append(rec, /*sync=*/i % 2 == 0);
    }
    EXPECT_EQ(journal.appended(), 3u);
  }
  const ReplayResult rr = Journal::replay(path);
  EXPECT_FALSE(rr.dropped_torn_tail);
  ASSERT_EQ(rr.records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rr.records[i].at("rec").as_string(), "result");
    EXPECT_EQ(rr.records[i].at("job").as_int(), i);
  }
  // A missing journal replays as empty — a fresh service.
  const ReplayResult none = Journal::replay(path + ".does_not_exist");
  EXPECT_TRUE(none.records.empty());
  std::remove(path.c_str());
}

TEST(Journal, TornFinalRecordIsDroppedButEarlierCorruptionThrows) {
  const std::string path = temp_path("journal_torn");
  std::remove(path.c_str());
  {
    Journal journal(path);
    util::Json rec = Journal::make_record(rec::kSubmit);
    rec.set("job", 1);
    journal.append(rec);
  }
  // The write a crash cut off: a prefix of a record, no newline.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "{\"rec\":\"result\",\"job\":1,\"met";
  }
  const ReplayResult rr = Journal::replay(path);
  EXPECT_TRUE(rr.dropped_torn_tail);
  ASSERT_EQ(rr.records.size(), 1u);
  EXPECT_EQ(rr.records[0].at("rec").as_string(), "submit");

  // Same garbage with records AFTER it is damage, not a crash artifact.
  const std::string bad = temp_path("journal_corrupt");
  std::remove(bad.c_str());
  {
    std::ofstream f(bad, std::ios::binary);
    f << "{\"rec\":\"submit\",\"job\":1}\n"
      << "not json at all\n"
      << "{\"rec\":\"cancel\",\"job\":1}\n";
  }
  EXPECT_THROW(
      {
        try {
          Journal::replay(bad);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

// ---------------------------------------------------------------------------
// scheduler: dynamic pool + priorities (the service's additions)
// ---------------------------------------------------------------------------

TEST(Scheduler, AddUnitsLeasesByPriorityAndDropJobVoidsTheRest) {
  using Clock = LeaseScheduler::Clock;
  const auto now = Clock::now();
  LeaseScheduler sched({}, std::chrono::milliseconds(1000));
  EXPECT_TRUE(sched.all_done());  // empty pool is trivially done

  const std::size_t base_low = sched.add_units({{1, {0}, 0}, {1, {1}, 0}});
  const std::size_t base_high = sched.add_units({{2, {0}, 5}});
  EXPECT_EQ(base_low, 0u);
  EXPECT_EQ(base_high, 2u);

  // The later-submitted high-priority unit leases first; ties in order.
  EXPECT_EQ(sched.acquire(1, now), std::optional<std::size_t>(base_high));
  EXPECT_EQ(sched.acquire(1, now), std::optional<std::size_t>(base_low));

  // Cancel job 1: its unleased unit is voided, its leased unit too — a
  // late complete() is not counted, and the pool drains without it.
  sched.drop_job(1);
  EXPECT_EQ(sched.stats().canceled, 2u);
  EXPECT_FALSE(sched.complete(base_low));
  EXPECT_EQ(sched.acquire(1, now), std::nullopt);
  EXPECT_TRUE(sched.complete(base_high));
  EXPECT_TRUE(sched.all_done());
  EXPECT_EQ(sched.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// service lifecycle
// ---------------------------------------------------------------------------

TEST(Service, SubmitWatchFetchLifecycleMatchesLocalExecution) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::ThreadPoolExecutor().execute(task, plan);

  SweepService service(fast_svc());
  // Worker attaches BEFORE any job exists: it must idle on `wait`, then
  // discover the submitted job dynamically via job_request.
  std::thread worker([&] {
    const WorkerRunStats stats = dist::run_worker(
        "127.0.0.1", service.port(), fixed_resolver(task), {});
    EXPECT_TRUE(stats.done);
    EXPECT_TRUE(stats.error.empty()) << stats.error;
  });

  ClientOptions copts;
  copts.port = service.port();
  ServiceClient client(copts);
  const int job = client.submit(util::Json::object(), plan, 0, "lifecycle");
  EXPECT_GT(job, 0);

  int progress_frames = 0;
  const MetricMap metrics =
      client.collect(job, [&](const util::Json&) { ++progress_frames; });
  EXPECT_EQ(metrics, expected);  // bit-identical, key for key

  // fetch after the fact returns the same bytes.
  const util::Json fetched = client.fetch(job);
  EXPECT_EQ(fetched.at("state").as_string(), "done");
  util::Json jm = util::Json::object();
  for (const auto& [key, value] : expected) jm.set(key, value);
  EXPECT_EQ(fetched.at("metrics").dump(), jm.dump());

  const util::Json status = client.status();
  EXPECT_EQ(status.at("queue_depth").as_int(), 0);
  ASSERT_EQ(status.at("jobs").size(), 1u);
  EXPECT_EQ(status.at("jobs").at(0).at("state").as_string(), "done");
  EXPECT_EQ(status.at("jobs").at(0).at("name").as_string(), "lifecycle");
  // The runtime fingerprint: what machine the service computes on.
  const util::Json& runtime = status.at("runtime");
  EXPECT_EQ(runtime.at("simd_isa").as_string(), simd_isa_name());
  EXPECT_GE(runtime.at("hardware_threads").as_int(), 1);
  EXPECT_EQ(runtime.at("default_backend").as_string(),
            backend_name(default_backend()));

  service.stop();  // workers get `done` on their next request
  worker.join();
  EXPECT_EQ(service.stats().results_received, unit_count(plan));
  EXPECT_EQ(service.stats().worker_errors, 0u);
}

TEST(Service, HighPriorityJobLeasesBeforeEarlierLowPriorityJob) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const std::string journal = temp_path("svc_priority");
  std::remove(journal.c_str());

  ServiceOptions opts = fast_svc();
  opts.journal_path = journal;
  SweepService service(opts);
  ClientOptions copts;
  copts.port = service.port();
  ServiceClient client(copts);
  // Both jobs queued before any worker exists: the scheduler must prefer
  // the later-submitted high-priority job for every lease.
  const int low = client.submit(util::Json::object(), plan, 0, "low");
  const int high = client.submit(util::Json::object(), plan, 7, "high");

  std::thread worker([&] {
    dist::run_worker("127.0.0.1", service.port(), fixed_resolver(task), {});
  });
  const MetricMap high_metrics = client.collect(high);
  const MetricMap low_metrics = client.collect(low);
  service.stop();
  worker.join();

  const MetricMap expected = core::ThreadPoolExecutor().execute(task, plan);
  EXPECT_EQ(high_metrics, expected);
  EXPECT_EQ(low_metrics, expected);

  // The journal's lease records are the audit trail: every lease of the
  // high-priority job precedes every lease of the low-priority one.
  std::vector<int> lease_jobs;
  for (const util::Json& rec : Journal::replay(journal).records)
    if (rec.at("rec").as_string() == rec::kLease)
      lease_jobs.push_back(rec.at("job").as_int());
  ASSERT_EQ(lease_jobs.size(), 2 * unit_count(plan));
  for (std::size_t i = 0; i < lease_jobs.size(); ++i)
    EXPECT_EQ(lease_jobs[i], i < unit_count(plan) ? high : low) << i;
  std::remove(journal.c_str());
}

TEST(Service, SubmitsWhileWorkersAreLeasingStaySafe) {
  // Grow the scheduler's unit pool while a worker is actively acquiring
  // leases: submissions land mid-lease-stream, which is exactly the
  // vector-reallocation window the scheduler's locked copy-out accessor
  // exists for (TSan in CI is the real referee here; the assertions below
  // just pin the end-to-end results).
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::ThreadPoolExecutor().execute(task, plan);

  SweepService service(fast_svc());
  std::thread worker([&] {
    const WorkerRunStats stats = dist::run_worker(
        "127.0.0.1", service.port(), fixed_resolver(task), {});
    EXPECT_TRUE(stats.done);
  });
  ClientOptions copts;
  copts.port = service.port();
  ServiceClient client(copts);
  std::vector<int> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(client.submit(util::Json::object(), plan, i, "burst"));
  for (const int job : jobs) EXPECT_EQ(client.collect(job), expected);
  service.stop();
  worker.join();
  EXPECT_EQ(service.stats().worker_errors, 0u);
}

// Raw submit frame with an explicit idempotency key, the way a client whose
// reply was lost retries: same key, byte-identical request.
int raw_submit(int port, const SweepPlan& plan, const std::string& idem) {
  net::TcpSocket sock = net::TcpSocket::connect("127.0.0.1", port);
  util::Json req = dist::make_message(dist::msg::kSubmit);
  req.set("task", util::Json::object());
  req.set("plan", plan.to_json());
  req.set("priority", 0);
  req.set("name", "retried");
  req.set("idem", idem);
  EXPECT_TRUE(net::send_json(sock, req));
  util::Json reply;
  EXPECT_TRUE(net::recv_json(sock, &reply));
  EXPECT_EQ(dist::message_type(reply), dist::msg::kSubmitted);
  return reply.at("job").as_int();
}

TEST(Service, RetriedSubmitWithSameIdempotencyKeyRegistersOneJob) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const std::string journal = temp_path("svc_idem");
  std::remove(journal.c_str());

  int first = 0;
  {
    ServiceOptions opts = fast_svc();
    opts.journal_path = journal;
    SweepService service(opts);
    first = raw_submit(service.port(), plan, "key-1");
    EXPECT_EQ(raw_submit(service.port(), plan, "key-1"), first);  // dedup
    EXPECT_NE(raw_submit(service.port(), plan, "key-2"), first);
    ClientOptions copts;
    copts.port = service.port();
    EXPECT_EQ(ServiceClient(copts).status().at("jobs").size(), 2u);
    service.stop();
  }
  // The key is journaled with the submission, so dedup survives a restart —
  // the lost-reply-then-crash case the key exists for.
  {
    ServiceOptions opts = fast_svc();
    opts.journal_path = journal;
    SweepService service(opts);
    EXPECT_EQ(raw_submit(service.port(), plan, "key-1"), first);
    ClientOptions copts;
    copts.port = service.port();
    EXPECT_EQ(ServiceClient(copts).status().at("jobs").size(), 2u);
    service.stop();
  }
  std::remove(journal.c_str());
}

TEST(Service, AbandonedWatcherOfStalledJobIsReaped) {
  // A job with no workers stalls in "queued"; a watcher that disconnects
  // mid-stall must have its handler thread and fd reclaimed promptly (EOF
  // poll + keepalive), not held until service stop().
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  SweepService service(fast_svc());
  ClientOptions copts;
  copts.port = service.port();
  const int job =
      ServiceClient(copts).submit(util::Json::object(), plan, 0, "stalled");
  {
    net::TcpSocket sock = net::TcpSocket::connect("127.0.0.1", service.port());
    util::Json req = dist::make_message(dist::msg::kWatch);
    req.set("job", job);
    ASSERT_TRUE(net::send_json(sock, req));
    util::Json frame;
    ASSERT_TRUE(net::recv_json(sock, &frame));
    EXPECT_EQ(dist::message_type(frame), dist::msg::kProgress);
    EXPECT_EQ(frame.at("state").as_string(), "queued");
  }  // watcher hangs up without a word, job still stalled
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().handlers_live > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(service.stats().handlers_live, 0u);
  service.stop();
}

TEST(Service, CancelVoidsQueuedJobAndRefusesTerminalOnes) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  SweepService service(fast_svc());  // no workers: jobs stay queued
  ClientOptions copts;
  copts.port = service.port();
  ServiceClient client(copts);

  const int job = client.submit(util::Json::object(), plan, 0, "doomed");
  client.cancel(job);
  const util::Json fetched = client.fetch(job);
  EXPECT_EQ(fetched.at("state").as_string(), "canceled");
  EXPECT_EQ(fetched.get("metrics"), nullptr);
  EXPECT_THROW(client.cancel(job), std::runtime_error);   // already canceled
  EXPECT_THROW(client.cancel(9999), std::runtime_error);  // unknown
  EXPECT_THROW(client.collect(job), std::runtime_error);  // never "done"
  EXPECT_TRUE(service.wait_idle(std::chrono::milliseconds(100)));
  service.stop();
}

// ---------------------------------------------------------------------------
// auth
// ---------------------------------------------------------------------------

TEST(Service, RejectsWrongOrMissingTokenLoudlyOnBothPlanes) {
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  ServiceOptions opts = fast_svc();
  opts.auth_token = "open-sesame";
  SweepService service(opts);

  // Worker plane: a token-less hello and a wrong-token hello both get an
  // explicit error frame, not a silent close.
  for (const char* bad : {"", "wrong"}) {
    dist::WorkerOptions wopts;
    wopts.auth_token = bad;
    const WorkerRunStats stats = dist::run_worker(
        "127.0.0.1", service.port(), fixed_resolver(task), wopts);
    EXPECT_FALSE(stats.done);
    EXPECT_NE(stats.error.find("auth rejected"), std::string::npos)
        << stats.error;
  }
  // Control plane: same contract.
  ClientOptions anon;
  anon.port = service.port();
  EXPECT_THROW(
      {
        try {
          ServiceClient(anon).status();
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("auth rejected"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
  EXPECT_GE(service.stats().auth_rejections, 3u);

  // The right token is business as usual, end to end.
  ClientOptions good = anon;
  good.token = "open-sesame";
  ServiceClient client(good);
  const int job = client.submit(util::Json::object(), plan, 0, "authed");
  dist::WorkerOptions wopts;
  wopts.auth_token = "open-sesame";
  std::thread worker([&] {
    const WorkerRunStats stats = dist::run_worker(
        "127.0.0.1", service.port(), fixed_resolver(task), wopts);
    EXPECT_TRUE(stats.done);
  });
  EXPECT_EQ(client.collect(job),
            core::ThreadPoolExecutor().execute(task, plan));
  service.stop();
  worker.join();
}

// ---------------------------------------------------------------------------
// unit/result key check
// ---------------------------------------------------------------------------

util::Json metrics_json(const MetricMap& metrics) {
  util::Json jm = util::Json::object();
  for (const auto& [key, value] : metrics) jm.set(key, value);
  return jm;
}

TEST(Service, ResultFrameCarryingAnotherUnitsKeysFailsTheJobLoudly) {
  // An honest evaluation of the WRONG configs (a worker that partitioned
  // the plan differently) must not mark the leased unit done. An honest
  // worker then offers to finish the sweep, so a service that accepted the
  // frame would report the job done (missing the leased unit's metrics)
  // instead of hanging the test.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const std::vector<std::vector<std::size_t>> units =
      core::plan_work_units(plan);
  ASSERT_GE(units.size(), 2u);
  SweepService service(fast_svc());
  ClientOptions copts;
  copts.port = service.port();
  ServiceClient client(copts);
  const int job = client.submit(util::Json::object(), plan, 0, "wrong-unit");

  std::thread liar([&] {
    net::TcpSocket sock = net::TcpSocket::connect("127.0.0.1", service.port());
    util::Json hello = dist::make_message(dist::msg::kHello);
    hello.set("protocol", dist::kProtocolVersion);
    ASSERT_TRUE(net::send_json(sock, hello));
    util::Json welcome;
    ASSERT_TRUE(net::recv_json(sock, &welcome));
    ASSERT_TRUE(net::send_json(sock, dist::make_message(dist::msg::kLeaseRequest)));
    util::Json lease;
    ASSERT_TRUE(net::recv_json(sock, &lease));
    ASSERT_EQ(dist::message_type(lease), "lease");
    const std::size_t leased =
        static_cast<std::size_t>(lease.at("configs").at(0).as_int());
    const std::vector<std::size_t>& other =
        std::find(units[0].begin(), units[0].end(), leased) != units[0].end()
            ? units[1]
            : units[0];
    util::Json result = dist::make_message(dist::msg::kResult);
    result.set("job", lease.at("job").as_int());
    result.set("unit", lease.at("unit").as_int());
    result.set("metrics", metrics_json(core::ThreadPoolExecutor().execute(
                              task, plan.slice(other))));
    ASSERT_TRUE(net::send_json(sock, result));
    util::Json reply;
    ASSERT_TRUE(net::recv_json(sock, &reply));
    EXPECT_EQ(dist::message_type(reply), "error");
  });
  liar.join();
  std::thread worker([&] {
    dist::run_worker("127.0.0.1", service.port(), fixed_resolver(task), {});
  });
  EXPECT_THROW(
      {
        try {
          client.collect(job);
        } catch (const std::runtime_error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("failed"), std::string::npos) << what;
          EXPECT_NE(what.find("result for job " + std::to_string(job) +
                              " unit "),
                    std::string::npos)
              << what;
          EXPECT_NE(what.find("planned metric keys"), std::string::npos)
              << what;
          throw;
        }
      },
      std::runtime_error);
  EXPECT_EQ(service.stats().results_received, 0u);
  service.stop();
  worker.join();
}

TEST(Journal, ReplayRefusesAResultRecordCarryingAnotherUnitsKeys) {
  // A journal whose unit indices come from a different partition of the
  // plan (e.g. written by a build that merged units) must not resume: its
  // record for unit 0 would otherwise mark the wrong configs done.
  const SyntheticStagedTask task(TaskKind::kClassification, false);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const std::vector<std::vector<std::size_t>> units =
      core::plan_work_units(plan);
  ASSERT_GE(units.size(), 2u);
  const std::string journal = temp_path("svc_wrong_unit");
  std::remove(journal.c_str());
  {
    Journal j(journal);
    util::Json submit = Journal::make_record(rec::kSubmit);
    submit.set("job", 1);
    submit.set("name", "wrong-unit");
    submit.set("priority", 0);
    submit.set("task", util::Json::object());
    submit.set("plan", plan.to_json());
    j.append(submit);
    util::Json result = Journal::make_record(rec::kResult);
    result.set("job", 1);
    result.set("unit", 0);
    result.set("metrics", metrics_json(core::ThreadPoolExecutor().execute(
                              task, plan.slice(units[1]))));
    j.append(result);
  }
  ServiceOptions opts = fast_svc();
  opts.journal_path = journal;
  EXPECT_THROW(
      {
        try {
          SweepService service(opts);
        } catch (const std::runtime_error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("result for job 1 unit 0"), std::string::npos)
              << what;
          EXPECT_NE(what.find("planned metric keys"), std::string::npos)
              << what;
          throw;
        }
      },
      std::runtime_error);
  std::remove(journal.c_str());
}

// ---------------------------------------------------------------------------
// crash + resume: the journal contract
// ---------------------------------------------------------------------------

TEST(Service, KilledAfterKResultsResumesBitIdenticalWithoutRerunningUnits) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::ThreadPoolExecutor().execute(task, plan);
  const std::size_t total_units = unit_count(plan);
  ASSERT_GT(total_units, 5u) << "plan too small to crash mid-run";

  for (const int k : {1, 2, 5}) {
    const std::string journal =
        temp_path("svc_crash_k" + std::to_string(k));
    std::remove(journal.c_str());
    int port = 0;

    // Phase 1: serve until exactly k results are journaled, then drop
    // everything on the floor (the in-process kill -9).
    {
      ServiceOptions opts = fast_svc();
      opts.journal_path = journal;
      opts.crash_after_results = k;
      SweepService service(opts);
      port = service.port();
      ClientOptions copts;
      copts.port = port;
      const int job =
          ServiceClient(copts).submit(util::Json::object(), plan, 0, "crashy");
      EXPECT_EQ(job, 1);
      std::thread worker([&] {
        const WorkerRunStats stats = dist::run_worker(
            "127.0.0.1", port, fixed_resolver(task), {});
        EXPECT_TRUE(stats.disconnected);  // never told done, never rejected
      });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!service.stats().crash_hook_fired &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      ASSERT_TRUE(service.stats().crash_hook_fired);
      worker.join();
      EXPECT_EQ(service.stats().results_received, static_cast<std::size_t>(k));
    }

    // Phase 2: a fresh process (same journal, same port) replays and
    // resumes; a watcher that outlives both incarnations still collects.
    {
      ServiceOptions opts = fast_svc();
      opts.journal_path = journal;
      opts.port = port;  // SO_REUSEADDR: same port, like a restarted daemon
      SweepService service(opts);
      EXPECT_EQ(service.stats().results_replayed,
                static_cast<std::size_t>(k));
      std::thread worker([&] {
        const WorkerRunStats stats = dist::run_worker(
            "127.0.0.1", port, fixed_resolver(task), {});
        EXPECT_TRUE(stats.done);
      });
      ClientOptions copts;
      copts.port = port;
      const MetricMap resumed = ServiceClient(copts).collect(1);
      // THE contract: bit-identical to the uninterrupted run...
      EXPECT_EQ(resumed, expected) << "k=" << k;
      // ...without re-running what the journal already held.
      EXPECT_EQ(service.stats().results_received,
                total_units - static_cast<std::size_t>(k))
          << "k=" << k;
      service.stop();
      worker.join();
    }
    std::remove(journal.c_str());
  }
}

TEST(Service, WatcherRidesOutTheCrashAndRestart) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::ThreadPoolExecutor().execute(task, plan);
  const std::string journal = temp_path("svc_watcher");
  std::remove(journal.c_str());

  ServiceOptions opts = fast_svc();
  opts.journal_path = journal;
  opts.crash_after_results = 2;
  auto service = std::make_unique<SweepService>(opts);
  const int port = service->port();

  ClientOptions copts;
  copts.port = port;
  copts.retry_timeout = std::chrono::seconds(60);
  const int job =
      ServiceClient(copts).submit(util::Json::object(), plan, 0, "watched");

  // The watcher starts against the doomed incarnation and must deliver the
  // final metrics anyway, reconnecting across the gap.
  MetricMap watched;
  std::thread watcher(
      [&] { watched = ServiceClient(copts).collect(job); });
  std::thread worker1([&] {
    dist::run_worker("127.0.0.1", port, fixed_resolver(task), {});
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!service->stats().crash_hook_fired &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(service->stats().crash_hook_fired);
  worker1.join();
  service.reset();  // the dead incarnation releases the port

  ServiceOptions opts2 = fast_svc();
  opts2.journal_path = journal;
  opts2.port = port;
  SweepService revived(opts2);
  std::thread worker2([&] {
    dist::run_worker("127.0.0.1", port, fixed_resolver(task), {});
  });
  watcher.join();
  EXPECT_EQ(watched, expected);
  revived.stop();
  worker2.join();
  std::remove(journal.c_str());
}

TEST(Service, RestartToleratesTornTailAndReRunsItsUnit) {
  const SyntheticStagedTask task(TaskKind::kClassification, true);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::ThreadPoolExecutor().execute(task, plan);
  const std::string journal = temp_path("svc_torn");
  std::remove(journal.c_str());

  // Run a sweep to completion so the journal holds a full history...
  {
    ServiceOptions opts = fast_svc();
    opts.journal_path = journal;
    SweepService service(opts);
    ClientOptions copts;
    copts.port = service.port();
    ServiceClient client(copts);
    const int job = client.submit(util::Json::object(), plan, 0, "torn");
    std::thread worker([&] {
      dist::run_worker("127.0.0.1", service.port(), fixed_resolver(task), {});
    });
    EXPECT_EQ(client.collect(job), expected);
    service.stop();
    worker.join();
  }
  // ...then tear its tail the way a crash mid-append would.
  {
    std::ofstream f(journal, std::ios::binary | std::ios::app);
    f << "{\"rec\":\"result\",\"job\":1,\"unit\":0,\"metr";
  }
  ServiceOptions opts = fast_svc();
  opts.journal_path = journal;
  SweepService service(opts);
  EXPECT_EQ(service.stats().results_replayed, unit_count(plan));
  ClientOptions copts;
  copts.port = service.port();
  const util::Json fetched = ServiceClient(copts).fetch(1);
  EXPECT_EQ(fetched.at("state").as_string(), "done");
  service.stop();
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace sysnoise::svc
