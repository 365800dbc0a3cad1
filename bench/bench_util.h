// Shared helpers for the bench binaries: output directory handling, the
// banner each table prints, and the plan/shard/merge command line every
// table and fig bench grows in the plan -> execute -> merge lifecycle:
//
//   --emit-plan            write the bench's SweepPlans as JSON and exit
//   --shard i/N            evaluate only shard i of N (deterministic plan
//                          partition), writing a partial shard-result file
//   --merge f1 f2 ...      merge shard-result files from earlier --shard
//                          runs into the final report (no models needed)
//
// plus the distributed runtime (dist/coordinator.h) on the same plan seam:
//
//   --coordinate <port> [--min-workers N]
//                          serve this bench's SweepPlans as a coordinator:
//                          workers (sysnoise_worker, or any bench started
//                          with --connect) evaluate leased work units, the
//                          bench merges the streamed results and renders
//                          the ordinary report — byte-identical to the
//                          single-process run. Port 0 binds an ephemeral
//                          port; the chosen one is printed and written to
//                          <results_dir>/<bench>.port for worker launchers
//   --connect host:port    join a coordinator as a worker instead of
//                          running anything locally
//
// and the resident sweep service (svc/service.h, tools/sysnoise_svc.cpp)
// on the same seam:
//
//   --submit host:port [--priority N]
//                          submit this bench's jobs to a running sweep
//                          service instead of coordinating them here, then
//                          watch the jobs and render the merged report —
//                          byte-identical to the single-process run, even
//                          when the service is killed and restarted midway
//   --emit-jobs            write the bench's (task, plan) job list as JSON
//                          (<results_dir>/<bench>_jobs.json) for later
//                          `sysnoise_ctl submit`, and exit
//   --token T              shared-secret auth for --coordinate (require it
//                          of workers), --connect, and --submit
//   --trace DIR            flight recorder (obs/trace.h): record a span
//                          trace + metrics snapshot for this run into DIR
//                          (SYSNOISE_TRACE=DIR is the env spelling); off by
//                          default and provably inert — report bytes are
//                          identical either way
//
// Plan-level benches (tables 2-5, 10, fig 3) run through the PlanBenchDef
// overload of run_standard_modes and support every mode above. Benches
// whose unit of work is a row/model list rather than a SweepPlan (tables 1,
// 6-9, figs 4-5) use the row overload: the shard flags get row-level
// semantics (--shard runs every Nth row, --merge concatenates the per-shard
// CSVs) and --connect works (the worker side is bench-agnostic) but
// --coordinate/--submit need a plan and are rejected.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/executor.h"
#include "core/plan.h"
#include "core/staged_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "dist/coordinator.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "net/socket.h"
#include "svc/client.h"
#include "util/json.h"

namespace sysnoise::bench {

inline std::string results_dir() {
  const char* env = std::getenv("SYSNOISE_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

inline void write_file(const std::string& name, const std::string& content) {
  std::ofstream f(results_dir() + "/" + name);
  f << content;
}

// Atomic publication for files other processes poll for (port files): write
// a temp sibling, then rename into place, so a reader never sees a partial
// write — either the old content, or the complete new one.
inline void write_file_atomic(const std::string& name,
                              const std::string& content) {
  const std::string final_path = results_dir() + "/" + name;
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream f(tmp_path, std::ios::binary | std::ios::trunc);
    f << content;
    f.flush();
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", tmp_path.c_str());
      std::exit(2);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::fprintf(stderr, "cannot publish %s: %s\n", final_path.c_str(),
                 ec.message().c_str());
    std::exit(2);
  }
}

inline std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

inline void banner(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("SysNoise reproduction — %s\n", experiment);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

// SYSNOISE_FAST=1 trims model lists for smoke runs.
inline bool fast_mode() {
  const char* env = std::getenv("SYSNOISE_FAST");
  return env != nullptr && env[0] == '1';
}

// SYSNOISE_DISK_STAGE_CACHE=0 opts a bench out of persisting/loading stage
// products; one env contract for benches and workers alike.
inline bool disk_stage_cache_enabled() {
  return core::DiskStageCache::enabled_by_env();
}

// ---------------------------------------------------------------------------
// Shared --shard/--emit-plan/--merge command line
// ---------------------------------------------------------------------------

struct BenchCli {
  std::string bench;  // machine name, e.g. "table2_classification"
  int shard_index = 0;
  int shard_count = 1;
  bool emit_plan = false;
  std::vector<std::string> merge_files;
  int coordinate_port = -1;  // >= 0: serve as a distributed coordinator
  int min_workers = 1;
  int min_workers_timeout_s = 0;  // 0 = wait forever for the quorum
  std::string connect_host;  // non-empty: join a coordinator as a worker
  int connect_port = 0;
  std::string submit_host;   // non-empty: submit jobs to a sweep service
  int submit_port = 0;
  int priority = 0;          // --submit job priority
  bool emit_jobs = false;    // write the (task, plan) job list and exit
  std::string token;         // shared-secret auth for every dist mode
  std::string trace_dir;     // --trace DIR: record a span trace (obs/trace.h)

  bool sharded() const { return shard_count > 1; }
  bool merging() const { return !merge_files.empty(); }
  bool coordinating() const { return coordinate_port >= 0; }
  bool connecting() const { return !connect_host.empty(); }
  bool submitting() const { return !submit_host.empty(); }
  // Any mode that needs the (task-spec, plan) job list instead of local
  // evaluation: coordinate it, submit it, or just write it out.
  bool dist_jobs() const {
    return coordinating() || submitting() || emit_jobs;
  }
  // Suffix row-sharded benches append to their output names.
  std::string shard_suffix() const {
    return sharded() ? ".shard_" + std::to_string(shard_index) + "_of_" +
                           std::to_string(shard_count)
                     : "";
  }
  std::string shard_file() const {
    return results_dir() + "/" + bench + "_shard_" +
           std::to_string(shard_index) + "_of_" + std::to_string(shard_count) +
           ".json";
  }
  std::string plan_file() const { return results_dir() + "/" + bench + "_plan.json"; }
  std::string jobs_file() const {
    return results_dir() + "/" + bench + "_jobs.json";
  }
};

[[noreturn]] inline void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--emit-plan] [--emit-jobs] [--shard i/N] "
               "[--merge file...] [--trace DIR]\n"
               "       %s --coordinate <port> [--min-workers N] "
               "[--min-workers-timeout-s S] [--token T]\n"
               "       %s --connect host:port [--token T]\n"
               "       %s --submit host:port [--priority N] [--token T]\n",
               argv0, argv0, argv0, argv0);
  std::exit(2);
}

inline BenchCli parse_cli(int argc, char** argv, const char* bench_name) {
  BenchCli cli;
  cli.bench = bench_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--emit-plan") {
      cli.emit_plan = true;
    } else if (arg == "--shard") {
      if (++i >= argc) usage(argv[0]);
      int idx = -1, count = 0;
      if (std::sscanf(argv[i], "%d/%d", &idx, &count) != 2 || count <= 0 ||
          idx < 0 || idx >= count) {
        std::fprintf(stderr, "bad --shard \"%s\" (want i/N with 0 <= i < N)\n",
                     argv[i]);
        std::exit(2);
      }
      cli.shard_index = idx;
      cli.shard_count = count;
    } else if (arg == "--merge") {
      while (i + 1 < argc && argv[i + 1][0] != '-')
        cli.merge_files.push_back(argv[++i]);
      if (cli.merge_files.empty()) usage(argv[0]);
    } else if (arg == "--coordinate") {
      if (++i >= argc) usage(argv[0]);
      // All-digit parse: atoi would turn a typo'd "4510x" into a silent
      // ephemeral-port bind. 0 is the explicit "pick an ephemeral port"
      // request (the bench prints the actual one).
      cli.coordinate_port = 0;
      const char* p = argv[i];
      if (*p == '\0') usage(argv[0]);
      for (; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') usage(argv[0]);
        cli.coordinate_port = cli.coordinate_port * 10 + (*p - '0');
        if (cli.coordinate_port > 65535) usage(argv[0]);
      }
    } else if (arg == "--min-workers") {
      if (++i >= argc) usage(argv[0]);
      cli.min_workers = std::atoi(argv[i]);
      if (cli.min_workers < 1) usage(argv[0]);
    } else if (arg == "--min-workers-timeout-s") {
      if (++i >= argc) usage(argv[0]);
      cli.min_workers_timeout_s = std::atoi(argv[i]);
      if (cli.min_workers_timeout_s < 0) usage(argv[0]);
    } else if (arg == "--connect") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_host_port(argv[i], &cli.connect_host,
                                &cli.connect_port))
        usage(argv[0]);
    } else if (arg == "--submit") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_host_port(argv[i], &cli.submit_host, &cli.submit_port))
        usage(argv[0]);
    } else if (arg == "--priority") {
      if (++i >= argc) usage(argv[0]);
      cli.priority = std::atoi(argv[i]);
    } else if (arg == "--emit-jobs") {
      cli.emit_jobs = true;
    } else if (arg == "--token") {
      if (++i >= argc) usage(argv[0]);
      cli.token = argv[i];
    } else if (arg == "--trace") {
      if (++i >= argc) usage(argv[0]);
      cli.trace_dir = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument \"%s\"\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (cli.merging() && (cli.sharded() || cli.emit_plan)) {
    std::fprintf(stderr, "--merge excludes --shard/--emit-plan\n");
    std::exit(2);
  }
  // Clear any previous run's port file NOW, before the (possibly long)
  // model training/loading that precedes binding: a launcher polling for
  // the file must never read a dead port from an earlier run.
  if (cli.coordinating())
    std::filesystem::remove(results_dir() + "/" + cli.bench + ".port");
  const int modes = (cli.coordinating() ? 1 : 0) + (cli.connecting() ? 1 : 0) +
                    (cli.submitting() ? 1 : 0) + (cli.emit_jobs ? 1 : 0) +
                    ((cli.merging() || cli.sharded() || cli.emit_plan) ? 1 : 0);
  if (modes > 1) {
    std::fprintf(stderr,
                 "--coordinate / --connect / --submit / --emit-jobs / "
                 "shard-lifecycle flags are mutually exclusive\n");
    std::exit(2);
  }
  return cli;
}

// ---------------------------------------------------------------------------
// Observability (obs/trace.h): --trace DIR or SYSNOISE_TRACE=DIR
// ---------------------------------------------------------------------------

// Per-bench flight recorder. Construct right after parse_cli: when tracing
// was requested (--trace DIR wins over SYSNOISE_TRACE=DIR) it resets the
// tracer + metrics registry, opens a top-level "bench.<name>" span covering
// the whole run, and finish() flushes <dir>/<bench>_<pid>_{trace,metrics,
// summary}.json — attaching the run's StageStats to the summary when given.
// When neither source is set, every member is an inert no-op, so benches
// construct it unconditionally (the report bytes are identical either way).
class BenchTrace {
 public:
  explicit BenchTrace(const BenchCli& cli)
      : label_("bench." + cli.bench),
        session_(cli.trace_dir.empty()
                     ? obs::TraceSession::from_env(cli.bench)
                     : obs::TraceSession(cli.trace_dir, cli.bench)) {
    if (session_.active())
      top_ = std::make_unique<obs::TraceSpan>(label_.c_str());
  }
  ~BenchTrace() { finish(nullptr); }
  BenchTrace(const BenchTrace&) = delete;
  BenchTrace& operator=(const BenchTrace&) = delete;

  bool active() const { return session_.active(); }

  // Extra summary sections (e.g. "fleet_metrics" from a coordinator run).
  void add_summary(const std::string& key, util::Json value) {
    if (session_.active()) session_.add_summary(key, std::move(value));
  }

  // Close the top-level span and flush the trace files; idempotent (the
  // destructor calls it with no stats for early-exit paths).
  void finish(const core::StageStats* stages) {
    top_.reset();
    if (!session_.active()) return;
    if (stages != nullptr)
      session_.add_summary("stage_stats", stages->to_json());
    const std::string path = session_.trace_path();
    session_.finish();
    std::printf("[trace] wrote %s (+ metrics/summary siblings)\n",
                path.c_str());
  }

 private:
  // label_ outlives session_ (declaration order): the drain inside
  // session_.finish() reads the span-name pointer top_ handed it.
  std::string label_;
  obs::TraceSession session_;
  std::unique_ptr<obs::TraceSpan> top_;
};

// The one-line stage-cache summary every staged bench prints — one shape for
// all tables so eyes (and greps) can compare runs, now covering the forward
// disk cache too.
inline void print_stage_cache_stats(const BenchCli& cli,
                                    const core::StageStats& s,
                                    std::size_t memo_hits) {
  std::printf(
      "[%s] stage cache: %zu/%zu preprocess evals reused, %zu/%zu forwards "
      "reused; disk: %zu pre hits / %zu computed (%zu persisted), %zu fwd "
      "hits / %zu computed; %zu forward calls; metric memo %zu hits\n",
      cli.bench.c_str(), s.preprocess_hits, s.evaluations, s.forward_hits,
      s.evaluations, s.preprocess_disk_hits, s.preprocess_computed,
      s.preprocess_persisted, s.forward_disk_hits, s.forward_computed,
      s.batched_forward_calls, memo_hits);
}

// ---------------------------------------------------------------------------
// Distributed mode (shared by every bench)
// ---------------------------------------------------------------------------

// --connect: serve a coordinator as a zoo-backed worker. Returns the bench's
// exit code. Bench-agnostic — each job's job_info frame says which models
// to resolve, so `bench_table2 --connect` can serve a fig3 sweep.
// Connection attempts retry for a couple of minutes (the coordinator may
// still be training/loading the models it is about to serve).
inline int run_bench_worker(const BenchCli& cli) {
  core::StageStats stages;
  core::DiskStageCache disk;
  dist::WorkerOptions opts;
  opts.stats = &stages;
  opts.disk = disk_stage_cache_enabled() ? &disk : nullptr;
  opts.verbose = true;
  opts.auth_token = cli.token;
  const dist::WorkerRunStats stats = dist::run_worker_retrying(
      cli.connect_host, cli.connect_port, dist::zoo_task_resolver(), opts,
      std::chrono::seconds(600));
  std::printf("[%s] worker %s: %zu leases, %zu configs evaluated\n",
              cli.bench.c_str(), stats.done ? "done" : "stopped",
              stats.leases_completed, stats.configs_evaluated);
  if (!stats.error.empty())
    std::fprintf(stderr, "[%s] worker error: %s\n", cli.bench.c_str(),
                 stats.error.c_str());
  return stats.done ? 0 : 1;
}

// Row-sharded benches have no SweepPlan for a coordinator/service to lease.
inline void reject_coordinate(const BenchCli& cli) {
  if (!cli.dist_jobs()) return;
  std::fprintf(stderr,
               "[%s] --coordinate/--submit/--emit-jobs need a plan-level "
               "bench (tables 2-4, fig3); this bench only supports "
               "--connect\n",
               cli.bench.c_str());
  std::exit(2);
}

// --coordinate: serve `jobs` until remote workers finished every work unit;
// returns one full MetricMap per job, ready for assembly. The caller built
// the jobs' plans from its models, exactly like the single-process path.
// The actual bound port (which may be ephemeral: `--coordinate 0`) is
// printed AND written to <results_dir>/<bench>.port so scripts launching
// workers can read it instead of hard-coding a collision-prone number.
inline std::vector<core::MetricMap> serve_coordinator(
    const BenchCli& cli, const std::vector<dist::DistJob>& jobs,
    BenchTrace* trace = nullptr) {
  dist::CoordinatorOptions opts;
  opts.port = cli.coordinate_port;
  opts.min_workers = cli.min_workers;
  opts.min_workers_timeout_s = cli.min_workers_timeout_s;
  opts.auth_token = cli.token;
  opts.verbose = true;
  dist::Coordinator coordinator(opts);
  // Atomic: worker launchers poll for this file and must never read a
  // half-written port number.
  write_file_atomic(cli.bench + ".port",
                    std::to_string(coordinator.port()) + "\n");
  std::printf("[%s] coordinating on port %d (min workers: %d; port file: "
              "%s/%s.port)\n",
              cli.bench.c_str(), coordinator.port(), cli.min_workers,
              results_dir().c_str(), cli.bench.c_str());
  std::fflush(stdout);
  std::vector<core::MetricMap> results = coordinator.run(jobs);
  if (trace != nullptr && trace->active()) {
    // One fleet-wide view for the summary: this process's instruments plus
    // the cumulative snapshots the workers shipped with their results. The
    // per-process metrics file stays coordinator-local, so sysnoise_trace
    // can sum the fleet's files without double counting.
    trace->add_summary("fleet_metrics",
                       obs::merge_snapshots(obs::metrics().snapshot(),
                                            coordinator.worker_metrics()));
  }
  const dist::CoordinatorStats stats = coordinator.stats();
  std::printf("[%s] distributed sweep done: %zu workers, %zu units "
              "(%zu re-leased after expiry/death), %zu results\n",
              cli.bench.c_str(), stats.workers_joined,
              stats.scheduler.completed, stats.scheduler.re_leases,
              stats.results_received);
  return results;
}

// --emit-jobs: write the (task-spec, plan) job list as JSON for later
// `sysnoise_ctl submit` against a running sweep service.
inline void write_jobs_file(const BenchCli& cli,
                            const std::vector<dist::DistJob>& jobs) {
  util::Json j = util::Json::object();
  j.set("bench", cli.bench);
  util::Json jjobs = util::Json::array();
  for (const dist::DistJob& job : jobs) {
    util::Json jj = util::Json::object();
    jj.set("task", job.task_spec);
    jj.set("plan", job.plan.to_json());
    jjobs.push_back(std::move(jj));
  }
  j.set("jobs", std::move(jjobs));
  std::ofstream f(cli.jobs_file());
  f << j.dump(2) << "\n";
  std::printf("wrote %s (%zu jobs)\n", cli.jobs_file().c_str(), jobs.size());
}

// --submit: hand the jobs to a resident sweep service and collect each
// merged MetricMap by watching until done — riding out service restarts, so
// the report a bench renders this way survives a kill -9 of the service
// byte-identically.
inline std::vector<core::MetricMap> submit_jobs(
    const BenchCli& cli, const std::vector<dist::DistJob>& jobs) {
  svc::ClientOptions copts;
  copts.host = cli.submit_host;
  copts.port = cli.submit_port;
  copts.token = cli.token;
  copts.verbose = true;
  svc::ServiceClient client(copts);
  std::vector<int> ids;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string name = cli.bench + "#" + std::to_string(i);
    ids.push_back(client.submit(jobs[i].task_spec, jobs[i].plan, cli.priority,
                                name));
    std::printf("[%s] submitted job %d (\"%s\", priority %d)\n",
                cli.bench.c_str(), ids.back(), name.c_str(), cli.priority);
    std::fflush(stdout);
  }
  std::vector<core::MetricMap> results;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.push_back(client.collect(ids[i], [&](const util::Json& p) {
      std::printf("[%s] job %d: %s %d/%d units\n", cli.bench.c_str(), ids[i],
                  p.at("state").as_string().c_str(),
                  p.at("units_done").as_int(), p.at("units_total").as_int());
      std::fflush(stdout);
    }));
    std::printf("[%s] job %d done (%zu metrics)\n", cli.bench.c_str(), ids[i],
                results.back().size());
  }
  return results;
}

// Dispatch the dist_jobs() modes once the bench built its job list. Returns
// true with `*results` filled (coordinate/submit — the caller assembles and
// renders), or false when the invocation is complete (--emit-jobs).
inline bool dist_results(const BenchCli& cli,
                         const std::vector<dist::DistJob>& jobs,
                         std::vector<core::MetricMap>* results,
                         BenchTrace* trace = nullptr) {
  if (cli.emit_jobs) {
    write_jobs_file(cli, jobs);
    return false;
  }
  *results = cli.submitting() ? submit_jobs(cli, jobs)
                              : serve_coordinator(cli, jobs, trace);
  return true;
}

// Row-level shard slice for benches whose unit of work is a model/row list.
template <typename T>
inline std::vector<T> shard_slice(const std::vector<T>& rows,
                                  const BenchCli& cli) {
  if (!cli.sharded()) return rows;
  std::vector<T> out;
  for (std::size_t i = static_cast<std::size_t>(cli.shard_index);
       i < rows.size(); i += static_cast<std::size_t>(cli.shard_count))
    out.push_back(rows[i]);
  return out;
}

// Merge per-shard CSVs (from row-sharded benches) by concatenation,
// keeping the first file's header only.
inline std::string merge_csv_files(const std::vector<std::string>& paths) {
  std::string out;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::string content = read_file(paths[i]);
    if (i == 0) {
      out += content;
    } else {
      const std::size_t nl = content.find('\n');
      out += nl == std::string::npos ? content : content.substr(nl + 1);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shard-result files for plan-level sharded benches (tables 2-4, fig 3)
// ---------------------------------------------------------------------------

// One executed (plan, partial metrics) pair; a shard file holds one per
// model the bench covers.
struct PlanRun {
  core::SweepPlan plan;
  core::MetricMap metrics;
};

inline void write_plan_file(const BenchCli& cli,
                            const std::vector<core::SweepPlan>& plans) {
  util::Json j = util::Json::array();
  for (const core::SweepPlan& plan : plans) j.push_back(plan.to_json());
  std::ofstream f(cli.plan_file());
  f << j.dump(2) << "\n";
  std::printf("wrote %s (%zu plans)\n", cli.plan_file().c_str(), plans.size());
}

inline void write_shard_file(const BenchCli& cli,
                             const std::vector<PlanRun>& runs) {
  util::Json j = util::Json::object();
  j.set("bench", cli.bench);
  j.set("shard_index", cli.shard_index);
  j.set("shard_count", cli.shard_count);
  util::Json jruns = util::Json::array();
  for (const PlanRun& run : runs) {
    util::Json jr = util::Json::object();
    jr.set("fingerprint", run.plan.fingerprint());
    jr.set("plan", run.plan.to_json());
    util::Json jm = util::Json::object();
    for (const auto& [key, value] : run.metrics) jm.set(key, value);
    jr.set("metrics", std::move(jm));
    jruns.push_back(std::move(jr));
  }
  j.set("runs", std::move(jruns));
  std::ofstream f(cli.shard_file());
  f << j.dump(2) << "\n";
  std::printf("wrote %s (%zu runs, shard %d/%d)\n", cli.shard_file().c_str(),
              runs.size(), cli.shard_index, cli.shard_count);
}

// Read shard files from --shard runs of the same bench and merge them:
// plans must agree run-for-run (verified by fingerprint), metrics union
// through ShardExecutor::merge (which verifies completeness). Exits with a
// diagnostic on any mismatch.
inline std::vector<PlanRun> merge_shard_files(
    const BenchCli& cli, const std::vector<std::string>& paths) {
  struct Partial {
    core::SweepPlan plan;
    std::string fingerprint;
    std::vector<core::MetricMap> parts;
  };
  std::vector<Partial> partials;
  for (const std::string& path : paths) {
    const util::Json j = util::Json::parse(read_file(path));
    if (j.at("bench").as_string() != cli.bench) {
      std::fprintf(stderr, "%s is a %s shard file, not %s\n", path.c_str(),
                   j.at("bench").as_string().c_str(), cli.bench.c_str());
      std::exit(2);
    }
    const util::Json& jruns = j.at("runs");
    if (!partials.empty() && partials.size() != jruns.size()) {
      std::fprintf(stderr, "%s holds %zu runs, earlier shards held %zu\n",
                   path.c_str(), jruns.size(), partials.size());
      std::exit(2);
    }
    for (std::size_t r = 0; r < jruns.size(); ++r) {
      const util::Json& jr = jruns.at(r);
      const std::string fingerprint = jr.at("fingerprint").as_string();
      if (partials.size() <= r) {
        Partial p;
        p.plan = core::SweepPlan::from_json(jr.at("plan"));
        p.fingerprint = p.plan.fingerprint();
        if (p.fingerprint != fingerprint) {
          std::fprintf(stderr, "%s run %zu: fingerprint mismatch after JSON "
                       "round trip\n", path.c_str(), r);
          std::exit(2);
        }
        partials.push_back(std::move(p));
      } else if (partials[r].fingerprint != fingerprint) {
        std::fprintf(stderr, "%s run %zu was planned differently than "
                     "earlier shards (fingerprint mismatch)\n",
                     path.c_str(), r);
        std::exit(2);
      }
      core::MetricMap metrics;
      for (const auto& [key, value] : jr.at("metrics").items())
        metrics.emplace(key, value.as_number());
      partials[r].parts.push_back(std::move(metrics));
    }
  }

  std::vector<PlanRun> merged;
  for (Partial& p : partials) {
    PlanRun run;
    run.metrics = core::ShardExecutor::merge(p.plan, p.parts);
    run.plan = std::move(p.plan);
    merged.push_back(std::move(run));
  }
  return merged;
}

// Raw metric of the planned config with `role` (and, for kOption, the given
// axis name + option label) — how a bench renders legacy table cells from a
// plan run without re-evaluating anything.
inline double planned_metric(const PlanRun& run,
                             core::PlannedConfig::Role role,
                             const std::string& axis = "",
                             const std::string& label = "") {
  for (const core::PlannedConfig& p : run.plan.configs) {
    if (p.role != role) continue;
    if (role == core::PlannedConfig::Role::kOption &&
        (run.plan.axes[static_cast<std::size_t>(p.axis)].name != axis ||
         p.label != label))
      continue;
    return run.metrics.at(p.metric_key);
  }
  throw std::out_of_range("plan for \"" + run.plan.task +
                          "\" holds no config for axis \"" + axis +
                          "\" option \"" + label + "\"");
}

// ---------------------------------------------------------------------------
// run_standard_modes: the one mode dispatcher every table/fig bench uses
// ---------------------------------------------------------------------------

// One unit of a plan-level bench: a live task plus its SweepPlan and the
// dist-factory spec that lets a remote worker rebuild the task.
struct PlanUnit {
  util::Json task_spec;                  // dist::*_spec(...).to_json()
  core::SweepPlan plan;
  const core::EvalTask* task = nullptr;  // borrowed from `owner`
  double seed_metric = 0.0;              // training-default metric...
  bool has_seed = false;                 // ...seeded into the cache when set
  std::shared_ptr<void> owner;           // keeps the trained model alive
};

// A plan-level bench (tables 2-5, 10, fig 3): `make(i)` trains/loads unit i
// and returns it; `render(runs)` assembles and writes the final report from
// one complete (plan, metrics) pair per unit. The driver owns every mode:
// --connect, --merge, --emit-plan, --coordinate/--submit/--emit-jobs,
// --shard, and the plain local run — all byte-identical on the same plans.
struct PlanBenchDef {
  std::size_t units = 0;
  std::function<PlanUnit(std::size_t)> make;
  std::function<void(const std::vector<PlanRun>&)> render;
};

inline int run_standard_modes(const BenchCli& cli, BenchTrace& trace,
                              const PlanBenchDef& def) {
  if (cli.connecting()) return run_bench_worker(cli);
  if (cli.merging()) {
    def.render(merge_shard_files(cli, cli.merge_files));
    return 0;
  }

  core::SweepCache cache;
  core::StageStats stages;
  core::DiskStageCache disk;
  core::DiskStageCache* disk_ptr =
      disk_stage_cache_enabled() ? &disk : nullptr;
  const core::StagedExecutor staged(&stages, disk_ptr);

  std::vector<core::SweepPlan> plans;
  std::vector<PlanRun> runs;
  std::vector<dist::DistJob> jobs;
  std::vector<std::shared_ptr<void>> owners;
  for (std::size_t i = 0; i < def.units; ++i) {
    PlanUnit unit = def.make(i);
    if (cli.emit_plan) {
      plans.push_back(std::move(unit.plan));
      continue;
    }
    if (cli.dist_jobs()) {
      jobs.push_back({std::move(unit.task_spec), std::move(unit.plan)});
      continue;
    }
    if (unit.has_seed)
      cache.seed(*unit.task, SysNoiseConfig::training_default(),
                 unit.seed_metric);
    core::SweepOptions opts;
    opts.cache = &cache;
    if (cli.sharded()) {
      const core::ShardExecutor shard(staged, cli.shard_index,
                                      cli.shard_count);
      runs.push_back({unit.plan, shard.execute(*unit.task, unit.plan, opts)});
    } else {
      runs.push_back({unit.plan, staged.execute(*unit.task, unit.plan, opts)});
    }
    // The model must outlive the executor calls above; benches sharing one
    // model across units return the same owner repeatedly, which is fine.
    owners.push_back(std::move(unit.owner));
  }

  if (cli.emit_plan) {
    write_plan_file(cli, plans);
    return 0;
  }
  if (cli.dist_jobs()) {
    std::vector<core::MetricMap> results;
    if (!dist_results(cli, jobs, &results, &trace)) return 0;  // --emit-jobs
    std::vector<PlanRun> out;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      out.push_back({std::move(jobs[i].plan), std::move(results[i])});
    def.render(out);
    return 0;
  }
  print_stage_cache_stats(cli, stages, cache.hits());
  trace.finish(&stages);
  if (cli.sharded()) {
    write_shard_file(cli, runs);
    return 0;
  }
  def.render(runs);
  return 0;
}

// A row-level bench (tables 1, 6-9, figs 4-5): the unit of work is one row
// of the final table, not a SweepPlan. The driver dispatches --connect
// (bench-agnostic worker), --merge (CSV concatenation), --emit-plan (row
// work list), then slices the rows for --shard, calls `row(label)` for each
// survivor (the bench accumulates its table/CSV in the closure), and writes
// <bench>.txt/.csv (+ shard suffix) from `render()`'s {txt, csv} pair.
template <typename RowFn, typename RenderFn>
inline int run_standard_modes(const BenchCli& cli,
                              const std::vector<std::string>& labels,
                              RowFn&& row, RenderFn&& render) {
  reject_coordinate(cli);
  if (cli.connecting()) return run_bench_worker(cli);
  if (cli.merging()) {
    const std::string csv_name = cli.bench + ".csv";
    write_file(csv_name, merge_csv_files(cli.merge_files));
    std::printf("merged %zu shard CSVs into %s/%s\n", cli.merge_files.size(),
                results_dir().c_str(), csv_name.c_str());
    return 0;
  }
  if (cli.emit_plan) {
    util::Json j = util::Json::object();
    j.set("bench", cli.bench);
    j.set("kind", "rows");
    util::Json rows = util::Json::array();
    for (const std::string& label : labels) rows.push_back(label);
    j.set("rows", std::move(rows));
    std::ofstream f(cli.plan_file());
    f << j.dump(2) << "\n";
    std::printf("wrote %s (%zu rows)\n", cli.plan_file().c_str(),
                labels.size());
    return 0;
  }
  for (const std::string& label : shard_slice(labels, cli)) row(label);
  const std::pair<std::string, std::string> out = render();
  std::fputs(out.first.c_str(), stdout);
  write_file(cli.bench + ".txt" + cli.shard_suffix(), out.first);
  write_file(cli.bench + ".csv" + cli.shard_suffix(), out.second);
  return 0;
}

}  // namespace sysnoise::bench
