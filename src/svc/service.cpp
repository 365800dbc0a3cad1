#include "svc/service.h"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>

#include "dist/protocol.h"
#include "dist/scheduler.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/journal.h"
#include "tensor/backend.h"

namespace sysnoise::svc {

using dist::LeaseScheduler;
using dist::WorkUnit;
using dist::make_message;
using dist::message_type;
namespace msg = dist::msg;

namespace {

util::Json metrics_to_json(const core::MetricMap& metrics) {
  util::Json j = util::Json::object();
  for (const auto& [key, value] : metrics) j.set(key, value);
  return j;
}

// The (job, unit, metrics) triple of a shape-checked result frame.
// `metrics` points into the frame and is only valid while it lives.
struct ParsedResult {
  int job = -1;
  std::size_t unit = 0;
  const util::Json* metrics = nullptr;
};

// Returns "" and fills *out when the frame has {job, unit, metrics-object}
// with non-negative job and unit, else a diagnostic.
std::string parse_result_frame(const util::Json& m, ParsedResult* out) {
  const util::Json* jjob = m.get("job");
  const util::Json* junit = m.get("unit");
  const util::Json* jmetrics = m.get("metrics");
  if (jjob == nullptr || !jjob->is_number() || junit == nullptr ||
      !junit->is_number() || jmetrics == nullptr || !jmetrics->is_object())
    return "malformed result frame";
  const int job = jjob->as_int();
  const int unit = junit->as_int();
  if (job < 0 || unit < 0) return "result for negative job/unit";
  out->job = job;
  out->unit = static_cast<std::size_t>(unit);
  out->metrics = jmetrics;
  return "";
}

// Fold a metrics object into `merged`. Executors are bit-identical, so a
// re-reported key (a unit completed by both the original and a
// replacement worker) must agree exactly; a mismatch means
// non-determinism and must fail the job, never average out. Returns "" on
// success, else the diagnostic; on failure `merged` may hold a prefix of
// the frame's keys, which is never served because the job is failed.
std::string merge_metrics(core::MetricMap& merged, const util::Json& jmetrics) {
  for (const auto& [key, value] : jmetrics.items()) {
    if (!value.is_number()) return "non-numeric metric \"" + key + "\"";
    const auto [it, inserted] = merged.emplace(key, value.as_number());
    if (!inserted && it->second != value.as_number())
      return "workers disagree on \"" + key + "\"";
  }
  return "";
}

}  // namespace

// One submitted sweep. Unit indices are scheduler-global on the wire
// (workers echo what their lease said) but job-local in the journal, so a
// replayed journal is valid no matter how unit_base shifts across restarts
// (terminal jobs' units are still re-added, but order could drift if that
// ever changes).
struct JobState {
  int id = 0;
  std::string name;
  int priority = 0;
  util::Json task_spec;
  core::SweepPlan plan;

  std::size_t unit_base = 0;  // scheduler index of this job's first unit
  std::vector<bool> unit_done;
  std::vector<std::size_t> unit_configs;  // config count per local unit
  std::size_t units_done = 0;
  std::size_t configs_total = 0;
  std::size_t configs_done = 0;
  core::MetricMap merged;
  bool canceled = false;
  std::string error;  // non-empty = failed (e.g. workers disagreed)
  bool started = false;  // first lease granted (the job_started event)
  std::chrono::steady_clock::time_point registered_at{};

  std::size_t unit_count() const { return unit_done.size(); }
  bool terminal() const {
    return canceled || !error.empty() || units_done == unit_count();
  }
  const char* state() const {
    if (canceled) return "canceled";
    if (!error.empty()) return "failed";
    if (units_done == unit_count()) return "done";
    return units_done > 0 ? "running" : "queued";
  }
};

struct SweepService::Impl {
  ServiceOptions opts;
  net::TcpListener listener;
  std::unique_ptr<Journal> journal;  // null = volatile service
  std::unique_ptr<LeaseScheduler> scheduler;
  std::unique_ptr<obs::EventLog> events;  // no-op when opts.event_sink null
  // Serving a fixed job list (the in-process constructor): answer `done`
  // rather than `wait` once the queue has drained.
  bool fixed_jobs = false;

  mutable std::mutex mu;  // jobs, next_job_id, roster, idem_to_job, worker_obs
  std::map<int, JobState> jobs;
  int next_job_id = 1;
  std::map<int, std::string> roster;  // worker id -> peer "ip:port"
  // Latest cumulative obs::metrics snapshot per worker, from result frames.
  std::map<int, util::Json> worker_obs;
  // Submit idempotency keys -> job ids, rebuilt from the journal on replay:
  // a client retrying a submit whose reply was lost (even to a crash) gets
  // the job the first attempt registered instead of a duplicate sweep.
  std::map<std::string, int> idem_to_job;

  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  std::atomic<bool> crashed{false};
  std::atomic<int> next_worker_id{0};
  std::atomic<std::size_t> workers_joined{0};
  std::atomic<std::size_t> workers_active{0};
  std::atomic<std::size_t> results_received{0};
  std::atomic<std::size_t> auth_rejections{0};
  std::atomic<std::size_t> worker_errors{0};
  std::size_t results_replayed = 0;  // written once before serving starts

  std::mutex conns_mu;
  std::set<int> conns;
  std::atomic<int> active_handlers{0};
  std::thread accept_thread;
  // Handler threads, touched only by the accept loop and stop() (which runs
  // after the accept loop is joined). A finished handler flips its `done`
  // flag and is joined by the accept loop's next pass — a resident service
  // must not accumulate one dead std::thread per connection it ever served.
  struct Handler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Handler> handlers;

  void log(const char* fmt, ...) const;
  void start(net::TcpListener bound, const std::vector<dist::DistJob>& fixed);
  void replay();
  int register_job(std::string name, int priority, util::Json task_spec,
                   core::SweepPlan plan, int forced_id, bool journal_it,
                   const std::string& idem);
  void crash_now();
  util::Json status_json() const;
  util::Json job_result_json(const JobState& job) const;
  util::Json progress_json(const JobState& job) const;

  void accept_loop();
  void reap_handlers();
  void handle(net::TcpSocket sock);
  void serve_worker(net::TcpSocket& sock, const util::Json& hello);
  void serve_control(net::TcpSocket& sock, const util::Json& request);
  // Returns false when the connection must be dropped (protocol/merge
  // failure already reported, or the crash hook fired mid-result).
  bool handle_result(const util::Json& m, int worker_id);
};

void SweepService::Impl::log(const char* fmt, ...) const {
  if (!opts.verbose) return;
  va_list args;
  va_start(args, fmt);
  std::printf("[svc] ");
  std::vprintf(fmt, args);
  std::printf("\n");
  std::fflush(stdout);
  va_end(args);
}

// Register a job (fresh submission or journal replay) and put its units on
// offer. Caller must NOT hold mu.
int SweepService::Impl::register_job(std::string name, int priority,
                                     util::Json task_spec, core::SweepPlan plan,
                                     int forced_id, bool journal_it,
                                     const std::string& idem) {
  core::WorkUnitOptions unit_opts;
  unit_opts.merge_batch_compatible = true;
  std::vector<std::vector<std::size_t>> groups =
      core::plan_work_units(plan, unit_opts);

  std::lock_guard<std::mutex> lock(mu);
  if (!idem.empty()) {
    const auto dup = idem_to_job.find(idem);
    if (dup != idem_to_job.end()) {
      // A retried submit whose original reply was lost: hand back the job
      // the first attempt registered instead of starting a duplicate sweep.
      log("submit with known idempotency key \"%s\" -> existing job %d",
          idem.c_str(), dup->second);
      return dup->second;
    }
  }
  const int id = forced_id > 0 ? forced_id : next_job_id;
  next_job_id = std::max(next_job_id, id + 1);

  // Journal the submission BEFORE it becomes leasable: once a client sees
  // `submitted`, a restart must still know the job.
  if (journal_it && journal != nullptr) {
    util::Json rec = Journal::make_record(rec::kSubmit);
    rec.set("job", id);
    rec.set("name", name);
    rec.set("priority", priority);
    if (!idem.empty()) rec.set("idem", idem);
    rec.set("task", task_spec);
    rec.set("plan", plan.to_json());
    journal->append(rec);
  }
  if (!idem.empty()) idem_to_job[idem] = id;

  JobState job;
  job.id = id;
  job.name = std::move(name);
  job.priority = priority;
  job.task_spec = std::move(task_spec);
  job.plan = std::move(plan);
  job.configs_total = job.plan.configs.size();
  job.unit_done.assign(groups.size(), false);
  job.unit_configs.reserve(groups.size());
  for (const std::vector<std::size_t>& group : groups)
    job.unit_configs.push_back(group.size());

  std::vector<WorkUnit> units;
  units.reserve(groups.size());
  for (std::vector<std::size_t>& group : groups)
    units.push_back({id, std::move(group), priority});
  job.unit_base = scheduler->add_units(std::move(units));

  log("job %d \"%s\" registered: %zu units, %zu configs, priority %d", id,
      job.name.c_str(), job.unit_count(), job.configs_total, priority);
  {
    util::Json fields = util::Json::object();
    fields.set("job", id);
    fields.set("name", job.name);
    fields.set("units", job.unit_count());
    fields.set("configs", job.configs_total);
    fields.set("priority", priority);
    if (!journal_it) fields.set("replayed", true);
    events->emit("job_submitted", std::move(fields));
  }
  job.registered_at = std::chrono::steady_clock::now();
  jobs.emplace(id, std::move(job));
  return id;
}

void SweepService::Impl::replay() {
  const ReplayResult rr = Journal::replay(opts.journal_path);
  for (const util::Json& record : rr.records) {
    const util::Json* recp = record.get("rec");
    const std::string rec =
        recp != nullptr && recp->is_string() ? recp->as_string() : "";
    if (rec == rec::kSubmit) {
      const util::Json* idem = record.get("idem");
      register_job(record.at("name").as_string(),
                   record.at("priority").as_int(), record.at("task"),
                   core::SweepPlan::from_json(record.at("plan")),
                   record.at("job").as_int(), /*journal_it=*/false,
                   idem != nullptr && idem->is_string() ? idem->as_string()
                                                        : "");
    } else if (rec == rec::kLease) {
      // Lease grants are observability-only; the units they name are either
      // re-leased (no result record followed) or covered by one.
    } else if (rec == rec::kResult || rec == rec::kCancel) {
      const int id = record.at("job").as_int();
      std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(id);
      if (it == jobs.end())
        throw std::runtime_error("SweepService: journal " + opts.journal_path +
                                 " references unknown job " +
                                 std::to_string(id));
      JobState& job = it->second;
      if (rec == rec::kCancel) {
        job.canceled = true;
        scheduler->drop_job(id);
        continue;
      }
      const std::size_t local =
          static_cast<std::size_t>(record.at("unit").as_int());
      if (local >= job.unit_count())
        throw std::runtime_error("SweepService: journal " + opts.journal_path +
                                 " has out-of-range unit for job " +
                                 std::to_string(id));
      if (job.unit_done[local]) continue;  // duplicate record: idempotent
      const std::string merge_error =
          merge_metrics(job.merged, record.at("metrics"));
      if (!merge_error.empty())
        throw std::runtime_error(
            "SweepService: journal replay of job " + std::to_string(id) +
            " failed: " + merge_error);
      scheduler->complete(job.unit_base + local);
      job.unit_done[local] = true;
      ++job.units_done;
      job.configs_done += job.unit_configs[local];
      ++results_replayed;
    } else {
      throw std::runtime_error("SweepService: journal " + opts.journal_path +
                               " has unknown record type \"" + rec + "\"");
    }
  }
  std::lock_guard<std::mutex> lock(mu);
  log("replayed %zu journal records: %zu jobs, %zu completed units%s",
      rr.records.size(), jobs.size(), results_replayed,
      rr.dropped_torn_tail ? " (dropped torn tail)" : "");
}

// The kill -9 stand-in: everything already journaled stays, everything else
// — in-flight results, attached workers, pending replies — is dropped on
// the floor with no goodbye of any kind.
void SweepService::Impl::crash_now() {
  crashed.store(true);
  // The accept thread owns the listener fd and closes it on its way out
  // (within one 100 ms poll tick of seeing `stopping`): closing it from
  // this thread would race the accept loop's concurrent poll/accept.
  stopping.store(true);
  std::lock_guard<std::mutex> lock(conns_mu);
  for (const int fd : conns) ::shutdown(fd, SHUT_RDWR);
  log("crash hook fired: dropped %zu connections", conns.size());
}

util::Json SweepService::Impl::progress_json(const JobState& job) const {
  util::Json j = make_message(msg::kProgress);
  j.set("job", job.id);
  j.set("name", job.name);
  j.set("state", job.state());
  j.set("units_done", job.units_done);
  j.set("units_total", job.unit_count());
  j.set("configs_done", job.configs_done);
  j.set("configs_total", job.configs_total);
  return j;
}

util::Json SweepService::Impl::job_result_json(const JobState& job) const {
  util::Json j = make_message(msg::kJobResult);
  j.set("job", job.id);
  j.set("state", job.state());
  if (!job.error.empty()) j.set("error", job.error);
  if (job.terminal() && job.error.empty() && !job.canceled)
    j.set("metrics", metrics_to_json(job.merged));
  return j;
}

util::Json SweepService::Impl::status_json() const {
  util::Json j = make_message(msg::kStatusReport);
  j.set("queue_depth", scheduler->remaining());
  // Runtime fingerprint of the machine the service computes on: which SIMD
  // ISA the kSimd backend dispatches to, how many hardware threads exist,
  // and the process-default compute backend — so `sysnoise_ctl status`
  // answers "what will these jobs actually run on" without a shell on the
  // box.
  util::Json runtime = util::Json::object();
  runtime.set("simd_isa", simd_isa_name());
  runtime.set("hardware_threads",
              static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  runtime.set("default_backend", backend_name(default_backend()));
  j.set("runtime", std::move(runtime));
  // Observability state, so `sysnoise_ctl status` answers "is this service
  // tracing, and what has it measured" without a shell on the box. The
  // metrics snapshot is only attached while tracing to keep the common
  // status reply small.
  util::Json obs_section = util::Json::object();
  obs_section.set("tracing", obs::trace_enabled());
  obs_section.set("events_emitted", events->events_emitted());
  if (obs::trace_enabled()) obs_section.set("metrics", obs::metrics().snapshot());
  j.set("obs", std::move(obs_section));
  std::lock_guard<std::mutex> lock(mu);
  util::Json workers = util::Json::object();
  workers.set("joined", workers_joined.load());
  workers.set("active", workers_active.load());
  util::Json peers = util::Json::array();
  for (const auto& [id, peer] : roster) {
    util::Json w = util::Json::object();
    w.set("worker", id);
    w.set("peer", peer);
    peers.push_back(std::move(w));
  }
  workers.set("peers", std::move(peers));
  j.set("workers", std::move(workers));
  util::Json jjobs = util::Json::array();
  for (const auto& [id, job] : jobs) {
    util::Json jj = util::Json::object();
    jj.set("job", id);
    jj.set("name", job.name);
    jj.set("priority", job.priority);
    jj.set("state", job.state());
    jj.set("units_done", job.units_done);
    jj.set("units_total", job.unit_count());
    jj.set("configs_done", job.configs_done);
    jj.set("configs_total", job.configs_total);
    jjobs.push_back(std::move(jj));
  }
  j.set("jobs", std::move(jjobs));
  return j;
}

bool SweepService::Impl::handle_result(const util::Json& m, int worker_id) {
  ParsedResult parsed;
  std::string error = parse_result_frame(m, &parsed);
  {
    std::lock_guard<std::mutex> lock(mu);
    JobState* job = nullptr;
    if (error.empty()) {
      const auto it = jobs.find(parsed.job);
      if (it == jobs.end() ||
          parsed.unit < it->second.unit_base ||
          parsed.unit >= it->second.unit_base + it->second.unit_count())
        error = "result for unknown job/unit";
      else
        job = &it->second;
    }
    if (error.empty())
      if (const util::Json* snap = m.get("obs"))
        worker_obs[worker_id] = *snap;  // cumulative: latest wins
    if (error.empty() && job->canceled) {
      // The job was canceled while this worker was evaluating: accept the
      // frame politely (the worker did nothing wrong) and drop the result.
      log("dropping result for canceled job %d from worker %d", parsed.job,
          worker_id);
      return true;
    }
    if (error.empty()) {
      const std::string merge_error =
          merge_metrics(job->merged, *parsed.metrics);
      if (!merge_error.empty()) {
        // Bit-exactness violation: fail THIS JOB loudly (the merged map is
        // poisoned) but keep serving the others.
        job->error = merge_error;
        scheduler->drop_job(job->id);
        error = merge_error;
        util::Json fields = util::Json::object();
        fields.set("job", job->id);
        fields.set("error", merge_error);
        events->emit("job_failed", std::move(fields));
      }
    }
    if (!error.empty()) {
      log("result from worker %d rejected: %s", worker_id, error.c_str());
      return false;
    }
    if (scheduler->complete(parsed.unit)) {
      const std::size_t local = parsed.unit - job->unit_base;
      if (journal != nullptr) {
        util::Json rec = Journal::make_record(rec::kResult);
        rec.set("job", job->id);
        rec.set("unit", local);
        rec.set("metrics", *parsed.metrics);
        journal->append(rec);  // fsync'd: the resume contract depends on it
      }
      job->unit_done[local] = true;
      ++job->units_done;
      job->configs_done += job->unit_configs[local];
      results_received.fetch_add(1);
      log("result job=%d unit=%zu from worker %d (%zu/%zu units)", job->id,
          parsed.unit, worker_id, job->units_done, job->unit_count());
      if (job->units_done == job->unit_count()) {
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - job->registered_at)
                .count();
        if (obs::trace_enabled())
          obs::metrics().gauge_add("svc.job_wall_ms", wall_ms);
        util::Json fields = util::Json::object();
        fields.set("job", job->id);
        fields.set("units", job->unit_count());
        fields.set("configs", job->configs_total);
        fields.set("wall_ms", wall_ms);
        events->emit("job_done", std::move(fields));
      }
    } else {
      log("duplicate result job=%d unit=%zu from worker %d", parsed.job,
          parsed.unit, worker_id);
    }
  }
  if (opts.crash_after_results >= 0 && !crashed.load() &&
      results_received.load() >=
          static_cast<std::size_t>(opts.crash_after_results)) {
    crash_now();
    return false;  // no ok reply: the worker never learns we took it
  }
  return true;
}

void SweepService::Impl::serve_worker(net::TcpSocket& sock,
                                      const util::Json& hello) {
  using Clock = LeaseScheduler::Clock;
  const std::string hello_error = dist::check_hello(hello, opts.auth_token);
  if (!hello_error.empty()) {
    if (hello_error.find("auth rejected") != std::string::npos)
      auth_rejections.fetch_add(1);
    else
      worker_errors.fetch_add(1);
    std::fprintf(stderr, "[svc] rejected worker %s: %s\n",
                 sock.peer().c_str(), hello_error.c_str());
    util::Json err = make_message(msg::kError);
    err.set("message", hello_error);
    net::send_json(sock, err);
    return;
  }
  const int worker_id = next_worker_id.fetch_add(1);
  workers_joined.fetch_add(1);
  workers_active.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(mu);
    roster[worker_id] = sock.peer();
  }
  log("worker %d joined from %s", worker_id, sock.peer().c_str());
  {
    util::Json fields = util::Json::object();
    fields.set("worker", worker_id);
    fields.set("peer", sock.peer());
    events->emit("worker_join", std::move(fields));
  }
  if (obs::trace_enabled()) obs::metrics().counter_add("svc.workers_joined");

  // The welcome carries no jobs: workers fetch each one on demand via
  // job_request when a lease first names it.
  util::Json welcome = make_message(msg::kWelcome);
  welcome.set("protocol", dist::kProtocolVersion);
  welcome.set("heartbeat_ms",
              static_cast<int>(opts.heartbeat_interval.count()));

  const int wait_ms = static_cast<int>(opts.heartbeat_interval.count());
  util::Json m;
  if (net::send_json(sock, welcome)) {
    while (true) {
      if (!net::recv_json(sock, &m)) break;
      const std::string type = message_type(m);
      if (type == msg::kLeaseRequest) {
        util::Json reply;
        if (stopping.load()) {
          net::send_json(sock, make_message(msg::kDone));
          break;
        }
        if (obs::trace_enabled())
          obs::metrics().gauge_add(
              "svc.queue_depth", static_cast<double>(scheduler->remaining()));
        std::optional<std::size_t> unit;
        // The join gate: hold every lease until min_workers ever joined.
        if (workers_joined.load() >= static_cast<std::size_t>(opts.min_workers))
          unit = scheduler->acquire(worker_id, Clock::now());
        if (unit.has_value()) {
          // Copy, not a reference: a concurrent submit's add_units may
          // reallocate the scheduler's unit vector while we read.
          const WorkUnit wu = scheduler->unit_at(*unit);
          reply = make_message(msg::kLease);
          reply.set("job", wu.job);
          reply.set("unit", static_cast<int>(*unit));
          util::Json configs = util::Json::array();
          for (const std::size_t c : wu.configs)
            configs.push_back(static_cast<int>(c));
          reply.set("configs", std::move(configs));
          // Correlates with the worker's "worker.lease" span by lease id.
          obs::TraceSpan grant_span("svc.lease_grant");
          if (grant_span.active()) {
            grant_span.attr("lease", "j" + std::to_string(wu.job) + "u" +
                                         std::to_string(*unit));
            grant_span.attr("worker", worker_id);
            grant_span.attr("configs", wu.configs.size());
          }
          std::lock_guard<std::mutex> lock(mu);
          const auto it = jobs.find(wu.job);
          if (it != jobs.end() && !it->second.started) {
            it->second.started = true;
            util::Json fields = util::Json::object();
            fields.set("job", wu.job);
            fields.set("worker", worker_id);
            events->emit("job_started", std::move(fields));
          }
          log("lease unit %zu (job %d, %zu configs) -> worker %d", *unit,
              wu.job, wu.configs.size(), worker_id);
          if (journal != nullptr && it != jobs.end()) {
            util::Json rec = Journal::make_record(rec::kLease);
            rec.set("job", wu.job);
            rec.set("unit", *unit - it->second.unit_base);
            rec.set("worker", worker_id);
            // Observability-only (priority-order audits, post-mortems):
            // losing a grant to a crash costs nothing, so skip the fsync.
            journal->append(rec, /*sync=*/false);
          }
        } else if (fixed_jobs && scheduler->all_done()) {
          // The fixed job list is finished: answer done and hang up —
          // waiting for the worker's close would race stop()'s nudge.
          net::send_json(sock, make_message(msg::kDone));
          break;
        } else {
          // A drained queue is NOT "done" for a resident service — the next
          // submission may be seconds away. Workers idle on wait forever.
          reply = make_message(msg::kWait);
          reply.set("ms", wait_ms);
        }
        if (!net::send_json(sock, reply)) break;
      } else if (type == msg::kHeartbeat) {
        scheduler->heartbeat(worker_id, Clock::now());
        if (!net::send_json(sock, make_message(msg::kOk))) break;
      } else if (type == msg::kResult) {
        if (!handle_result(m, worker_id)) {
          if (!crashed.load()) {
            worker_errors.fetch_add(1);
            util::Json err = make_message(msg::kError);
            err.set("message", "result rejected");
            net::send_json(sock, err);
          }
          break;
        }
        if (!net::send_json(sock, make_message(msg::kOk))) break;
      } else if (type == msg::kJobRequest) {
        util::Json reply;
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto it = jobs.find(m.at("job").as_int());
          if (it == jobs.end()) {
            reply = make_message(msg::kError);
            reply.set("message", "unknown job");
          } else {
            reply = make_message(msg::kJobInfo);
            reply.set("job", it->second.id);
            reply.set("task", it->second.task_spec);
            reply.set("plan", it->second.plan.to_json());
          }
        }
        if (!net::send_json(sock, reply)) break;
      } else if (type == msg::kError) {
        const util::Json* message = m.get("message");
        log("worker %d error: %s", worker_id,
            message != nullptr ? message->as_string().c_str() : "?");
        worker_errors.fetch_add(1);
        break;
      } else {
        worker_errors.fetch_add(1);
        break;  // protocol violation
      }
    }
  }
  scheduler->release_worker(worker_id);
  workers_active.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(mu);
    roster.erase(worker_id);
  }
  log("worker %d left", worker_id);
  {
    util::Json fields = util::Json::object();
    fields.set("worker", worker_id);
    events->emit("worker_leave", std::move(fields));
  }
}

void SweepService::Impl::serve_control(net::TcpSocket& sock,
                                       const util::Json& request) {
  const std::string type = message_type(request);
  auto reply_error = [&](const std::string& message) {
    util::Json err = make_message(msg::kError);
    err.set("message", message);
    net::send_json(sock, err);
  };

  if (!opts.auth_token.empty()) {
    const util::Json* token = request.get("token");
    if (token == nullptr || !token->is_string() ||
        token->as_string() != opts.auth_token) {
      auth_rejections.fetch_add(1);
      std::fprintf(stderr,
                   "[svc] rejected control request \"%s\" from %s: bad or "
                   "missing token\n",
                   type.c_str(), sock.peer().c_str());
      reply_error("auth rejected: bad or missing token");
      return;
    }
  }

  if (type == msg::kSubmit) {
    int id = -1;
    try {
      const util::Json* name = request.get("name");
      const util::Json* priority = request.get("priority");
      const util::Json* idem = request.get("idem");
      id = register_job(
          name != nullptr && name->is_string() ? name->as_string() : "",
          priority != nullptr && priority->is_number() ? priority->as_int()
                                                       : 0,
          request.at("task"), core::SweepPlan::from_json(request.at("plan")),
          /*forced_id=*/0, /*journal_it=*/true,
          idem != nullptr && idem->is_string() ? idem->as_string() : "");
    } catch (const std::exception& e) {
      // A malformed plan must come back as a diagnostic, not a dropped
      // connection the client would pointlessly retry.
      reply_error(std::string("submit rejected: ") + e.what());
      return;
    }
    util::Json reply = make_message(msg::kSubmitted);
    reply.set("job", id);
    net::send_json(sock, reply);
  } else if (type == msg::kCancel) {
    const int id = request.at("job").as_int();
    std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
      reply_error("unknown job " + std::to_string(id));
      return;
    }
    if (it->second.terminal()) {
      reply_error("job " + std::to_string(id) + " already " +
                  it->second.state());
      return;
    }
    if (journal != nullptr) {
      util::Json rec = Journal::make_record(rec::kCancel);
      rec.set("job", id);
      journal->append(rec);
    }
    it->second.canceled = true;
    scheduler->drop_job(id);
    log("job %d canceled", id);
    {
      util::Json fields = util::Json::object();
      fields.set("job", id);
      events->emit("job_canceled", std::move(fields));
    }
    net::send_json(sock, make_message(msg::kOk));
  } else if (type == msg::kStatus) {
    net::send_json(sock, status_json());
  } else if (type == msg::kFetch) {
    const int id = request.at("job").as_int();
    std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    if (it == jobs.end())
      reply_error("unknown job " + std::to_string(id));
    else
      net::send_json(sock, job_result_json(it->second));
  } else if (type == msg::kWatch) {
    const int id = request.at("job").as_int();
    // Re-send the current frame at least every kKeepaliveTicks sleeps even
    // when nothing changed: the keepalive is what detects a dead watcher of
    // a stalled job (a send into a reset connection fails) so its handler
    // thread and fd are reclaimed long before stop(), and it keeps a live
    // watcher's ride-out deadline fresh while a job waits for workers.
    constexpr int kKeepaliveTicks = 20;  // x 50 ms sleep = 1 s
    std::string last_sent;
    int ticks_since_send = 0;
    while (!stopping.load()) {
      util::Json frame;
      bool terminal = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = jobs.find(id);
        if (it == jobs.end()) {
          reply_error("unknown job " + std::to_string(id));
          return;
        }
        terminal = it->second.terminal();
        frame = terminal ? job_result_json(it->second)
                         : progress_json(it->second);
      }
      const std::string bytes = frame.dump();
      if (bytes != last_sent || ++ticks_since_send >= kKeepaliveTicks) {
        if (!net::send_json(sock, frame)) return;
        last_sent = bytes;
        ticks_since_send = 0;
      }
      if (terminal) return;
      // Watchers never speak again after the request, so a readable socket
      // is an EOF/reset (or protocol garbage) — the watcher is gone.
      struct pollfd pfd = {sock.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 0) > 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  } else {
    reply_error("unknown request \"" + type + "\"");
  }
}

void SweepService::Impl::handle(net::TcpSocket sock) {
  const int recv_timeout_ms = static_cast<int>(
      std::max<std::int64_t>(opts.lease_timeout.count() * 2, 1000));
  sock.set_recv_timeout_ms(recv_timeout_ms);

  active_handlers.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    conns.insert(sock.fd());
  }
  struct ConnGuard {
    Impl* im;
    int fd;
    ~ConnGuard() {
      {
        std::lock_guard<std::mutex> lock(im->conns_mu);
        im->conns.erase(fd);
      }
      im->active_handlers.fetch_sub(1);
    }
  } guard{this, sock.fd()};

  // Peers are untrusted: recv_json throws on a length-valid non-JSON frame
  // and field accessors throw on shape violations. An escaped exception in
  // a handler thread would take down the whole service — contain them here.
  try {
    util::Json first;
    if (!net::recv_json(sock, &first)) return;
    if (message_type(first) == msg::kHello)
      serve_worker(sock, first);
    else
      serve_control(sock, first);
  } catch (const std::exception& e) {
    worker_errors.fetch_add(1);
    log("connection error: %s", e.what());
  }
}

// Join handler threads whose handler already returned (their `done` flag is
// up, so the join is immediate). Runs on every accept pass — including the
// 100 ms accept timeouts — so an idle service carries no thread backlog.
void SweepService::Impl::reap_handlers() {
  for (auto it = handlers.begin(); it != handlers.end();) {
    if (it->done->load()) {
      it->thread.join();
      it = handlers.erase(it);
    } else {
      ++it;
    }
  }
}

void SweepService::Impl::accept_loop() {
  while (!stopping.load()) {
    net::TcpSocket sock = listener.accept(100);
    reap_handlers();
    if (stopping.load()) break;  // raced with stop/crash: drop sock unserved
    if (!sock.valid()) continue;
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread(
        [this, done](net::TcpSocket s) {
          handle(std::move(s));
          done->store(true);
        },
        std::move(sock));
    handlers.push_back({std::move(thread), std::move(done)});
  }
  // This thread owns the listener: stop()/crash_now() never touch it, they
  // only raise `stopping`, so the close cannot race a concurrent accept.
  listener.close();
}

// Shared constructor body: replay the journal, bind unless handed a bound
// listener, register the fixed jobs, and only then start accepting — so
// no worker can find the queue empty before they are on offer.
void SweepService::Impl::start(net::TcpListener bound,
                               const std::vector<dist::DistJob>& fixed) {
  events = std::make_unique<obs::EventLog>(opts.event_sink);
  scheduler = std::make_unique<LeaseScheduler>(std::vector<WorkUnit>{},
                                               opts.lease_timeout);
  scheduler->set_on_expire([this](std::size_t unit, int job, int worker) {
    util::Json fields = util::Json::object();
    fields.set("job", job);
    fields.set("unit", static_cast<int>(unit));
    fields.set("worker", worker);
    events->emit("lease_expired", std::move(fields));
  });
  if (!opts.journal_path.empty()) {
    replay();  // resume everything the previous incarnation recorded
    journal = std::make_unique<Journal>(opts.journal_path);
  }
  listener = bound.valid() ? std::move(bound)
                           : net::TcpListener::listen(opts.port);
  for (const dist::DistJob& job : fixed)
    register_job(job.plan.task, 0, job.task_spec, job.plan, /*forced_id=*/0,
                 /*journal_it=*/true, "");
  log("serving on port %d (journal: %s)", listener.port(),
      opts.journal_path.empty() ? "none" : opts.journal_path.c_str());
  accept_thread = std::thread([this] { accept_loop(); });
}

SweepService::SweepService(ServiceOptions opts) : impl_(new Impl) {
  impl_->opts = std::move(opts);
  impl_->start(net::TcpListener(), {});
}

SweepService::SweepService(ServiceOptions opts, net::TcpListener listener,
                           const std::vector<dist::DistJob>& jobs)
    : impl_(new Impl) {
  impl_->opts = std::move(opts);
  impl_->fixed_jobs = true;
  impl_->start(std::move(listener), jobs);
}

SweepService::~SweepService() { stop(); }

int SweepService::port() const { return impl_->listener.port(); }

void SweepService::stop() {
  Impl& im = *impl_;
  if (im.stopped.exchange(true)) return;
  im.stopping.store(true);
  // The accept loop notices `stopping` within one 100 ms poll tick, closes
  // the listener (it owns the fd — see accept_loop) and exits.
  if (im.accept_thread.joinable()) im.accept_thread.join();
  // Attached workers get `done` on their next request (at most a heartbeat
  // interval away); give them that window, then nudge whatever is left off
  // its blocking recv. A crash_now() skipped the courtesy on purpose.
  if (!im.crashed.load()) {
    const auto grace_deadline =
        std::chrono::steady_clock::now() +
        std::max<std::chrono::milliseconds>(3 * im.opts.heartbeat_interval,
                                            std::chrono::milliseconds(500));
    while (im.active_handlers.load() > 0 &&
           std::chrono::steady_clock::now() < grace_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    for (const int fd : im.conns) ::shutdown(fd, SHUT_RDWR);
  }
  for (Impl::Handler& h : im.handlers) h.thread.join();
  im.handlers.clear();
}

util::Json SweepService::status() const { return impl_->status_json(); }

bool SweepService::wait_idle(std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      bool idle = true;
      for (const auto& [id, job] : impl_->jobs)
        if (!job.terminal()) idle = false;
      if (idle) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

ServiceStats SweepService::stats() const {
  ServiceStats s;
  s.scheduler = impl_->scheduler->stats();
  s.workers_joined = impl_->workers_joined.load();
  s.workers_active = impl_->workers_active.load();
  s.results_received = impl_->results_received.load();
  s.results_replayed = impl_->results_replayed;
  s.auth_rejections = impl_->auth_rejections.load();
  s.worker_errors = impl_->worker_errors.load();
  s.handlers_live = static_cast<std::size_t>(impl_->active_handlers.load());
  s.crash_hook_fired = impl_->crashed.load();
  return s;
}

core::MetricMap SweepService::result(int job) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(job);
  if (it == impl_->jobs.end())
    throw std::runtime_error("unknown job " + std::to_string(job));
  const JobState& state = it->second;
  if (!state.error.empty()) throw std::runtime_error(state.error);
  if (!state.terminal() || state.canceled)
    throw std::runtime_error("job " + std::to_string(job) + " is " +
                             state.state());
  // Unit coverage is guaranteed; check the metrics cover the plan too, so
  // a worker reporting the wrong keys cannot make assembly throw later.
  for (const core::PlannedConfig& p : state.plan.configs)
    if (state.merged.find(p.metric_key) == state.merged.end())
      throw std::runtime_error("completed job left no metric for \"" +
                               p.metric_key + "\"");
  return state.merged;
}

util::Json SweepService::worker_metrics() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  util::Json merged = util::Json::object();
  bool first = true;
  for (const auto& [id, snap] : impl_->worker_obs) {
    merged = first ? snap : obs::merge_snapshots(merged, snap);
    first = false;
  }
  return merged;
}

}  // namespace sysnoise::svc
