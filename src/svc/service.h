// The sweep service: the one lease server of the distributed runtime. It
// accepts serialized SweepPlans over the wire for as long as it lives,
// queues them with priorities, leases their work units to authenticated
// workers through the LeaseScheduler policy, and merges the streamed
// results per job, failing a job loudly when two workers disagree
// bit-exactly on a metric. With a journal (svc/journal.h) it records every
// submission, lease grant and completed unit result, so a service killed
// at any instant replays its journal on restart and resumes every
// in-flight sweep without re-running completed units, producing merged
// results bit-identical to an uninterrupted run. Without one
// (journal_path "") it is volatile; dist::Coordinator embeds such a
// service in-process to serve one fixed job list.
//
// One TCP listener serves both planes (dist/protocol.h vocabulary):
// workers introduce themselves with hello and speak the
// lease/heartbeat/result loop, fetching each job's spec with job_request;
// control clients (svc/client.h, sysnoise_ctl) send
// submit/cancel/status/fetch/watch requests. When the service was started
// with an auth token, both planes must present it and are rejected loudly
// otherwise.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/plan.h"
#include "dist/protocol.h"
#include "dist/scheduler.h"
#include "net/socket.h"
#include "util/json.h"

namespace sysnoise::svc {

struct ServiceOptions {
  int port = 0;              // 0 = ephemeral; port() reports the actual one
  std::string journal_path;  // "" = volatile (no persistence, no resume)
  std::string auth_token;    // "" = open; else hello/control token required
  std::chrono::milliseconds lease_timeout{10000};
  std::chrono::milliseconds heartbeat_interval{1000};
  bool verbose = false;
  // Answer lease requests with `wait` until this many workers have ever
  // joined, so a sweep does not start on the first worker to arrive.
  int min_workers = 1;
  // Read by dist::Coordinator, not the service: fail its run() when
  // min_workers have not joined within this many seconds. 0 waits forever.
  int min_workers_timeout_s = 0;
  // Fault-injection hook for tests: after journaling this many unit
  // results, drop every connection and stop serving WITHOUT any graceful
  // drain — the in-process stand-in for kill -9 at a chosen journal
  // position. -1 = never.
  int crash_after_results = -1;
  // Structured one-line JSON event stream (obs/event_log.h): job
  // submitted/started/done, worker join/leave, lease expiry — each line
  // carries a monotonic "seq". null = no events (the library default;
  // sysnoise_svc points it at stderr). Not owned.
  std::FILE* event_sink = nullptr;
};

struct ServiceStats {
  dist::SchedulerStats scheduler;
  std::size_t workers_joined = 0;   // ever, across the service lifetime
  std::size_t workers_active = 0;
  std::size_t results_received = 0; // this process (replayed ones excluded)
  std::size_t results_replayed = 0; // units restored from the journal
  std::size_t auth_rejections = 0;
  std::size_t worker_errors = 0;
  std::size_t handlers_live = 0;  // connection handlers currently running
  bool crash_hook_fired = false;
};

class SweepService {
 public:
  // Binds the listener (so port() is valid), replays the journal when one
  // is configured — throwing on corruption — and starts serving. stop()
  // (or destruction) shuts down gracefully: attached workers get `done` on
  // their next request, queued work stays in the journal for the next
  // incarnation.
  explicit SweepService(ServiceOptions opts);
  // Serve on an already-bound listener, with `jobs` registered as jobs
  // 1..N before the first connection is accepted. Such a service serves
  // that fixed list: once every job is terminal it answers lease requests
  // with `done` instead of `wait`, so workers leave without idling.
  SweepService(ServiceOptions opts, net::TcpListener listener,
               const std::vector<dist::DistJob>& jobs);
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  int port() const;

  // Stop accepting and close every connection; idempotent. Returns once all
  // handler threads have exited.
  void stop();

  // The status document served to `status` requests: per-job progress,
  // worker roster, queue depth.
  util::Json status() const;

  // Block until every submitted job is terminal (done/canceled/failed);
  // false when `timeout` elapses first.
  bool wait_idle(std::chrono::milliseconds timeout) const;

  ServiceStats stats() const;

  // The merged metrics of a done job. Throws std::runtime_error with the
  // job's error when it failed, and when it is unknown, not done, or its
  // merged metrics miss a planned config.
  core::MetricMap result(int job) const;

  // Merged cumulative obs::metrics snapshots the workers shipped with their
  // result frames (only while tracing; {} otherwise). Kept apart from this
  // process's registry, so per-process metrics files sum without double
  // counting.
  util::Json worker_metrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sysnoise::svc
