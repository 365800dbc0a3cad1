// The worker half of the distributed sweep runtime: connect to a sweep
// service (resident, or embedded behind dist::Coordinator), pull leases
// until the server says done, and fetch each job's task spec and plan with
// job_request the first time a lease names it. Each lease (a stage-key
// work unit: plan config indices) is evaluated through the existing
// StagedExecutor — optionally backed by the shared disk StageCache, so
// workers on one machine (or one shared filesystem) reuse each other's
// pre-processed batches and forward products — while a background
// heartbeat keeps the lease alive.
//
// Task resolution is pluggable so the runtime stays model-agnostic: the
// worker binary and bench `--connect` mode resolve zoo models
// (dist/task_factory.h), tests resolve in-process synthetic tasks.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "core/disk_stage_cache.h"
#include "core/plan.h"
#include "core/staged_eval.h"
#include "util/json.h"

namespace sysnoise::dist {

// A resolved task spec: the live task plus the SweepCache entries to
// preload (the zoo's trained-baseline metric, mirroring the seeding of the
// single-process benches, so reports stay bit-identical without the worker
// re-evaluating the baseline). `owner` keeps whatever the task borrows
// (trained models, datasets) alive for the worker's lifetime.
struct ResolvedWorkerTask {
  const core::EvalTask* task = nullptr;
  core::MetricMap seeds;
  std::shared_ptr<void> owner;
};

// Resolve an opaque task-spec JSON to a live task. Throwing (or a null
// task) makes the worker report an error to the coordinator and stop.
using TaskResolver = std::function<ResolvedWorkerTask(const util::Json& spec)>;

struct WorkerOptions {
  int threads = 0;  // SweepOptions::threads for lease evaluation
  core::StageStats* stats = nullptr;    // optional stage-cache accounting
  core::DiskStageCache* disk = nullptr; // optional shared product store
  // Shared-secret sent in the hello frame (sweep services on untrusted
  // networks require it; coordinators/services without one ignore it).
  std::string auth_token;
  // The coordinator answers every request promptly (wait/lease/ok are
  // immediate; only the worker itself computes for long), so a reply this
  // late means the coordinator host died without closing the connection —
  // give up instead of blocking forever.
  int recv_timeout_ms = 120000;
  // Fault-injection hook for tests: complete this many leases, then accept
  // one more lease and vanish without returning its result (the connection
  // drops, simulating a worker killed mid-lease). -1 = never.
  int abandon_after_leases = -1;
  bool verbose = false;
};

struct WorkerRunStats {
  std::size_t leases_completed = 0;
  std::size_t configs_evaluated = 0;  // sum of lease slice sizes
  std::size_t heartbeats_sent = 0;
  bool done = false;         // coordinator said done (clean finish)
  bool abandoned = false;    // fault-injection hook fired
  bool disconnected = false; // connection lost mid-run (coordinator gone)
  std::string error;         // non-empty when the worker gave up on an error
};

// Run one worker session against host:port. Returns when the coordinator
// reports done, the connection is lost (stats.disconnected), or anything
// else fails (stats.error — including a rejected handshake, which retrying
// cannot fix). Throws only on TCP connection failure, the one error worth
// retrying while a coordinator is still starting up.
WorkerRunStats run_worker(const std::string& host, int port,
                          const TaskResolver& resolver,
                          const WorkerOptions& opts = {});

// run_worker with connection retries: TCP connect failures (the coordinator
// may still be training/loading the models it is about to serve) retry with
// capped exponential backoff (250ms doubling to 5s) until `connect_timeout`
// elapses, then report the connect error — including the attempt count —
// through stats.error instead of throwing. Everything else behaves like
// run_worker. The one retry loop behind the worker binary and every bench
// --connect mode.
WorkerRunStats run_worker_retrying(const std::string& host, int port,
                                   const TaskResolver& resolver,
                                   const WorkerOptions& opts,
                                   std::chrono::seconds connect_timeout);

}  // namespace sysnoise::dist
