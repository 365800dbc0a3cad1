// The one-shot face of the distributed sweep runtime: serve a fixed list of
// (task-spec, SweepPlan) jobs to TCP workers (dist/worker.h,
// tools/sysnoise_worker.cpp) until every work unit is evaluated, and return
// merged per-job results bit-identical to a single-process sweep — the
// dynamic, fault-tolerant successor to the static `--shard i/N` + `--merge`
// workflow.
//
// Coordinator is a thin facade over an in-process, volatile sweep service
// (svc/service.h), the runtime's one lease server: leasing, heartbeats,
// lease expiry and re-lease, the min_workers join gate and the bit-exact
// result merge all live there. The facade binds the port, hands the
// listener and the jobs to the service, waits for the jobs, and enforces
// the min_workers join timeout.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/plan.h"
#include "dist/protocol.h"
#include "net/socket.h"
#include "svc/service.h"
#include "util/json.h"

namespace sysnoise::dist {

using CoordinatorOptions = svc::ServiceOptions;
using CoordinatorStats = svc::ServiceStats;

class Coordinator {
 public:
  // Binds the listener immediately so port() is valid (and workers can
  // start connecting; they wait in the kernel backlog) before run().
  explicit Coordinator(CoordinatorOptions opts = {});
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  int port() const { return port_; }

  // Serve the jobs until every one is terminal, tell every attached worker
  // `done`, and return one full MetricMap per job (job order). Throws
  // std::runtime_error if a job failed (workers disagreed bit-exactly on a
  // metric, or a result was malformed) or the min_workers quorum did not
  // join in time. Callable once per Coordinator; a second call throws
  // std::logic_error.
  std::vector<core::MetricMap> run(const std::vector<DistJob>& jobs);

  // Accounting of run(); safe to call while run() is in progress.
  CoordinatorStats stats() const;

  // Merged cumulative obs::metrics snapshots run()'s workers shipped with
  // their result frames (only populated while tracing; {} otherwise).
  // Deliberately NOT folded into this process's registry: callers wanting
  // one fleet view attach
  // obs::merge_snapshots(obs::metrics().snapshot(), worker_metrics()) to
  // their trace summary.
  util::Json worker_metrics() const;

 private:
  CoordinatorOptions opts_;
  net::TcpListener listener_;  // handed to the service by run()
  int port_ = 0;
  mutable std::mutex mu_;  // guards service_: stats() may race run()
  std::unique_ptr<svc::SweepService> service_;
};

}  // namespace sysnoise::dist
