#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/sweep.h"
#include "dist/protocol.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysnoise::dist {

namespace {

// One job this worker knows about, fetched via job_request when a lease
// first names it. The resolved task lives here too, so resolution —
// possibly training a model — happens at most once per job.
struct KnownJob {
  util::Json task_spec;
  core::SweepPlan plan;
  std::optional<ResolvedWorkerTask> resolved;
};

void wlog(const WorkerOptions& opts, const std::string& line) {
  if (!opts.verbose) return;
  std::printf("[worker] %s\n", line.c_str());
  std::fflush(stdout);
}

// Send an error frame (best effort) so the server can log why this
// worker is about to disappear.
void send_error(net::TcpSocket& sock, const std::string& message) {
  util::Json err = make_message(msg::kError);
  err.set("message", message);
  net::send_json(sock, err);
}

}  // namespace

WorkerRunStats run_worker(const std::string& host, int port,
                          const TaskResolver& resolver,
                          const WorkerOptions& opts) {
  WorkerRunStats stats;
  net::TcpSocket sock = net::TcpSocket::connect(host, port);
  sock.set_recv_timeout_ms(opts.recv_timeout_ms);

  // Handshake failures never throw: callers retry thrown connect errors,
  // and neither a vanished coordinator (stats.disconnected — maybe it
  // finished already) nor a rejected hello (stats.error — retrying a
  // protocol mismatch can only ever fail again) is retryable the same way.
  util::Json hello = make_message(msg::kHello);
  hello.set("protocol", kProtocolVersion);
  if (!opts.auth_token.empty()) hello.set("token", opts.auth_token);
  util::Json welcome;
  if (!net::send_json(sock, hello) || !net::recv_json(sock, &welcome)) {
    stats.disconnected = true;
    return stats;
  }
  if (message_type(welcome) == msg::kError) {
    const util::Json* message = welcome.get("message");
    stats.error = message != nullptr && message->is_string()
                      ? message->as_string()
                      : "coordinator rejected hello";
    return stats;
  }
  const util::Json* proto = welcome.get("protocol");
  if (message_type(welcome) != msg::kWelcome || proto == nullptr ||
      !proto->is_number() || proto->as_int() != kProtocolVersion) {
    stats.error = "bad welcome (protocol mismatch?)";
    return stats;
  }

  // Past the handshake nothing may throw out of here (test workers run on
  // bare threads, and the binary would retry a non-retryable failure):
  // recv_json throws on a corrupt frame, welcome-field accessors throw on
  // shape violations — all reported like any error.
  try {
    const int heartbeat_ms = welcome.at("heartbeat_ms").as_int();
    std::map<int, KnownJob> jobs;
    wlog(opts, "joined: heartbeat " + std::to_string(heartbeat_ms) + "ms");

    core::SweepCache cache;  // worker-wide metric memo across leases
    const core::StagedExecutor executor(opts.stats, opts.disk);

    int leases_taken = 0;
    while (true) {
      if (!net::send_json(sock, make_message(msg::kLeaseRequest))) {
        stats.disconnected = true;
        return stats;
      }
      util::Json reply;
      if (!net::recv_json(sock, &reply)) {
        stats.disconnected = true;
        return stats;
      }
      const std::string type = message_type(reply);
      if (type == msg::kDone) {
        stats.done = true;
        wlog(opts, "done: " + std::to_string(stats.leases_completed) +
                       " leases, " + std::to_string(stats.configs_evaluated) +
                       " configs");
        return stats;
      }
      if (type == msg::kWait) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(reply.at("ms").as_int()));
        continue;
      }
      if (type == msg::kError) {
        stats.error = reply.get("message") != nullptr
                          ? reply.at("message").as_string()
                          : "coordinator error";
        return stats;
      }
      if (type != msg::kLease) {
        stats.error = "unexpected frame \"" + type + "\"";
        return stats;
      }

      if (opts.abandon_after_leases >= 0 &&
          leases_taken >= opts.abandon_after_leases) {
        // Fault injection: hold the lease and die without a word.
        stats.abandoned = true;
        wlog(opts, "abandoning lease (fault injection)");
        return stats;
      }
      ++leases_taken;

      const int job = reply.at("job").as_int();
      const int unit = reply.at("unit").as_int();
      auto it = jobs.find(job);
      if (it == jobs.end()) {
        // First lease of this job: fetch its spec and plan.
        util::Json req = make_message(msg::kJobRequest);
        req.set("job", job);
        util::Json info;
        if (!net::send_json(sock, req) || !net::recv_json(sock, &info)) {
          stats.disconnected = true;
          return stats;
        }
        if (message_type(info) != msg::kJobInfo ||
            info.at("job").as_int() != job) {
          send_error(sock, "lease for unknown job");
          stats.error = "lease for unknown job " + std::to_string(job);
          return stats;
        }
        it = jobs.emplace(job,
                          KnownJob{info.at("task"),
                                   core::SweepPlan::from_json(info.at("plan")),
                                   std::nullopt})
                 .first;
        wlog(opts, "fetched job " + std::to_string(job) + " (" +
                       it->second.plan.task + ")");
      }
      const util::Json& jconfigs = reply.at("configs");
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < jconfigs.size(); ++i)
        indices.push_back(static_cast<std::size_t>(jconfigs.at(i).as_int()));
      const core::SweepPlan slice = it->second.plan.slice(indices);
      wlog(opts, "lease job=" + std::to_string(job) + " unit=" +
                     std::to_string(unit) + " (" +
                     std::to_string(indices.size()) + " configs)");

      // Lease lifecycle span, correlated with the service's svc.lease_grant
      // span by the shared "j<job>u<unit>" lease id (both sides derive it from
      // the lease frame — no extra protocol field needed).
      obs::TraceSpan lease_span("worker.lease");
      if (lease_span.active()) {
        lease_span.attr("lease", "j" + std::to_string(job) + "u" +
                                     std::to_string(unit));
        lease_span.attr("configs", indices.size());
      }

      // Resolve + evaluate on a helper thread while this one keeps the
      // lease alive: the coordinator treats silence longer than the lease
      // timeout as death, and both can take arbitrarily long — first-lease
      // resolution may TRAIN the model on a cold-cache machine, so it must
      // sit under the heartbeat loop too. Resolution failures surface
      // through the future like evaluation failures.
      core::SweepOptions sweep_opts;
      sweep_opts.threads = opts.threads;
      sweep_opts.cache = &cache;
      auto& slot = it->second.resolved;
      const util::Json& task_spec = it->second.task_spec;
      std::future<core::MetricMap> fut = std::async(
          std::launch::async,
          [&executor, &slot, &resolver, &task_spec, &cache, &slice,
           &sweep_opts] {
            if (!slot.has_value()) {
              slot = resolver(task_spec);
              if (!slot.has_value() || slot->task == nullptr)
                throw std::runtime_error("task resolution returned no task");
              for (const auto& [key, value] : slot->seeds)
                cache.store(key, value);
            }
            return executor.execute(*slot->task, slice, sweep_opts);
          });
      bool connection_lost = false;
      while (fut.wait_for(std::chrono::milliseconds(heartbeat_ms)) !=
             std::future_status::ready) {
        const auto hb_start = std::chrono::steady_clock::now();
        util::Json ok;
        if (!net::send_json(sock, make_message(msg::kHeartbeat)) ||
            !net::recv_json(sock, &ok) || message_type(ok) != msg::kOk) {
          connection_lost = true;
          break;
        }
        ++stats.heartbeats_sent;
        if (obs::trace_enabled()) {
          obs::metrics().observe_ms(
              "worker.heartbeat_rtt_ms",
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - hb_start)
                  .count());
        }
      }
      core::MetricMap metrics;
      try {
        metrics = fut.get();  // always drain the future, even disconnected
      } catch (const std::exception& e) {
        if (!connection_lost)
          send_error(sock, std::string("evaluation failed: ") + e.what());
        stats.error = e.what();
        return stats;
      }
      if (connection_lost) {
        stats.disconnected = true;
        return stats;
      }

      util::Json result = make_message(msg::kResult);
      result.set("job", job);
      result.set("unit", unit);
      util::Json jmetrics = util::Json::object();
      for (const auto& [key, value] : metrics) jmetrics.set(key, value);
      result.set("metrics", std::move(jmetrics));
      if (obs::trace_enabled()) {
        // Ship this worker's cumulative metric snapshot with the result so
        // the coordinator's per-sweep summary covers the whole fleet. The
        // field is absent when tracing is off — the frame bytes are
        // unchanged — and cumulative, so the service keeps only the
        // latest snapshot per worker rather than summing.
        obs::metrics().counter_add("worker.leases_completed");
        obs::metrics().counter_add("worker.configs_evaluated",
                                   indices.size());
        result.set("obs", obs::metrics().snapshot());
      }
      const auto send_start = std::chrono::steady_clock::now();
      util::Json ok;
      if (!net::send_json(sock, result) || !net::recv_json(sock, &ok) ||
          message_type(ok) != msg::kOk) {
        stats.disconnected = true;
        return stats;
      }
      if (obs::trace_enabled()) {
        obs::metrics().observe_ms(
            "worker.result_rtt_ms",
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - send_start)
                .count());
      }
      ++stats.leases_completed;
      stats.configs_evaluated += indices.size();
    }
  } catch (const std::exception& e) {
    stats.error = e.what();
    return stats;
  }
}

WorkerRunStats run_worker_retrying(const std::string& host, int port,
                                   const TaskResolver& resolver,
                                   const WorkerOptions& opts,
                                   std::chrono::seconds connect_timeout) {
  const auto deadline = std::chrono::steady_clock::now() + connect_timeout;
  // Capped exponential backoff: quick retries while a coordinator is still
  // binding, without hammering a host that is down for minutes.
  std::chrono::milliseconds delay{250};
  constexpr std::chrono::milliseconds kMaxDelay{5000};
  int attempts = 0;
  while (true) {
    try {
      return run_worker(host, port, resolver, opts);
    } catch (const std::exception& e) {
      ++attempts;
      if (std::chrono::steady_clock::now() >= deadline) {
        WorkerRunStats stats;
        stats.error = std::string(e.what()) + " (gave up after " +
                      std::to_string(attempts) + " attempts over " +
                      std::to_string(connect_timeout.count()) + "s)";
        return stats;
      }
      wlog(opts, std::string(e.what()) + "; attempt " +
                     std::to_string(attempts) + ", retrying in " +
                     std::to_string(delay.count()) + "ms...");
      std::this_thread::sleep_for(delay);
      delay = std::min(delay * 2, kMaxDelay);
    }
  }
}

}  // namespace sysnoise::dist
