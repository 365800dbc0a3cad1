#include "dist/coordinator.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace sysnoise::dist {

Coordinator::Coordinator(CoordinatorOptions opts)
    : opts_(std::move(opts)),
      listener_(net::TcpListener::listen(opts_.port)),
      port_(listener_.port()) {}

std::vector<core::MetricMap> Coordinator::run(
    const std::vector<DistJob>& jobs) {
  if (!listener_.valid())
    throw std::logic_error("Coordinator::run() may only be called once");
  {
    std::lock_guard<std::mutex> lock(mu_);
    service_ = std::make_unique<svc::SweepService>(opts_, std::move(listener_),
                                                   jobs);
  }
  svc::SweepService& svc = *service_;

  // A min_workers quorum that never arrives fails loudly instead of
  // holding leases forever; once it is met the timeout is disarmed.
  const auto join_deadline = std::chrono::steady_clock::now() +
                             std::chrono::seconds(opts_.min_workers_timeout_s);
  std::string error;
  while (!svc.wait_idle(std::chrono::milliseconds(100))) {
    const std::size_t joined = svc.stats().workers_joined;
    if (opts_.min_workers_timeout_s > 0 &&
        joined < static_cast<std::size_t>(opts_.min_workers) &&
        std::chrono::steady_clock::now() >= join_deadline) {
      error = "only " + std::to_string(joined) + " of " +
              std::to_string(opts_.min_workers) +
              " required workers joined within " +
              std::to_string(opts_.min_workers_timeout_s) + "s";
      break;
    }
  }
  svc.stop();  // attached workers get `done`; every handler is joined
  if (!error.empty()) throw std::runtime_error("Coordinator: " + error);

  std::vector<core::MetricMap> results;
  results.reserve(jobs.size());
  try {
    for (std::size_t j = 0; j < jobs.size(); ++j)
      results.push_back(svc.result(static_cast<int>(j) + 1));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("Coordinator: ") + e.what());
  }
  return results;
}

CoordinatorStats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return service_ != nullptr ? service_->stats() : CoordinatorStats{};
}

util::Json Coordinator::worker_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return service_ != nullptr ? service_->worker_metrics()
                             : util::Json::object();
}

}  // namespace sysnoise::dist
