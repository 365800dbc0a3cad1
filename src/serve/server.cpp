#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "obs/trace.h"
#include "tensor/backend.h"

namespace sysnoise::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const ServerOptions& validated(const ServerOptions& o) {
  if (o.workers < 1)
    throw std::invalid_argument("server needs workers >= 1, got " +
                                std::to_string(o.workers));
  if (o.max_batch < 1)
    throw std::invalid_argument("server needs max_batch >= 1, got " +
                                std::to_string(o.max_batch));
  if (!std::isfinite(o.max_delay_ms) || o.max_delay_ms < 0.0)
    throw std::invalid_argument(
        "server needs a finite max_delay_ms >= 0, got " +
        std::to_string(o.max_delay_ms));
  return o;
}

// Keep the forwards' heap resident. glibc returns a heap's top to the OS
// once more than M_TRIM_THRESHOLD (128 KiB) is free there; a forward of 4+
// MCUNet requests frees more than that, so each batch re-faulted its
// activations and cost ~2x per request what a batch of 1 did. Setting the
// trim threshold freezes the mmap threshold, so that is raised to its usual
// dynamic ceiling too. Process-wide, set once.
void keep_heap_resident() {
#ifdef __GLIBC__
  static const bool once = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)once;
#endif
}

}  // namespace

double ServingStats::served_accuracy() const {
  // Same expression shape as the offline eval metric (100.0 * correct /
  // max(1, n) with int operands) so equal ratios give the identical double.
  return 100.0 * correct / std::max(1, static_cast<int>(served));
}

util::Json ServingStats::to_json() const {
  util::Json j = util::Json::object();
  j.set("submitted", submitted);
  j.set("served", served);
  j.set("shed", shed);
  j.set("batches", batches);
  j.set("correct", correct);
  j.set("served_accuracy", served_accuracy());
  j.set("latency", latency.to_json());
  j.set("queue_depth", queue_depth.to_json());
  j.set("batch_occupancy", batch_occupancy.to_json());
  return j;
}

struct InferenceServer::Impl {
  const ServingModel& model;
  const ServerOptions opts;

  std::mutex mu;
  std::condition_variable cv;
  struct Pending {
    int id;
    int sample;
    Clock::time_point arrival;
  };
  std::deque<Pending> queue;
  bool draining = false;
  ServingStats stats;
  std::vector<std::thread> threads;

  Impl(const ServingModel& m, const ServerOptions& o)
      : model(m), opts(validated(o)) {
    keep_heap_resident();
    threads.reserve(static_cast<std::size_t>(opts.workers));
    for (int w = 0; w < opts.workers; ++w)
      threads.emplace_back([this] { worker_loop(); });
  }

  bool submit(int id, int sample) {
    obs::TraceSpan span("serve.admit");
    std::lock_guard<std::mutex> lock(mu);
    stats.submitted++;
    stats.queue_depth.add(static_cast<double>(queue.size()));
    if (draining ||
        (opts.queue_capacity > 0 && queue.size() >= opts.queue_capacity)) {
      stats.shed++;
      if (span.active()) {
        span.attr("request", id);
        span.attr("shed", 1);
        obs::metrics().counter_add("serve.shed");
      }
      return false;
    }
    queue.push_back(Pending{id, sample, Clock::now()});
    cv.notify_one();
    return true;
  }

  void drain() {
    {
      std::lock_guard<std::mutex> lock(mu);
      draining = true;
    }
    cv.notify_all();
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }

  void worker_loop() {
    GemmParallelScope gemm(opts.gemm_workers);
    const Clock::duration delay = ms_duration(opts.max_delay_ms);
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [this] { return draining || !queue.empty(); });
      if (queue.empty()) {
        if (draining) return;
        continue;
      }
      std::size_t k = 0;
      std::vector<Pending> batch;
      {
        // Batching window: hold for more requests until the batch fills or
        // the oldest request's deadline passes; a drain flushes immediately.
        obs::TraceSpan form_span("serve.batch_form");
        while (!draining && static_cast<int>(queue.size()) < opts.max_batch) {
          const Clock::time_point deadline = queue.front().arrival + delay;
          const bool woke = cv.wait_until(lock, deadline, [this] {
            return draining || queue.empty() ||
                   static_cast<int>(queue.size()) >= opts.max_batch;
          });
          if (!woke) break;          // deadline: launch what we have
          if (queue.empty()) break;  // a peer took everything; start over
        }
        if (queue.empty()) continue;

        k = std::min<std::size_t>(queue.size(),
                                  static_cast<std::size_t>(opts.max_batch));
        batch.assign(queue.begin(), queue.begin() + static_cast<long>(k));
        queue.erase(queue.begin(), queue.begin() + static_cast<long>(k));
        stats.batches++;
        stats.batch_occupancy.add(static_cast<double>(k));
        if (form_span.active()) {
          form_span.attr("batch", k);
          obs::metrics().counter_add("serve.batches");
          obs::metrics().counter_add("serve.batched_requests",
                                     static_cast<std::int64_t>(k));
        }
      }
      if (!queue.empty()) cv.notify_one();

      lock.unlock();
      std::vector<int> samples;
      samples.reserve(k);
      for (const Pending& p : batch) samples.push_back(p.sample);
      std::vector<int> preds;
      {
        obs::TraceSpan fwd_span("serve.forward");
        if (fwd_span.active()) fwd_span.attr("batch", k);
        preds = model.predict(samples);
      }
      const Clock::time_point done = Clock::now();
      lock.lock();
      obs::TraceSpan done_span("serve.complete");
      if (done_span.active()) done_span.attr("batch", k);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        stats.served++;
        if (model.correct(batch[i].sample, preds[i])) stats.correct++;
        stats.latency.record(ms_between(batch[i].arrival, done));
      }
    }
  }
};

InferenceServer::InferenceServer(const ServingModel& model,
                                 const ServerOptions& opts)
    : impl_(new Impl(model, opts)) {}

InferenceServer::~InferenceServer() {
  impl_->drain();
  delete impl_;
}

bool InferenceServer::submit(int id, int sample) {
  return impl_->submit(id, sample);
}

void InferenceServer::drain() { impl_->drain(); }

ServingStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

util::Json ReplayReport::to_json() const {
  util::Json j = util::Json::object();
  j.set("requests", requests);
  j.set("duration_ms", duration_ms);
  j.set("offered_rps", offered_rps);
  j.set("throughput_rps", throughput_rps);
  j.set("gen_late", gen_late.to_json());
  j.set("stats", stats.to_json());
  return j;
}

ReplayReport replay_wall_clock(const ServingModel& model,
                               const std::vector<TraceRequest>& trace,
                               const ReplayOptions& opts) {
  // A bad sample would otherwise throw inside a worker thread, which
  // terminates the process.
  for (const TraceRequest& r : trace)
    if (r.sample < 0 || r.sample >= model.num_samples())
      throw std::invalid_argument(
          "trace request " + std::to_string(r.id) + " asks for sample " +
          std::to_string(r.sample) + ", but " + model.name() + " has " +
          std::to_string(model.num_samples()));
  ReplayReport report;
  InferenceServer server(model, opts.server);
  const Clock::time_point start = Clock::now();
  for (const TraceRequest& r : trace) {
    const Clock::time_point due =
        start + ms_duration(r.arrival_ms * opts.time_scale);
    std::this_thread::sleep_until(due);
    report.gen_late.record(ms_between(due, Clock::now()));
    server.submit(r.id, r.sample);
  }
  server.drain();
  const double wall_ms = ms_between(start, Clock::now());

  report.requests = trace.size();
  report.stats = server.stats();
  report.duration_ms = wall_ms;
  const double last_arrival =
      trace.empty() ? 0.0 : trace.back().arrival_ms * opts.time_scale;
  report.offered_rps =
      last_arrival > 0.0
          ? 1000.0 * static_cast<double>(trace.size()) / last_arrival
          : 0.0;
  report.throughput_rps =
      wall_ms > 0.0
          ? 1000.0 * static_cast<double>(report.stats.served) / wall_ms
          : 0.0;
  return report;
}

}  // namespace sysnoise::serve
