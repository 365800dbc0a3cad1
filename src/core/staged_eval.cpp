#include "core/staged_eval.h"

#include <sstream>
#include <utility>

#include "core/executor.h"
#include "core/plan.h"

namespace sysnoise::core {

std::string forward_key_suffix(const SysNoiseConfig& cfg) {
  std::ostringstream os;
  os << "|prec=" << nn::precision_name(cfg.precision)
     << "|ceil=" << (cfg.ceil_mode ? 1 : 0)
     << "|up=" << nn::upsample_mode_name(cfg.upsample)
     // Different kernel families legitimately produce different floats, so
     // forward products (memory and disk StageCache alike) never mix across
     // backends.
     << "|be=" << backend_name(cfg.backend);
  return os.str();
}

std::vector<StageProduct> StagedEvalTask::run_forward_batched(
    const std::vector<const SysNoiseConfig*>& cfgs,
    const std::vector<StageProduct>& pres) const {
  std::vector<StageProduct> out;
  out.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    out.push_back(run_forward(*cfgs[i], pres[i]));
  return out;
}

StageProduct StageCache::get_or_compute(
    const std::string& key, const std::function<StageProduct()>& compute) {
  std::promise<StageProduct> promise;
  std::shared_future<StageProduct> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      future = it->second;
    } else {
      ++misses_;
      future = promise.get_future().share();
      entries_.emplace(key, future);
      owner = true;
    }
  }
  // The inserting thread computes; concurrent readers block on the future.
  if (owner) {
    try {
      promise.set_value(compute());
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

void StageCache::release(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(key);
}

std::size_t StageCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t StageCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t StageCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

StageStats& StageStats::operator+=(const StageStats& o) {
  preprocess_hits += o.preprocess_hits;
  preprocess_misses += o.preprocess_misses;
  forward_hits += o.forward_hits;
  forward_misses += o.forward_misses;
  evaluations += o.evaluations;
  preprocess_disk_hits += o.preprocess_disk_hits;
  preprocess_computed += o.preprocess_computed;
  preprocess_persisted += o.preprocess_persisted;
  forward_disk_hits += o.forward_disk_hits;
  forward_computed += o.forward_computed;
  forward_persisted += o.forward_persisted;
  batched_forward_calls += o.batched_forward_calls;
  return *this;
}

util::Json StageStats::to_json() const {
  util::Json j = util::Json::object();
  j.set("preprocess_hits", preprocess_hits);
  j.set("preprocess_misses", preprocess_misses);
  j.set("forward_hits", forward_hits);
  j.set("forward_misses", forward_misses);
  j.set("evaluations", evaluations);
  j.set("preprocess_disk_hits", preprocess_disk_hits);
  j.set("preprocess_computed", preprocess_computed);
  j.set("preprocess_persisted", preprocess_persisted);
  j.set("forward_disk_hits", forward_disk_hits);
  j.set("forward_computed", forward_computed);
  j.set("forward_persisted", forward_persisted);
  j.set("batched_forward_calls", batched_forward_calls);
  return j;
}

// Thin compositions of the explicit lifecycle, staged flavor: plan ->
// StagedExecutor -> assemble. The stage-sharing machinery itself lives in
// core/executor.cpp.

AxisReport staged_sweep(const StagedEvalTask& task, const SweepOptions& opts,
                        StageStats* stats) {
  const SweepPlan plan = plan_sweep(task, registry_or_global(opts));
  return assemble_report(plan,
                         StagedExecutor(stats).execute(task, plan, opts));
}

std::vector<StepPoint> staged_stepwise(const StagedEvalTask& task,
                                       const SweepOptions& opts,
                                       StageStats* stats) {
  const SweepPlan plan = plan_stepwise(task, registry_or_global(opts));
  return assemble_steps(plan, StagedExecutor(stats).execute(task, plan, opts));
}

}  // namespace sysnoise::core
