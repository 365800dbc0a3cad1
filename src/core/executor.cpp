#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/disk_stage_cache.h"
#include "core/sweep_detail.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysnoise::core {

namespace {

std::vector<double> monolithic_eval(
    const EvalTask& task, const std::vector<const PlannedConfig*>& pending,
    const SweepOptions& opts) {
  std::vector<double> values(pending.size(), 0.0);
  detail::parallel_for_n(opts.threads, pending.size(), [&](std::size_t i) {
    obs::TraceSpan span("pool.evaluate");
    if (span.active()) span.attr("key", pending[i]->metric_key);
    values[i] = task.evaluate(pending[i]->cfg);
  });
  return values;
}

// One forward pass shared by every config with the same forward key; the
// group members differ only in post-processing knobs.
struct ForwardGroup {
  std::string pre_key;
  std::string fwd_key;
  std::vector<std::size_t> members;  // indices into the pending list
};

// Stage keys come from the plan when present (a deserialized plan carries
// them); otherwise they are recomputed from the task.
std::string pre_key_of(const StagedEvalTask& task, const PlannedConfig& p) {
  return p.preprocess_key.empty() ? task.preprocess_key(p.cfg)
                                  : p.preprocess_key;
}

std::string fwd_key_of(const StagedEvalTask& task, const PlannedConfig& p) {
  return p.forward_key.empty() ? task.forward_key(p.cfg) : p.forward_key;
}

std::vector<double> staged_eval(const StagedEvalTask& task,
                                const std::vector<const PlannedConfig*>& pending,
                                const SweepOptions& opts, StageStats* stats,
                                DiskStageCache* disk) {
  // Plan: group by forward key, keeping groups with a common preprocess key
  // adjacent so their stage-1 product stays hot.
  std::vector<ForwardGroup> groups;
  std::map<std::string, std::size_t> group_of;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const std::string fwd_key = fwd_key_of(task, *pending[i]);
    const auto it = group_of.find(fwd_key);
    if (it == group_of.end()) {
      group_of.emplace(fwd_key, groups.size());
      groups.push_back({pre_key_of(task, *pending[i]), fwd_key, {i}});
    } else {
      groups[it->second].members.push_back(i);
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const ForwardGroup& a, const ForwardGroup& b) {
                     return a.pre_key < b.pre_key;
                   });

  // Groups still to finish per preprocess key: the last one to finish drops
  // the key's stage-1 product from pre_cache.
  std::map<std::string, std::size_t> groups_left;
  for (const ForwardGroup& group : groups) ++groups_left[group.pre_key];
  std::mutex left_mu;

  StageCache pre_cache;
  std::atomic<std::size_t> disk_hits{0}, computed{0}, persisted{0};
  std::atomic<std::size_t> fwd_disk_hits{0}, fwd_computed{0}, fwd_persisted{0};
  std::atomic<std::size_t> stage1_evals{0};  // members of groups running stage 1
  std::vector<double> values(pending.size(), 0.0);

  // One pass per group, groups in parallel: a disk-cached forward product
  // makes stage 1 unnecessary (the pre-processed batches exist only to feed
  // the network); otherwise materialize the stage-1 product through
  // pre_cache, run the one forward, persist it, and fan its output out to
  // the group's planned configs through post-processing. Products live only
  // as long as a group needs them, so at most one stage-1 product per
  // thread is resident.
  detail::parallel_for_n(opts.threads, groups.size(), [&](std::size_t g) {
    const ForwardGroup& group = groups[g];
    const SysNoiseConfig& lead_cfg = pending[group.members.front()]->cfg;
    StageProduct fwd, pre;
    {
      obs::TraceSpan span("staged.preprocess");
      if (span.active()) span.attr("pre_key", group.pre_key);
      if (disk != nullptr) {
        std::string bytes;
        if (disk->load(task.forward_scope(), group.fwd_key, &bytes)) {
          if ((fwd = task.decode_forward(bytes)) != nullptr)
            fwd_disk_hits.fetch_add(1);
        }
      }
      if (fwd == nullptr) {
        stage1_evals.fetch_add(group.members.size());
        pre = pre_cache.get_or_compute(group.pre_key, [&] {
          if (disk != nullptr) {
            std::string bytes;
            if (disk->load(task.preprocess_scope(), group.pre_key, &bytes)) {
              if (StageProduct p = task.decode_preprocess(bytes)) {
                disk_hits.fetch_add(1);
                return p;
              }
            }
          }
          computed.fetch_add(1);
          StageProduct p = task.run_preprocess(lead_cfg);
          if (disk != nullptr) {
            std::string bytes;
            if (task.encode_preprocess(p, &bytes)) {
              disk->store(task.preprocess_scope(), group.pre_key, bytes);
              persisted.fetch_add(1);
            }
          }
          return p;
        });
      }
    }
    if (fwd == nullptr) {
      obs::TraceSpan span("staged.forward");
      if (span.active()) span.attr("fwd_key", group.fwd_key);
      fwd = task.run_forward(lead_cfg, pre);
      pre.reset();  // not needed while persisting and post-processing
      fwd_computed.fetch_add(1);
      if (disk != nullptr) {
        std::string bytes;
        if (task.encode_forward(fwd, &bytes)) {
          disk->store(task.forward_scope(), group.fwd_key, bytes);
          fwd_persisted.fetch_add(1);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(left_mu);
      if (--groups_left[group.pre_key] == 0) pre_cache.release(group.pre_key);
    }
    obs::TraceSpan post_span("staged.postprocess");
    for (const std::size_t i : group.members)
      values[i] = task.run_postprocess(pending[i]->cfg, fwd);
  });

  if (stats != nullptr) {
    StageStats s;
    // Per planned evaluation: the first arrival at a stage key is the miss
    // that materializes it; every other member reuses the product. Stage 1
    // counts only groups that ran it: a group served by a disk forward
    // product neither hits nor misses a preprocess key.
    s.preprocess_misses = pre_cache.misses();
    s.preprocess_hits = stage1_evals.load() - pre_cache.misses();
    s.forward_misses = groups.size();
    s.forward_hits = pending.size() - groups.size();
    s.evaluations = pending.size();
    s.preprocess_disk_hits = disk_hits.load();
    s.preprocess_computed = computed.load();
    s.preprocess_persisted = persisted.load();
    s.forward_disk_hits = fwd_disk_hits.load();
    s.forward_computed = fwd_computed.load();
    s.forward_persisted = fwd_persisted.load();
    s.batched_forward_calls = fwd_computed.load();
    *stats += s;
  }
  if (obs::trace_enabled()) {
    // Once per evaluation batch (cold path): cache effectiveness counters
    // for the flight-recorder summary. Purely observational — never read
    // back by any computation.
    obs::MetricsRegistry& m = obs::metrics();
    m.counter_add("staged.evaluations", pending.size());
    m.counter_add("staged.preprocess_hits",
                  stage1_evals.load() - pre_cache.misses());
    m.counter_add("staged.preprocess_misses", pre_cache.misses());
    m.counter_add("staged.forward_hits", pending.size() - groups.size());
    m.counter_add("staged.forward_misses", groups.size());
    m.counter_add("staged.preprocess_disk_hits", disk_hits.load());
    m.counter_add("staged.preprocess_computed", computed.load());
    m.counter_add("staged.forward_disk_hits", fwd_disk_hits.load());
    m.counter_add("staged.forward_computed", fwd_computed.load());
  }
  return values;
}

}  // namespace

MetricMap ThreadPoolExecutor::execute(const EvalTask& task,
                                      const SweepPlan& plan,
                                      const SweepOptions& opts) const {
  return detail::evaluate_plan(
      plan, opts, [&](const std::vector<const PlannedConfig*>& pending) {
        return monolithic_eval(task, pending, opts);
      });
}

MetricMap StagedExecutor::execute(const EvalTask& task, const SweepPlan& plan,
                                  const SweepOptions& opts) const {
  // The calling thread's view of the sweep; the stage spans above run on
  // the pool threads it fans out to.
  obs::TraceSpan span("staged.execute");
  if (span.active()) {
    span.attr("task", task.name());
    span.attr("configs", plan.configs.size());
  }
  const auto* staged = dynamic_cast<const StagedEvalTask*>(&task);
  if (staged == nullptr) {
    // Not a staged task: the monolithic chain is the only evaluation there
    // is, so fall back rather than fail.
    return ThreadPoolExecutor().execute(task, plan, opts);
  }
  return detail::evaluate_plan(
      plan, opts, [&](const std::vector<const PlannedConfig*>& pending) {
        return staged_eval(*staged, pending, opts, stats_, disk_);
      });
}

ShardExecutor::ShardExecutor(const Executor& inner, int shard_index,
                             int shard_count)
    : inner_(inner), shard_index_(shard_index), shard_count_(shard_count) {
  if (shard_count <= 0 || shard_index < 0 || shard_index >= shard_count)
    throw std::invalid_argument("ShardExecutor: bad shard " +
                                std::to_string(shard_index) + "/" +
                                std::to_string(shard_count));
}

MetricMap ShardExecutor::execute(const EvalTask& task, const SweepPlan& plan,
                                 const SweepOptions& opts) const {
  return inner_.execute(
      task, plan.slice(plan.shard_indices(shard_index_, shard_count_)), opts);
}

MetricMap ShardExecutor::merge(const SweepPlan& plan,
                               const std::vector<MetricMap>& parts) {
  MetricMap merged;
  for (const MetricMap& part : parts)
    for (const auto& [key, value] : part) {
      const auto [it, inserted] = merged.emplace(key, value);
      if (!inserted && it->second != value)
        throw std::invalid_argument(
            "ShardExecutor::merge: shards disagree on \"" + key + "\"");
    }
  for (const PlannedConfig& p : plan.configs)
    if (merged.find(p.metric_key) == merged.end())
      throw std::out_of_range(
          "ShardExecutor::merge: no shard covered planned config \"" +
          p.metric_key + "\"");
  return merged;
}

}  // namespace sysnoise::core
