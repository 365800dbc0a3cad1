// The execute half of the plan -> execute -> merge lifecycle.
//
// An Executor turns a SweepPlan (core/plan.h) into a MetricMap; how — one
// process, stage-sharing, a shard of a distributed run — is the executor's
// business, never the caller's. All executors honor SweepOptions (thread
// count, metric memoization, cross-call SweepCache) and are required to be
// bit-identical to each other on the same plan: swapping executors changes
// wall time and locality, never results.
//
//  * ThreadPoolExecutor — the monolithic path: each planned config runs the
//    task's full evaluate() chain, fanned out over a thread pool.
//  * StagedExecutor — stage-shared evaluation for StagedEvalTasks: configs
//    grouped by forward key, pre-processing computed once per preprocess
//    key and exactly one run_forward per forward group. Each group runs as
//    one pass (stage 1, forward, post-processing) on a pool thread, and a
//    stage product is dropped as soon as the last group needing it is
//    done, so resident memory grows with the thread count, not with the
//    plan. Configs are never stacked through one forward here: that
//    measured slower on a real table bench (README). Serving is the one
//    stacked-batch forward path (serve/serving_model.h). Optionally backed
//    by a disk StageCache so products persist across processes and bench
//    binaries. Falls back to the monolithic path for tasks that are not
//    staged.
//  * ShardExecutor — deterministically partitions the plan into i/N slices
//    (plan-order round-robin), executes only its slice through an inner
//    executor, and statically merges partial MetricMaps back into the full
//    map, bit-identical to a single-process run.
#pragma once

#include <cstddef>
#include <vector>

#include "core/plan.h"
#include "core/staged_eval.h"

namespace sysnoise::core {

class DiskStageCache;

class Executor {
 public:
  virtual ~Executor() = default;
  virtual const char* name() const = 0;
  // Evaluate every distinct config in `plan` once (skipping those already in
  // SweepOptions' cache) and return metric_key -> metric covering at least
  // those configs.
  virtual MetricMap execute(const EvalTask& task, const SweepPlan& plan,
                            const SweepOptions& opts = {}) const = 0;
};

// The in-process thread-pool path previously fused into sweep().
class ThreadPoolExecutor : public Executor {
 public:
  const char* name() const override { return "thread-pool"; }
  MetricMap execute(const EvalTask& task, const SweepPlan& plan,
                    const SweepOptions& opts = {}) const override;
};

// The stage-cache-aware path previously fused into staged_sweep(). `stats`
// (optional) accumulates stage-cache accounting across execute() calls;
// `disk` (optional) persists/loads encoded stage-1 products so repeat
// invocations skip the pre-processing work entirely.
class StagedExecutor : public Executor {
 public:
  explicit StagedExecutor(StageStats* stats = nullptr,
                          DiskStageCache* disk = nullptr)
      : stats_(stats), disk_(disk) {}
  const char* name() const override { return "staged"; }
  MetricMap execute(const EvalTask& task, const SweepPlan& plan,
                    const SweepOptions& opts = {}) const override;

 private:
  StageStats* stats_;
  DiskStageCache* disk_;
};

// Deterministic i/N partition of a plan. Executes plan.slice(shard) through
// the inner executor; merge() reassembles the full metric map.
class ShardExecutor : public Executor {
 public:
  ShardExecutor(const Executor& inner, int shard_index, int shard_count);
  const char* name() const override { return "shard"; }
  int shard_index() const { return shard_index_; }
  int shard_count() const { return shard_count_; }
  MetricMap execute(const EvalTask& task, const SweepPlan& plan,
                    const SweepOptions& opts = {}) const override;

  // Merge partial shard results into the plan's full metric map. Verifies
  // that every planned config is covered and that overlapping entries agree
  // bit-exactly; throws std::invalid_argument / std::out_of_range on gaps
  // or disagreement.
  static MetricMap merge(const SweepPlan& plan,
                         const std::vector<MetricMap>& parts);

 private:
  const Executor& inner_;
  int shard_index_;
  int shard_count_;
};

}  // namespace sysnoise::core
