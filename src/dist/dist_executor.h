// DistExecutor: the distributed runtime behind the standard Executor seam.
// execute() hands the plan (with an opaque task spec for the workers) to a
// Coordinator and blocks until connected workers have evaluated every work
// unit — so swapping ThreadPoolExecutor/StagedExecutor for DistExecutor
// changes where the evaluations run, never the results (bit-identity is the
// executor contract, and the service behind the coordinator enforces it on
// merge). Coordinator::run() is once-only, so each Coordinator backs one
// execute() call.
//
// Note the inversion the distributed runtime forces: the `task` argument is
// never evaluated locally — workers rebuild their own instance from the
// task spec. The local SweepOptions only contribute their cross-call cache,
// which is populated with the remote results so later local sweeps memoize.
#pragma once

#include "core/executor.h"
#include "dist/coordinator.h"

namespace sysnoise::dist {

class DistExecutor : public core::Executor {
 public:
  // `coordinator` must outlive the executor and not have run yet.
  // `task_spec` is what workers resolve (dist/task_factory.h for zoo
  // models).
  DistExecutor(Coordinator& coordinator, util::Json task_spec)
      : coordinator_(coordinator), task_spec_(std::move(task_spec)) {}

  const char* name() const override { return "dist"; }
  core::MetricMap execute(const core::EvalTask& task,
                          const core::SweepPlan& plan,
                          const core::SweepOptions& opts = {}) const override;

 private:
  Coordinator& coordinator_;
  util::Json task_spec_;
};

}  // namespace sysnoise::dist
