// Unified sweep engine: one generic sweep()/stepwise() pair drives any
// EvalTask over every applicable NoiseAxis in the registry, replacing the
// old per-task measure_*/stepwise_* quintuplet. Axis options are evaluated
// concurrently on a small thread pool; identical configs are evaluated once
// per call, and across calls through an optional SweepCache (the
// trained-baseline eval used to be recomputed by every entry point).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/axis.h"

namespace sysnoise::core {

// Task-agnostic evaluation surface the sweep engine drives. Thin adapters
// for the concrete model families live in models/eval_tasks.h.
class EvalTask {
 public:
  virtual ~EvalTask() = default;
  virtual const std::string& name() const = 0;
  virtual TaskTraits traits() const = 0;
  // Metric under `cfg` (higher = better, e.g. ACC / mAP / mIoU). Must be
  // deterministic and safe to call concurrently from several threads.
  virtual double evaluate(const SysNoiseConfig& cfg) const = 0;
  // Identity used for SweepCache keys. Override whenever two tasks with the
  // same display name can carry different weights (retrained variants), or
  // a shared cache would hand one task the other's metrics.
  virtual std::string cache_identity() const { return name(); }
};

// (task, config)-keyed metric memo. Share one instance across sweep() and
// stepwise() calls (and seed it with the trained metric from the model zoo)
// to skip duplicate evaluations; thread-safe.
class SweepCache {
 public:
  bool lookup(const std::string& key, double* out);
  void store(const std::string& key, double value);
  // Pre-fill the entry sweep()/stepwise() would compute for `cfg`.
  void seed(const EvalTask& task, const SysNoiseConfig& cfg, double metric);

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t size() const;

  static std::string key_for(const EvalTask& task, const SysNoiseConfig& cfg);

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

struct SweepOptions {
  int threads = 0;              // <= 0: use hardware concurrency
  SweepCache* cache = nullptr;  // optional cross-call memo
  const AxisRegistry* registry = nullptr;  // default: AxisRegistry::global()
};

struct OptionDelta {
  std::string label;
  double delta = 0.0;  // metric(training) - metric(option)
};

// Per-axis slice of a report: summary stats plus every option's delta.
struct AxisResult {
  std::string axis;  // NoiseAxis::name
  std::string key;   // NoiseAxis::key
  double mean = 0.0;
  double max = 0.0;
  std::vector<OptionDelta> options;
  bool per_option = false;  // rendering hint copied from the axis

  const OptionDelta* option(const std::string& label) const;
};

// Dynamic replacement for the old fixed-field NoiseRow: whatever axes the
// registry holds (and the task admits) show up here, in registry order.
struct AxisReport {
  std::string model;
  double trained = 0.0;
  std::vector<AxisResult> axes;
  double combined = 0.0;

  const AxisResult* find(const std::string& axis) const;
};

// Fig. 3 stepwise combined-noise point: metric delta after cumulatively
// applying each axis' combined option.
struct StepPoint {
  std::string step;
  double delta = 0.0;
};

// Sweep every applicable axis (Tables 2-4 rows).
AxisReport sweep(const EvalTask& task, const SweepOptions& opts = {});

// Fig. 3 stepwise accumulation over the applicable axes in registry order.
std::vector<StepPoint> stepwise(const EvalTask& task,
                                const SweepOptions& opts = {});

}  // namespace sysnoise::core
