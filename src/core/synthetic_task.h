// Model-free reference EvalTasks for engine tests and micro-benchmarks: the
// metric is a pure FNV-1a hash of the config string (deterministic, config-
// sensitive, thread-safe), every evaluation is counted, and `work_rounds`
// scales the per-eval cost so scheduling overhead can be measured against a
// stand-in for a real model evaluation. SyntheticStagedTask additionally
// factors the hash through the three pipeline stages with per-stage costs
// and run counters, mirroring how real tasks split work (pre-processing
// dominates, forward is substantial, post-processing is cheap).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "core/staged_eval.h"
#include "core/sweep.h"
#include "data/pipeline.h"

namespace sysnoise::core {

class SyntheticTask : public EvalTask {
 public:
  SyntheticTask(TaskKind kind, bool has_maxpool, int work_rounds = 1)
      : traits_{kind, has_maxpool}, work_rounds_(work_rounds) {}

  const std::string& name() const override {
    static const std::string n = "synthetic";
    return n;
  }
  TaskTraits traits() const override { return traits_; }
  double evaluate(const SysNoiseConfig& cfg) const override {
    evals_.fetch_add(1);
    const std::string desc = cfg.describe();
    std::uint64_t h = 1469598103934665603ull;
    for (int round = 0; round < work_rounds_; ++round)
      for (const char c : desc) {
        h ^= static_cast<std::uint64_t>(c);
        h *= 1099511628211ull;
      }
    return 40.0 + static_cast<double>(h % 4000) / 100.0;
  }
  // The metric depends on work_rounds, so tasks with different costs must
  // not share cache entries.
  std::string cache_identity() const override {
    return name() + "#r" + std::to_string(work_rounds_);
  }
  int evals() const { return evals_.load(); }
  void reset() const { evals_.store(0); }

 private:
  TaskTraits traits_;
  int work_rounds_;
  mutable std::atomic<int> evals_{0};
};

// Staged counterpart with per-stage work/counters. The metric chains the
// three stage hashes, so staged_sweep() (stage products shared) and plain
// sweep() (full chain per config) are bit-identical by construction — what
// changes is how often each stage runs, which the counters expose.
class SyntheticStagedTask : public StagedEvalTask {
 public:
  SyntheticStagedTask(TaskKind kind, bool has_maxpool, int pre_rounds = 1,
                      int fwd_rounds = 1, int post_rounds = 1)
      : traits_{kind, has_maxpool},
        pre_rounds_(pre_rounds),
        fwd_rounds_(fwd_rounds),
        post_rounds_(post_rounds) {}

  const std::string& name() const override {
    static const std::string n = "synthetic-staged";
    return n;
  }
  TaskTraits traits() const override { return traits_; }
  std::string cache_identity() const override {
    return name() + "#" + std::to_string(pre_rounds_) + "/" +
           std::to_string(fwd_rounds_) + "/" + std::to_string(post_rounds_);
  }

  // Keys come from the same encoders the real adapters use (over a default
  // PipelineSpec), so grouping behavior can't drift from production.
  std::string preprocess_key(const SysNoiseConfig& cfg) const override {
    return sysnoise::preprocess_key(cfg, PipelineSpec{});
  }
  std::string forward_key(const SysNoiseConfig& cfg) const override {
    return preprocess_key(cfg) + forward_key_suffix(cfg);
  }

  StageProduct run_preprocess(const SysNoiseConfig& cfg) const override {
    pre_runs_.fetch_add(1);
    return std::make_shared<const std::uint64_t>(
        work(0xcbf29ce484222325ull, preprocess_key(cfg), pre_rounds_));
  }

  // Disk round trip for the synthetic stage-1 product (the hash, printed),
  // so the disk StageCache path is testable without training a zoo. The
  // product depends on pre_rounds_, so the scope keeps tasks with different
  // costs apart — exactly like cache_identity does for metrics.
  std::string preprocess_scope() const override {
    return name() + "-pre#" + std::to_string(pre_rounds_);
  }
  bool encode_preprocess(const StageProduct& product,
                         std::string* bytes) const override {
    *bytes = std::to_string(*static_cast<const std::uint64_t*>(product.get()));
    return true;
  }
  StageProduct decode_preprocess(const std::string& bytes) const override {
    if (bytes.empty()) return nullptr;
    return std::make_shared<const std::uint64_t>(
        std::strtoull(bytes.c_str(), nullptr, 10));
  }
  StageProduct run_forward(const SysNoiseConfig& cfg,
                           const StageProduct& pre) const override {
    fwd_runs_.fetch_add(1);
    const auto seed = *static_cast<const std::uint64_t*>(pre.get());
    return std::make_shared<const std::uint64_t>(
        work(seed, forward_key(cfg), fwd_rounds_));
  }

  // Forward products round-trip the same way (the default forward_scope
  // already folds in cache_identity, which pins all three stage costs), so
  // warm disk runs skip the synthetic forward stage too.
  bool encode_forward(const StageProduct& product,
                      std::string* bytes) const override {
    *bytes = std::to_string(*static_cast<const std::uint64_t*>(product.get()));
    return true;
  }
  StageProduct decode_forward(const std::string& bytes) const override {
    if (bytes.empty()) return nullptr;
    return std::make_shared<const std::uint64_t>(
        std::strtoull(bytes.c_str(), nullptr, 10));
  }
  double run_postprocess(const SysNoiseConfig& cfg,
                         const StageProduct& fwd) const override {
    post_runs_.fetch_add(1);
    const auto seed = *static_cast<const std::uint64_t*>(fwd.get());
    std::ostringstream os;
    os << "offset=" << cfg.proposal_offset;
    const std::uint64_t h = work(seed, os.str(), post_rounds_);
    return 40.0 + static_cast<double>(h % 4000) / 100.0;
  }

  int pre_runs() const { return pre_runs_.load(); }
  int fwd_runs() const { return fwd_runs_.load(); }
  int post_runs() const { return post_runs_.load(); }
  void reset() const {
    pre_runs_.store(0);
    fwd_runs_.store(0);
    post_runs_.store(0);
  }

 private:
  static std::uint64_t work(std::uint64_t h, const std::string& s, int rounds) {
    for (int round = 0; round < rounds; ++round)
      for (const char c : s) {
        h ^= static_cast<std::uint64_t>(c);
        h *= 1099511628211ull;
      }
    return h;
  }

  TaskTraits traits_;
  int pre_rounds_;
  int fwd_rounds_;
  int post_rounds_;
  mutable std::atomic<int> pre_runs_{0};
  mutable std::atomic<int> fwd_runs_{0};
  mutable std::atomic<int> post_runs_{0};
};

}  // namespace sysnoise::core
