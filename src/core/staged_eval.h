// Staged evaluation: the SysNoiseConfig factors into independent
// pre-processing / model-inference / post-processing stages, so a sweep
// over dozens of deployment configs can share intermediates instead of
// re-running the whole preprocess -> forward -> metric chain per config.
//
// A StagedEvalTask names each stage's inputs with a key (`preprocess_key`
// covers decoder/resize/color/normalization, `forward_key` adds the
// inference knobs) and materializes stage products behind opaque pointers.
// `staged_sweep()` plans every axis option up front, groups the plan by
// shared stage keys, and evaluates group-by-group: pre-processed batches
// are computed once per preprocess key, and forward outputs once per
// forward key — so e.g. the detection post-processing axis (box-decode
// offset) is measured without re-running the forward pass at all. Results
// are bit-identical to the monolithic sweep() (tested); only the wall time
// changes.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "util/json.h"

namespace sysnoise::core {

// Opaque stage intermediate (stacked input batches, raw forward outputs...).
using StageProduct = std::shared_ptr<const void>;

// The canonical encoding of the model-inference knobs (precision, ceil
// mode, upsample — deliberately NOT proposal_offset, which only the
// post-processing stage reads). Tasks build their forward key as
// preprocess_key(cfg) + forward_key_suffix(cfg) so the knob list lives in
// exactly one place.
std::string forward_key_suffix(const SysNoiseConfig& cfg);

// An EvalTask whose evaluation factors into the three pipeline stages.
// evaluate() is the monolithic chain of the three run_* hooks, so any
// StagedEvalTask still works with the plain sweep()/stepwise() engine.
class StagedEvalTask : public EvalTask {
 public:
  // Stable encoding of every config knob the pre-processing stage reads.
  // Configs differing only in inference/post-processing knobs must share a
  // key; configs with different pre-processing products must not.
  virtual std::string preprocess_key(const SysNoiseConfig& cfg) const = 0;
  // preprocess_key plus the model-inference knobs: the identity of the
  // forward pass. Post-processing-only knobs must NOT be folded in.
  virtual std::string forward_key(const SysNoiseConfig& cfg) const = 0;

  // Stage 1: materialize pre-processed input batches for `cfg`.
  virtual StageProduct run_preprocess(const SysNoiseConfig& cfg) const = 0;
  // Stage 2: run the network over cached stage-1 batches.
  virtual StageProduct run_forward(const SysNoiseConfig& cfg,
                                   const StageProduct& pre) const = 0;
  // Stage 3: post-process cached forward outputs into the metric.
  virtual double run_postprocess(const SysNoiseConfig& cfg,
                                 const StageProduct& fwd) const = 0;

  // Kept only for perfbench's forwarding decorator, which overrides both:
  // the executor runs one run_forward per forward group and calls neither.
  // The key is always empty.
  virtual std::string forward_batch_key(const SysNoiseConfig& cfg) const {
    (void)cfg;
    return std::string();
  }
  // Kept only for perfbench's forwarding decorator: run_forward per config,
  // in order.
  virtual std::vector<StageProduct> run_forward_batched(
      const std::vector<const SysNoiseConfig*>& cfgs,
      const std::vector<StageProduct>& pres) const;

  // --- optional disk persistence (core/disk_stage_cache.h) ---------------
  // Scope the pre-processing products are keyed under. preprocess_key is
  // deliberately dataset-agnostic (it encodes knobs + output geometry), so
  // the scope must name the dataset/pipeline identity — tasks over the same
  // samples and spec share products across processes AND across models.
  virtual std::string preprocess_scope() const { return cache_identity(); }
  // Encode/decode a stage-1 product for the disk cache. The default "not
  // serializable" pair opts a task out; stage products then only ever live
  // in process memory.
  virtual bool encode_preprocess(const StageProduct& product,
                                 std::string* bytes) const {
    (void)product;
    (void)bytes;
    return false;
  }
  virtual StageProduct decode_preprocess(const std::string& bytes) const {
    (void)bytes;
    return nullptr;
  }

  // Scope for forward-stage products. forward_key (preprocess_key + the
  // inference knobs) is still dataset- AND model-agnostic, so the scope
  // adds both: the same dataset scope plus the task identity that names the
  // weights the outputs came from. Unlike stage-1 batches, forward products
  // are never shared across models.
  virtual std::string forward_scope() const {
    return preprocess_scope() + "|fwd=" + cache_identity();
  }
  // Encode/decode a stage-2 product (e.g. detection RawDetections) for the
  // disk cache; the default pair opts a task out, exactly as above.
  virtual bool encode_forward(const StageProduct& product,
                              std::string* bytes) const {
    (void)product;
    (void)bytes;
    return false;
  }
  virtual StageProduct decode_forward(const std::string& bytes) const {
    (void)bytes;
    return nullptr;
  }

  double evaluate(const SysNoiseConfig& cfg) const override {
    return run_postprocess(cfg, run_forward(cfg, run_preprocess(cfg)));
  }
};

// Compute-once keyed store for stage products. Concurrent requests for the
// same key block on the first computation's shared_future instead of
// recomputing; hit/miss counters mirror SweepCache's accounting. The
// staged executor releases each key once its last consumer is done, so the
// store holds only the products still in use.
class StageCache {
 public:
  StageProduct get_or_compute(const std::string& key,
                              const std::function<StageProduct()>& compute);
  // Drop the cache's reference to `key`'s product (a no-op for an absent
  // key). A later request for the key computes it again, as a miss.
  void release(const std::string& key);

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_future<StageProduct>> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

// Stage-cache accounting for one staged_sweep/staged_stepwise call,
// surfaced alongside the SweepOptions::cache (metric memo) stats. A "hit"
// is a planned evaluation that reused another evaluation's stage product.
struct StageStats {
  std::size_t preprocess_hits = 0;
  std::size_t preprocess_misses = 0;  // distinct preprocess keys materialized
  std::size_t forward_hits = 0;
  std::size_t forward_misses = 0;  // distinct forward passes run
  std::size_t evaluations = 0;     // configs evaluated after metric memo
  // Disk-backed StageCache accounting: of the preprocess_misses, how many
  // products were loaded from disk vs computed (and how many fresh
  // computations were persisted). A warm disk cache shows computed == 0 —
  // i.e. zero JPEG decodes in the whole run.
  std::size_t preprocess_disk_hits = 0;
  std::size_t preprocess_computed = 0;
  std::size_t preprocess_persisted = 0;
  // Same split for the forward stage (tasks that opt in via encode_forward;
  // a warm cache runs zero forward passes for repeated configs).
  std::size_t forward_disk_hits = 0;
  std::size_t forward_computed = 0;
  std::size_t forward_persisted = 0;
  // Network invocations, equal to forward_computed. Kept only for
  // perfbench's decorator run, which reports it.
  std::size_t batched_forward_calls = 0;

  StageStats& operator+=(const StageStats& o);

  // Field-per-field object (insertion order == declaration order), used by
  // the bench perf dumps and the trace summary's "stage_stats" section.
  util::Json to_json() const;
};

// Drop-in staged replacements for sweep()/stepwise(): identical reports,
// stage-shared evaluation. `stats` (optional) accumulates cache accounting.
AxisReport staged_sweep(const StagedEvalTask& task,
                        const SweepOptions& opts = {},
                        StageStats* stats = nullptr);
std::vector<StepPoint> staged_stepwise(const StagedEvalTask& task,
                                       const SweepOptions& opts = {},
                                       StageStats* stats = nullptr);

}  // namespace sysnoise::core
