// The model seam the inference server batches requests through.
//
// A ServingModel answers micro-batches of evaluation-set sample indices
// with one prediction per request. The contract that makes serving
// measurable against the offline sweep is per-sample batch independence:
// a sample's prediction must be bit-identical no matter which other
// requests share its micro-batch (the per-sample forward contract of
// nn/ops.h; requests stacked along the batch axis with stack_parts; tested
// in tests/test_serving.cpp). Serving is the one place the harness runs a
// network over requests stacked this way. Under that contract, served
// accuracy over a trace that covers the evaluation set equals the offline
// sweep metric bit-exactly, whatever batches the dynamic batcher happened
// to form.
//
// Two implementations: ClassifierServingModel binds a trained zoo
// classifier plus a deployment config (the stage-1 pre-processing for
// every sample is materialized once at construction — the serving
// equivalent of a warm disk StageCache — and each micro-batch stacks the
// requested samples' tensors through one forward pass under the config's
// backend); SyntheticServingModel is the model-free stand-in for server
// tests, deterministic from its seed with a tunable per-batch cost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/noise_config.h"
#include "data/pipeline.h"
#include "models/zoo.h"

namespace sysnoise::serve {

class ServingModel {
 public:
  virtual ~ServingModel() = default;
  virtual const std::string& name() const = 0;
  virtual int num_samples() const = 0;
  // One prediction per requested sample (duplicates allowed, any order).
  // Must be thread-safe and per-sample batch-independent (see above).
  virtual std::vector<int> predict(const std::vector<int>& samples) const = 0;
  virtual bool correct(int sample, int prediction) const = 0;
};

class ClassifierServingModel : public ServingModel {
 public:
  // `tc` and `eval` must outlive the model. Pre-processes every sample
  // under `cfg` up front (one [1,3,H,W] tensor each).
  ClassifierServingModel(models::TrainedClassifier& tc,
                         const std::vector<data::ClsSample>& eval,
                         const PipelineSpec& spec, const SysNoiseConfig& cfg);

  const std::string& name() const override { return tc_.name; }
  int num_samples() const override { return static_cast<int>(eval_.size()); }
  std::vector<int> predict(const std::vector<int>& samples) const override;
  bool correct(int sample, int prediction) const override;

  const SysNoiseConfig& config() const { return cfg_; }

  // The offline sweep baseline for this deployment config: the exact
  // eval_classifier_batches metric (production batch layout, bs=16) the
  // table benches report — what served accuracy is diffed against.
  double offline_accuracy() const;

 private:
  models::TrainedClassifier& tc_;
  const std::vector<data::ClsSample>& eval_;
  PipelineSpec spec_;
  SysNoiseConfig cfg_;
  std::vector<Tensor> inputs_;  // per-sample stage-1 products, [1,3,H,W]
};

// Deterministic model-free stand-in: prediction = FNV-1a(sample, seed) into
// `num_classes`, "labels" drawn the same way from an independent stream, an
// optional spin cost per batch (base + per-item rounds) so wall-clock
// serving paths have something to burn.
class SyntheticServingModel : public ServingModel {
 public:
  SyntheticServingModel(int num_samples, int num_classes = 10,
                        std::uint64_t seed = 1, int base_spin_rounds = 0,
                        int item_spin_rounds = 0);

  const std::string& name() const override { return name_; }
  int num_samples() const override { return num_samples_; }
  std::vector<int> predict(const std::vector<int>& samples) const override;
  bool correct(int sample, int prediction) const override;

 private:
  std::string name_ = "synthetic-serving";
  int num_samples_;
  int num_classes_;
  std::uint64_t seed_;
  int base_spin_rounds_;
  int item_spin_rounds_;
  std::vector<int> labels_;
};

}  // namespace sysnoise::serve
