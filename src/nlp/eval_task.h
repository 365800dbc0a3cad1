// StagedEvalTask adapter for the Table 5 NLP benchmark: a trained OPT-mini
// causal LM scored on one multiple-choice subtask, factored into the
// three-stage split the sweep engine shares intermediates across —
// preprocess = deployment tokenization of the eval items (Tokenizer axis),
// forward = per-item continuation scoring under the config's InferenceCtx
// (precision/backend axes), postprocess = accuracy. evaluate() on a
// training-default config reproduces bench_table5's original
// task_accuracy() loop bit-identically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/staged_eval.h"
#include "nlp/lm.h"
#include "nlp/tasks.h"

namespace sysnoise::nlp {

// A trained OPT-mini LM plus its INT8 calibration ranges, reproduced
// exactly like bench_table5_nlp trains one (corpus 480 x seed 31337, init
// Rng 77, 8 epochs at 2e-3, calibration over the corpus head). Training is
// deterministic, so a dist worker rebuilding the model holds bit-identical
// weights to the coordinator that planned the sweep.
struct TrainedLm {
  std::string name;
  std::unique_ptr<CausalLm> lm;
  nn::ActRanges ranges;
};

TrainedLm get_lm(const std::string& name);

class NlpChoiceTask : public core::StagedEvalTask {
 public:
  NlpChoiceTask(TrainedLm& tlm, TaskKind subtask);
  const std::string& name() const override { return name_; }
  core::TaskTraits traits() const override {
    return {core::TaskKind::kNlp, false};
  }
  TaskKind subtask() const { return subtask_; }

  std::string preprocess_key(const SysNoiseConfig& cfg) const override;
  std::string forward_key(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_preprocess(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_forward(const SysNoiseConfig& cfg,
                                 const core::StageProduct& pre) const override;
  double run_postprocess(const SysNoiseConfig& cfg,
                         const core::StageProduct& fwd) const override;

 private:
  TrainedLm& tlm_;
  TaskKind subtask_;
  std::string name_;
  std::vector<ChoiceItem> items_;
};

}  // namespace sysnoise::nlp
