#include "nlp/eval_task.h"

#include <stdexcept>
#include <utility>

namespace sysnoise::nlp {

namespace {

using Scores = std::vector<std::pair<double, double>>;  // (correct, wrong)

}  // namespace

TrainedLm get_lm(const std::string& name) {
  for (const LmSpec& spec : opt_mini_zoo()) {
    if (spec.name != name) continue;
    const auto corpus = make_lm_corpus(480, 31337);
    TrainedLm out;
    out.name = name;
    Rng rng(77);
    out.lm = std::make_unique<CausalLm>(spec, kVocab, rng);
    train_lm(*out.lm, corpus, /*epochs=*/8, 2e-3f);
    calibrate_lm(*out.lm, corpus, out.ranges);
    return out;
  }
  throw std::invalid_argument("get_lm: unknown LM \"" + name + "\"");
}

NlpChoiceTask::NlpChoiceTask(TrainedLm& tlm, TaskKind subtask)
    : tlm_(tlm),
      subtask_(subtask),
      name_(tlm.name + "/" + task_name(subtask)),
      items_(make_task_items(
          subtask, 120,
          9000 + static_cast<std::uint64_t>(static_cast<int>(subtask)))) {}

std::string NlpChoiceTask::preprocess_key(const SysNoiseConfig& cfg) const {
  // The only config knob NLP pre-processing reads is the tokenizer profile;
  // injective over tokenizer_noise_options() + the training default.
  return std::string("nlp|tok=") + tokenizer_profile_name(cfg.tokenizer);
}

std::string NlpChoiceTask::forward_key(const SysNoiseConfig& cfg) const {
  return preprocess_key(cfg) + core::forward_key_suffix(cfg);
}

core::StageProduct NlpChoiceTask::run_preprocess(
    const SysNoiseConfig& cfg) const {
  const int limit = tokenizer_profile_symbol_limit(cfg.tokenizer);
  auto items = std::make_shared<std::vector<ChoiceItem>>();
  items->reserve(items_.size());
  for (const ChoiceItem& item : items_)
    items->push_back(retokenize(item, limit));
  return items;
}

core::StageProduct NlpChoiceTask::run_forward(
    const SysNoiseConfig& cfg, const core::StageProduct& pre) const {
  const auto& items =
      *static_cast<const std::vector<ChoiceItem>*>(pre.get());
  const nn::InferenceCtx ctx = cfg.inference_ctx(&tlm_.ranges);
  auto scores = std::make_shared<Scores>();
  scores->reserve(items.size());
  for (const ChoiceItem& item : items) {
    const double sc =
        tlm_.lm->score_continuation(item.context, item.correct, ctx);
    const double sw =
        tlm_.lm->score_continuation(item.context, item.wrong, ctx);
    scores->emplace_back(sc, sw);
  }
  return scores;
}

double NlpChoiceTask::run_postprocess(const SysNoiseConfig& cfg,
                                      const core::StageProduct& fwd) const {
  (void)cfg;
  const auto& scores = *static_cast<const Scores*>(fwd.get());
  int correct = 0;
  for (const auto& [sc, sw] : scores)
    if (sc > sw) ++correct;
  return 100.0 * correct / static_cast<double>(scores.size());
}

}  // namespace sysnoise::nlp
