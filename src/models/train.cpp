#include "models/train.h"

#include <algorithm>

#include "nn/optim.h"
#include "seg/miou.h"

namespace sysnoise::models {

using namespace sysnoise::nn;

Tensor stack_batch(const std::vector<Tensor>& items) { return stack_front(items); }

ClsPreprocessor default_cls_preprocessor(const PipelineSpec& spec) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  return [spec, train_cfg](const data::ClsSample& s, Rng&) {
    return preprocess(s.jpeg, train_cfg, spec);
  };
}

float train_classifier(Classifier& model, const std::vector<data::ClsSample>& train,
                       int num_classes, const ClsPreprocessor& prep,
                       const TrainConfig& cfg) {
  (void)num_classes;
  ParamRefs params;
  model.collect(params);
  Sgd sgd(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Adam adam(params, cfg.lr, 0.9f, 0.999f, 1e-8f, cfg.weight_decay);
  Rng rng(cfg.seed);

  const int n = static_cast<int>(train.size());
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total_steps = cfg.epochs * steps_per_epoch;
  int step = 0;
  float last_loss = 0.0f;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      std::vector<Tensor> inputs;
      std::vector<int> labels;
      inputs.reserve(static_cast<std::size_t>(bs));
      for (int i = 0; i < bs; ++i) {
        const auto& s = train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        inputs.push_back(prep(s, rng));
        labels.push_back(s.label);
      }
      Tape t;
      t.training = true;
      const float lr = cosine_lr(cfg.lr, step, total_steps);
      sgd.set_lr(lr);
      adam.set_lr(lr);
      sgd.zero_grad();
      Node* x = t.input(stack_batch(inputs));
      Node* logits = model.forward(t, x, BnMode::kTrain);
      Node* loss = softmax_cross_entropy(t, logits, labels);
      t.backward(loss);
      clip_grad_norm(params, cfg.clip_norm);
      if (cfg.use_adam)
        adam.step();
      else
        sgd.step();
      last_loss = loss->value[0];
      ++step;
    }
  }
  return last_loss;
}

PreprocessedBatches preprocess_cls_batches(const std::vector<data::ClsSample>& eval,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec,
                                           int batch_size) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  jpegs.reserve(eval.size());
  for (const auto& s : eval) jpegs.push_back(&s.jpeg);
  return preprocess_batches(jpegs, cfg, spec, batch_size);
}

double eval_classifier_batches(Classifier& model,
                               const PreprocessedBatches& batches,
                               const std::vector<data::ClsSample>& eval,
                               const SysNoiseConfig& cfg, ActRanges* ranges) {
  const int n = batches.num_samples;
  int correct = 0, b = 0;
  for (const Tensor& input : batches.inputs) {
    const int bs = input.dim(0);
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(t, t.input(input), BnMode::kEval);
    for (int i = 0; i < bs; ++i) {
      int best = 0;
      for (int c = 1; c < logits->value.dim(1); ++c)
        if (logits->value.at2(i, c) > logits->value.at2(i, best)) best = c;
      if (best == eval[static_cast<std::size_t>(b + i)].label) ++correct;
    }
    b += bs;
  }
  return 100.0 * correct / std::max(1, n);
}

double eval_classifier(Classifier& model, const std::vector<data::ClsSample>& eval,
                       const SysNoiseConfig& cfg, const PipelineSpec& spec,
                       ActRanges* ranges, int batch_size) {
  return eval_classifier_batches(
      model, preprocess_cls_batches(eval, cfg, spec, batch_size), eval, cfg,
      ranges);
}

void calibrate_classifier(Classifier& model,
                          const std::vector<data::ClsSample>& calib,
                          const PipelineSpec& spec, ActRanges& ranges,
                          int max_samples) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const int n = std::min<int>(max_samples, static_cast<int>(calib.size()));
  for (int b = 0; b < n; b += 8) {
    const int bs = std::min(8, n - b);
    std::vector<Tensor> inputs;
    for (int i = 0; i < bs; ++i)
      inputs.push_back(preprocess(calib[static_cast<std::size_t>(b + i)].jpeg, train_cfg, spec));
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, t.input(stack_batch(inputs)), BnMode::kEval);
  }
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

float train_detector(Detector& model, const data::DetDataset& ds,
                     const PipelineSpec& spec, const TrainConfig& cfg) {
  ParamRefs params;
  model.collect(params);
  Sgd opt(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Rng rng(cfg.seed);
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();

  const int n = static_cast<int>(ds.train.size());
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total_steps = cfg.epochs * steps_per_epoch;
  int step = 0;
  float last_loss = 0.0f;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      std::vector<Tensor> inputs;
      std::vector<std::vector<detect::GtBox>> gts;
      for (int i = 0; i < bs; ++i) {
        const auto& s = ds.train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        inputs.push_back(preprocess(s.jpeg, train_cfg, spec));
        gts.push_back(s.boxes);
      }
      Tape t;
      t.training = true;
      opt.set_lr(cosine_lr(cfg.lr, step, total_steps));
      opt.zero_grad();
      DetectorOutput out = model.forward(t, t.input(stack_batch(inputs)), BnMode::kTrain);
      Node* loss = detection_loss(t, model, out, gts, rng);
      t.backward(loss);
      clip_grad_norm(params, cfg.clip_norm);
      opt.step();
      last_loss = loss->value[0];
      ++step;
    }
  }
  return last_loss;
}

PreprocessedBatches preprocess_det_batches(const data::DetDataset& ds,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  jpegs.reserve(ds.eval.size());
  for (const auto& s : ds.eval) jpegs.push_back(&s.jpeg);
  return preprocess_batches(jpegs, cfg, spec, /*batch_size=*/8);
}

RawDetections detector_forward_batches(Detector& model,
                                       const PreprocessedBatches& batches,
                                       const SysNoiseConfig& cfg,
                                       ActRanges* ranges) {
  RawDetections raw;
  raw.batches.reserve(batches.inputs.size());
  for (const Tensor& input : batches.inputs) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    DetectorOutput out = model.forward(t, t.input(input), BnMode::kEval);
    raw.batches.push_back(detach_detector_output(out));
  }
  return raw;
}

double detector_map_from_raw(const Detector& model, const RawDetections& raw,
                             const data::DetDataset& ds,
                             const SysNoiseConfig& cfg) {
  std::vector<std::vector<detect::Detection>> all_dets;
  std::vector<std::vector<detect::GtBox>> all_gts;
  std::size_t sample = 0;
  for (const RawDetectorOutput& out : raw.batches) {
    auto dets = detection_postprocess(model, out, cfg, ds.input_size);
    for (auto& d : dets) {
      all_dets.push_back(std::move(d));
      all_gts.push_back(ds.eval[sample++].boxes);
    }
  }
  return 100.0 * detect::mean_average_precision(all_dets, all_gts, ds.num_classes);
}

double eval_detector(Detector& model, const data::DetDataset& ds,
                     const SysNoiseConfig& cfg, const PipelineSpec& spec,
                     ActRanges* ranges) {
  const RawDetections raw = detector_forward_batches(
      model, preprocess_det_batches(ds, cfg, spec), cfg, ranges);
  return detector_map_from_raw(model, raw, ds, cfg);
}

void calibrate_detector(Detector& model, const data::DetDataset& ds,
                        const PipelineSpec& spec, ActRanges& ranges,
                        int max_samples) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const int n = std::min<int>(max_samples, static_cast<int>(ds.train.size()));
  for (int b = 0; b < n; b += 4) {
    const int bs = std::min(4, n - b);
    std::vector<Tensor> inputs;
    for (int i = 0; i < bs; ++i)
      inputs.push_back(preprocess(ds.train[static_cast<std::size_t>(b + i)].jpeg, train_cfg, spec));
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, t.input(stack_batch(inputs)), BnMode::kEval);
  }
}

// ---------------------------------------------------------------------------
// Segmentation
// ---------------------------------------------------------------------------

float train_segmenter(Segmenter& model, const data::SegDataset& ds,
                      const PipelineSpec& spec, const TrainConfig& cfg) {
  ParamRefs params;
  model.collect(params);
  Sgd opt(params, cfg.lr, cfg.momentum, cfg.weight_decay);
  Rng rng(cfg.seed);
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();

  const int n = static_cast<int>(ds.train.size());
  const int steps_per_epoch = (n + cfg.batch_size - 1) / cfg.batch_size;
  const int total_steps = cfg.epochs * steps_per_epoch;
  int step = 0;
  float last_loss = 0.0f;
  const int hw = ds.input_size * ds.input_size;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += cfg.batch_size) {
      const int bs = std::min(cfg.batch_size, n - b);
      std::vector<Tensor> inputs;
      std::vector<int> labels;
      labels.reserve(static_cast<std::size_t>(bs) * hw);
      for (int i = 0; i < bs; ++i) {
        const auto& s = ds.train[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        inputs.push_back(preprocess(s.jpeg, train_cfg, spec));
        labels.insert(labels.end(), s.mask.begin(), s.mask.end());
      }
      Tape t;
      t.training = true;
      opt.set_lr(cosine_lr(cfg.lr, step, total_steps));
      opt.zero_grad();
      Node* logits = model.forward(t, t.input(stack_batch(inputs)), BnMode::kTrain);
      Node* rows = reshape(t, nchw_to_nhwc(t, logits),
                           {bs * hw, logits->value.dim(1)});
      Node* loss = softmax_cross_entropy(t, rows, labels);
      t.backward(loss);
      clip_grad_norm(params, cfg.clip_norm);
      opt.step();
      last_loss = loss->value[0];
      ++step;
    }
  }
  return last_loss;
}

PreprocessedBatches preprocess_seg_batches(const data::SegDataset& ds,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  jpegs.reserve(ds.eval.size());
  for (const auto& s : ds.eval) jpegs.push_back(&s.jpeg);
  return preprocess_batches(jpegs, cfg, spec, /*batch_size=*/4);
}

double eval_segmenter_batches(Segmenter& model,
                              const PreprocessedBatches& batches,
                              const data::SegDataset& ds,
                              const SysNoiseConfig& cfg, ActRanges* ranges) {
  std::vector<int> all_pred, all_gt;
  std::size_t sample = 0;
  for (const Tensor& input : batches.inputs) {
    const int bs = input.dim(0);
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(t, t.input(input), BnMode::kEval);
    const int c = logits->value.dim(1), h = logits->value.dim(2),
              w = logits->value.dim(3);
    for (int i = 0; i < bs; ++i) {
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
          int best = 0;
          for (int cc = 1; cc < c; ++cc)
            if (logits->value.at4(i, cc, y, x) > logits->value.at4(i, best, y, x))
              best = cc;
          all_pred.push_back(best);
        }
      const auto& mask = ds.eval[sample++].mask;
      all_gt.insert(all_gt.end(), mask.begin(), mask.end());
    }
  }
  return 100.0 * seg::mean_iou(all_pred, all_gt, ds.num_classes);
}

double eval_segmenter(Segmenter& model, const data::SegDataset& ds,
                      const SysNoiseConfig& cfg, const PipelineSpec& spec,
                      ActRanges* ranges) {
  return eval_segmenter_batches(model, preprocess_seg_batches(ds, cfg, spec),
                                ds, cfg, ranges);
}

void calibrate_segmenter(Segmenter& model, const data::SegDataset& ds,
                         const PipelineSpec& spec, ActRanges& ranges,
                         int max_samples) {
  const SysNoiseConfig train_cfg = SysNoiseConfig::training_default();
  const int n = std::min<int>(max_samples, static_cast<int>(ds.train.size()));
  for (int b = 0; b < n; b += 4) {
    const int bs = std::min(4, n - b);
    std::vector<Tensor> inputs;
    for (int i = 0; i < bs; ++i)
      inputs.push_back(preprocess(ds.train[static_cast<std::size_t>(b + i)].jpeg, train_cfg, spec));
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, t.input(stack_batch(inputs)), BnMode::kEval);
  }
}

}  // namespace sysnoise::models
