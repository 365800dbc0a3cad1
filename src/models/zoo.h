// Model zoo with a disk cache: every (model, dataset) pair is trained once
// per machine; subsequent test/bench runs load weights, BN statistics and
// INT8 calibration ranges from SYSNOISE_CACHE_DIR (default
// /tmp/sysnoise_model_cache).
#pragma once

#include <memory>
#include <string>

#include "models/train.h"

namespace sysnoise::obs {
class TraceSpan;
}  // namespace sysnoise::obs

namespace sysnoise::models {

std::string cache_dir();

// Attributes of the zoo.load / zoo.train / zoo.baseline_eval spans, shared
// by every site that loads or trains cached weights; a span is inert
// (records nothing) while tracing is off.
void zoo_span_attrs(obs::TraceSpan& span, const std::string& model,
                    const std::string& tag, int epochs);

// Shared benchmark datasets (constructed once per process, deterministic).
const data::ClsDataset& benchmark_cls_dataset();
const data::DetDataset& benchmark_det_dataset();
const data::SegDataset& benchmark_seg_dataset();

// Per-task pipeline specs (decode->32x32 for classification; detection and
// segmentation use 64x64 but own their spec so either can diverge without
// touching the other).
PipelineSpec cls_pipeline_spec();
PipelineSpec det_pipeline_spec();
PipelineSpec seg_pipeline_spec();

struct TrainedClassifier {
  std::string name;
  std::string tag;  // retrained-variant tag ("" for the default recipe)
  std::unique_ptr<Classifier> model;
  nn::ActRanges ranges;  // INT8 calibration
  double trained_acc = 0.0;
};

// Train (or load) a classifier on the shared dataset with the default
// recipe. `tag` distinguishes retrained variants (mitigation studies);
// `prep` overrides the training preprocessor (mix training / augmentation).
TrainedClassifier get_classifier(const std::string& name,
                                 const std::string& tag = "",
                                 const ClsPreprocessor* prep = nullptr,
                                 const TrainConfig* train_override = nullptr);

struct TrainedDetector {
  std::string name;
  std::unique_ptr<Detector> model;
  nn::ActRanges ranges;
  double trained_map = 0.0;
};

// name: "FasterRCNN-ResNet" | "FasterRCNN-MobileNet" | "RetinaNet-ResNet" |
// "RetinaNet-MobileNet".
TrainedDetector get_detector(const std::string& name);

struct TrainedSegmenter {
  std::string name;
  std::unique_ptr<Segmenter> model;
  nn::ActRanges ranges;
  double trained_miou = 0.0;
};

// name: "DeepLab-S" | "DeepLab-M" | "UNet".
TrainedSegmenter get_segmenter(const std::string& name);

}  // namespace sysnoise::models
