#include "models/zoo.h"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "nn/serialize.h"
#include "obs/trace.h"

namespace sysnoise::models {

namespace {
constexpr std::uint64_t kInitSeed = 2024;
constexpr const char* kCacheVersion = "v1";
}  // namespace

void zoo_span_attrs(obs::TraceSpan& span, const std::string& model,
                    const std::string& tag, int epochs) {
  span.attr("model", model);
  span.attr("tag", tag);
  span.attr("epochs", epochs);
}

std::string cache_dir() {
  const char* env = std::getenv("SYSNOISE_CACHE_DIR");
  std::string dir = env != nullptr ? env : "/tmp/sysnoise_model_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

const data::ClsDataset& benchmark_cls_dataset() {
  static const data::ClsDataset ds = [] {
    obs::TraceSpan span("zoo.dataset");
    span.attr("task", "classification");
    return data::make_classification_dataset({});
  }();
  return ds;
}

const data::DetDataset& benchmark_det_dataset() {
  static const data::DetDataset ds = [] {
    obs::TraceSpan span("zoo.dataset");
    span.attr("task", "detection");
    return data::make_detection_dataset({});
  }();
  return ds;
}

const data::SegDataset& benchmark_seg_dataset() {
  static const data::SegDataset ds = [] {
    obs::TraceSpan span("zoo.dataset");
    span.attr("task", "segmentation");
    return data::make_segmentation_dataset({});
  }();
  return ds;
}

PipelineSpec cls_pipeline_spec() { return PipelineSpec{.out_h = 32, .out_w = 32}; }

PipelineSpec det_pipeline_spec() { return PipelineSpec{.out_h = 64, .out_w = 64}; }

PipelineSpec seg_pipeline_spec() { return PipelineSpec{.out_h = 64, .out_w = 64}; }

TrainedClassifier get_classifier(const std::string& name, const std::string& tag,
                                 const ClsPreprocessor* prep,
                                 const TrainConfig* train_override) {
  const auto& ds = benchmark_cls_dataset();
  const PipelineSpec spec = cls_pipeline_spec();

  TrainedClassifier out;
  out.name = name;
  out.tag = tag;
  Rng rng(kInitSeed);
  out.model = make_classifier(name, ds.num_classes, rng);

  nn::ParamRefs params;
  out.model->collect(params);
  nn::StateRefs state;
  out.model->collect_state(state);
  std::vector<const Tensor*> cstate(state.begin(), state.end());

  const std::string stem = cache_dir() + "/cls_" + name +
                           (tag.empty() ? "" : "_" + tag) + "_" + kCacheVersion;
  const std::string wpath = stem + ".weights";
  const std::string rpath = stem + ".ranges";

  TrainConfig cfg;
  // Transformers need the Adam recipe to converge from scratch at this
  // scale; convnets use SGD+momentum (both mirror common practice).
  if (name.rfind("ViT", 0) == 0 || name.rfind("Swin", 0) == 0) {
    cfg.use_adam = true;
    cfg.lr = 1.5e-3f;
    cfg.epochs = 30;
  }
  if (train_override != nullptr) cfg = *train_override;

  bool loaded = false;
  {
    obs::TraceSpan span("zoo.load");
    zoo_span_attrs(span, name, tag, cfg.epochs);
    loaded = nn::load_params(wpath, params, state);
    if (loaded && !nn::load_ranges(rpath, out.ranges)) {
      calibrate_classifier(*out.model, ds.train, spec, out.ranges);
      nn::save_ranges(rpath, out.ranges);
    }
  }
  if (!loaded) {
    {
      obs::TraceSpan span("zoo.train");
      zoo_span_attrs(span, name, tag, cfg.epochs);
      const ClsPreprocessor default_prep = default_cls_preprocessor(spec);
      train_classifier(*out.model, ds.train, ds.num_classes,
                       prep != nullptr ? *prep : default_prep, cfg);
      calibrate_classifier(*out.model, ds.train, spec, out.ranges);
    }
    nn::save_params(wpath, params, cstate);
    nn::save_ranges(rpath, out.ranges);
  }
  obs::TraceSpan span("zoo.baseline_eval");
  zoo_span_attrs(span, name, tag, cfg.epochs);
  out.trained_acc = eval_classifier(*out.model, ds.eval,
                                    SysNoiseConfig::training_default(), spec,
                                    &out.ranges);
  return out;
}

TrainedDetector get_detector(const std::string& name) {
  const auto& ds = benchmark_det_dataset();
  const PipelineSpec spec = det_pipeline_spec();

  std::string backbone, head;
  if (name == "FasterRCNN-ResNet") {
    backbone = "resnet";
    head = "softmax";
  } else if (name == "FasterRCNN-MobileNet") {
    backbone = "mobilenet";
    head = "softmax";
  } else if (name == "RetinaNet-ResNet") {
    backbone = "resnet";
    head = "sigmoid";
  } else if (name == "RetinaNet-MobileNet") {
    backbone = "mobilenet";
    head = "sigmoid";
  } else {
    throw std::invalid_argument("get_detector: unknown model " + name);
  }

  TrainedDetector out;
  out.name = name;
  Rng rng(kInitSeed + 1);
  out.model = std::make_unique<Detector>(backbone, head == "softmax",
                                         ds.num_classes, rng);

  nn::ParamRefs params;
  out.model->collect(params);
  nn::StateRefs state;
  out.model->collect_state(state);
  std::vector<const Tensor*> cstate(state.begin(), state.end());

  const std::string stem = cache_dir() + "/det_" + name + "_" + kCacheVersion;
  TrainConfig cfg;
  cfg.epochs = 16;
  cfg.batch_size = 8;
  cfg.lr = 0.02f;

  bool loaded = false;
  {
    obs::TraceSpan span("zoo.load");
    zoo_span_attrs(span, name, "", cfg.epochs);
    loaded = nn::load_params(stem + ".weights", params, state);
    if (loaded && !nn::load_ranges(stem + ".ranges", out.ranges)) {
      calibrate_detector(*out.model, ds, spec, out.ranges);
      nn::save_ranges(stem + ".ranges", out.ranges);
    }
  }
  if (!loaded) {
    {
      obs::TraceSpan span("zoo.train");
      zoo_span_attrs(span, name, "", cfg.epochs);
      train_detector(*out.model, ds, spec, cfg);
      calibrate_detector(*out.model, ds, spec, out.ranges);
    }
    nn::save_params(stem + ".weights", params, cstate);
    nn::save_ranges(stem + ".ranges", out.ranges);
  }
  obs::TraceSpan span("zoo.baseline_eval");
  zoo_span_attrs(span, name, "", cfg.epochs);
  out.trained_map = eval_detector(*out.model, ds, SysNoiseConfig::training_default(),
                                  spec, &out.ranges);
  return out;
}

TrainedSegmenter get_segmenter(const std::string& name) {
  const auto& ds = benchmark_seg_dataset();
  const PipelineSpec spec = seg_pipeline_spec();

  TrainedSegmenter out;
  out.name = name;
  Rng rng(kInitSeed + 2);
  out.model = make_segmenter(name, ds.num_classes, rng);

  nn::ParamRefs params;
  out.model->collect(params);
  nn::StateRefs state;
  out.model->collect_state(state);
  std::vector<const Tensor*> cstate(state.begin(), state.end());

  const std::string stem = cache_dir() + "/seg_" + name + "_" + kCacheVersion;
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;

  bool loaded = false;
  {
    obs::TraceSpan span("zoo.load");
    zoo_span_attrs(span, name, "", cfg.epochs);
    loaded = nn::load_params(stem + ".weights", params, state);
    if (loaded && !nn::load_ranges(stem + ".ranges", out.ranges)) {
      calibrate_segmenter(*out.model, ds, spec, out.ranges);
      nn::save_ranges(stem + ".ranges", out.ranges);
    }
  }
  if (!loaded) {
    {
      obs::TraceSpan span("zoo.train");
      zoo_span_attrs(span, name, "", cfg.epochs);
      train_segmenter(*out.model, ds, spec, cfg);
      calibrate_segmenter(*out.model, ds, spec, out.ranges);
    }
    nn::save_params(stem + ".weights", params, cstate);
    nn::save_ranges(stem + ".ranges", out.ranges);
  }
  obs::TraceSpan span("zoo.baseline_eval");
  zoo_span_attrs(span, name, "", cfg.epochs);
  out.trained_miou = eval_segmenter(*out.model, ds, SysNoiseConfig::training_default(),
                                    spec, &out.ranges);
  return out;
}

}  // namespace sysnoise::models
