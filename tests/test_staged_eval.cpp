// Tests of the staged evaluation pipeline: stage-key structure
// (preprocess_key injectivity over every registry pre-processing option
// combination), staged == monolithic bit-identity per task kind, stage-
// cache hit accounting, and the headline reuse guarantees — pre-processed
// batches computed once per key, and the detection post-processing axis
// evaluated without re-running the forward pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/staged_eval.h"
#include "core/synthetic_task.h"
#include "core/sweep.h"
#include "data/pipeline.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"

namespace sysnoise::core {
namespace {

void expect_reports_identical(const AxisReport& a, const AxisReport& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.trained, b.trained);
  EXPECT_EQ(a.combined, b.combined);
  ASSERT_EQ(a.axes.size(), b.axes.size());
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    EXPECT_EQ(a.axes[i].axis, b.axes[i].axis);
    EXPECT_EQ(a.axes[i].mean, b.axes[i].mean) << a.axes[i].axis;
    EXPECT_EQ(a.axes[i].max, b.axes[i].max) << a.axes[i].axis;
    ASSERT_EQ(a.axes[i].options.size(), b.axes[i].options.size());
    for (std::size_t j = 0; j < a.axes[i].options.size(); ++j)
      EXPECT_EQ(a.axes[i].options[j].delta, b.axes[i].options[j].delta)
          << a.axes[i].axis << "/" << a.axes[i].options[j].label;
  }
}

// ---------------------------------------------------------------------------
// Stage keys
// ---------------------------------------------------------------------------

TEST(PreprocessKey, InjectiveOverAllRegistryPreprocessingCombinations) {
  // Every combination of the pre-processing option sets (training default
  // included) must map to a distinct stage-1 key.
  std::vector<jpeg::DecoderVendor> decoders = {SysNoiseConfig{}.decoder};
  for (auto v : decoder_noise_options()) decoders.push_back(v);
  std::vector<ResizeMethod> resizes = {SysNoiseConfig{}.resize};
  for (auto m : resize_noise_options()) resizes.push_back(m);
  std::vector<ColorMode> colors = {SysNoiseConfig{}.color};
  for (auto m : color_noise_options()) colors.push_back(m);
  std::vector<NormStats> norms = {SysNoiseConfig{}.norm};
  for (auto s : norm_noise_options()) norms.push_back(s);
  std::vector<float> crops = {SysNoiseConfig{}.crop_fraction};
  for (auto f : crop_noise_options()) crops.push_back(f);
  std::vector<ChannelLayout> layouts = {SysNoiseConfig{}.layout};
  for (auto l : layout_noise_options()) layouts.push_back(l);

  const PipelineSpec spec;
  std::set<std::string> keys;
  std::size_t combos = 0;
  for (auto d : decoders)
    for (auto r : resizes)
      for (auto c : colors)
        for (auto n : norms)
          for (auto f : crops)
            for (auto l : layouts) {
              SysNoiseConfig cfg;
              cfg.decoder = d;
              cfg.resize = r;
              cfg.color = c;
              cfg.norm = n;
              cfg.crop_fraction = f;
              cfg.layout = l;
              keys.insert(preprocess_key(cfg, spec));
              ++combos;
            }
  EXPECT_EQ(combos, decoders.size() * resizes.size() * colors.size() *
                        norms.size() * crops.size() * layouts.size());
  EXPECT_EQ(keys.size(), combos);
}

TEST(PreprocessKey, IgnoresInferenceAndPostprocessingKnobs) {
  const PipelineSpec spec;
  SysNoiseConfig base;
  SysNoiseConfig deploy = base;
  deploy.precision = nn::Precision::kINT8;
  deploy.ceil_mode = true;
  deploy.upsample = nn::UpsampleMode::kBilinear;
  deploy.proposal_offset = 1.0f;
  EXPECT_EQ(preprocess_key(base, spec), preprocess_key(deploy, spec));
}

TEST(PreprocessKey, DependsOnPipelineSpec) {
  const SysNoiseConfig cfg;
  EXPECT_NE(preprocess_key(cfg, models::cls_pipeline_spec()),
            preprocess_key(cfg, models::det_pipeline_spec()));
}

TEST(StagedTask, ForwardKeyRefinesPreprocessKeyButNotPostproc) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SysNoiseConfig base;
  SysNoiseConfig int8 = base;
  int8.precision = nn::Precision::kINT8;
  SysNoiseConfig offset = base;
  offset.proposal_offset = 1.0f;
  // Inference knobs split forward groups within one preprocess group...
  EXPECT_EQ(task.preprocess_key(base), task.preprocess_key(int8));
  EXPECT_NE(task.forward_key(base), task.forward_key(int8));
  // ...while post-processing knobs split neither.
  EXPECT_EQ(task.forward_key(base), task.forward_key(offset));
}

// ---------------------------------------------------------------------------
// Engine: bit-identity and stage reuse (synthetic)
// ---------------------------------------------------------------------------

TEST(StagedEngine, MatchesMonolithicBitIdenticallySerialAndParallel) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;
  const AxisReport mono = sweep(task, serial);
  expect_reports_identical(mono, staged_sweep(task, serial));
  expect_reports_identical(mono, staged_sweep(task, parallel));

  const auto steps_mono = stepwise(task, serial);
  const auto steps_staged = staged_stepwise(task, parallel);
  ASSERT_EQ(steps_mono.size(), steps_staged.size());
  for (std::size_t i = 0; i < steps_mono.size(); ++i) {
    EXPECT_EQ(steps_mono[i].step, steps_staged[i].step);
    EXPECT_EQ(steps_mono[i].delta, steps_staged[i].delta);
  }
}

TEST(StagedEngine, PreprocessOncePerKeyAndPostprocReusesForward) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  task.reset();
  StageStats stats;
  staged_sweep(task, {}, &stats);

  // Detection full-table plan: base + 3 decode + 10 resize + 1 color +
  // 2 norm + 1 layout + 2 precision + 2 backend + 1 ceil + 1 upsample +
  // 1 post-proc + combined = 26 planned evaluations.
  EXPECT_EQ(stats.evaluations, 26u);
  // Distinct preprocess keys: the default pipeline (shared by base,
  // precision, backend, ceil, upsample and post-proc configs) + 3+10+1+2+1
  // pre-processing options + combined = 19.
  EXPECT_EQ(task.pre_runs(), 19);
  EXPECT_EQ(stats.preprocess_misses, 19u);
  EXPECT_EQ(stats.preprocess_hits, 26u - 19u);
  // Distinct forward keys: every config forwards once except the post-proc
  // option, which shares the training-default forward pass = 25.
  EXPECT_EQ(task.fwd_runs(), 25);
  EXPECT_EQ(stats.forward_misses, 25u);
  EXPECT_EQ(stats.forward_hits, 1u);
  // Post-processing runs once per planned evaluation.
  EXPECT_EQ(task.post_runs(), 26);
}

TEST(StagedEngine, StepwiseSharesStagesAcrossCumulativeSteps) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  task.reset();
  StageStats stats;
  staged_stepwise(task, {}, &stats);

  // base + 10 cumulative steps; the five inference/post-processing steps
  // re-use the pre-processing of the last pre-processing step (+NHWC), and
  // the final post-proc step re-uses the previous step's forward outputs.
  EXPECT_EQ(stats.evaluations, 11u);
  EXPECT_EQ(task.pre_runs(), 6);
  EXPECT_EQ(task.fwd_runs(), 10);
  EXPECT_EQ(task.post_runs(), 11);
}

TEST(StagedEngine, SharedSweepCacheStillMemoizesAcrossCalls) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SweepCache cache;
  SweepOptions opts;
  opts.cache = &cache;
  const AxisReport first = staged_sweep(task, opts);
  task.reset();
  const AxisReport second = staged_sweep(task, opts);
  expect_reports_identical(first, second);
  // Every metric came out of the memo; no stage ran at all.
  EXPECT_EQ(task.pre_runs(), 0);
  EXPECT_EQ(task.fwd_runs(), 0);
  EXPECT_EQ(task.post_runs(), 0);
  EXPECT_GT(cache.hits(), 0u);
}

// Keeps a weak_ptr to every stage-1 product it hands out and records, on
// each run_forward, the most of them alive at once anywhere in the process.
class LiveProductTask : public SyntheticStagedTask {
 public:
  using SyntheticStagedTask::SyntheticStagedTask;

  StageProduct run_preprocess(const SysNoiseConfig& cfg) const override {
    StageProduct p = SyntheticStagedTask::run_preprocess(cfg);
    const std::lock_guard<std::mutex> lock(mu_);
    products_.push_back(p);
    return p;
  }
  StageProduct run_forward(const SysNoiseConfig& cfg,
                           const StageProduct& pre) const override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      std::size_t live = 0;
      for (const auto& p : products_) live += p.expired() ? 0 : 1;
      max_live_ = std::max(max_live_, live);
    }
    return SyntheticStagedTask::run_forward(cfg, pre);
  }
  std::size_t products() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return products_.size();
  }
  std::size_t max_live() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return max_live_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<std::weak_ptr<const void>> products_;
  mutable std::size_t max_live_ = 0;
};

TEST(StagedEngine, KeepsAtMostOneStageOneProductPerThreadResident) {
  const SyntheticStagedTask reference(TaskKind::kClassification, true);
  const AxisReport want = sweep(reference);
  for (const int threads : {1, 2, 4}) {
    const LiveProductTask task(TaskKind::kClassification, true);
    SweepOptions opts;
    opts.threads = threads;
    StageStats stats;
    expect_reports_identical(want, staged_sweep(task, opts, &stats));
    // Stage 1 still runs once per preprocess key, for more keys than threads.
    EXPECT_EQ(task.products(), stats.preprocess_misses);
    EXPECT_GT(task.products(), static_cast<std::size_t>(threads));
    EXPECT_GE(task.max_live(), 1u);
    EXPECT_LE(task.max_live(), static_cast<std::size_t>(threads))
        << threads << " threads";
  }
}

TEST(StageCacheT, ReleasedKeyIsComputedAgainAsAMiss) {
  StageCache cache;
  int computes = 0;
  auto make = [&] {
    ++computes;
    return std::make_shared<const int>(computes);
  };
  std::weak_ptr<const void> first = cache.get_or_compute("k", make);
  EXPECT_FALSE(first.expired());  // the cache still holds it
  cache.release("k");
  EXPECT_TRUE(first.expired());
  cache.release("absent");
  EXPECT_EQ(*static_cast<const int*>(cache.get_or_compute("k", make).get()), 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StageCacheT, ComputesOncePerKeyAndCountsHits) {
  StageCache cache;
  int computes = 0;
  auto make = [&] {
    ++computes;
    return std::make_shared<const int>(7);
  };
  const auto a = cache.get_or_compute("k", make);
  const auto b = cache.get_or_compute("k", make);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(*static_cast<const int*>(a.get()), 7);
}

// ---------------------------------------------------------------------------
// Real models: staged == monolithic, bit-identical, per task kind
// ---------------------------------------------------------------------------

// Small private registries keep the real-model matrix affordable while
// still covering every stage boundary (pre-processing, inference and
// post-processing knobs).
AxisRegistry tiny_registry(bool with_postproc) {
  AxisRegistry reg;
  {
    NoiseAxis a;
    a.name = "Resize";
    a.key = "resize";
    a.option_labels = {"opencv-nearest"};
    a.apply = [](SysNoiseConfig& cfg, int) {
      cfg.resize = ResizeMethod::kOpenCVNearest;
    };
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "Very High";
    reg.add(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Normalize";
    a.key = "normalize";
    a.option_labels = {"0.5/0.5"};
    a.apply = [](SysNoiseConfig& cfg, int) { cfg.norm = NormStats::kHalfHalf; };
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "Middle";
    reg.add(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Precision";
    a.key = "precision";
    a.option_labels = {"FP16"};
    a.apply = [](SysNoiseConfig& cfg, int) {
      cfg.precision = nn::Precision::kFP16;
    };
    a.stage = "Model inference";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "High";
    reg.add(std::move(a));
  }
  if (with_postproc) {
    NoiseAxis a;
    a.name = "Post-proc";
    a.key = "postproc";
    a.option_labels = {"offset-1"};
    a.applies = [](const TaskTraits& t) {
      return t.kind == TaskKind::kDetection;
    };
    a.apply = [](SysNoiseConfig& cfg, int) { cfg.proposal_offset = 1.0f; };
    a.stage = "Post-processing";
    a.tasks_label = "Det";
    a.effect_level = "Middle";
    reg.add(std::move(a));
  }
  return reg;
}

TEST(StagedRealModels, ClassifierStagedMatchesMonolithic) {
  auto tc = models::get_classifier("MCUNet");
  models::ClassifierTask task(tc);
  const AxisRegistry reg = tiny_registry(false);
  SweepOptions opts;
  opts.registry = &reg;
  StageStats stats;
  expect_reports_identical(sweep(task, opts),
                           staged_sweep(task, opts, &stats));
  // base+FP16 share one preprocess key; resize and norm options and the
  // combined config each get their own.
  EXPECT_EQ(stats.evaluations, 5u);
  EXPECT_EQ(stats.preprocess_misses, 4u);
  EXPECT_EQ(stats.preprocess_hits, 1u);
}

TEST(StagedRealModels, DetectorStagedMatchesMonolithicWithoutPostprocForward) {
  auto td = models::get_detector("RetinaNet-MobileNet");
  models::DetectorTask task(td);
  const AxisRegistry reg = tiny_registry(true);
  SweepOptions opts;
  opts.registry = &reg;
  StageStats stats;
  expect_reports_identical(sweep(task, opts),
                           staged_sweep(task, opts, &stats));
  // The post-proc option rode on the training-default forward pass: one
  // forward fewer than planned evaluations.
  EXPECT_EQ(stats.evaluations, 6u);
  EXPECT_EQ(stats.forward_misses, 5u);
  EXPECT_EQ(stats.forward_hits, 1u);

  // And the raw-output split reproduces the monolithic detector eval for
  // the post-processing knob end to end.
  SysNoiseConfig offset_cfg;
  offset_cfg.proposal_offset = 1.0f;
  const auto& ds = models::benchmark_det_dataset();
  const auto spec = models::det_pipeline_spec();
  const auto batches = models::preprocess_det_batches(ds, offset_cfg, spec);
  const auto raw =
      models::detector_forward_batches(*td.model, batches, offset_cfg, &td.ranges);
  EXPECT_EQ(models::detector_map_from_raw(*td.model, raw, ds, offset_cfg),
            models::eval_detector(*td.model, ds, offset_cfg, spec, &td.ranges));
}

TEST(StagedRealModels, SegmenterStagedMatchesMonolithic) {
  auto ts = models::get_segmenter("UNet");
  models::SegmenterTask task(ts);
  const AxisRegistry reg = tiny_registry(false);
  SweepOptions opts;
  opts.registry = &reg;
  expect_reports_identical(sweep(task, opts), staged_sweep(task, opts));
}

}  // namespace
}  // namespace sysnoise::core
