#include "models/eval_tasks.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "core/executor.h"
#include "core/plan.h"

namespace sysnoise::models {

// ---------------------------------------------------------------------------
// Stage-1 product (de)serialization for the disk StageCache
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kBatchesMagic = 0x53504231;    // "SPB1"
constexpr std::uint32_t kRawDetsMagic = 0x53504431;    // "SPD1"
constexpr std::uint32_t kMetricMagic = 0x53504D31;     // "SPM1"

void put_u32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool get_u32(const std::string& in, std::size_t* pos, std::uint32_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

void put_tensor(std::string* out, const Tensor& t) {
  put_u32(out, static_cast<std::uint32_t>(t.rank()));
  for (const int d : t.shape()) put_u32(out, static_cast<std::uint32_t>(d));
  out->append(reinterpret_cast<const char*>(t.data()),
              t.size() * sizeof(float));
}

// Bounded like decode_batches: dims are capped by what the remaining
// payload could hold, so a malformed payload reads as `false`, never UB.
bool get_tensor(const std::string& in, std::size_t* pos, Tensor* t) {
  std::uint32_t rank = 0;
  if (!get_u32(in, pos, &rank) || rank > 8) return false;
  const std::size_t max_elems = in.size() / sizeof(float);
  std::vector<int> shape;
  std::size_t elems = 1;
  for (std::uint32_t r = 0; r < rank; ++r) {
    std::uint32_t d = 0;
    if (!get_u32(in, pos, &d)) return false;
    if (d == 0 || d > 0x7fffffffu || d > max_elems || elems > max_elems / d)
      return false;
    shape.push_back(static_cast<int>(d));
    elems *= d;
  }
  if (*pos + elems * sizeof(float) > in.size()) return false;
  std::vector<float> data(elems);
  std::memcpy(data.data(), in.data() + *pos, elems * sizeof(float));
  *pos += elems * sizeof(float);
  *t = Tensor::from_vector(std::move(shape), std::move(data));
  return true;
}

// Dataset/pipeline-spec identity the (dataset-agnostic) preprocess_key is
// relative to. The eval-set size is a cheap tripwire against pairing one
// benchmark dataset's products with another's.
std::string batches_scope(const char* task_kind, std::size_t num_samples,
                          const PipelineSpec& spec) {
  std::ostringstream os;
  os << "bench-" << task_kind << "|n=" << num_samples << "|out=" << spec.out_h
     << "x" << spec.out_w << "|v1";
  return os.str();
}

}  // namespace

std::string encode_batches(const PreprocessedBatches& batches) {
  std::string out;
  put_u32(&out, kBatchesMagic);
  put_u32(&out, static_cast<std::uint32_t>(batches.batch_size));
  put_u32(&out, static_cast<std::uint32_t>(batches.num_samples));
  put_u32(&out, static_cast<std::uint32_t>(batches.inputs.size()));
  for (const Tensor& t : batches.inputs) {
    put_u32(&out, static_cast<std::uint32_t>(t.rank()));
    for (const int d : t.shape()) put_u32(&out, static_cast<std::uint32_t>(d));
    out.append(reinterpret_cast<const char*>(t.data()),
               t.size() * sizeof(float));
  }
  return out;
}

bool decode_batches(const std::string& bytes, PreprocessedBatches* out) {
  std::size_t pos = 0;
  std::uint32_t magic = 0, batch_size = 0, num_samples = 0, count = 0;
  if (!get_u32(bytes, &pos, &magic) || magic != kBatchesMagic ||
      !get_u32(bytes, &pos, &batch_size) ||
      !get_u32(bytes, &pos, &num_samples) || !get_u32(bytes, &pos, &count))
    return false;
  out->batch_size = static_cast<int>(batch_size);
  out->num_samples = static_cast<int>(num_samples);
  out->inputs.clear();
  // A malformed payload must read as `false`, never throw: dims are bounded
  // by what the remaining payload could possibly hold, so `elems` cannot
  // overflow and Tensor::from_vector cannot see a shape/data mismatch.
  const std::size_t max_elems = bytes.size() / sizeof(float);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t rank = 0;
    if (!get_u32(bytes, &pos, &rank) || rank > 8) return false;
    std::vector<int> shape;
    std::size_t elems = 1;
    for (std::uint32_t r = 0; r < rank; ++r) {
      std::uint32_t d = 0;
      if (!get_u32(bytes, &pos, &d)) return false;
      if (d == 0 || d > 0x7fffffffu || d > max_elems || elems > max_elems / d)
        return false;
      shape.push_back(static_cast<int>(d));
      elems *= d;
    }
    if (pos + elems * sizeof(float) > bytes.size()) return false;
    std::vector<float> data(elems);
    std::memcpy(data.data(), bytes.data() + pos, elems * sizeof(float));
    pos += elems * sizeof(float);
    out->inputs.push_back(Tensor::from_vector(std::move(shape), std::move(data)));
  }
  return pos == bytes.size();
}

std::string encode_raw_detections(const RawDetections& raw) {
  std::string out;
  put_u32(&out, kRawDetsMagic);
  put_u32(&out, static_cast<std::uint32_t>(raw.batches.size()));
  for (const RawDetectorOutput& b : raw.batches) {
    if (b.cls.size() != b.reg.size() || b.cls.size() != b.shapes.size())
      return std::string();  // malformed product: refuse to persist
    put_u32(&out, static_cast<std::uint32_t>(b.cls.size()));
    for (std::size_t l = 0; l < b.cls.size(); ++l) {
      put_u32(&out, static_cast<std::uint32_t>(b.shapes[l].first));
      put_u32(&out, static_cast<std::uint32_t>(b.shapes[l].second));
      put_tensor(&out, b.cls[l]);
      put_tensor(&out, b.reg[l]);
    }
  }
  return out;
}

bool decode_raw_detections(const std::string& bytes, RawDetections* out) {
  std::size_t pos = 0;
  std::uint32_t magic = 0, nbatches = 0;
  if (!get_u32(bytes, &pos, &magic) || magic != kRawDetsMagic ||
      !get_u32(bytes, &pos, &nbatches))
    return false;
  out->batches.clear();
  for (std::uint32_t b = 0; b < nbatches; ++b) {
    std::uint32_t nlevels = 0;
    if (!get_u32(bytes, &pos, &nlevels) || nlevels > 64) return false;
    RawDetectorOutput batch;
    for (std::uint32_t l = 0; l < nlevels; ++l) {
      std::uint32_t h = 0, w = 0;
      Tensor cls, reg;
      if (!get_u32(bytes, &pos, &h) || !get_u32(bytes, &pos, &w) ||
          !get_tensor(bytes, &pos, &cls) || !get_tensor(bytes, &pos, &reg))
        return false;
      batch.shapes.emplace_back(static_cast<int>(h), static_cast<int>(w));
      batch.cls.push_back(std::move(cls));
      batch.reg.push_back(std::move(reg));
    }
    out->batches.push_back(std::move(batch));
  }
  return pos == bytes.size();
}

namespace {

bool encode_batches_product(const core::StageProduct& product,
                            std::string* bytes) {
  *bytes = encode_batches(
      *static_cast<const PreprocessedBatches*>(product.get()));
  return true;
}

core::StageProduct decode_batches_product(const std::string& bytes) {
  auto batches = std::make_shared<PreprocessedBatches>();
  if (!decode_batches(bytes, batches.get())) return nullptr;
  return std::shared_ptr<const PreprocessedBatches>(std::move(batches));
}

// Classification/segmentation forward products are the bare metric double;
// persist it with exact bits.
bool encode_metric_product(const core::StageProduct& product,
                           std::string* bytes) {
  bytes->clear();
  put_u32(bytes, kMetricMagic);
  const double v = *static_cast<const double*>(product.get());
  bytes->append(reinterpret_cast<const char*>(&v), sizeof(v));
  return true;
}

core::StageProduct decode_metric_product(const std::string& bytes) {
  std::size_t pos = 0;
  std::uint32_t magic = 0;
  if (!get_u32(bytes, &pos, &magic) || magic != kMetricMagic ||
      bytes.size() != pos + sizeof(double))
    return nullptr;
  double v = 0.0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return std::make_shared<const double>(v);
}

// Stable fingerprint of a model's loaded parameters, BN state and INT8
// calibration ranges: forward products must never outlive the numbers that
// produced them, and the zoo's model names stay the same across retrains.
template <typename Model>
std::string weights_fingerprint(Model& model, const nn::ActRanges& ranges) {
  nn::ParamRefs params;
  model.collect(params);
  nn::StateRefs state;
  model.collect_state(state);
  std::uint64_t h = 1469598103934665603ull;
  auto mix_bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_tensor = [&](const Tensor& t) {
    for (const int d : t.shape()) mix_bytes(&d, sizeof(d));
    mix_bytes(t.data(), t.size() * sizeof(float));
  };
  for (const nn::Param* p : params) mix_tensor(p->value);
  for (const Tensor* t : state) mix_tensor(*t);
  for (const auto& [key, obs] : ranges) {
    mix_bytes(key.data(), key.size());
    mix_bytes(&obs.lo, sizeof(obs.lo));
    mix_bytes(&obs.hi, sizeof(obs.hi));
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

// One scope builder for all three adapters, so the format (and the lazily
// computed call_once weights fingerprint, which pins the exact weights the
// outputs came from) cannot drift between task kinds.
template <typename Trained>
std::string cached_forward_scope(const core::StagedEvalTask& task,
                                 Trained& trained, std::once_flag& once,
                                 std::string* fp) {
  std::call_once(once, [&] {
    *fp = weights_fingerprint(*trained.model, trained.ranges);
  });
  return task.preprocess_scope() + "|fwd=" + task.cache_identity() + "#w" +
         *fp;
}

}  // namespace

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

core::TaskTraits ClassifierTask::traits() const {
  return {core::TaskKind::kClassification, tc_.model->has_maxpool()};
}

std::string ClassifierTask::preprocess_key(const SysNoiseConfig& cfg) const {
  return sysnoise::preprocess_key(cfg, cls_pipeline_spec());
}

std::string ClassifierTask::forward_key(const SysNoiseConfig& cfg) const {
  return preprocess_key(cfg) + core::forward_key_suffix(cfg);
}

core::StageProduct ClassifierTask::run_preprocess(const SysNoiseConfig& cfg) const {
  return std::make_shared<const PreprocessedBatches>(preprocess_cls_batches(
      benchmark_cls_dataset().eval, cfg, cls_pipeline_spec()));
}

core::StageProduct ClassifierTask::run_forward(
    const SysNoiseConfig& cfg, const core::StageProduct& pre) const {
  const auto& batches = *static_cast<const PreprocessedBatches*>(pre.get());
  return std::make_shared<const double>(eval_classifier_batches(
      *tc_.model, batches, benchmark_cls_dataset().eval, cfg, &tc_.ranges));
}

double ClassifierTask::run_postprocess(const SysNoiseConfig&,
                                       const core::StageProduct& fwd) const {
  return *static_cast<const double*>(fwd.get());
}

std::string ClassifierTask::preprocess_scope() const {
  return batches_scope("cls", benchmark_cls_dataset().eval.size(),
                       cls_pipeline_spec());
}

bool ClassifierTask::encode_preprocess(const core::StageProduct& product,
                                       std::string* bytes) const {
  return encode_batches_product(product, bytes);
}

core::StageProduct ClassifierTask::decode_preprocess(
    const std::string& bytes) const {
  return decode_batches_product(bytes);
}

std::string ClassifierTask::forward_scope() const {
  return cached_forward_scope(*this, tc_, weights_fp_once_, &weights_fp_);
}

bool ClassifierTask::encode_forward(const core::StageProduct& product,
                                    std::string* bytes) const {
  return encode_metric_product(product, bytes);
}

core::StageProduct ClassifierTask::decode_forward(
    const std::string& bytes) const {
  return decode_metric_product(bytes);
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

core::TaskTraits DetectorTask::traits() const {
  return {core::TaskKind::kDetection, td_.model->has_maxpool()};
}

std::string DetectorTask::preprocess_key(const SysNoiseConfig& cfg) const {
  return sysnoise::preprocess_key(cfg, det_pipeline_spec());
}

std::string DetectorTask::forward_key(const SysNoiseConfig& cfg) const {
  return preprocess_key(cfg) + core::forward_key_suffix(cfg);
}

core::StageProduct DetectorTask::run_preprocess(const SysNoiseConfig& cfg) const {
  return std::make_shared<const PreprocessedBatches>(
      preprocess_det_batches(benchmark_det_dataset(), cfg, det_pipeline_spec()));
}

core::StageProduct DetectorTask::run_forward(
    const SysNoiseConfig& cfg, const core::StageProduct& pre) const {
  const auto& batches = *static_cast<const PreprocessedBatches*>(pre.get());
  return std::make_shared<const RawDetections>(
      detector_forward_batches(*td_.model, batches, cfg, &td_.ranges));
}

double DetectorTask::run_postprocess(const SysNoiseConfig& cfg,
                                     const core::StageProduct& fwd) const {
  const auto& raw = *static_cast<const RawDetections*>(fwd.get());
  return detector_map_from_raw(*td_.model, raw, benchmark_det_dataset(), cfg);
}

std::string DetectorTask::preprocess_scope() const {
  return batches_scope("det", benchmark_det_dataset().eval.size(),
                       det_pipeline_spec());
}

bool DetectorTask::encode_preprocess(const core::StageProduct& product,
                                     std::string* bytes) const {
  return encode_batches_product(product, bytes);
}

core::StageProduct DetectorTask::decode_preprocess(
    const std::string& bytes) const {
  return decode_batches_product(bytes);
}

std::string DetectorTask::forward_scope() const {
  return cached_forward_scope(*this, td_, weights_fp_once_, &weights_fp_);
}

bool DetectorTask::encode_forward(const core::StageProduct& product,
                                  std::string* bytes) const {
  *bytes =
      encode_raw_detections(*static_cast<const RawDetections*>(product.get()));
  return !bytes->empty();
}

core::StageProduct DetectorTask::decode_forward(const std::string& bytes) const {
  auto raw = std::make_shared<RawDetections>();
  if (!decode_raw_detections(bytes, raw.get())) return nullptr;
  return std::shared_ptr<const RawDetections>(std::move(raw));
}

// ---------------------------------------------------------------------------
// Segmentation
// ---------------------------------------------------------------------------

core::TaskTraits SegmenterTask::traits() const {
  return {core::TaskKind::kSegmentation, ts_.model->has_maxpool()};
}

std::string SegmenterTask::preprocess_key(const SysNoiseConfig& cfg) const {
  return sysnoise::preprocess_key(cfg, seg_pipeline_spec());
}

std::string SegmenterTask::forward_key(const SysNoiseConfig& cfg) const {
  return preprocess_key(cfg) + core::forward_key_suffix(cfg);
}

core::StageProduct SegmenterTask::run_preprocess(const SysNoiseConfig& cfg) const {
  return std::make_shared<const PreprocessedBatches>(
      preprocess_seg_batches(benchmark_seg_dataset(), cfg, seg_pipeline_spec()));
}

core::StageProduct SegmenterTask::run_forward(
    const SysNoiseConfig& cfg, const core::StageProduct& pre) const {
  const auto& batches = *static_cast<const PreprocessedBatches*>(pre.get());
  return std::make_shared<const double>(eval_segmenter_batches(
      *ts_.model, batches, benchmark_seg_dataset(), cfg, &ts_.ranges));
}

double SegmenterTask::run_postprocess(const SysNoiseConfig&,
                                      const core::StageProduct& fwd) const {
  return *static_cast<const double*>(fwd.get());
}

std::string SegmenterTask::preprocess_scope() const {
  return batches_scope("seg", benchmark_seg_dataset().eval.size(),
                       seg_pipeline_spec());
}

bool SegmenterTask::encode_preprocess(const core::StageProduct& product,
                                      std::string* bytes) const {
  return encode_batches_product(product, bytes);
}

core::StageProduct SegmenterTask::decode_preprocess(
    const std::string& bytes) const {
  return decode_batches_product(bytes);
}

std::string SegmenterTask::forward_scope() const {
  return cached_forward_scope(*this, ts_, weights_fp_once_, &weights_fp_);
}

bool SegmenterTask::encode_forward(const core::StageProduct& product,
                                   std::string* bytes) const {
  return encode_metric_product(product, bytes);
}

core::StageProduct SegmenterTask::decode_forward(
    const std::string& bytes) const {
  return decode_metric_product(bytes);
}

// ---------------------------------------------------------------------------
// Seeded sweeps
// ---------------------------------------------------------------------------

core::AxisReport sweep_seeded(const core::EvalTask& task, double trained_metric,
                              core::SweepCache& cache, core::SweepOptions opts) {
  cache.seed(task, SysNoiseConfig::training_default(), trained_metric);
  opts.cache = &cache;
  return core::sweep(task, opts);
}

core::AxisReport staged_sweep_seeded(const core::StagedEvalTask& task,
                                     double trained_metric,
                                     core::SweepCache& cache,
                                     core::SweepOptions opts,
                                     core::StageStats* stats,
                                     core::DiskStageCache* disk) {
  cache.seed(task, SysNoiseConfig::training_default(), trained_metric);
  opts.cache = &cache;
  const core::SweepPlan plan =
      core::plan_sweep(task, core::registry_or_global(opts));
  return core::assemble_report(
      plan, core::StagedExecutor(stats, disk).execute(task, plan, opts));
}

}  // namespace sysnoise::models
