// Define-by-run autograd tape.
//
// Every forward pass records Nodes (value + backward closure) on a Tape;
// Tape::backward replays closures in reverse. Model parameters live outside
// the tape (struct Param) and closures accumulate directly into their grad
// buffers, so weights are never copied per step. A forward allocates no
// gradient storage: op nodes get their grads only when backward runs, so an
// eval forward costs its activations and nothing more.
//
// The tape also carries the InferenceCtx — the *model-inference* SysNoise
// knobs of Sec. 3.2: data precision (FP32/FP16/INT8 fake-quant at
// conv/linear boundaries), max-pool ceil mode, and upsample interpolation.
// Models read these knobs at op level, so "train with floor, deploy with
// ceil" is a one-field change, exactly like flipping a vendor runtime.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "quant/quantize.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace sysnoise::nn {

enum class Precision { kFP32 = 0, kFP16 = 1, kINT8 = 2 };
constexpr int kNumPrecisions = 3;
const char* precision_name(Precision p);

enum class UpsampleMode { kNearest = 0, kBilinear = 1 };
const char* upsample_mode_name(UpsampleMode m);

// A trainable parameter: value plus gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  Param() = default;
  void zero_grad() { grad.fill(0.0f); }
};

// Calibrated activation ranges, keyed by layer id (filled by a calibration
// pass, consumed by INT8 inference).
using ActRanges = std::map<std::string, RangeObserver>;

struct InferenceCtx {
  Precision precision = Precision::kFP32;
  bool ceil_mode = false;                       // max-pool deployment mode
  UpsampleMode upsample = UpsampleMode::kNearest;
  bool upsample_align_corners = false;
  // Kernel family for GEMM/conv (tensor/backend.h) — ops open a BackendScope
  // around their kernel calls so a parallel sweep can run configs with
  // different backends concurrently.
  ComputeBackend backend = default_backend();
  bool calibrating = false;   // record activation ranges instead of quantizing
  ActRanges* ranges = nullptr;
};

struct Node {
  Tensor value;
  // Empty until Tape::backward, which gives every requires_grad node a
  // zeroed grad of its value's shape before replaying the closures (input
  // leaves made with requires_grad get theirs at creation).
  Tensor grad;
  std::function<void()> backprop;  // empty for leaves/constants
  bool requires_grad = true;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  InferenceCtx ctx;
  bool training = false;  // affects batchnorm statistics

  // Create a leaf node holding a copy of `t` (network input / constant).
  Node* input(Tensor t, bool requires_grad = false);

  // Create an op output node; `backprop` may be set by the op afterwards.
  Node* make(Tensor value);

  // Reverse-mode sweep from `loss` (grad seeded with 1): allocates the
  // missing grads, then replays every closure in reverse order.
  void backward(Node* loss);

  std::size_t num_nodes() const { return nodes_.size(); }
  void clear();

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

// Apply the ctx's precision to a tensor at an op boundary:
//  - FP16: binary16 round trip;
//  - INT8: fake-quantize with the calibrated range for `layer_id` (no-op
//    when no range is known — e.g. during FP32 eval or calibration).
// During calibration this records the observed range instead.
void apply_activation_precision(const InferenceCtx& ctx, const std::string& layer_id,
                                Tensor& t);

// Precision for a weight tensor (INT8 weights use symmetric quant).
Tensor apply_weight_precision(const InferenceCtx& ctx, const Tensor& w);

// A conv/linear op's input and weight at deployment precision. Under FP32
// inference both functions above are identities, so this refers to the
// tensors themselves and copies nothing; under FP16, INT8 or calibration
// it holds the precision-applied copies.
class PrecisionOperands {
 public:
  PrecisionOperands(const InferenceCtx& ctx, const std::string& layer_id,
                    const Tensor& x, const Tensor& w);
  PrecisionOperands(const PrecisionOperands&) = delete;
  PrecisionOperands& operator=(const PrecisionOperands&) = delete;

  const Tensor& x() const { return x_ != nullptr ? *x_ : xq_; }
  const Tensor& w() const { return w_ != nullptr ? *w_ : wq_; }

 private:
  const Tensor* x_ = nullptr;  // the caller's tensors, when used as they are
  const Tensor* w_ = nullptr;
  Tensor xq_, wq_;
};

}  // namespace sysnoise::nn
