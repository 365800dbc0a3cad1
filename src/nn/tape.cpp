#include "nn/tape.h"

#include "tensor/half.h"

namespace sysnoise::nn {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFP32: return "FP32";
    case Precision::kFP16: return "FP16";
    case Precision::kINT8: return "INT8";
  }
  return "?";
}

const char* upsample_mode_name(UpsampleMode m) {
  return m == UpsampleMode::kNearest ? "nearest" : "bilinear";
}

Node* Tape::input(Tensor t, bool requires_grad) {
  auto node = std::make_unique<Node>();
  node->value = std::move(t);
  node->requires_grad = requires_grad;
  if (requires_grad) node->grad = Tensor(node->value.shape());
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

Node* Tape::make(Tensor value) {
  auto node = std::make_unique<Node>();
  node->value = std::move(value);
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

void Tape::backward(Node* loss) {
  // Forwards allocate no grads; every node that takes one gets a zeroed
  // buffer here, before any closure accumulates into it. A grad that
  // already exists (an input leaf, or an earlier backward on this tape)
  // keeps its contents.
  for (const auto& n : nodes_)
    if (n->requires_grad && n->grad.shape() != n->value.shape())
      n->grad = Tensor(n->value.shape());
  loss->grad.fill(1.0f);
  // Nodes were appended in execution order; reverse order is a valid
  // topological order for reverse mode.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it)
    if ((*it)->backprop) (*it)->backprop();
}

void Tape::clear() { nodes_.clear(); }

void apply_activation_precision(const InferenceCtx& ctx, const std::string& layer_id,
                                Tensor& t) {
  if (ctx.calibrating && ctx.ranges != nullptr) {
    (*ctx.ranges)[layer_id].observe(t);
    return;
  }
  switch (ctx.precision) {
    case Precision::kFP32:
      return;
    case Precision::kFP16:
      fp16_round_trip_(t);
      return;
    case Precision::kINT8: {
      if (ctx.ranges == nullptr) return;
      const auto it = ctx.ranges->find(layer_id);
      if (it == ctx.ranges->end() || !it->second.seen) return;
      fake_quantize_(t, it->second.qparams());
      return;
    }
  }
}

Tensor apply_weight_precision(const InferenceCtx& ctx, const Tensor& w) {
  if (ctx.calibrating) return w;
  switch (ctx.precision) {
    case Precision::kFP32:
      return w;
    case Precision::kFP16: {
      Tensor out = w;
      fp16_round_trip_(out);
      return out;
    }
    case Precision::kINT8: {
      Tensor out = w;
      fake_quantize_(out, choose_qparams_symmetric(w.abs_max()));
      return out;
    }
  }
  return w;
}

PrecisionOperands::PrecisionOperands(const InferenceCtx& ctx,
                                     const std::string& layer_id,
                                     const Tensor& x, const Tensor& w) {
  if (ctx.precision == Precision::kFP32 && !ctx.calibrating) {
    x_ = &x;
    w_ = &w;
    return;
  }
  xq_ = x;
  apply_activation_precision(ctx, layer_id + ".in", xq_);
  wq_ = apply_weight_precision(ctx, w);
}

}  // namespace sysnoise::nn
