#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "nn/ops.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"

namespace sysnoise::nn {

namespace {

// Rows = product of all dims but the last.
int leading_rows(const Tensor& t) {
  int rows = 1;
  for (int i = 0; i + 1 < t.rank(); ++i) rows *= t.dim(i);
  return rows;
}

}  // namespace

Node* linear(Tape& t, Node* x, Param& w, Param* bias, const std::string& layer_id) {
  const int in = x->value.dim(-1);
  const int out_f = w.value.dim(0);
  if (w.value.dim(1) != in) throw std::invalid_argument("linear: shape mismatch");
  const int rows = leading_rows(x->value);

  const PrecisionOperands operands(t.ctx, layer_id, x->value, w.value);
  const Tensor& xin = operands.x();
  const Tensor& wq = operands.w();

  std::vector<int> out_shape(x->value.shape());
  out_shape.back() = out_f;
  Tensor out(out_shape);
  const BackendScope backend_scope(t.ctx.backend);
  // out[rows x out_f] = xin[rows x in] * Wq^T (W stored [out_f x in])
  gemm_bt_acc(rows, out_f, in, xin.data(), wq.data(), out.data());
  if (bias != nullptr)
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < out_f; ++c)
        out.data()[static_cast<std::size_t>(r) * out_f + c] +=
            bias->value[static_cast<std::size_t>(c)];

  Node* y = t.make(std::move(out));
  Node* xn = x;
  Param* wp = &w;
  Param* bp = bias;
  const ComputeBackend backend = t.ctx.backend;
  y->backprop = [y, xn, wp, bp, rows, in, out_f, backend]() {
    const BackendScope bw_scope(backend);
    // grad_w += gout^T [out_f x rows] * x [rows x in]
    gemm_at_acc(out_f, in, rows, y->grad.data(), xn->value.data(), wp->grad.data());
    if (xn->requires_grad) {
      // grad_x += gout [rows x out_f] * W [out_f x in]
      gemm_acc(rows, in, out_f, y->grad.data(), wp->value.data(), xn->grad.data());
    }
    if (bp != nullptr)
      for (int r = 0; r < rows; ++r)
        for (int c = 0; c < out_f; ++c)
          bp->grad[static_cast<std::size_t>(c)] +=
              y->grad.data()[static_cast<std::size_t>(r) * out_f + c];
  };
  return y;
}

Node* relu(Tape& t, Node* x) {
  Tensor out = x->value;
  for (float& v : out.vec()) v = std::max(v, 0.0f);
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn]() {
    if (!xn->requires_grad) return;
    for (std::size_t i = 0; i < y->grad.size(); ++i)
      if (xn->value[i] > 0.0f) xn->grad[i] += y->grad[i];
  };
  return y;
}

Node* gelu(Tape& t, Node* x) {
  // tanh approximation (as used by most deployments).
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  Tensor out = x->value;
  for (float& v : out.vec()) {
    const float u = kC * (v + 0.044715f * v * v * v);
    v = 0.5f * v * (1.0f + std::tanh(u));
  }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn]() {
    if (!xn->requires_grad) return;
    for (std::size_t i = 0; i < y->grad.size(); ++i) {
      const float v = xn->value[i];
      const float u = kC * (v + 0.044715f * v * v * v);
      const float th = std::tanh(u);
      const float du = kC * (1.0f + 3.0f * 0.044715f * v * v);
      const float d = 0.5f * (1.0f + th) + 0.5f * v * (1.0f - th * th) * du;
      xn->grad[i] += y->grad[i] * d;
    }
  };
  return y;
}

Node* sigmoid(Tape& t, Node* x) {
  Tensor out = x->value;
  for (float& v : out.vec()) v = 1.0f / (1.0f + std::exp(-v));
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn]() {
    if (!xn->requires_grad) return;
    for (std::size_t i = 0; i < y->grad.size(); ++i) {
      const float s = y->value[i];
      xn->grad[i] += y->grad[i] * s * (1.0f - s);
    }
  };
  return y;
}

Node* add(Tape& t, Node* a, Node* b) {
  if (a->value.size() != b->value.size())
    throw std::invalid_argument("add: size mismatch");
  Tensor out = a->value;
  out.add_(b->value);
  Node* y = t.make(std::move(out));
  Node* an = a;
  Node* bn = b;
  y->backprop = [y, an, bn]() {
    if (an->requires_grad) an->grad.add_(y->grad);
    if (bn->requires_grad) bn->grad.add_(y->grad);
  };
  return y;
}

Node* scale(Tape& t, Node* x, float s) {
  Tensor out = x->value;
  out.mul_(s);
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, s]() {
    if (xn->requires_grad) xn->grad.add_scaled_(y->grad, s);
  };
  return y;
}

Node* reshape(Tape& t, Node* x, std::vector<int> shape) {
  Node* y = t.make(x->value.reshaped(std::move(shape)));
  Node* xn = x;
  y->backprop = [y, xn]() {
    if (!xn->requires_grad) return;
    for (std::size_t i = 0; i < y->grad.size(); ++i) xn->grad[i] += y->grad[i];
  };
  return y;
}

Node* flatten2d(Tape& t, Node* x) {
  const int n = x->value.dim(0);
  const int rest = static_cast<int>(x->value.size()) / n;
  return reshape(t, x, {n, rest});
}

Node* concat_channels(Tape& t, Node* a, Node* b) {
  const int n = a->value.dim(0), ca = a->value.dim(1), cb = b->value.dim(1);
  const int h = a->value.dim(2), w = a->value.dim(3);
  if (b->value.dim(0) != n || b->value.dim(2) != h || b->value.dim(3) != w)
    throw std::invalid_argument("concat_channels: spatial mismatch");
  Tensor out({n, ca + cb, h, w});
  for (int ni = 0; ni < n; ++ni) {
    for (int ci = 0; ci < ca; ++ci)
      std::copy_n(&a->value.at4(ni, ci, 0, 0), h * w, &out.at4(ni, ci, 0, 0));
    for (int ci = 0; ci < cb; ++ci)
      std::copy_n(&b->value.at4(ni, ci, 0, 0), h * w, &out.at4(ni, ca + ci, 0, 0));
  }
  Node* y = t.make(std::move(out));
  Node* an = a;
  Node* bn = b;
  y->backprop = [y, an, bn, n, ca, cb, h, w]() {
    for (int ni = 0; ni < n; ++ni) {
      if (an->requires_grad)
        for (int ci = 0; ci < ca; ++ci) {
          const float* g = &y->grad.at4(ni, ci, 0, 0);
          float* dst = &an->grad.at4(ni, ci, 0, 0);
          for (int i = 0; i < h * w; ++i) dst[i] += g[i];
        }
      if (bn->requires_grad)
        for (int ci = 0; ci < cb; ++ci) {
          const float* g = &y->grad.at4(ni, ca + ci, 0, 0);
          float* dst = &bn->grad.at4(ni, ci, 0, 0);
          for (int i = 0; i < h * w; ++i) dst[i] += g[i];
        }
    }
  };
  return y;
}

Node* batchnorm2d(Tape& t, Node* x, Param& gamma, Param& beta, Tensor& running_mean,
                  Tensor& running_var, BnMode mode, float momentum, float eps) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  const int count = n * h * w;
  const bool use_batch_stats = mode != BnMode::kEval;

  auto mean = std::make_shared<std::vector<float>>(static_cast<std::size_t>(c));
  auto invstd = std::make_shared<std::vector<float>>(static_cast<std::size_t>(c));
  for (int ci = 0; ci < c; ++ci) {
    float mu, var;
    if (use_batch_stats) {
      double s = 0.0;
      for (int ni = 0; ni < n; ++ni) {
        const float* p = &x->value.at4(ni, ci, 0, 0);
        for (int i = 0; i < h * w; ++i) s += p[i];
      }
      mu = static_cast<float>(s / count);
      double v = 0.0;
      for (int ni = 0; ni < n; ++ni) {
        const float* p = &x->value.at4(ni, ci, 0, 0);
        for (int i = 0; i < h * w; ++i) {
          const double d = p[i] - mu;
          v += d * d;
        }
      }
      var = static_cast<float>(v / count);
      if (mode == BnMode::kTrain) {
        running_mean[static_cast<std::size_t>(ci)] =
            (1.0f - momentum) * running_mean[static_cast<std::size_t>(ci)] + momentum * mu;
        running_var[static_cast<std::size_t>(ci)] =
            (1.0f - momentum) * running_var[static_cast<std::size_t>(ci)] + momentum * var;
      }
    } else {
      mu = running_mean[static_cast<std::size_t>(ci)];
      var = running_var[static_cast<std::size_t>(ci)];
    }
    (*mean)[static_cast<std::size_t>(ci)] = mu;
    (*invstd)[static_cast<std::size_t>(ci)] = 1.0f / std::sqrt(var + eps);
  }

  Tensor out(x->value.shape());
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci) {
      const float g = gamma.value[static_cast<std::size_t>(ci)];
      const float b = beta.value[static_cast<std::size_t>(ci)];
      const float mu = (*mean)[static_cast<std::size_t>(ci)];
      const float is = (*invstd)[static_cast<std::size_t>(ci)];
      const float* p = &x->value.at4(ni, ci, 0, 0);
      float* o = &out.at4(ni, ci, 0, 0);
      for (int i = 0; i < h * w; ++i) o[i] = (p[i] - mu) * is * g + b;
    }

  Node* y = t.make(std::move(out));
  Node* xn = x;
  Param* gp = &gamma;
  Param* bp = &beta;
  y->backprop = [y, xn, gp, bp, mean, invstd, n, c, h, w, count, use_batch_stats]() {
    for (int ci = 0; ci < c; ++ci) {
      const float mu = (*mean)[static_cast<std::size_t>(ci)];
      const float is = (*invstd)[static_cast<std::size_t>(ci)];
      const float g = gp->value[static_cast<std::size_t>(ci)];
      // Sums over batch+spatial of gout and gout*xhat.
      double sum_g = 0.0, sum_gx = 0.0;
      for (int ni = 0; ni < n; ++ni) {
        const float* go = &y->grad.at4(ni, ci, 0, 0);
        const float* xv = &xn->value.at4(ni, ci, 0, 0);
        for (int i = 0; i < h * w; ++i) {
          sum_g += go[i];
          sum_gx += go[i] * (xv[i] - mu) * is;
        }
      }
      gp->grad[static_cast<std::size_t>(ci)] += static_cast<float>(sum_gx);
      bp->grad[static_cast<std::size_t>(ci)] += static_cast<float>(sum_g);
      if (!xn->requires_grad) continue;
      const float inv_count = 1.0f / static_cast<float>(count);
      for (int ni = 0; ni < n; ++ni) {
        const float* go = &y->grad.at4(ni, ci, 0, 0);
        const float* xv = &xn->value.at4(ni, ci, 0, 0);
        float* gx = &xn->grad.at4(ni, ci, 0, 0);
        for (int i = 0; i < h * w; ++i) {
          if (use_batch_stats) {
            const float xhat = (xv[i] - mu) * is;
            gx[i] += g * is *
                     (go[i] - static_cast<float>(sum_g) * inv_count -
                      xhat * static_cast<float>(sum_gx) * inv_count);
          } else {
            gx[i] += g * is * go[i];  // running stats: pure affine
          }
        }
      }
    }
  };
  return y;
}

Node* layernorm(Tape& t, Node* x, Param& gamma, Param& beta, float eps) {
  const int d = x->value.dim(-1);
  const int rows = leading_rows(x->value);
  auto mean = std::make_shared<std::vector<float>>(static_cast<std::size_t>(rows));
  auto invstd = std::make_shared<std::vector<float>>(static_cast<std::size_t>(rows));
  Tensor out(x->value.shape());
  for (int r = 0; r < rows; ++r) {
    const float* p = x->value.data() + static_cast<std::size_t>(r) * d;
    double s = 0.0;
    for (int i = 0; i < d; ++i) s += p[i];
    const float mu = static_cast<float>(s / d);
    double v = 0.0;
    for (int i = 0; i < d; ++i) {
      const double dd = p[i] - mu;
      v += dd * dd;
    }
    const float is = 1.0f / std::sqrt(static_cast<float>(v / d) + eps);
    (*mean)[static_cast<std::size_t>(r)] = mu;
    (*invstd)[static_cast<std::size_t>(r)] = is;
    float* o = out.data() + static_cast<std::size_t>(r) * d;
    for (int i = 0; i < d; ++i)
      o[i] = (p[i] - mu) * is * gamma.value[static_cast<std::size_t>(i)] +
             beta.value[static_cast<std::size_t>(i)];
  }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  Param* gp = &gamma;
  Param* bp = &beta;
  y->backprop = [y, xn, gp, bp, mean, invstd, rows, d]() {
    for (int r = 0; r < rows; ++r) {
      const float mu = (*mean)[static_cast<std::size_t>(r)];
      const float is = (*invstd)[static_cast<std::size_t>(r)];
      const float* go = y->grad.data() + static_cast<std::size_t>(r) * d;
      const float* xv = xn->value.data() + static_cast<std::size_t>(r) * d;
      double sum_g = 0.0, sum_gx = 0.0;
      for (int i = 0; i < d; ++i) {
        const float xhat = (xv[i] - mu) * is;
        const float gg = go[i] * gp->value[static_cast<std::size_t>(i)];
        sum_g += gg;
        sum_gx += gg * xhat;
        gp->grad[static_cast<std::size_t>(i)] += go[i] * xhat;
        bp->grad[static_cast<std::size_t>(i)] += go[i];
      }
      if (!xn->requires_grad) continue;
      float* gx = xn->grad.data() + static_cast<std::size_t>(r) * d;
      const float invd = 1.0f / static_cast<float>(d);
      for (int i = 0; i < d; ++i) {
        const float xhat = (xv[i] - mu) * is;
        const float gg = go[i] * gp->value[static_cast<std::size_t>(i)];
        gx[i] += is * (gg - static_cast<float>(sum_g) * invd -
                       xhat * static_cast<float>(sum_gx) * invd);
      }
    }
  };
  return y;
}

Node* embedding(Tape& t, const std::vector<int>& ids, int batch, int seq, Param& table) {
  const int d = table.value.dim(1);
  if (static_cast<int>(ids.size()) != batch * seq)
    throw std::invalid_argument("embedding: ids size mismatch");
  Tensor out({batch, seq, d});
  for (int i = 0; i < batch * seq; ++i) {
    const int id = ids[static_cast<std::size_t>(i)];
    std::copy_n(table.value.data() + static_cast<std::size_t>(id) * d, d,
                out.data() + static_cast<std::size_t>(i) * d);
  }
  Node* y = t.make(std::move(out));
  Param* tp = &table;
  auto ids_copy = std::make_shared<std::vector<int>>(ids);
  y->backprop = [y, tp, ids_copy, d]() {
    for (std::size_t i = 0; i < ids_copy->size(); ++i) {
      const int id = (*ids_copy)[i];
      const float* g = y->grad.data() + i * static_cast<std::size_t>(d);
      float* dst = tp->grad.data() + static_cast<std::size_t>(id) * d;
      for (int j = 0; j < d; ++j) dst[j] += g[j];
    }
  };
  return y;
}

Tensor softmax_probs(const Tensor& logits) {
  const int c = logits.dim(-1);
  const int rows = leading_rows(logits);
  Tensor out(logits.shape());
  for (int r = 0; r < rows; ++r) {
    const float* p = logits.data() + static_cast<std::size_t>(r) * c;
    float* o = out.data() + static_cast<std::size_t>(r) * c;
    float mx = p[0];
    for (int i = 1; i < c; ++i) mx = std::max(mx, p[i]);
    double s = 0.0;
    for (int i = 0; i < c; ++i) {
      o[i] = std::exp(p[i] - mx);
      s += o[i];
    }
    const float inv = static_cast<float>(1.0 / s);
    for (int i = 0; i < c; ++i) o[i] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  const int c = logits.dim(-1);
  const int rows = leading_rows(logits);
  Tensor out(logits.shape());
  for (int r = 0; r < rows; ++r) {
    const float* p = logits.data() + static_cast<std::size_t>(r) * c;
    float* o = out.data() + static_cast<std::size_t>(r) * c;
    float mx = p[0];
    for (int i = 1; i < c; ++i) mx = std::max(mx, p[i]);
    double s = 0.0;
    for (int i = 0; i < c; ++i) s += std::exp(p[i] - mx);
    const float lse = mx + static_cast<float>(std::log(s));
    for (int i = 0; i < c; ++i) o[i] = p[i] - lse;
  }
  return out;
}

Node* softmax_cross_entropy(Tape& t, Node* logits, const std::vector<int>& labels) {
  const int c = logits->value.dim(-1);
  const int rows = leading_rows(logits->value);
  if (static_cast<int>(labels.size()) != rows)
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  auto probs = std::make_shared<Tensor>(softmax_probs(logits->value));
  double loss = 0.0;
  for (int r = 0; r < rows; ++r) {
    const float p = std::max(
        (*probs)[static_cast<std::size_t>(r) * c + static_cast<std::size_t>(labels[static_cast<std::size_t>(r)])],
        1e-12f);
    loss -= std::log(p);
  }
  Tensor out({1});
  out[0] = static_cast<float>(loss / rows);
  Node* y = t.make(std::move(out));
  Node* ln = logits;
  auto labels_copy = std::make_shared<std::vector<int>>(labels);
  y->backprop = [y, ln, probs, labels_copy, rows, c]() {
    if (!ln->requires_grad) return;
    const float g = y->grad[0] / static_cast<float>(rows);
    for (int r = 0; r < rows; ++r) {
      const int lbl = (*labels_copy)[static_cast<std::size_t>(r)];
      for (int i = 0; i < c; ++i) {
        float d = (*probs)[static_cast<std::size_t>(r) * c + i];
        if (i == lbl) d -= 1.0f;
        ln->grad[static_cast<std::size_t>(r) * c + i] += g * d;
      }
    }
  };
  return y;
}

Node* softmax_cross_entropy_masked(Tape& t, Node* logits,
                                   const std::vector<int>& labels,
                                   const std::vector<float>& mask,
                                   float normalizer) {
  const int c = logits->value.dim(-1);
  const int rows = leading_rows(logits->value);
  if (static_cast<int>(labels.size()) != rows ||
      static_cast<int>(mask.size()) != rows)
    throw std::invalid_argument("softmax_cross_entropy_masked: size mismatch");
  auto probs = std::make_shared<Tensor>(softmax_probs(logits->value));
  double loss = 0.0;
  for (int r = 0; r < rows; ++r) {
    if (mask[static_cast<std::size_t>(r)] == 0.0f) continue;
    const float p = std::max(
        (*probs)[static_cast<std::size_t>(r) * c +
                 static_cast<std::size_t>(labels[static_cast<std::size_t>(r)])],
        1e-12f);
    loss -= mask[static_cast<std::size_t>(r)] * std::log(p);
  }
  Tensor out({1});
  out[0] = static_cast<float>(loss / normalizer);
  Node* y = t.make(std::move(out));
  Node* ln = logits;
  auto labels_copy = std::make_shared<std::vector<int>>(labels);
  auto mask_copy = std::make_shared<std::vector<float>>(mask);
  y->backprop = [y, ln, probs, labels_copy, mask_copy, rows, c, normalizer]() {
    if (!ln->requires_grad) return;
    const float g = y->grad[0] / normalizer;
    for (int r = 0; r < rows; ++r) {
      const float m = (*mask_copy)[static_cast<std::size_t>(r)];
      if (m == 0.0f) continue;
      const int lbl = (*labels_copy)[static_cast<std::size_t>(r)];
      for (int i = 0; i < c; ++i) {
        float d = (*probs)[static_cast<std::size_t>(r) * c + i];
        if (i == lbl) d -= 1.0f;
        ln->grad[static_cast<std::size_t>(r) * c + i] += g * m * d;
      }
    }
  };
  return y;
}

Node* softmax_entropy(Tape& t, Node* logits) {
  const int c = logits->value.dim(-1);
  const int rows = leading_rows(logits->value);
  auto probs = std::make_shared<Tensor>(softmax_probs(logits->value));
  double total = 0.0;
  for (int r = 0; r < rows; ++r)
    for (int i = 0; i < c; ++i) {
      const float p = (*probs)[static_cast<std::size_t>(r) * c + i];
      if (p > 1e-12f) total -= p * std::log(p);
    }
  Tensor out({1});
  out[0] = static_cast<float>(total / rows);
  Node* y = t.make(std::move(out));
  Node* ln = logits;
  y->backprop = [y, ln, probs, rows, c]() {
    if (!ln->requires_grad) return;
    const float g = y->grad[0] / static_cast<float>(rows);
    for (int r = 0; r < rows; ++r) {
      // H_r = -sum p log p ; dH/dz_j = -p_j (log p_j + H_r)
      double h = 0.0;
      for (int i = 0; i < c; ++i) {
        const float p = (*probs)[static_cast<std::size_t>(r) * c + i];
        if (p > 1e-12f) h -= p * std::log(p);
      }
      for (int i = 0; i < c; ++i) {
        const float p = (*probs)[static_cast<std::size_t>(r) * c + i];
        const float logp = p > 1e-12f ? std::log(p) : -27.6f;
        ln->grad[static_cast<std::size_t>(r) * c + i] +=
            g * (-p * (logp + static_cast<float>(h)));
      }
    }
  };
  return y;
}

Node* mse_loss(Tape& t, Node* pred, const Tensor& target) {
  if (pred->value.size() != target.size())
    throw std::invalid_argument("mse_loss: size mismatch");
  const std::size_t n = pred->value.size();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pred->value[i] - target[i];
    s += d * d;
  }
  Tensor out({1});
  out[0] = static_cast<float>(s / static_cast<double>(n));
  Node* y = t.make(std::move(out));
  Node* pn = pred;
  auto tgt = std::make_shared<Tensor>(target);
  y->backprop = [y, pn, tgt, n]() {
    if (!pn->requires_grad) return;
    const float g = 2.0f * y->grad[0] / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i)
      pn->grad[i] += g * (pn->value[i] - (*tgt)[i]);
  };
  return y;
}

Node* sigmoid_focal_loss(Tape& t, Node* logits, const Tensor& targets,
                         const Tensor& mask, float alpha, float gamma,
                         float normalizer) {
  const std::size_t n = logits->value.size();
  if (targets.size() != n || mask.size() != n)
    throw std::invalid_argument("focal: size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] == 0.0f) continue;
    const float z = logits->value[i];
    const float p = 1.0f / (1.0f + std::exp(-z));
    const bool pos = targets[i] > 0.5f;
    const float pt = pos ? p : 1.0f - p;
    const float a = pos ? alpha : 1.0f - alpha;
    total += -a * std::pow(1.0f - pt, gamma) * std::log(std::max(pt, 1e-12f));
  }
  Tensor out({1});
  out[0] = static_cast<float>(total / normalizer);
  Node* y = t.make(std::move(out));
  Node* ln = logits;
  auto tg = std::make_shared<Tensor>(targets);
  auto mk = std::make_shared<Tensor>(mask);
  y->backprop = [y, ln, tg, mk, alpha, gamma, normalizer, n]() {
    if (!ln->requires_grad) return;
    const float gscale = y->grad[0] / normalizer;
    for (std::size_t i = 0; i < n; ++i) {
      if ((*mk)[i] == 0.0f) continue;
      const float z = ln->value[i];
      const float p = 1.0f / (1.0f + std::exp(-z));
      const bool pos = (*tg)[i] > 0.5f;
      const float pt = std::max(pos ? p : 1.0f - p, 1e-12f);
      const float a = pos ? alpha : 1.0f - alpha;
      // dL/dpt with L = -a (1-pt)^g log(pt)
      const float one_m = 1.0f - pt;
      const float dL_dpt = -a * (-gamma * std::pow(one_m, gamma - 1.0f) * std::log(pt) +
                                 std::pow(one_m, gamma) / pt);
      // dpt/dz = p(1-p) for pos, -p(1-p) for neg.
      const float dpt_dz = (pos ? 1.0f : -1.0f) * p * (1.0f - p);
      ln->grad[i] += gscale * dL_dpt * dpt_dz;
    }
  };
  return y;
}

Node* smooth_l1_loss(Tape& t, Node* pred, const Tensor& target, const Tensor& mask,
                     float normalizer) {
  const std::size_t n = pred->value.size();
  if (target.size() != n || mask.size() != n)
    throw std::invalid_argument("smooth_l1: size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] == 0.0f) continue;
    const float d = pred->value[i] - target[i];
    const float ad = std::fabs(d);
    total += ad < 1.0f ? 0.5f * d * d : ad - 0.5f;
  }
  Tensor out({1});
  out[0] = static_cast<float>(total / normalizer);
  Node* y = t.make(std::move(out));
  Node* pn = pred;
  auto tg = std::make_shared<Tensor>(target);
  auto mk = std::make_shared<Tensor>(mask);
  y->backprop = [y, pn, tg, mk, normalizer, n]() {
    if (!pn->requires_grad) return;
    const float g = y->grad[0] / normalizer;
    for (std::size_t i = 0; i < n; ++i) {
      if ((*mk)[i] == 0.0f) continue;
      const float d = pn->value[i] - (*tg)[i];
      pn->grad[i] += g * (std::fabs(d) < 1.0f ? d : (d > 0.0f ? 1.0f : -1.0f));
    }
  };
  return y;
}

}  // namespace sysnoise::nn
