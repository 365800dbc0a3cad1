#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/ops.h"

namespace sysnoise::nn {

namespace {

// Strided view helpers: element (b, t, h*dh + i) of a [B,T,D] tensor.
inline float& elem(Tensor& t, int b, int tt, int d_off, int i, int T, int D) {
  return t.data()[(static_cast<std::size_t>(b) * T + tt) * D + d_off + i];
}
inline float elem(const Tensor& t, int b, int tt, int d_off, int i, int T, int D) {
  return t.data()[(static_cast<std::size_t>(b) * T + tt) * D + d_off + i];
}

}  // namespace

Node* attention_core(Tape& tape, Node* q, Node* k, Node* v, int heads, bool causal) {
  const int b = q->value.dim(0), t = q->value.dim(1), d = q->value.dim(2);
  if (d % heads != 0) throw std::invalid_argument("attention: heads must divide D");
  const int dh = d / heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));

  // Attention probabilities saved for backward: [B, H, T, T].
  auto probs = std::make_shared<Tensor>(Tensor({b, heads, t, t}));
  Tensor out({b, t, d});

  // The forward runs in lanes: the score row accumulates its j entries side
  // by side over a [dh, T] transpose of the head's K slice, and P.V
  // accumulates the e entries of an output row side by side. Each lane
  // keeps the chain of the scalar dot product it replaces (0 + q.k over e
  // ascending; 0 + p.v over j ascending), so the output bits do not depend
  // on the layout. The max, exp, double-precision denominator and scaling
  // stay scalar, in row order.
  std::vector<float> kt(static_cast<std::size_t>(dh) * t);
  for (int bi = 0; bi < b; ++bi) {
    for (int h = 0; h < heads; ++h) {
      const int off = h * dh;
      for (int j = 0; j < t; ++j)
        for (int e = 0; e < dh; ++e)
          kt[static_cast<std::size_t>(e) * t + j] =
              elem(k->value, bi, j, off, e, t, d);
      float* prow_base =
          probs->data() + (static_cast<std::size_t>(bi) * heads + h) * t * t;
      for (int i = 0; i < t; ++i) {
        float* prow = prow_base + static_cast<std::size_t>(i) * t;
        const int jmax = causal ? i + 1 : t;
        std::fill(prow, prow + jmax, 0.0f);
        for (int e = 0; e < dh; ++e) {
          const float qe = elem(q->value, bi, i, off, e, t, d);
          const float* krow = kt.data() + static_cast<std::size_t>(e) * t;
          for (int j = 0; j < jmax; ++j) prow[j] += qe * krow[j];
        }
        for (int j = 0; j < jmax; ++j) prow[j] *= inv_sqrt;
        float mx = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < jmax; ++j) mx = std::max(mx, prow[j]);
        double denom = 0.0;
        for (int j = 0; j < jmax; ++j) {
          prow[j] = std::exp(prow[j] - mx);
          denom += prow[j];
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (int j = 0; j < jmax; ++j) prow[j] *= inv;
        for (int j = jmax; j < t; ++j) prow[j] = 0.0f;  // masked
        // O_i = sum_j P_ij V_j
        float* orow = &elem(out, bi, i, off, 0, t, d);
        std::fill(orow, orow + dh, 0.0f);
        for (int j = 0; j < jmax; ++j) {
          const float pij = prow[j];
          const float* vrow = &elem(v->value, bi, j, off, 0, t, d);
          for (int e = 0; e < dh; ++e) orow[e] += pij * vrow[e];
        }
      }
    }
  }

  Node* y = tape.make(std::move(out));
  Node* qn = q;
  Node* kn = k;
  Node* vn = v;
  y->backprop = [y, qn, kn, vn, probs, b, t, d, dh, heads, inv_sqrt, causal]() {
    std::vector<float> dp(static_cast<std::size_t>(t));
    for (int bi = 0; bi < b; ++bi) {
      for (int h = 0; h < heads; ++h) {
        const int off = h * dh;
        const float* prow_base =
            probs->data() + (static_cast<std::size_t>(bi) * heads + h) * t * t;
        for (int i = 0; i < t; ++i) {
          const float* prow = prow_base + static_cast<std::size_t>(i) * t;
          const int jmax = causal ? i + 1 : t;
          // dP_ij = sum_e dO_ie V_je ; dV_je += P_ij dO_ie
          double dot = 0.0;
          for (int j = 0; j < jmax; ++j) {
            float acc = 0.0f;
            for (int e = 0; e < dh; ++e)
              acc += elem(y->grad, bi, i, off, e, t, d) *
                     elem(vn->value, bi, j, off, e, t, d);
            dp[static_cast<std::size_t>(j)] = acc;
            dot += static_cast<double>(acc) * prow[j];
          }
          if (vn->requires_grad) {
            for (int j = 0; j < jmax; ++j) {
              const float pij = prow[j];
              if (pij == 0.0f) continue;
              for (int e = 0; e < dh; ++e)
                elem(vn->grad, bi, j, off, e, t, d) +=
                    pij * elem(y->grad, bi, i, off, e, t, d);
            }
          }
          // dS_ij = P_ij (dP_ij - dot) ; dQ_i += dS_ij K_j * inv_sqrt etc.
          for (int j = 0; j < jmax; ++j) {
            const float ds = prow[j] * (dp[static_cast<std::size_t>(j)] -
                                        static_cast<float>(dot)) *
                             inv_sqrt;
            if (ds == 0.0f) continue;
            for (int e = 0; e < dh; ++e) {
              if (qn->requires_grad)
                elem(qn->grad, bi, i, off, e, t, d) +=
                    ds * elem(kn->value, bi, j, off, e, t, d);
              if (kn->requires_grad)
                elem(kn->grad, bi, j, off, e, t, d) +=
                    ds * elem(qn->value, bi, i, off, e, t, d);
            }
          }
        }
      }
    }
  };
  return y;
}

}  // namespace sysnoise::nn
