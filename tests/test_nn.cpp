#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <vector>

#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "nn/tape.h"
#include "tensor/rng.h"

namespace sysnoise::nn {
namespace {

// Numeric gradient of scalar_fn w.r.t. a flat position in `target`.
float numeric_grad(Tensor& target, std::size_t idx,
                   const std::function<float()>& scalar_fn, float eps = 1e-3f) {
  const float orig = target[idx];
  target[idx] = orig + eps;
  const float hi = scalar_fn();
  target[idx] = orig - eps;
  const float lo = scalar_fn();
  target[idx] = orig;
  return (hi - lo) / (2.0f * eps);
}

Tensor random_tensor(std::vector<int> shape, Rng& rng, float lo = -1.0f,
                     float hi = 1.0f) {
  Tensor t(std::move(shape));
  for (float& v : t.vec()) v = rng.uniform_f(lo, hi);
  return t;
}

// ---------------------------------------------------------------------------
// Pooled size semantics (the ceil-mode knob)
// ---------------------------------------------------------------------------

TEST(PooledSize, FloorVsCeil) {
  // ResNet stem: 3x3 stride-2 pad-1 pooling.
  EXPECT_EQ(pooled_size(16, 3, 2, 1, false), 8);
  EXPECT_EQ(pooled_size(16, 3, 2, 1, true), 9);
  EXPECT_EQ(pooled_size(32, 3, 2, 1, false), 16);
  EXPECT_EQ(pooled_size(32, 3, 2, 1, true), 17);
  // 2x2 stride-2 on even size: modes agree.
  EXPECT_EQ(pooled_size(16, 2, 2, 0, false), 8);
  EXPECT_EQ(pooled_size(16, 2, 2, 0, true), 8);
  // 2x2 stride-2 on odd size: ceil adds a window.
  EXPECT_EQ(pooled_size(15, 2, 2, 0, false), 7);
  EXPECT_EQ(pooled_size(15, 2, 2, 0, true), 8);
}

TEST(PooledSize, CeilWindowMustTouchInput) {
  // PyTorch rule: drop the last window if it starts beyond input+pad.
  EXPECT_EQ(pooled_size(4, 2, 2, 0, true), 2);
  EXPECT_EQ(pooled_size(3, 2, 2, 1, true), 2);
}

// ---------------------------------------------------------------------------
// Forward semantics
// ---------------------------------------------------------------------------

TEST(OpsForward, Conv2dIdentityKernel) {
  Rng rng(1);
  Tape t;
  Tensor x = random_tensor({1, 1, 4, 4}, rng);
  Param w(Tensor({1, 1, 1, 1}));
  w.value[0] = 2.0f;
  Node* xn = t.input(x);
  Node* y = conv2d(t, xn, w, nullptr, {.stride = 1, .pad = 0, .groups = 1}, "c");
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y->value[i], 2.0f * x[i]);
}

TEST(OpsForward, Conv2dKnownSum) {
  Tape t;
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0f);
  Param w(Tensor::full({1, 1, 3, 3}, 1.0f));
  Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 1, 1), 9.0f);  // full window
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 0, 0), 4.0f);  // corner
}

TEST(OpsForward, DepthwiseConvGroups) {
  Rng rng(2);
  Tape t;
  Tensor x = random_tensor({1, 4, 5, 5}, rng);
  Param w(Tensor({4, 1, 3, 3}));
  for (float& v : w.value.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 4}, "dw");
  // Channel 2 of output depends only on channel 2 of input: verify by
  // recomputing one output value by hand.
  float expect = 0.0f;
  for (int ky = 0; ky < 3; ++ky)
    for (int kx = 0; kx < 3; ++kx) {
      const int iy = 2 + ky - 1, ix = 2 + kx - 1;
      expect += w.value.at4(2, 0, ky, kx) * x.at4(0, 2, iy, ix);
    }
  EXPECT_NEAR(y->value.at4(0, 2, 2, 2), expect, 1e-4f);
}

TEST(OpsForward, MaxPoolFloorVsCeilShapes) {
  Rng rng(3);
  Tensor x = random_tensor({1, 2, 16, 16}, rng);
  Tape tf;
  Node* yf = maxpool2d(tf, tf.input(x), 3, 2, 1);
  EXPECT_EQ(yf->value.dim(2), 8);
  Tape tc;
  tc.ctx.ceil_mode = true;
  Node* yc = maxpool2d(tc, tc.input(x), 3, 2, 1);
  EXPECT_EQ(yc->value.dim(2), 9);
  // Shared positions agree; the extra border row is new information.
  for (int y = 0; y < 8; ++y)
    for (int xx = 0; xx < 8; ++xx)
      EXPECT_FLOAT_EQ(yf->value.at4(0, 0, y, xx), yc->value.at4(0, 0, y, xx));
}

TEST(OpsForward, UpsampleNearest) {
  Tape t;
  Tensor x({1, 1, 2, 2});
  x.at4(0, 0, 0, 0) = 1;
  x.at4(0, 0, 0, 1) = 2;
  x.at4(0, 0, 1, 0) = 3;
  x.at4(0, 0, 1, 1) = 4;
  Node* y = upsample2x(t, t.input(x));
  EXPECT_EQ(y->value.dim(2), 4);
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 0, 0), 1);
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 0, 1), 1);
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 3, 3), 4);
}

TEST(OpsForward, UpsampleBilinearDiffersFromNearest) {
  Rng rng(4);
  Tensor x = random_tensor({1, 3, 4, 4}, rng);
  Tape tn;
  Node* yn = upsample2x(tn, tn.input(x));
  Tape tb;
  tb.ctx.upsample = UpsampleMode::kBilinear;
  Node* yb = upsample2x(tb, tb.input(x));
  EXPECT_GT(max_abs_diff(yn->value, yb->value), 0.01f);
  // Bilinear interior midpoint check: out(1,1) blends 4 neighbours of the
  // top-left 2x2 block with weights .5625/.1875/.1875/.0625.
  const float e = 0.5625f * x.at4(0, 0, 0, 0) + 0.1875f * x.at4(0, 0, 0, 1) +
                  0.1875f * x.at4(0, 0, 1, 0) + 0.0625f * x.at4(0, 0, 1, 1);
  EXPECT_NEAR(yb->value.at4(0, 0, 1, 1), e, 1e-5f);
}

TEST(OpsForward, SoftmaxProbsRowsSumToOne) {
  Rng rng(5);
  Tensor logits = random_tensor({7, 11}, rng, -5.0f, 5.0f);
  Tensor p = softmax_probs(logits);
  for (int r = 0; r < 7; ++r) {
    double s = 0.0;
    for (int c = 0; c < 11; ++c) s += p.at2(r, c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(OpsForward, LogSoftmaxMatchesProbs) {
  Rng rng(6);
  Tensor logits = random_tensor({3, 5}, rng, -3.0f, 3.0f);
  Tensor p = softmax_probs(logits);
  Tensor lp = log_softmax_rows(logits);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-5f);
}

TEST(OpsForward, BatchNormNormalizesBatchStats) {
  Rng rng(7);
  Tape t;
  t.training = true;
  Tensor x = random_tensor({4, 3, 5, 5}, rng, -4.0f, 2.0f);
  BatchNorm2d bn(3);
  Node* y = bn(t, t.input(x), BnMode::kTrain);
  // Output per channel: mean ~0, var ~1.
  for (int c = 0; c < 3; ++c) {
    double s = 0.0, s2 = 0.0;
    for (int n = 0; n < 4; ++n)
      for (int i = 0; i < 25; ++i) {
        const float v = y->value.at4(n, c, i / 5, i % 5);
        s += v;
        s2 += v * v;
      }
    const double mean = s / 100.0, var = s2 / 100.0 - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
  // Running stats moved toward batch stats.
  EXPECT_NE(bn.running_mean[0], 0.0f);
}

// ---------------------------------------------------------------------------
// Gradient checks: every op against finite differences
// ---------------------------------------------------------------------------

struct GradCheck {
  // Builds the graph, returns loss node; x is the input leaf.
  static void run(std::vector<int> x_shape,
                  const std::function<Node*(Tape&, Node*)>& graph, float tol = 2e-2f,
                  std::uint64_t seed = 11) {
    Rng rng(seed);
    Tensor x = random_tensor(std::move(x_shape), rng, -1.0f, 1.0f);
    Tape t;
    t.training = true;
    Node* xn = t.input(x, /*requires_grad=*/true);
    Node* loss = graph(t, xn);
    ASSERT_EQ(loss->value.size(), 1u);
    t.backward(loss);

    auto eval = [&]() {
      Tape t2;
      t2.training = true;
      Node* x2 = t2.input(x, false);
      return graph(t2, x2)->value[0];
    };
    // Spot-check a handful of positions.
    Rng pick(seed + 1);
    for (int trial = 0; trial < 8; ++trial) {
      const auto idx =
          static_cast<std::size_t>(pick.uniform_int(static_cast<int>(x.size())));
      const float num = numeric_grad(x, idx, eval);
      const float ana = xn->grad[idx];
      EXPECT_NEAR(ana, num, tol * std::max(1.0f, std::fabs(num)))
          << "idx=" << idx;
    }
  }
};

// Reduce any tensor node to a deterministic scalar for grad checking.
Node* to_scalar(Tape& t, Node* x) {
  Tensor target(x->value.shape());
  Rng rng(99);
  for (float& v : target.vec()) v = rng.uniform_f(-0.5f, 0.5f);
  return mse_loss(t, x, target);
}

TEST(GradCheckOps, Conv2d) {
  Rng wrng(21);
  auto w = std::make_shared<Param>(random_tensor({4, 3, 3, 3}, wrng, -0.4f, 0.4f));
  auto b = std::make_shared<Param>(random_tensor({4}, wrng, -0.1f, 0.1f));
  GradCheck::run({2, 3, 6, 6}, [w, b](Tape& t, Node* x) {
    return to_scalar(t, conv2d(t, x, *w, b.get(), {.stride = 2, .pad = 1, .groups = 1}, "c"));
  });
}

TEST(GradCheckOps, Conv2dWeightGrad) {
  Rng rng(22);
  Tensor x = random_tensor({1, 2, 5, 5}, rng);
  Param w(random_tensor({3, 2, 3, 3}, rng, -0.4f, 0.4f));
  Tensor target;
  auto eval = [&]() {
    Tape t;
    Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
    if (target.empty()) {
      target = Tensor(y->value.shape());
      Rng tr(5);
      for (float& v : target.vec()) v = tr.uniform_f(-0.5f, 0.5f);
    }
    return mse_loss(t, y, target)->value[0];
  };
  eval();  // initialize target
  Tape t;
  t.training = true;
  Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  Node* loss = mse_loss(t, y, target);
  t.backward(loss);
  Rng pick(7);
  for (int trial = 0; trial < 8; ++trial) {
    const auto idx =
        static_cast<std::size_t>(pick.uniform_int(static_cast<int>(w.value.size())));
    const float num = numeric_grad(w.value, idx, eval);
    EXPECT_NEAR(w.grad[idx], num, 2e-2f * std::max(1.0f, std::fabs(num)));
  }
}

TEST(GradCheckOps, DepthwiseConv) {
  Rng wrng(23);
  auto w = std::make_shared<Param>(random_tensor({4, 1, 3, 3}, wrng, -0.4f, 0.4f));
  GradCheck::run({1, 4, 5, 5}, [w](Tape& t, Node* x) {
    return to_scalar(t, conv2d(t, x, *w, nullptr, {.stride = 1, .pad = 1, .groups = 4}, "dw"));
  });
}

TEST(GradCheckOps, Linear) {
  Rng wrng(24);
  auto w = std::make_shared<Param>(random_tensor({5, 7}, wrng, -0.4f, 0.4f));
  auto b = std::make_shared<Param>(random_tensor({5}, wrng, -0.1f, 0.1f));
  GradCheck::run({3, 7}, [w, b](Tape& t, Node* x) {
    return to_scalar(t, linear(t, x, *w, b.get(), "fc"));
  });
}

TEST(GradCheckOps, ReluGeluSigmoid) {
  GradCheck::run({2, 10}, [](Tape& t, Node* x) { return to_scalar(t, relu(t, x)); });
  GradCheck::run({2, 10}, [](Tape& t, Node* x) { return to_scalar(t, gelu(t, x)); });
  GradCheck::run({2, 10}, [](Tape& t, Node* x) { return to_scalar(t, sigmoid(t, x)); });
}

TEST(GradCheckOps, MaxPoolAndAvgPool) {
  GradCheck::run({1, 2, 6, 6}, [](Tape& t, Node* x) {
    return to_scalar(t, maxpool2d(t, x, 2, 2, 0));
  });
  GradCheck::run({1, 2, 6, 6}, [](Tape& t, Node* x) {
    return to_scalar(t, avgpool2d(t, x, 2, 2, 0));
  });
  GradCheck::run({1, 2, 6, 6}, [](Tape& t, Node* x) {
    return to_scalar(t, global_avgpool(t, x));
  });
}

TEST(GradCheckOps, UpsampleBothModes) {
  GradCheck::run({1, 2, 3, 3}, [](Tape& t, Node* x) {
    return to_scalar(t, upsample2x(t, x));
  });
  GradCheck::run({1, 2, 3, 3}, [](Tape& t, Node* x) {
    t.ctx.upsample = UpsampleMode::kBilinear;
    return to_scalar(t, upsample2x(t, x));
  });
}

TEST(GradCheckOps, BatchNormTrainMode) {
  auto bn = std::make_shared<BatchNorm2d>(3);
  GradCheck::run({4, 3, 4, 4}, [bn](Tape& t, Node* x) {
    // Fresh running stats per eval call would drift; use kAdapt (batch stats,
    // frozen running) so repeated evals are pure functions.
    return to_scalar(t, (*bn)(t, x, BnMode::kAdapt));
  }, 3e-2f);
}

TEST(GradCheckOps, LayerNorm) {
  auto ln = std::make_shared<LayerNorm>(8);
  GradCheck::run({3, 8}, [ln](Tape& t, Node* x) { return to_scalar(t, (*ln)(t, x)); });
}

TEST(GradCheckOps, AddScaleConcatReshape) {
  GradCheck::run({2, 3, 4, 4}, [](Tape& t, Node* x) {
    Node* a = scale(t, x, 1.7f);
    Node* b = add(t, x, a);
    Node* c = concat_channels(t, b, x);
    return to_scalar(t, flatten2d(t, c));
  });
}

TEST(GradCheckOps, SoftmaxCrossEntropy) {
  const std::vector<int> labels = {1, 0, 3};
  GradCheck::run({3, 4}, [labels](Tape& t, Node* x) {
    return softmax_cross_entropy(t, x, labels);
  });
}

TEST(GradCheckOps, SoftmaxEntropy) {
  GradCheck::run({3, 4}, [](Tape& t, Node* x) { return softmax_entropy(t, x); });
}

TEST(GradCheckOps, FocalAndSmoothL1) {
  Rng rng(31);
  auto targets = std::make_shared<Tensor>(Tensor({2, 6}));
  auto mask = std::make_shared<Tensor>(Tensor::full({2, 6}, 1.0f));
  for (float& v : targets->vec()) v = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  GradCheck::run({2, 6}, [targets, mask](Tape& t, Node* x) {
    return sigmoid_focal_loss(t, x, *targets, *mask, 0.25f, 2.0f, 4.0f);
  });
  auto boxt = std::make_shared<Tensor>(random_tensor({2, 8}, rng, -2.0f, 2.0f));
  GradCheck::run({2, 8}, [boxt, mask2 = std::make_shared<Tensor>(Tensor::full({2, 8}, 1.0f))](
                             Tape& t, Node* x) {
    return smooth_l1_loss(t, x, *boxt, *mask2, 4.0f);
  });
}

TEST(GradCheckOps, AttentionCore) {
  Rng wrng(41);
  auto wq = std::make_shared<Param>(random_tensor({8, 8}, wrng, -0.4f, 0.4f));
  GradCheck::run({2, 5, 8}, [wq](Tape& t, Node* x) {
    Node* q = linear(t, x, *wq, nullptr, "q");
    Node* a = attention_core(t, q, x, x, 2, /*causal=*/false);
    return to_scalar(t, a);
  }, 3e-2f);
}

TEST(GradCheckOps, AttentionCausalMasking) {
  // Causal attention output at position 0 must not depend on later tokens.
  Rng rng(42);
  Tensor x = random_tensor({1, 4, 6}, rng);
  Tape t;
  Node* xn = t.input(x);
  Node* y = attention_core(t, xn, xn, xn, 2, /*causal=*/true);
  Tensor x2 = x;
  x2.at3(0, 3, 2) += 10.0f;  // change the last token
  Tape t2;
  Node* y2 = attention_core(t2, t2.input(x2), t2.input(x2), t2.input(x2), 2, true);
  for (int e = 0; e < 6; ++e) {
    EXPECT_FLOAT_EQ(y->value.at3(0, 0, e), y2->value.at3(0, 0, e));
  }
  // ...but position 3 does change.
  EXPECT_GT(std::fabs(y->value.at3(0, 3, 0) - y2->value.at3(0, 3, 0)), 1e-6f);
}

// attention_core's scalar loops as they were before the forward was laid
// out in lanes: the oracle the op must match bit for bit. Inputs are
// [B, T, D] flat buffers; dout is the upstream gradient.
struct AttentionOracle {
  std::vector<float> out, dq, dk, dv;
};

AttentionOracle attention_oracle(const std::vector<float>& q,
                                 const std::vector<float>& k,
                                 const std::vector<float>& v,
                                 const std::vector<float>& dout, int b, int t,
                                 int d, int heads, bool causal) {
  const int dh = d / heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  auto at = [t, d](int bi, int tt, int off, int e) {
    return (static_cast<std::size_t>(bi) * t + tt) * d + off + e;
  };
  AttentionOracle r;
  r.out.assign(q.size(), 0.0f);
  r.dq.assign(q.size(), 0.0f);
  r.dk.assign(q.size(), 0.0f);
  r.dv.assign(q.size(), 0.0f);
  std::vector<float> probs(static_cast<std::size_t>(b) * heads * t * t);
  for (int bi = 0; bi < b; ++bi)
    for (int h = 0; h < heads; ++h) {
      const int off = h * dh;
      float* prow_base =
          probs.data() + (static_cast<std::size_t>(bi) * heads + h) * t * t;
      for (int i = 0; i < t; ++i) {
        float* prow = prow_base + static_cast<std::size_t>(i) * t;
        const int jmax = causal ? i + 1 : t;
        float mx = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < jmax; ++j) {
          float s = 0.0f;
          for (int e = 0; e < dh; ++e)
            s += q[at(bi, i, off, e)] * k[at(bi, j, off, e)];
          prow[j] = s * inv_sqrt;
          mx = std::max(mx, prow[j]);
        }
        double denom = 0.0;
        for (int j = 0; j < jmax; ++j) {
          prow[j] = std::exp(prow[j] - mx);
          denom += prow[j];
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (int j = 0; j < jmax; ++j) prow[j] *= inv;
        for (int j = jmax; j < t; ++j) prow[j] = 0.0f;
        for (int e = 0; e < dh; ++e) {
          float acc = 0.0f;
          for (int j = 0; j < jmax; ++j) acc += prow[j] * v[at(bi, j, off, e)];
          r.out[at(bi, i, off, e)] = acc;
        }
      }
    }
  std::vector<float> dp(static_cast<std::size_t>(t));
  for (int bi = 0; bi < b; ++bi)
    for (int h = 0; h < heads; ++h) {
      const int off = h * dh;
      const float* prow_base =
          probs.data() + (static_cast<std::size_t>(bi) * heads + h) * t * t;
      for (int i = 0; i < t; ++i) {
        const float* prow = prow_base + static_cast<std::size_t>(i) * t;
        const int jmax = causal ? i + 1 : t;
        double dot = 0.0;
        for (int j = 0; j < jmax; ++j) {
          float acc = 0.0f;
          for (int e = 0; e < dh; ++e)
            acc += dout[at(bi, i, off, e)] * v[at(bi, j, off, e)];
          dp[static_cast<std::size_t>(j)] = acc;
          dot += static_cast<double>(acc) * prow[j];
        }
        for (int j = 0; j < jmax; ++j) {
          const float pij = prow[j];
          if (pij == 0.0f) continue;
          for (int e = 0; e < dh; ++e)
            r.dv[at(bi, j, off, e)] += pij * dout[at(bi, i, off, e)];
        }
        for (int j = 0; j < jmax; ++j) {
          const float ds = prow[j] * (dp[static_cast<std::size_t>(j)] -
                                      static_cast<float>(dot)) *
                           inv_sqrt;
          if (ds == 0.0f) continue;
          for (int e = 0; e < dh; ++e) {
            r.dq[at(bi, i, off, e)] += ds * k[at(bi, j, off, e)];
            r.dk[at(bi, j, off, e)] += ds * q[at(bi, i, off, e)];
          }
        }
      }
    }
  return r;
}

bool same_bits(const Tensor& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), y.size() * sizeof(float)) == 0;
}

TEST(AttentionCore, ForwardAndGradsMatchTheScalarLoopsBitForBit) {
  Rng rng(77);
  const int b = 2;
  int cases = 0;
  for (const bool causal : {false, true})
    for (const int t : {1, 7, 64, 65})
      for (const int heads : {1, 4})
        for (const int dh : {3, 8}) {
          const int d = heads * dh;
          // About 15% of q/k/v entries are +-0, so products of both signs
          // of zero start and join the dot-product chains.
          auto input = [&] {
            Tensor x = random_tensor({b, t, d}, rng, -1.5f, 1.5f);
            for (float& val : x.vec()) {
              const float u = rng.uniform_f(0.0f, 1.0f);
              if (u < 0.08f) val = 0.0f;
              else if (u < 0.15f) val = -0.0f;
            }
            return x;
          };
          const Tensor qv = input(), kv = input(), vv = input();
          const Tensor dout = random_tensor({b, t, d}, rng);
          Tape tape;
          Node* qn = tape.input(qv, /*requires_grad=*/true);
          Node* kn = tape.input(kv, /*requires_grad=*/true);
          Node* vn = tape.input(vv, /*requires_grad=*/true);
          Node* y = attention_core(tape, qn, kn, vn, heads, causal);
          y->grad = dout;
          y->backprop();
          const AttentionOracle want =
              attention_oracle(qv.vec(), kv.vec(), vv.vec(), dout.vec(), b, t,
                               d, heads, causal);
          const std::string where = std::string(causal ? "causal" : "full") +
                                    " T=" + std::to_string(t) + " heads=" +
                                    std::to_string(heads) +
                                    " dh=" + std::to_string(dh);
          EXPECT_TRUE(same_bits(y->value, want.out)) << "out " << where;
          EXPECT_TRUE(same_bits(qn->grad, want.dq)) << "dq " << where;
          EXPECT_TRUE(same_bits(kn->grad, want.dk)) << "dk " << where;
          EXPECT_TRUE(same_bits(vn->grad, want.dv)) << "dv " << where;
          ++cases;
        }
  EXPECT_EQ(cases, 2 * 4 * 2 * 2);
}

// maxpool2d's Tensor::at4 loops as they were before the pointer rewrite,
// with the argmax the forward used to keep for the backward: the oracle
// the op must match bit for bit.
struct MaxPoolOracle {
  Tensor out, gx;
  int padded_windows = 0;  // windows with no valid input (output 0)
};

MaxPoolOracle maxpool_oracle(const Tensor& x, const Tensor& gy, int kernel,
                             int stride, int pad, bool ceil_mode) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = pooled_size(h, kernel, stride, pad, ceil_mode);
  const int ow = pooled_size(w, kernel, stride, pad, ceil_mode);
  MaxPoolOracle r;
  r.out = Tensor({n, c, oh, ow});
  r.gx = Tensor(x.shape());
  std::vector<int> argmax(r.out.size());
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = -1;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              const float v = x.at4(ni, ci, iy, ix);
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          r.out.at4(ni, ci, oy, ox) = best_idx >= 0 ? best : 0.0f;
          argmax[static_cast<std::size_t>(((ni * c + ci) * oh + oy) * ow + ox)] =
              best_idx;
        }
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          const int idx =
              argmax[static_cast<std::size_t>(((ni * c + ci) * oh + oy) * ow + ox)];
          if (idx < 0) continue;
          r.gx.at4(ni, ci, idx / w, idx % w) += gy.at4(ni, ci, oy, ox);
        }
  for (const int idx : argmax) r.padded_windows += idx < 0 ? 1 : 0;
  return r;
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(MaxPool, ForwardAndGradsMatchTheAt4LoopsBitForBit) {
  struct Geom {
    int h, w, kernel, stride, pad;
    bool ceil;
  };
  const std::vector<Geom> geoms = {
      {7, 9, 3, 2, 1, false}, {7, 9, 3, 2, 1, true},  // overlapping windows
      {5, 6, 2, 2, 0, true},  {4, 7, 3, 1, 1, false},
      {5, 5, 2, 3, 2, true},  // first row/col of windows wholly in padding
      {6, 6, 3, 3, 3, true},
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(91);
  int padded_windows = 0;
  for (const Geom& g : geoms) {
    // Few distinct levels, so windows tie; +-inf and NaN sprinkled in, and
    // channel 1 of image 0 is all -inf, channel 2 all NaN (output 0).
    Tensor x({2, 3, g.h, g.w});
    const float levels[] = {-1.0f, 0.0f, 0.5f, 0.5f, 1.0f, inf, -inf, nan};
    for (float& v : x.vec()) v = levels[rng.uniform_int(8)];
    const std::size_t plane = static_cast<std::size_t>(g.h) * g.w;
    std::fill(x.data() + plane, x.data() + 2 * plane, -inf);
    std::fill(x.data() + 2 * plane, x.data() + 3 * plane, nan);
    const int oh = pooled_size(g.h, g.kernel, g.stride, g.pad, g.ceil);
    const int ow = pooled_size(g.w, g.kernel, g.stride, g.pad, g.ceil);
    const Tensor gy = random_tensor({2, 3, oh, ow}, rng);

    Tape t;
    t.ctx.ceil_mode = g.ceil;
    Node* xn = t.input(x, /*requires_grad=*/true);
    Node* y = maxpool2d(t, xn, g.kernel, g.stride, g.pad);
    y->grad = gy;
    y->backprop();
    const MaxPoolOracle want =
        maxpool_oracle(x, gy, g.kernel, g.stride, g.pad, g.ceil);
    const std::string where = std::to_string(g.h) + "x" + std::to_string(g.w) +
                              " k" + std::to_string(g.kernel) + " s" +
                              std::to_string(g.stride) + " p" +
                              std::to_string(g.pad) + (g.ceil ? " ceil" : "");
    EXPECT_TRUE(same_bits(y->value, want.out)) << "out " << where;
    EXPECT_TRUE(same_bits(xn->grad, want.gx)) << "grad " << where;
    padded_windows += want.padded_windows;
  }
  EXPECT_GT(padded_windows, 0);
}

// A forward allocates no gradient storage; backward gives every node that
// takes a grad one of its value's shape, and leaves the rest without.
TEST(TapeGrads, ForwardAllocatesNoneBackwardAllocatesEveryRequiredOne) {
  Rng rng(17);
  Param w(random_tensor({4, 3, 3, 3}, rng, -0.4f, 0.4f));
  Param fc(random_tensor({5, 4}, rng, -0.4f, 0.4f));
  Tape t;
  t.training = true;
  Node* x = t.input(random_tensor({2, 3, 6, 6}, rng));
  std::vector<Node*> ops;
  ops.push_back(conv2d(t, x, w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c"));
  ops.push_back(relu(t, ops.back()));
  ops.push_back(maxpool2d(t, ops.back(), 2, 2, 0));
  ops.push_back(global_avgpool(t, ops.back()));
  ops.push_back(linear(t, ops.back(), fc, nullptr, "fc"));
  for (const Node* n : ops) EXPECT_TRUE(n->grad.empty());

  Node* loss = mse_loss(t, ops.back(), random_tensor({2, 5}, rng));
  t.backward(loss);
  for (const Node* n : ops) EXPECT_EQ(n->grad.shape(), n->value.shape());
  EXPECT_EQ(loss->grad.shape(), loss->value.shape());
  EXPECT_TRUE(x->grad.empty());  // an input leaf without requires_grad
  EXPECT_GT(w.grad.abs_max(), 0.0f);
}

TEST(GradCheckOps, Embedding) {
  Rng rng(51);
  Param table(random_tensor({10, 4}, rng));
  const std::vector<int> ids = {1, 3, 3, 7, 0, 9};
  Tensor target = random_tensor({2, 3, 4}, rng);
  auto eval = [&]() {
    Tape t;
    Node* e = embedding(t, ids, 2, 3, table);
    return mse_loss(t, e, target)->value[0];
  };
  Tape t;
  Node* e = embedding(t, ids, 2, 3, table);
  Node* loss = mse_loss(t, e, target);
  t.backward(loss);
  // Token 3 appears twice: grads accumulate.
  for (int j = 0; j < 4; ++j) {
    const auto idx = static_cast<std::size_t>(3 * 4 + j);
    const float num = numeric_grad(table.value, idx, eval);
    EXPECT_NEAR(table.grad[idx], num, 1e-2f);
  }
  // Token 2 never appears: zero grad.
  for (int j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(table.grad[static_cast<std::size_t>(2 * 4 + j)], 0.0f);
}

// ---------------------------------------------------------------------------
// Precision hooks
// ---------------------------------------------------------------------------

TEST(PrecisionHooks, FP16ChangesConvOutputSlightly) {
  Rng rng(61);
  Tensor x = random_tensor({1, 3, 8, 8}, rng);
  Param w(random_tensor({4, 3, 3, 3}, rng, -0.3f, 0.3f));
  Tape t32;
  Node* y32 = conv2d(t32, t32.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  Tape t16;
  t16.ctx.precision = Precision::kFP16;
  Node* y16 = conv2d(t16, t16.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  const float d = max_abs_diff(y32->value, y16->value);
  EXPECT_GT(d, 0.0f);
  EXPECT_LT(d, 0.01f);  // FP16 noise is tiny (paper: ~0 ACC impact)
}

TEST(PrecisionHooks, INT8RequiresCalibrationAndIsCoarser) {
  Rng rng(62);
  Tensor x = random_tensor({1, 3, 8, 8}, rng);
  Param w(random_tensor({4, 3, 3, 3}, rng, -0.3f, 0.3f));
  const Conv2dSpec spec{.stride = 1, .pad = 1, .groups = 1};

  Tape t32;
  Node* y32 = conv2d(t32, t32.input(x), w, nullptr, spec, "c");

  ActRanges ranges;
  Tape tc;
  tc.ctx.calibrating = true;
  tc.ctx.ranges = &ranges;
  conv2d(tc, tc.input(x), w, nullptr, spec, "c");
  EXPECT_TRUE(ranges.count("c.in"));

  Tape t8;
  t8.ctx.precision = Precision::kINT8;
  t8.ctx.ranges = &ranges;
  Node* y8 = conv2d(t8, t8.input(x), w, nullptr, spec, "c");

  Tape t16;
  t16.ctx.precision = Precision::kFP16;
  Node* y16 = conv2d(t16, t16.input(x), w, nullptr, spec, "c");

  const float d8 = max_abs_diff(y32->value, y8->value);
  const float d16 = max_abs_diff(y32->value, y16->value);
  EXPECT_GT(d8, d16);  // INT8 noise dominates FP16 noise
  EXPECT_LT(d8, 0.5f);
}

// ---------------------------------------------------------------------------
// Optimizers, serialization, end-to-end learning
// ---------------------------------------------------------------------------

TEST(Optim, SgdConvergesOnQuadratic) {
  // Minimize ||x - c||^2 via Param updates.
  Param p(Tensor::full({4}, 5.0f));
  Tensor c = Tensor::from_vector({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  Sgd opt({&p}, 0.1f, 0.9f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    for (int j = 0; j < 4; ++j)
      p.grad[static_cast<std::size_t>(j)] = 2.0f * (p.value[static_cast<std::size_t>(j)] - c[static_cast<std::size_t>(j)]);
    opt.step();
  }
  for (int j = 0; j < 4; ++j)
    EXPECT_NEAR(p.value[static_cast<std::size_t>(j)], c[static_cast<std::size_t>(j)], 1e-3f);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  Param p(Tensor::full({4}, -3.0f));
  Tensor c = Tensor::from_vector({4}, {0.3f, 1.0f, -1.0f, 2.0f});
  Adam opt({&p}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    for (int j = 0; j < 4; ++j)
      p.grad[static_cast<std::size_t>(j)] = 2.0f * (p.value[static_cast<std::size_t>(j)] - c[static_cast<std::size_t>(j)]);
    opt.step();
  }
  for (int j = 0; j < 4; ++j)
    EXPECT_NEAR(p.value[static_cast<std::size_t>(j)], c[static_cast<std::size_t>(j)], 1e-2f);
}

TEST(Optim, CosineScheduleEndpoints) {
  EXPECT_FLOAT_EQ(cosine_lr(0.1f, 0, 100), 0.1f);
  EXPECT_NEAR(cosine_lr(0.1f, 100, 100), 0.0f, 1e-7f);
  EXPECT_NEAR(cosine_lr(0.1f, 50, 100), 0.05f, 1e-7f);
}

TEST(Optim, ClipGradNorm) {
  Param p(Tensor({4}));
  p.grad = Tensor::from_vector({4}, {3.0f, 4.0f, 0.0f, 0.0f});  // norm 5
  const float norm = clip_grad_norm({&p}, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(p.grad[0], 0.6f, 1e-5f);
  EXPECT_NEAR(p.grad[1], 0.8f, 1e-5f);
}

TEST(Serialize, RoundTripParamsAndRanges) {
  Rng rng(71);
  Param a(random_tensor({3, 4}, rng)), b(random_tensor({7}, rng));
  Tensor extra = random_tensor({5}, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sysnoise_params.bin").string();
  save_params(path, {&a, &b}, {&extra});

  Param a2(Tensor({3, 4})), b2(Tensor({7}));
  Tensor extra2({5});
  ASSERT_TRUE(load_params(path, {&a2, &b2}, {&extra2}));
  EXPECT_FLOAT_EQ(max_abs_diff(a.value, a2.value), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(extra, extra2), 0.0f);

  ActRanges ranges;
  ranges["conv1.in"] = RangeObserver{-1.5f, 2.5f, true};
  const std::string rpath =
      (std::filesystem::temp_directory_path() / "sysnoise_ranges.bin").string();
  save_ranges(rpath, ranges);
  ActRanges back;
  ASSERT_TRUE(load_ranges(rpath, back));
  EXPECT_FLOAT_EQ(back["conv1.in"].lo, -1.5f);
  EXPECT_FLOAT_EQ(back["conv1.in"].hi, 2.5f);
  std::filesystem::remove(path);
  std::filesystem::remove(rpath);
}

TEST(Serialize, MissingFileReturnsFalse) {
  Param a(Tensor({2}));
  EXPECT_FALSE(load_params("/nonexistent/weights.bin", {&a}));
}

TEST(EndToEnd, TinyMlpLearnsXor) {
  Rng rng(81);
  Linear fc1(2, 8, rng, "fc1"), fc2(8, 2, rng, "fc2");
  ParamRefs params;
  fc1.collect(params);
  fc2.collect(params);
  Sgd opt(params, 0.2f, 0.9f);

  const std::vector<std::vector<float>> inputs = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> labels = {0, 1, 1, 0};
  Tensor x({4, 2});
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j)
      x.at2(i, j) = inputs[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];

  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    Tape t;
    t.training = true;
    opt.zero_grad();
    Node* h = relu(t, fc1(t, t.input(x)));
    Node* logits = fc2(t, h);
    Node* loss = softmax_cross_entropy(t, logits, labels);
    t.backward(loss);
    opt.step();
    final_loss = loss->value[0];
  }
  EXPECT_LT(final_loss, 0.1f);

  // All four points classified correctly.
  Tape t;
  Node* logits = fc2(t, relu(t, fc1(t, t.input(x))));
  for (int i = 0; i < 4; ++i) {
    const int pred = logits->value.at2(i, 0) > logits->value.at2(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, labels[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(EndToEnd, CeilModeChangesPredictionsNotCrashes) {
  // A conv+pool+fc classifier must run with either pooling mode (the
  // deployment flip) producing same-shape logits via global pooling.
  Rng rng(91);
  Conv2d conv(3, 8, 3, 1, 1, rng, "c1");
  Linear head(8, 4, rng, "head");
  Tensor x = random_tensor({2, 3, 16, 16}, rng);  // 16: floor->8, ceil->9

  auto run = [&](bool ceil) {
    Tape t;
    t.ctx.ceil_mode = ceil;
    Node* h = relu(t, conv(t, t.input(x)));
    Node* p = maxpool2d(t, h, 3, 2, 1);
    Node* g = global_avgpool(t, p);
    return head(t, g)->value;
  };
  Tensor floor_logits = run(false);
  Tensor ceil_logits = run(true);
  EXPECT_EQ(floor_logits.shape(), ceil_logits.shape());
  EXPECT_GT(max_abs_diff(floor_logits, ceil_logits), 1e-6f);  // the noise
}

}  // namespace
}  // namespace sysnoise::nn
