#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/ops.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"

namespace sysnoise::nn {

namespace {

// Output positions o in [0, out) whose input index o*stride + off lands in
// [0, size), as the half-open range [*lo, *hi) (empty when *lo == *hi).
void valid_span(int size, int off, int stride, int out, int* lo, int* hi) {
  const int first = off >= 0 ? 0 : (stride - 1 - off) / stride;
  const int last = off < size ? (size - 1 - off) / stride + 1 : 0;
  *lo = std::min(first, out);
  *hi = std::max(*lo, std::min(last, out));
}

// x points at the first of c_count contiguous h x w input planes.
// col layout: [c_count*k*k, oh*ow]; row (c, ky, kx) holds the input under
// tap (ky, kx) for every output position, 0 where the tap is in padding.
void im2col(const float* x, int h, int w, int c_count, int k, int stride,
            int pad, int oh, int ow, float* col) {
  const std::ptrdiff_t ohw = static_cast<std::ptrdiff_t>(oh) * ow;
  for (int c = 0; c < c_count; ++c) {
    const float* plane = x + static_cast<std::ptrdiff_t>(c) * h * w;
    for (int ky = 0; ky < k; ++ky) {
      int oy0, oy1;
      valid_span(h, ky - pad, stride, oh, &oy0, &oy1);
      for (int kx = 0; kx < k; ++kx) {
        int ox0, ox1;
        valid_span(w, kx - pad, stride, ow, &ox0, &ox1);
        float* row = col + ((c * k + ky) * k + kx) * ohw;
        std::fill(row, row + static_cast<std::ptrdiff_t>(oy0) * ow, 0.0f);
        for (int oy = oy0; oy < oy1; ++oy) {
          const float* src =
              plane + static_cast<std::ptrdiff_t>(oy * stride - pad + ky) * w;
          float* dst = row + static_cast<std::ptrdiff_t>(oy) * ow;
          const int ix0 = ox0 * stride - pad + kx;
          std::fill(dst, dst + ox0, 0.0f);
          if (ox1 > ox0 && stride == 1) {
            std::copy(src + ix0, src + ix0 + (ox1 - ox0), dst + ox0);
          } else {
            for (int ox = ox0, ix = ix0; ox < ox1; ++ox, ix += stride)
              dst[ox] = src[ix];
          }
          std::fill(dst + ox1, dst + ow, 0.0f);
        }
        std::fill(row + static_cast<std::ptrdiff_t>(oy1) * ow, row + ohw, 0.0f);
      }
    }
  }
}

// Adjoint of im2col: gx points at the first of c_count h x w gradient
// planes; each in-bounds col entry is added to the input element it read.
void col2im_acc(const float* col, int h, int w, int c_count, int k, int stride,
                int pad, int oh, int ow, float* gx) {
  const std::ptrdiff_t ohw = static_cast<std::ptrdiff_t>(oh) * ow;
  for (int c = 0; c < c_count; ++c) {
    float* plane = gx + static_cast<std::ptrdiff_t>(c) * h * w;
    for (int ky = 0; ky < k; ++ky) {
      int oy0, oy1;
      valid_span(h, ky - pad, stride, oh, &oy0, &oy1);
      for (int kx = 0; kx < k; ++kx) {
        int ox0, ox1;
        valid_span(w, kx - pad, stride, ow, &ox0, &ox1);
        const float* row = col + ((c * k + ky) * k + kx) * ohw;
        for (int oy = oy0; oy < oy1; ++oy) {
          float* dst =
              plane + static_cast<std::ptrdiff_t>(oy * stride - pad + ky) * w;
          const float* src = row + static_cast<std::ptrdiff_t>(oy) * ow;
          for (int ox = ox0, ix = ox0 * stride - pad + kx; ox < ox1;
               ++ox, ix += stride)
            dst[ix] += src[ox];
        }
      }
    }
  }
}

// Copy an h x w plane into the middle of a zeroed (h+2*pad) x (w+2*pad) one.
void pad_plane(const float* x, int h, int w, int pad, float* xp) {
  const int wp = w + 2 * pad;
  const std::ptrdiff_t border = static_cast<std::ptrdiff_t>(pad) * wp;
  std::fill(xp, xp + border, 0.0f);
  float* dst = xp + border;
  for (int y = 0; y < h; ++y, dst += wp) {
    std::fill(dst, dst + pad, 0.0f);
    std::copy(x + static_cast<std::ptrdiff_t>(y) * w,
              x + static_cast<std::ptrdiff_t>(y + 1) * w, dst + pad);
    std::fill(dst + pad + w, dst + wp, 0.0f);
  }
  std::fill(dst, dst + border, 0.0f);
}

}  // namespace

int pooled_size(int in, int kernel, int stride, int pad, bool ceil_mode) {
  const int numer = in + 2 * pad - kernel;
  int out;
  if (ceil_mode)
    out = static_cast<int>(std::ceil(static_cast<double>(numer) / stride)) + 1;
  else
    out = numer / stride + 1;
  if (ceil_mode && (out - 1) * stride >= in + pad) --out;  // PyTorch rule
  return std::max(out, 1);
}

Node* conv2d(Tape& t, Node* x, Param& w, Param* bias, const Conv2dSpec& spec,
             const std::string& layer_id) {
  auto reject = [&](const std::string& why) {
    throw std::invalid_argument("conv2d " + layer_id + ": " + why);
  };
  if (x->value.rank() != 4) reject("input must be [N, C, H, W]");
  if (w.value.rank() != 4 || w.value.dim(2) != w.value.dim(3))
    reject("weight must be [OC, C/groups, K, K] with a square kernel");
  if (spec.stride < 1)
    reject("stride must be >= 1, got " + std::to_string(spec.stride));
  if (spec.pad < 0) reject("pad must be >= 0, got " + std::to_string(spec.pad));
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            wd = x->value.dim(3);
  const int oc = w.value.dim(0), icg = w.value.dim(1), k = w.value.dim(2);
  const int groups = spec.groups;
  if (groups < 1 || c != icg * groups || oc % groups != 0)
    reject("channel/group mismatch");
  if (h + 2 * spec.pad < k || wd + 2 * spec.pad < k)
    reject("kernel " + std::to_string(k) + " is larger than the padded input " +
           std::to_string(h) + "x" + std::to_string(wd) + " (pad " +
           std::to_string(spec.pad) + ")");
  const int oh = (h + 2 * spec.pad - k) / spec.stride + 1;
  const int ow = (wd + 2 * spec.pad - k) / spec.stride + 1;
  const int ocg = oc / groups;
  const int col_rows = icg * k * k;

  // Deployment-precision view of inputs and weights.
  const PrecisionOperands operands(t.ctx, layer_id, x->value, w.value);
  const Tensor& xin = operands.x();
  const Tensor& wq = operands.w();

  const BackendScope backend_scope(t.ctx.backend);
  Tensor out({n, oc, oh, ow});
  // Three data paths, each bit-identical per backend to im2col + gemm():
  //  - depthwise (one channel in, one out): the direct per-plane kernel on a
  //    zero-padded copy of the plane (scratch slot 3), or on the plane
  //    itself when there is no padding;
  //  - pointwise (1x1, stride 1, no pad): im2col would be an identity copy,
  //    so the input planes are the GEMM's B operand as they stand;
  //  - everything else: im2col into scratch slot 2, then gemm().
  // Scratch comes from the thread-local arena, sized once per high-water
  // mark and reused across the batch loop and across forward calls.
  const bool depthwise = icg == 1 && ocg == 1;
  const bool pointwise = k == 1 && spec.stride == 1 && spec.pad == 0;
  const int padded_h = h + 2 * spec.pad, padded_w = wd + 2 * spec.pad;
  const std::size_t col_floats = static_cast<std::size_t>(col_rows) * oh * ow;
  auto conv_one = [&](int idx) {
    const int ni = idx / groups, g = idx % groups;
    const float* x_ptr =
        xin.data() + (static_cast<std::size_t>(ni) * c + g * icg) * h * wd;
    float* out_ptr = &out.at4(ni, g * ocg, 0, 0);
    const float* w_ptr = wq.data() + static_cast<std::size_t>(g) * ocg * col_rows;
    if (depthwise) {
      const float* xp = x_ptr;
      if (spec.pad > 0) {
        float* padded = tls_scratch(
            static_cast<std::size_t>(padded_h) * padded_w, /*slot=*/3);
        pad_plane(x_ptr, h, wd, spec.pad, padded);
        xp = padded;
      }
      depthwise_conv_plane(k, spec.stride, w_ptr, xp, padded_w, oh, ow,
                           out_ptr);
      return;
    }
    const float* b_ptr = x_ptr;
    if (!pointwise) {
      float* col = tls_scratch(col_floats, /*slot=*/2);
      im2col(x_ptr, h, wd, icg, k, spec.stride, spec.pad, oh, ow, col);
      b_ptr = col;
    }
    // out[ni, g*ocg : (g+1)*ocg] = Wg[ocg x col_rows] * B[col_rows x oh*ow]
    gemm(ocg, oh * ow, col_rows, w_ptr, b_ptr, out_ptr);
  };
  // With a parallelism grant (a serving worker's GemmParallelScope), split the
  // (image, group) space across the pool — each worker uses its own scratch
  // and writes a disjoint output slab, so results are bit-identical at any
  // worker count. A single (image, group) instead lets the GEMM split its
  // output-channel rows.
  if (gemm_workers() > 1 && n * groups > 1)
    parallel_ranges(n * groups, /*align=*/1, [&](int begin, int end) {
      for (int idx = begin; idx < end; ++idx) conv_one(idx);
    });
  else
    for (int idx = 0; idx < n * groups; ++idx) conv_one(idx);
  if (bias != nullptr) {
    for (int ni = 0; ni < n; ++ni)
      for (int ci = 0; ci < oc; ++ci) {
        const float bv = bias->value[static_cast<std::size_t>(ci)];
        float* p = &out.at4(ni, ci, 0, 0);
        for (int i = 0; i < oh * ow; ++i) p[i] += bv;
      }
  }

  Node* y = t.make(std::move(out));
  Node* xn = x;
  Param* wp = &w;
  Param* bp = bias;
  const Conv2dSpec sp = spec;
  const ComputeBackend backend = t.ctx.backend;
  // Backward uses the full-precision weights/input (straight-through).
  y->backprop = [y, xn, wp, bp, sp, n, h, wd, icg, k, oh, ow, ocg, groups,
                 col_rows, backend]() {
    const BackendScope bw_scope(backend);
    const std::size_t col_floats = static_cast<std::size_t>(col_rows) * oh * ow;
    float* col = tls_scratch(col_floats, /*slot=*/2);
    float* gcol = tls_scratch(col_floats, /*slot=*/3);
    for (int ni = 0; ni < n; ++ni) {
      for (int g = 0; g < groups; ++g) {
        im2col(&xn->value.at4(ni, g * icg, 0, 0), h, wd, icg, k, sp.stride,
               sp.pad, oh, ow, col);
        const float* gout = &y->grad.at4(ni, g * ocg, 0, 0);
        // grad_w += gout [ocg x ohw] * col^T  (col is [col_rows x ohw])
        float* gw = wp->grad.data() + static_cast<std::size_t>(g) * ocg * col_rows;
        gemm_bt_acc(ocg, col_rows, oh * ow, gout, col, gw);
        if (xn->requires_grad) {
          // gcol = W^T [col_rows x ocg] * gout
          const float* w_ptr =
              wp->value.data() + static_cast<std::size_t>(g) * ocg * col_rows;
          gemm_at(col_rows, oh * ow, ocg, w_ptr, gout, gcol);
          col2im_acc(gcol, h, wd, icg, k, sp.stride, sp.pad, oh, ow,
                     &xn->grad.at4(ni, g * icg, 0, 0));
        }
      }
      if (bp != nullptr) {
        for (int ci = 0; ci < ocg * groups; ++ci) {
          const float* gp = &y->grad.at4(ni, ci, 0, 0);
          float s = 0.0f;
          for (int i = 0; i < oh * ow; ++i) s += gp[i];
          bp->grad[static_cast<std::size_t>(ci)] += s;
        }
      }
    }
  };
  return y;
}

Node* maxpool2d(Tape& t, Node* x, int kernel, int stride, int pad) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  const bool ceil_mode = t.ctx.ceil_mode;
  const int oh = pooled_size(h, kernel, stride, pad, ceil_mode);
  const int ow = pooled_size(w, kernel, stride, pad, ceil_mode);
  // Offset (iy * w + ix) in its plane of the first strict maximum of window
  // (oy, ox), scanned row-major; -1 when no input in it exceeds -inf (NaNs
  // never win), which includes ceil-mode windows lying wholly in padding.
  // The backward recomputes it from the input instead of storing it.
  auto argmax = [=](const float* plane, int oy, int ox) {
    const int y0 = oy * stride - pad, x0 = ox * stride - pad;
    const int y1 = std::min(y0 + kernel, h), x1 = std::min(x0 + kernel, w);
    float best = -std::numeric_limits<float>::infinity();
    int best_idx = -1;
    for (int iy = std::max(y0, 0); iy < y1; ++iy) {
      const float* row = plane + static_cast<std::ptrdiff_t>(iy) * w;
      for (int ix = std::max(x0, 0); ix < x1; ++ix)
        if (row[ix] > best) {
          best = row[ix];
          best_idx = iy * w + ix;
        }
    }
    return best_idx;
  };
  const std::ptrdiff_t in_plane = static_cast<std::ptrdiff_t>(h) * w;
  const std::ptrdiff_t out_plane = static_cast<std::ptrdiff_t>(oh) * ow;
  Tensor out({n, c, oh, ow});
  for (std::ptrdiff_t p = 0; p < static_cast<std::ptrdiff_t>(n) * c; ++p) {
    const float* xp = x->value.data() + p * in_plane;
    float* op = out.data() + p * out_plane;
    for (int oy = 0; oy < oh; ++oy)
      for (int ox = 0; ox < ow; ++ox) {
        const int idx = argmax(xp, oy, ox);
        *op++ = idx >= 0 ? xp[idx] : 0.0f;
      }
  }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, argmax, in_plane, out_plane, oh, ow]() {
    if (!xn->requires_grad) return;
    const std::ptrdiff_t planes =
        static_cast<std::ptrdiff_t>(y->value.dim(0)) * y->value.dim(1);
    for (std::ptrdiff_t p = 0; p < planes; ++p) {
      const float* xp = xn->value.data() + p * in_plane;
      float* gx = xn->grad.data() + p * in_plane;
      const float* gy = y->grad.data() + p * out_plane;
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox, ++gy) {
          const int idx = argmax(xp, oy, ox);
          if (idx >= 0) gx[idx] += *gy;
        }
    }
  };
  return y;
}

Node* avgpool2d(Tape& t, Node* x, int kernel, int stride, int pad) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  const int oh = pooled_size(h, kernel, stride, pad, /*ceil=*/false);
  const int ow = pooled_size(w, kernel, stride, pad, /*ceil=*/false);
  Tensor out({n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          float s = 0.0f;
          for (int ky = 0; ky < kernel; ++ky)
            for (int kx = 0; kx < kernel; ++kx) {
              const int iy = oy * stride - pad + ky, ix = ox * stride - pad + kx;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) s += x->value.at4(ni, ci, iy, ix);
            }
          out.at4(ni, ci, oy, ox) = s * inv;
        }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  const int kk = kernel, ss = stride, pp = pad;
  y->backprop = [y, xn, kk, ss, pp, inv, h, w, c, oh, ow]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    for (int ni = 0; ni < n2; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox) {
            const float g = y->grad.at4(ni, ci, oy, ox) * inv;
            for (int ky = 0; ky < kk; ++ky)
              for (int kx = 0; kx < kk; ++kx) {
                const int iy = oy * ss - pp + ky, ix = ox * ss - pp + kx;
                if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                  xn->grad.at4(ni, ci, iy, ix) += g;
              }
          }
  };
  return y;
}

Node* global_avgpool(Tape& t, Node* x) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci) {
      const float* p = &x->value.at4(ni, ci, 0, 0);
      float s = 0.0f;
      for (int i = 0; i < h * w; ++i) s += p[i];
      out.at2(ni, ci) = s * inv;
    }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, c, h, w, inv]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    for (int ni = 0; ni < n2; ++ni)
      for (int ci = 0; ci < c; ++ci) {
        const float g = y->grad.at2(ni, ci) * inv;
        float* p = &xn->grad.at4(ni, ci, 0, 0);
        for (int i = 0; i < h * w; ++i) p[i] += g;
      }
  };
  return y;
}

Node* upsample2x(Tape& t, Node* x) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  const int oh = 2 * h, ow = 2 * w;
  const UpsampleMode mode = t.ctx.upsample;
  const bool align = t.ctx.upsample_align_corners;
  Tensor out({n, c, oh, ow});

  // Sample positions + weights shared across N, C.
  struct Tap {
    int i0, i1;
    float w0, w1;
  };
  auto make_taps = [&](int in, int outn) {
    std::vector<Tap> taps(static_cast<std::size_t>(outn));
    for (int o = 0; o < outn; ++o) {
      if (mode == UpsampleMode::kNearest) {
        const int i = std::min(o / 2, in - 1);
        taps[static_cast<std::size_t>(o)] = {i, i, 1.0f, 0.0f};
      } else {
        float src = align && outn > 1
                        ? static_cast<float>(o) * (in - 1) / (outn - 1)
                        : (static_cast<float>(o) + 0.5f) / 2.0f - 0.5f;
        src = std::max(src, 0.0f);
        int i0 = static_cast<int>(src);
        i0 = std::min(i0, in - 1);
        const int i1 = std::min(i0 + 1, in - 1);
        const float frac = src - static_cast<float>(i0);
        taps[static_cast<std::size_t>(o)] = {i0, i1, 1.0f - frac, frac};
      }
    }
    return taps;
  };
  auto ytaps = std::make_shared<std::vector<Tap>>(make_taps(h, oh));
  auto xtaps = std::make_shared<std::vector<Tap>>(make_taps(w, ow));

  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy) {
        const Tap& ty = (*ytaps)[static_cast<std::size_t>(oy)];
        for (int ox = 0; ox < ow; ++ox) {
          const Tap& tx = (*xtaps)[static_cast<std::size_t>(ox)];
          out.at4(ni, ci, oy, ox) =
              ty.w0 * (tx.w0 * x->value.at4(ni, ci, ty.i0, tx.i0) +
                       tx.w1 * x->value.at4(ni, ci, ty.i0, tx.i1)) +
              ty.w1 * (tx.w0 * x->value.at4(ni, ci, ty.i1, tx.i0) +
                       tx.w1 * x->value.at4(ni, ci, ty.i1, tx.i1));
        }
      }

  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, ytaps, xtaps, c, oh, ow]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    for (int ni = 0; ni < n2; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int oy = 0; oy < oh; ++oy) {
          const Tap& ty = (*ytaps)[static_cast<std::size_t>(oy)];
          for (int ox = 0; ox < ow; ++ox) {
            const Tap& tx = (*xtaps)[static_cast<std::size_t>(ox)];
            const float g = y->grad.at4(ni, ci, oy, ox);
            xn->grad.at4(ni, ci, ty.i0, tx.i0) += g * ty.w0 * tx.w0;
            if (tx.w1 != 0.0f) xn->grad.at4(ni, ci, ty.i0, tx.i1) += g * ty.w0 * tx.w1;
            if (ty.w1 != 0.0f) {
              xn->grad.at4(ni, ci, ty.i1, tx.i0) += g * ty.w1 * tx.w0;
              if (tx.w1 != 0.0f) xn->grad.at4(ni, ci, ty.i1, tx.i1) += g * ty.w1 * tx.w1;
            }
          }
        }
  };
  return y;
}

}  // namespace sysnoise::nn
