// Small packed-panel GEMM powering conv (im2col) and linear layers, plus the
// direct depthwise conv kernel that replaces its m = 1 case.
//
// Each call runs the active compute backend's micro-kernel (tensor/backend.h,
// gemm.cpp) and accumulates in float. Not meant to compete with BLAS, but
// fast enough to train the mini model zoo in-process.
#pragma once

#include <cstddef>

namespace sysnoise {

// C[m x n] = A[m x k] * B[k x n]  (row-major, C overwritten)
void gemm(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] += A[m x k] * B[k x n]
void gemm_acc(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] = A^T[k x m] * B[k x n]   (A stored k-major, i.e. A is k x m)
void gemm_at(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] += A^T[k x m] * B[k x n]
void gemm_at_acc(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] += A[m x k] * B^T[n x k]  (B stored n x k)
void gemm_bt_acc(int m, int n, int k, const float* a, const float* b, float* c);

// Depthwise (one input, one output channel) convolution of one plane that
// the caller has already zero-padded, xp_w floats per row:
//   out[oy*ow + ox] = sum over (ky, kx) of
//                     w[ky*k + kx] * xp[(oy*stride + ky)*xp_w + ox*stride + kx]
// Bit-identical, per backend, to gemm(1, oh*ow, k*k, w, col, out) with col
// the plane's im2col: every element runs the same accumulation chain the
// GEMM runs for it, without the im2col copy or the panel packing. (Where
// two NaNs of different sign meet in one chain, which one survives is the
// compiler's operand order, not the chain's; the GEMM's own micro-kernel
// differs there between its column halves.)
void depthwise_conv_plane(int k, int stride, const float* w, const float* xp,
                          int xp_w, int oh, int ow, float* out);

}  // namespace sysnoise
