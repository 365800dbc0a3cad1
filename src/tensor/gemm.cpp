// GEMM kernel family behind the ComputeBackend seam (tensor/backend.h).
//
// One packed-panel engine runs every variant on every backend: A and B
// tiles are packed into k-major micro-panels and a register-tiled MR x NR
// micro-kernel walks k in strictly ascending order. What defines a backend
// is its micro-kernel's per-element chain, not its loop structure:
//  - reference: the chain of the original scalar loops, in which C itself
//    was the accumulator. The tile starts from C, every term whose A
//    element is +-0 is skipped (`if (av == 0.0f) continue;`), and the tile
//    is stored back. The skip is a documented reference-only property: it
//    drops 0 x inf = NaN propagation, so results depend on the sparsity of
//    A when B holds non-finite values. gemm_bt_acc never skipped; its
//    original loop added a fresh dot product to C, which is blocked's
//    chain, so it runs blocked's kernel.
//  - blocked: fresh zero accumulators, mul then add per k step, no skip,
//    added to C once (`C += acc`) — deterministic at any tile boundary or
//    worker count.
//  - simd: the blocked structure with an AVX2+FMA (x86) or NEON (ARM)
//    micro-kernel, chosen by runtime CPU detection; CPUs without one fall
//    back to blocked's kernel. FMA's single rounding makes this a genuinely
//    different float profile — which is the point: the backend is a
//    measured noise axis.
// The reference and blocked chains run as 8-lane AVX2 kernels when the CPU
// has AVX2, else as scalar loops. Both use a separate multiply and add
// (never FMA), which round exactly like the scalar mul and add, so the ISA
// choice is invisible in the output bits.
//
// depthwise_conv_plane() is the m = 1 GEMM of a depthwise conv computed in
// place on the padded plane: one direct kernel per backend (scalar with the
// reference zero-skip, scalar mul+add, AVX2/NEON FMA under the same ISA
// dispatch as the micro-kernels), each bit-identical to its backend's GEMM.
//
// All GEMM entry points additionally split large-M row ranges across the
// worker pool when the caller granted parallelism (GemmParallelScope); row
// ranges are disjoint and accumulation order per element is unchanged, so
// results are bit-identical at every worker count.
#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/backend.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SYSNOISE_GEMM_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define SYSNOISE_GEMM_NEON 1
#endif

namespace sysnoise {

namespace {

// ---------------------------------------------------------------------------
// Packed-panel engine and its micro-kernels
// ---------------------------------------------------------------------------

// Micro-tile: MR rows of C by NR columns, accumulators live in registers
// across the whole k loop (one panel pass), then spill into C exactly once.
constexpr int MR = 4;
constexpr int NR = 16;

// How the engine reads its operands. The packing gathers normalize every
// variant to the same k-major micro-panels, so one micro-kernel serves
// gemm_acc (A m x k, B k x n), gemm_at_acc (A k x m) and gemm_bt_acc
// (B n x k).
enum class AMode { kNormal, kTransposed };
enum class BMode { kNormal, kTransposed };

inline float a_at(AMode mode, const float* a, int m, int k, int i, int kk) {
  return mode == AMode::kNormal ? a[static_cast<std::ptrdiff_t>(i) * k + kk]
                                : a[static_cast<std::ptrdiff_t>(kk) * m + i];
}

inline float b_at(BMode mode, const float* b, int n, int k, int kk, int j) {
  return mode == BMode::kNormal ? b[static_cast<std::ptrdiff_t>(kk) * n + j]
                                : b[static_cast<std::ptrdiff_t>(j) * k + kk];
}

// Scalar micro-kernel: acc[MR x NR] = ap panel * bp panel over k steps in
// strictly ascending order, starting from fresh zero accumulators (like the
// vector kernels' registers). The tile is computed as two 8-column passes so
// the local accumulator array is small enough for the compiler to promote to
// SIMD registers across the k loop (8 accumulators + 2 operand vectors fits
// the 16-register SSE file); per-element accumulation order is still strict
// k-ascending, so the split is bit-invisible.
void micro_scalar(int k, const float* ap, const float* bp, float* acc) {
  constexpr int kHalf = NR / 2;
  for (int jh = 0; jh < NR; jh += kHalf) {
    float t[MR * kHalf];
    for (int i = 0; i < MR * kHalf; ++i) t[i] = 0.0f;
    for (int kk = 0; kk < k; ++kk) {
      const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
      const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR + jh;
      for (int i = 0; i < MR; ++i) {
        const float av = arow[i];
        for (int j = 0; j < kHalf; ++j) t[i * kHalf + j] += av * brow[j];
      }
    }
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < kHalf; ++j) acc[i * NR + jh + j] = t[i * kHalf + j];
  }
}

// Reference micro-kernel: the original scalar loops' chain, C itself being
// the accumulator. It updates the MR x NR tile of C at c (rows ldc floats
// apart) in place, and a step whose A element is +-0 leaves that row
// untouched: adding the +-0 product instead would turn a -0 in C into +0
// and 0 x inf into NaN. Same two-pass split as micro_scalar.
void micro_reference(int k, const float* ap, const float* bp, float* c,
                     std::ptrdiff_t ldc) {
  constexpr int kHalf = NR / 2;
  for (int jh = 0; jh < NR; jh += kHalf) {
    float t[MR * kHalf];
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < kHalf; ++j) t[i * kHalf + j] = c[i * ldc + jh + j];
    for (int kk = 0; kk < k; ++kk) {
      const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
      const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR + jh;
      for (int i = 0; i < MR; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        for (int j = 0; j < kHalf; ++j) t[i * kHalf + j] += av * brow[j];
      }
    }
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < kHalf; ++j) c[i * ldc + jh + j] = t[i * kHalf + j];
  }
}

#if defined(SYSNOISE_GEMM_X86)
// micro_scalar's chain in 8-lane AVX2 registers. The target deliberately
// lacks FMA, so the compiler cannot contract the multiply and the add: each
// rounds exactly like its scalar counterpart and the output bits match.
__attribute__((target("avx2"))) void micro_blocked_avx2(int k,
                                                        const float* ap,
                                                        const float* bp,
                                                        float* acc) {
  __m256 c[MR][2];
  for (int i = 0; i < MR; ++i) c[i][0] = c[i][1] = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(arow + i);
      c[i][0] = _mm256_add_ps(c[i][0], _mm256_mul_ps(av, b0));
      c[i][1] = _mm256_add_ps(c[i][1], _mm256_mul_ps(av, b1));
    }
  }
  for (int i = 0; i < MR; ++i) {
    _mm256_storeu_ps(acc + i * NR, c[i][0]);
    _mm256_storeu_ps(acc + i * NR + 8, c[i][1]);
  }
}

// micro_reference's chain in AVX2 registers (no FMA, as above). The skip
// depends on A alone, so it is uniform across a row's lanes: a k step whose
// MR A values are all nonzero (every step of a dense weight panel) runs the
// plain mul+add; otherwise each row blends its old accumulators back where
// its A value is +-0, without a branch per row.
__attribute__((target("avx2"))) void micro_reference_avx2(
    int k, const float* ap, const float* bp, float* ctile, std::ptrdiff_t ldc) {
  __m256 c[MR][2];
  for (int i = 0; i < MR; ++i) {
    c[i][0] = _mm256_loadu_ps(ctile + i * ldc);
    c[i][1] = _mm256_loadu_ps(ctile + i * ldc + 8);
  }
  const __m256 zero = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const __m128 a4 = _mm_loadu_ps(arow);
    if (_mm_movemask_ps(_mm_cmpeq_ps(a4, _mm_setzero_ps())) == 0) {
      for (int i = 0; i < MR; ++i) {
        const __m256 av = _mm256_broadcast_ss(arow + i);
        c[i][0] = _mm256_add_ps(c[i][0], _mm256_mul_ps(av, b0));
        c[i][1] = _mm256_add_ps(c[i][1], _mm256_mul_ps(av, b1));
      }
    } else {
      for (int i = 0; i < MR; ++i) {
        const __m256 av = _mm256_broadcast_ss(arow + i);
        const __m256 skip = _mm256_cmp_ps(av, zero, _CMP_EQ_OQ);
        c[i][0] = _mm256_blendv_ps(
            _mm256_add_ps(c[i][0], _mm256_mul_ps(av, b0)), c[i][0], skip);
        c[i][1] = _mm256_blendv_ps(
            _mm256_add_ps(c[i][1], _mm256_mul_ps(av, b1)), c[i][1], skip);
      }
    }
  }
  for (int i = 0; i < MR; ++i) {
    _mm256_storeu_ps(ctile + i * ldc, c[i][0]);
    _mm256_storeu_ps(ctile + i * ldc + 8, c[i][1]);
  }
}

__attribute__((target("avx2,fma"))) void micro_avx2(int k, const float* ap,
                                                    const float* bp,
                                                    float* acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 av = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
  }
  _mm256_storeu_ps(acc + 0 * NR, c00);
  _mm256_storeu_ps(acc + 0 * NR + 8, c01);
  _mm256_storeu_ps(acc + 1 * NR, c10);
  _mm256_storeu_ps(acc + 1 * NR + 8, c11);
  _mm256_storeu_ps(acc + 2 * NR, c20);
  _mm256_storeu_ps(acc + 2 * NR + 8, c21);
  _mm256_storeu_ps(acc + 3 * NR, c30);
  _mm256_storeu_ps(acc + 3 * NR + 8, c31);
}
#endif

#if defined(SYSNOISE_GEMM_NEON)
void micro_neon(int k, const float* ap, const float* bp, float* acc) {
  float32x4_t c[MR][NR / 4];
  for (int i = 0; i < MR; ++i)
    for (int q = 0; q < NR / 4; ++q) c[i][q] = vdupq_n_f32(0.0f);
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR;
    float32x4_t b[NR / 4];
    for (int q = 0; q < NR / 4; ++q) b[q] = vld1q_f32(brow + 4 * q);
    for (int i = 0; i < MR; ++i) {
      const float32x4_t av = vdupq_n_f32(arow[i]);
      for (int q = 0; q < NR / 4; ++q) c[i][q] = vfmaq_f32(c[i][q], av, b[q]);
    }
  }
  for (int i = 0; i < MR; ++i)
    for (int q = 0; q < NR / 4; ++q) vst1q_f32(acc + i * NR + 4 * q, c[i][q]);
}
#endif

// A fresh kernel writes its MR x NR accumulators, started from zero, to acc;
// the engine adds them to C. A seeded kernel updates a C tile in place.
using MicroKernel = void (*)(int, const float*, const float*, float*);
using SeededKernel = void (*)(int, const float*, const float*, float*,
                              std::ptrdiff_t);

// A backend's micro-kernel: exactly one of the two is set.
struct Micro {
  MicroKernel fresh = nullptr;
  SeededKernel seeded = nullptr;
};

#if defined(SYSNOISE_GEMM_X86)
bool cpu_has_avx2() {
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
}
#endif

MicroKernel blocked_micro_kernel() {
#if defined(SYSNOISE_GEMM_X86)
  if (cpu_has_avx2()) return &micro_blocked_avx2;
#endif
  return &micro_scalar;
}

MicroKernel simd_micro_kernel() {
#if defined(SYSNOISE_GEMM_X86)
  static const MicroKernel kernel =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
          ? &micro_avx2
          : blocked_micro_kernel();
  return kernel;
#elif defined(SYSNOISE_GEMM_NEON)
  return &micro_neon;
#else
  return blocked_micro_kernel();
#endif
}

Micro backend_micro(ComputeBackend backend, BMode bmode) {
  switch (backend) {
    case ComputeBackend::kReference:
      // The original gemm_bt_acc loop added a fresh, never-skipping dot product to
      // C: exactly blocked's chain.
      if (bmode == BMode::kTransposed) return {blocked_micro_kernel()};
#if defined(SYSNOISE_GEMM_X86)
      if (cpu_has_avx2()) return {nullptr, &micro_reference_avx2};
#endif
      return {nullptr, &micro_reference};
    case ComputeBackend::kBlocked: return {blocked_micro_kernel()};
    case ComputeBackend::kSimd: return {simd_micro_kernel()};
  }
  return {blocked_micro_kernel()};
}

// ---------------------------------------------------------------------------
// Direct depthwise kernels: gemm(1, oh*ow, k*k) without im2col or packing
// ---------------------------------------------------------------------------

// A depthwise GEMM has m = 1, so through the packed engine three of every
// four micro-kernel rows are padding and B is repacked on each call. These
// kernels read the zero-padded plane in place and run, per output element,
// exactly the chain that backend's GEMM runs for it: taps in (ky, kx) order
// from a zero accumulator, padded taps multiplied in as zeros (so inf/NaN
// weights still propagate). The packed engine ends every tile with
// `C += acc` into a zeroed C, and its kernels repeat that 0 + acc: an FMA
// chain whose product underflows can end on -0, which the add turns into
// +0. (Where the compiler contracts the scalar mul+add into FMA, as on
// aarch64, the blocked chain can too; the reference GEMM accumulates in C
// itself and has no such step.)

// orow[ox] += wv * xrow[ox * stride] for ox in [0, ow).
inline void axpy_row(int ow, int stride, float wv, const float* xrow,
                     float* orow) {
  if (stride == 1)
    for (int ox = 0; ox < ow; ++ox) orow[ox] += wv * xrow[ox];
  else
    for (int ox = 0; ox < ow; ++ox) orow[ox] += wv * xrow[ox * stride];
}

// out accumulates every tap in (ky, kx) order; the reference flavor skips
// zero weights like micro_reference.
template <bool kSkipZeroWeights>
void dw_scalar_taps(int k, int stride, const float* w, const float* xp,
                    int xp_w, int oh, int ow, float* out) {
  std::fill(out, out + static_cast<std::ptrdiff_t>(oh) * ow, 0.0f);
  for (int ky = 0; ky < k; ++ky)
    for (int kx = 0; kx < k; ++kx) {
      const float wv = w[ky * k + kx];
      if (kSkipZeroWeights && wv == 0.0f) continue;
      for (int oy = 0; oy < oh; ++oy)
        axpy_row(ow, stride, wv,
                 xp + static_cast<std::ptrdiff_t>(oy * stride + ky) * xp_w + kx,
                 out + static_cast<std::ptrdiff_t>(oy) * ow);
    }
}

// Reference: micro_reference's chain, C itself being the accumulator.
void dw_reference(int k, int stride, const float* w, const float* xp, int xp_w,
                  int oh, int ow, float* out) {
  dw_scalar_taps<true>(k, stride, w, xp, xp_w, oh, ow, out);
}

// Blocked (and simd without a vector ISA): micro_scalar's mul+add chain,
// then packed_gemm_rows' add into the zeroed C.
void dw_scalar(int k, int stride, const float* w, const float* xp, int xp_w,
               int oh, int ow, float* out) {
  dw_scalar_taps<false>(k, stride, w, xp, xp_w, oh, ow, out);
  const std::ptrdiff_t total = static_cast<std::ptrdiff_t>(oh) * ow;
  for (std::ptrdiff_t i = 0; i < total; ++i) out[i] = 0.0f + out[i];
}

// The FMA kernels' scalar tail: one output's chain, fmaf per tap. fmaf
// rounds once, like the vector FMA.
inline float fma_taps(int k, const float* w, const float* base, int xp_w) {
  float acc = 0.0f;
  for (int ky = 0; ky < k; ++ky)
    for (int kx = 0; kx < k; ++kx)
      acc = std::fma(w[ky * k + kx],
                     base[static_cast<std::ptrdiff_t>(ky) * xp_w + kx], acc);
  return acc;
}

#if defined(SYSNOISE_GEMM_X86)
// micro_avx2's FMA chain, 8 output columns per vector (gathered at stride
// > 1), with the scalar fma_taps tail.
__attribute__((target("avx2,fma"))) void dw_avx2(int k, int stride,
                                                 const float* w,
                                                 const float* xp, int xp_w,
                                                 int oh, int ow, float* out) {
  const __m256i lanes = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(stride));
  for (int oy = 0; oy < oh; ++oy) {
    const float* xrow = xp + static_cast<std::ptrdiff_t>(oy * stride) * xp_w;
    float* orow = out + static_cast<std::ptrdiff_t>(oy) * ow;
    int ox = 0;
    for (; ox + 8 <= ow; ox += 8) {
      const float* base = xrow + static_cast<std::ptrdiff_t>(ox) * stride;
      __m256 acc = _mm256_setzero_ps();
      for (int ky = 0; ky < k; ++ky)
        for (int kx = 0; kx < k; ++kx) {
          const float* src = base + static_cast<std::ptrdiff_t>(ky) * xp_w + kx;
          const __m256 xv = stride == 1 ? _mm256_loadu_ps(src)
                                        : _mm256_i32gather_ps(src, lanes, 4);
          acc = _mm256_fmadd_ps(_mm256_set1_ps(w[ky * k + kx]), xv, acc);
        }
      _mm256_storeu_ps(orow + ox, _mm256_add_ps(_mm256_setzero_ps(), acc));
    }
    for (; ox < ow; ++ox)
      orow[ox] = 0.0f + fma_taps(k, w,
                                 xrow + static_cast<std::ptrdiff_t>(ox) * stride,
                                 xp_w);
  }
}
#endif

#if defined(SYSNOISE_GEMM_NEON)
// micro_neon's FMA chain, 4 output columns per vector, fma_taps tail.
void dw_neon(int k, int stride, const float* w, const float* xp, int xp_w,
             int oh, int ow, float* out) {
  for (int oy = 0; oy < oh; ++oy) {
    const float* xrow = xp + static_cast<std::ptrdiff_t>(oy * stride) * xp_w;
    float* orow = out + static_cast<std::ptrdiff_t>(oy) * ow;
    int ox = 0;
    for (; ox + 4 <= ow; ox += 4) {
      const float* base = xrow + static_cast<std::ptrdiff_t>(ox) * stride;
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (int ky = 0; ky < k; ++ky)
        for (int kx = 0; kx < k; ++kx) {
          const float* src = base + static_cast<std::ptrdiff_t>(ky) * xp_w + kx;
          float32x4_t xv;
          if (stride == 1) {
            xv = vld1q_f32(src);
          } else {
            const float lanes[4] = {src[0], src[stride], src[2 * stride],
                                    src[3 * stride]};
            xv = vld1q_f32(lanes);
          }
          acc = vfmaq_f32(acc, vdupq_n_f32(w[ky * k + kx]), xv);
        }
      vst1q_f32(orow + ox, vaddq_f32(vdupq_n_f32(0.0f), acc));
    }
    for (; ox < ow; ++ox)
      orow[ox] = 0.0f + fma_taps(k, w,
                                 xrow + static_cast<std::ptrdiff_t>(ox) * stride,
                                 xp_w);
  }
}
#endif

using DepthwiseKernel = void (*)(int, int, const float*, const float*, int,
                                 int, int, float*);

// The simd backend's depthwise kernel follows simd_micro_kernel()'s ISA
// choice, so the two can never disagree on which rounding kSimd means.
DepthwiseKernel simd_depthwise_kernel() {
#if defined(SYSNOISE_GEMM_X86)
  return simd_micro_kernel() == &micro_avx2 ? &dw_avx2 : &dw_scalar;
#elif defined(SYSNOISE_GEMM_NEON)
  return &dw_neon;
#else
  return &dw_scalar;
#endif
}

// C[i0:i0+mb) rows += op(A) * op(B) over the full k range through packed
// panels. Packing cost: A once per call (k-major MR panels, zero-padded
// tail rows), B once per NR column strip (reused across all row panels).
// A fresh kernel's tile is added to C; a seeded kernel updates a full C tile
// in place and an edge tile through a zero-padded local copy. Zero padding
// is only ever multiplied into accumulator lanes that are never stored, so
// it cannot leak NaNs into C.
void packed_gemm_rows(const Micro& micro, int i0, int mb, int n, int k,
                      AMode amode, const float* a, int m_full, BMode bmode,
                      const float* b, float* c) {
  const int mpanels = (mb + MR - 1) / MR;
  float* apack =
      tls_scratch(static_cast<std::size_t>(mpanels) * MR * k, /*slot=*/0);
  for (int p = 0; p < mpanels; ++p) {
    float* panel = apack + static_cast<std::ptrdiff_t>(p) * MR * k;
    const int ib = std::min(MR, mb - p * MR);
    const int row0 = i0 + p * MR;
    if (ib == MR && amode == AMode::kNormal) {
      // Full panel from row-major A: transpose four contiguous rows.
      const float* r = a + static_cast<std::ptrdiff_t>(row0) * k;
      for (int kk = 0; kk < k; ++kk) {
        float* dst = panel + static_cast<std::ptrdiff_t>(kk) * MR;
        dst[0] = r[kk];
        dst[1] = r[k + kk];
        dst[2] = r[2 * static_cast<std::ptrdiff_t>(k) + kk];
        dst[3] = r[3 * static_cast<std::ptrdiff_t>(k) + kk];
      }
    } else if (ib == MR && amode == AMode::kTransposed) {
      // Full panel from k x m A: each k step is already MR contiguous floats.
      for (int kk = 0; kk < k; ++kk)
        std::memcpy(panel + static_cast<std::ptrdiff_t>(kk) * MR,
                    a + static_cast<std::ptrdiff_t>(kk) * m_full + row0,
                    MR * sizeof(float));
    } else {
      for (int kk = 0; kk < k; ++kk)
        for (int i = 0; i < MR; ++i)
          panel[static_cast<std::ptrdiff_t>(kk) * MR + i] =
              i < ib ? a_at(amode, a, m_full, k, row0 + i, kk) : 0.0f;
    }
  }

  float* bpack = tls_scratch(static_cast<std::size_t>(k) * NR, /*slot=*/1);
  float acc[MR * NR];
  for (int j0 = 0; j0 < n; j0 += NR) {
    const int jb = std::min(NR, n - j0);
    if (jb == NR && bmode == BMode::kNormal) {
      // Full strip from row-major B: NR contiguous floats per k step.
      for (int kk = 0; kk < k; ++kk)
        std::memcpy(bpack + static_cast<std::ptrdiff_t>(kk) * NR,
                    b + static_cast<std::ptrdiff_t>(kk) * n + j0,
                    NR * sizeof(float));
    } else if (jb == NR && bmode == BMode::kTransposed) {
      // Full strip from n x k B: stream each B row, scatter into the strip.
      for (int j = 0; j < NR; ++j) {
        const float* brow = b + static_cast<std::ptrdiff_t>(j0 + j) * k;
        for (int kk = 0; kk < k; ++kk)
          bpack[static_cast<std::ptrdiff_t>(kk) * NR + j] = brow[kk];
      }
    } else {
      for (int kk = 0; kk < k; ++kk)
        for (int j = 0; j < NR; ++j)
          bpack[static_cast<std::ptrdiff_t>(kk) * NR + j] =
              j < jb ? b_at(bmode, b, n, k, kk, j0 + j) : 0.0f;
    }
    for (int p = 0; p < mpanels; ++p) {
      const float* ap = apack + static_cast<std::ptrdiff_t>(p) * MR * k;
      const int ib = std::min(MR, mb - p * MR);
      float* ctile = c + static_cast<std::ptrdiff_t>(i0 + p * MR) * n + j0;
      if (micro.seeded == nullptr) {
        micro.fresh(k, ap, bpack, acc);
        for (int i = 0; i < ib; ++i) {
          float* crow = ctile + static_cast<std::ptrdiff_t>(i) * n;
          for (int j = 0; j < jb; ++j) crow[j] += acc[i * NR + j];
        }
      } else if (ib == MR && jb == NR) {
        micro.seeded(k, ap, bpack, ctile, n);
      } else {
        // Edge tile: seed a local copy, padding lanes with zeros.
        std::fill(acc, acc + MR * NR, 0.0f);
        for (int i = 0; i < ib; ++i)
          std::copy_n(ctile + static_cast<std::ptrdiff_t>(i) * n, jb,
                      acc + i * NR);
        micro.seeded(k, ap, bpack, acc, NR);
        for (int i = 0; i < ib; ++i)
          std::copy_n(acc + i * NR, jb,
                      ctile + static_cast<std::ptrdiff_t>(i) * n);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// Row ranges below this skip the fork/join entirely.
constexpr int kParallelMinRows = 2 * MR;

void dispatch_acc(int m, int n, int k, AMode amode, const float* a,
                  BMode bmode, const float* b, float* c) {
  const Micro micro = backend_micro(active_backend(), bmode);
  auto rows = [&](int begin, int end) {
    packed_gemm_rows(micro, begin, end - begin, n, k, amode, a, m, bmode, b,
                     c);
  };
  if (gemm_workers() > 1 && m >= kParallelMinRows)
    parallel_ranges(m, MR, rows);
  else
    rows(0, m);
}

}  // namespace

void gemm_acc(int m, int n, int k, const float* a, const float* b, float* c) {
  dispatch_acc(m, n, k, AMode::kNormal, a, BMode::kNormal, b, c);
}

void gemm(int m, int n, int k, const float* a, const float* b, float* c) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  gemm_acc(m, n, k, a, b, c);
}

void gemm_at(int m, int n, int k, const float* a, const float* b, float* c) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  gemm_at_acc(m, n, k, a, b, c);
}

void gemm_at_acc(int m, int n, int k, const float* a, const float* b, float* c) {
  dispatch_acc(m, n, k, AMode::kTransposed, a, BMode::kNormal, b, c);
}

void gemm_bt_acc(int m, int n, int k, const float* a, const float* b, float* c) {
  dispatch_acc(m, n, k, AMode::kNormal, a, BMode::kTransposed, b, c);
}

void depthwise_conv_plane(int k, int stride, const float* w, const float* xp,
                          int xp_w, int oh, int ow, float* out) {
  DepthwiseKernel kernel = &dw_reference;
  switch (active_backend()) {
    case ComputeBackend::kReference: kernel = &dw_reference; break;
    case ComputeBackend::kBlocked: kernel = &dw_scalar; break;
    case ComputeBackend::kSimd: kernel = simd_depthwise_kernel(); break;
  }
  kernel(k, stride, w, xp, xp_w, oh, ow, out);
}

}  // namespace sysnoise
