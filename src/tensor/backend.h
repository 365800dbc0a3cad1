// Pluggable compute backends for the GEMM / im2col-conv hot path.
//
// Every float GEMM in the engine (tensor/gemm.h) and the conv2d im2col path
// (nn/ops_conv.cpp) dispatch through the active ComputeBackend:
//
//  - kReference  — the historical scalar loops, bit-identical to the seed's
//                  output. Keeps the zero-skip (`if (av == 0.0f) continue;`)
//                  as an explicit, documented property: it silently drops
//                  0 x inf = NaN propagation, so results depend on the
//                  sparsity of A when B holds non-finite values.
//  - kBlocked    — register-tiled micro-kernel over packed panels with a
//                  fixed, k-ascending accumulation order (no zero-skip, so
//                  IEEE non-finite propagation is exact).
//  - kSimd       — AVX2+FMA on x86 / NEON on ARM, picked by runtime CPU
//                  detection with a scalar (blocked) fallback; vector tails
//                  run scalar. FMA and lane-wise partial sums legitimately
//                  round differently from the scalar kernels.
//
// Different kernels produce different floats for the *same* operator — that
// is exactly the paper's hardware/implementation noise, so the backend is
// registered as a NoiseAxis (core/axis.cpp) and selected per deployment
// config (SysNoiseConfig::backend). The bit-exactness contract is
// per-backend: every executor must produce byte-identical sweeps *given the
// same backend*; nothing is promised across backends beyond the parity
// epsilon the tests pin.
//
// The process-wide default comes from $SYSNOISE_BACKEND (reference when
// unset); per-thread overrides (BackendScope) are how ops apply a config's
// backend around their kernel calls. A small process-wide worker pool
// provides deterministic intra-forward parallelism: parallel_ranges() splits
// disjoint row ranges across workers, which cannot change any accumulation
// order, so results are bit-identical at every worker count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace sysnoise {

enum class ComputeBackend { kReference = 0, kBlocked = 1, kSimd = 2 };
constexpr int kNumComputeBackends = 3;

const char* backend_name(ComputeBackend b);
// Inverse of backend_name; throws std::invalid_argument on unknown names so
// a corrupted plan or env var fails loudly.
ComputeBackend backend_from_name(const std::string& name);

// The process-wide default backend: $SYSNOISE_BACKEND at first use (throws
// on an unknown value), overridable programmatically. New SysNoiseConfigs
// and InferenceCtxs are born with this backend; training runs under it.
ComputeBackend default_backend();
// Override the process default (tests, per-backend benches). Returns the
// previous default.
ComputeBackend set_default_backend(ComputeBackend b);

// The backend the calling thread's kernel calls dispatch to: the innermost
// live BackendScope, or the process default when none is active.
ComputeBackend active_backend();

// RAII per-thread backend override. Ops open one from their InferenceCtx
// around kernel calls, so a parallel sweep can evaluate configs with
// different backends concurrently without races.
class BackendScope {
 public:
  explicit BackendScope(ComputeBackend b);
  ~BackendScope();
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  int prev_;
};

// Which SIMD ISA the kSimd backend dispatches to on this machine: "avx2",
// "neon", or "scalar" (no vector unit detected; kSimd then computes with
// the blocked kernels). Recorded in BENCH_perf.json so perf trajectories
// across machines are interpretable.
const char* simd_isa_name();

// --- intra-forward parallelism ---------------------------------------------

// Worker count the calling thread's kernel calls may fan out to (>= 1).
// Defaults to 1 (serial); the inference server opens a GemmParallelScope
// around each micro-batch forward when granted workers (serve/server.h,
// sysnoise_serve --gemm-workers).
int gemm_workers();

// RAII per-thread parallelism grant. `workers <= 0` means "use the
// hardware": min(hardware_concurrency, kMaxGemmWorkers).
class GemmParallelScope {
 public:
  explicit GemmParallelScope(int workers);
  ~GemmParallelScope();
  GemmParallelScope(const GemmParallelScope&) = delete;
  GemmParallelScope& operator=(const GemmParallelScope&) = delete;

 private:
  int prev_;
};

// Grow the process worker pool to at least `n` helper threads (capped at
// the pool's fan-out bound; threads are only ever added). The pool normally
// sizes itself to hardware_concurrency() - 1, which is zero on a
// single-core host — every fan-out then collapses to one inline range and
// the split path is never exercised. Tests and benches that assert
// split-vs-serial behavior call this first so they are never vacuously
// green on small machines.
void ensure_gemm_pool_helpers(int n);

// Split [0, total) into at most gemm_workers() contiguous chunks (aligned
// down to `align` boundaries) and run fn(begin, end) for each, across the
// process worker pool plus the calling thread. Ranges are disjoint, so any
// writer touching only its range is race-free and order-independent; runs
// inline when gemm_workers() == 1, total is small, or the caller is itself
// a pool worker (no nested fan-out).
void parallel_ranges(int total, int align,
                     const std::function<void(int, int)>& fn);

// --- scratch arena ----------------------------------------------------------

// Thread-local scratch buffer lender: returns a buffer of at least `floats`
// floats for `slot`, reused (and only ever grown) across calls, so per-call
// hot-path allocations (GEMM packing panels, conv im2col columns) happen
// once per thread per high-water mark instead of once per invocation.
// Slots 0-1 are reserved for GEMM packing; conv uses 2-3. The buffer stays
// valid until the same thread asks for the same slot again.
float* tls_scratch(std::size_t floats, int slot);

}  // namespace sysnoise
