// Compute-backend seam (tensor/backend.h): name round trips, GEMM parity
// between the reference / blocked / simd kernel families, per-backend
// bit-exact self-consistency (including under the intra-forward worker
// pool), the reference backend's documented zero-skip vs IEEE non-finite
// propagation, the reference and blocked kernels bit-identical to copies of
// the loops that define their chains, conv2d's data paths (pointer im2col,
// pointwise, direct depthwise) bit-identical to im2col + gemm() per
// backend, conv2d geometry validation, and backend-scoped stage caching (forward products from
// different kernels never mix, in memory or on disk).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/staged_eval.h"
#include "core/synthetic_task.h"
#include "data/noise_config.h"
#include "nn/ops.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace sysnoise {
namespace {

constexpr ComputeBackend kAllBackends[] = {
    ComputeBackend::kReference, ComputeBackend::kBlocked,
    ComputeBackend::kSimd};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_f(-2.0f, 2.0f);
  return v;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// Run one GEMM variant under a backend. c is seeded for the _acc variants.
enum class Variant { kGemm, kGemmAcc, kGemmAt, kGemmAtAcc, kGemmBtAcc };
constexpr Variant kAllVariants[] = {Variant::kGemm, Variant::kGemmAcc,
                                    Variant::kGemmAt, Variant::kGemmAtAcc,
                                    Variant::kGemmBtAcc};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kGemm: return "gemm";
    case Variant::kGemmAcc: return "gemm_acc";
    case Variant::kGemmAt: return "gemm_at";
    case Variant::kGemmAtAcc: return "gemm_at_acc";
    case Variant::kGemmBtAcc: return "gemm_bt_acc";
  }
  return "?";
}

std::vector<float> run_variant(Variant v, ComputeBackend backend, int m, int n,
                               int k, const std::vector<float>& a,
                               const std::vector<float>& b,
                               std::vector<float> c) {
  const BackendScope scope(backend);
  switch (v) {
    case Variant::kGemm: gemm(m, n, k, a.data(), b.data(), c.data()); break;
    case Variant::kGemmAcc:
      gemm_acc(m, n, k, a.data(), b.data(), c.data());
      break;
    case Variant::kGemmAt: gemm_at(m, n, k, a.data(), b.data(), c.data()); break;
    case Variant::kGemmAtAcc:
      gemm_at_acc(m, n, k, a.data(), b.data(), c.data());
      break;
    case Variant::kGemmBtAcc:
      gemm_bt_acc(m, n, k, a.data(), b.data(), c.data());
      break;
  }
  return c;
}

// Shapes of operand A (and A-transposed) / B per variant.
std::size_t a_floats(Variant v, int m, int k) {
  return static_cast<std::size_t>(m) * k;  // same float count either layout
}
std::size_t b_floats(Variant v, int n, int k) {
  return static_cast<std::size_t>(n) * k;
}

// ---------------------------------------------------------------------------
// Names / selection plumbing
// ---------------------------------------------------------------------------

TEST(Backend, NamesRoundTripAndUnknownThrows) {
  for (const ComputeBackend b : kAllBackends)
    EXPECT_EQ(backend_from_name(backend_name(b)), b);
  EXPECT_THROW(backend_from_name("tpu-v9"), std::invalid_argument);
  EXPECT_THROW(backend_from_name(""), std::invalid_argument);
}

TEST(Backend, ScopeOverridesAndRestoresDefault) {
  const ComputeBackend def = default_backend();
  EXPECT_EQ(active_backend(), def);
  {
    const BackendScope outer(ComputeBackend::kBlocked);
    EXPECT_EQ(active_backend(), ComputeBackend::kBlocked);
    {
      const BackendScope inner(ComputeBackend::kSimd);
      EXPECT_EQ(active_backend(), ComputeBackend::kSimd);
    }
    EXPECT_EQ(active_backend(), ComputeBackend::kBlocked);
  }
  EXPECT_EQ(active_backend(), def);
}

TEST(Backend, SetDefaultBackendReturnsPreviousAndSticks) {
  const ComputeBackend prev = set_default_backend(ComputeBackend::kBlocked);
  EXPECT_EQ(active_backend(), ComputeBackend::kBlocked);
  EXPECT_EQ(set_default_backend(prev), ComputeBackend::kBlocked);
  EXPECT_EQ(default_backend(), prev);
}

TEST(Backend, SimdIsaNameIsOneOfTheKnownIsas) {
  const std::string isa = simd_isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
}

TEST(Backend, ConfigDescribeAndJsonCarryBackend) {
  SysNoiseConfig cfg;
  cfg.backend = ComputeBackend::kSimd;
  EXPECT_NE(cfg.describe().find("backend=simd"), std::string::npos);
  const SysNoiseConfig back = SysNoiseConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.backend, ComputeBackend::kSimd);
  EXPECT_EQ(back.describe(), cfg.describe());
  // Pre-backend-axis serializations (no "backend" key) stay loadable and
  // keep the process default.
  const util::Json full = cfg.to_json();
  util::Json legacy = util::Json::object();
  for (const char* key :
       {"decoder", "resize", "crop_fraction", "color", "norm", "layout",
        "precision", "ceil_mode", "upsample", "proposal_offset"})
    legacy.set(key, *full.get(key));
  EXPECT_EQ(SysNoiseConfig::from_json(legacy).backend, default_backend());
}

// ---------------------------------------------------------------------------
// Kernel parity + determinism
// ---------------------------------------------------------------------------

// Shapes chosen to hit the packed engine's corners: micro-tile multiples,
// ragged tails in both m and n, k smaller and larger than the panels,
// single rows/columns.
const std::vector<std::array<int, 3>>& parity_shapes() {
  static const std::vector<std::array<int, 3>> shapes = {
      {4, 16, 8},  {8, 32, 64}, {5, 17, 3},  {3, 7, 19}, {1, 1, 1},
      {1, 33, 40}, {37, 1, 13}, {13, 29, 1}, {64, 48, 32}};
  return shapes;
}

TEST(BackendParity, AllVariantsAgreeWithinEpsilonAcrossBackends) {
  Rng rng(42);
  for (const auto& [m, n, k] : parity_shapes()) {
    for (const Variant v : kAllVariants) {
      const auto a = random_vec(a_floats(v, m, k), rng);
      const auto b = random_vec(b_floats(v, n, k), rng);
      const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
      const auto ref = run_variant(v, ComputeBackend::kReference, m, n, k, a, b, c0);
      // Accumulation order differs across kernel families, so agreement is
      // epsilon, not bits: |drift| <= eps * k * max|a||b| is generous.
      const float tol = 1e-5f * static_cast<float>(k + 1);
      for (const ComputeBackend backend :
           {ComputeBackend::kBlocked, ComputeBackend::kSimd}) {
        const auto out = run_variant(v, backend, m, n, k, a, b, c0);
        EXPECT_LE(max_abs_diff(ref, out), tol)
            << variant_name(v) << " " << backend_name(backend) << " m=" << m
            << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(BackendParity, EachBackendIsBitExactlyRepeatable) {
  Rng rng(7);
  for (const auto& [m, n, k] : parity_shapes()) {
    for (const Variant v : kAllVariants) {
      const auto a = random_vec(a_floats(v, m, k), rng);
      const auto b = random_vec(b_floats(v, n, k), rng);
      const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
      for (const ComputeBackend backend : kAllBackends) {
        const auto first = run_variant(v, backend, m, n, k, a, b, c0);
        const auto second = run_variant(v, backend, m, n, k, a, b, c0);
        EXPECT_EQ(first, second)
            << variant_name(v) << " " << backend_name(backend);
      }
    }
  }
}

// The pool sizes itself to hardware_concurrency() - 1, which is zero on a
// single-core host: every fan-out then collapses to one inline range, and
// any split-only bug sails through green. Split tests force a real pool
// first and assert the split actually happened.
constexpr int kForcedHelpers = 3;

TEST(Backend, ForcedPoolActuallySplitsRanges) {
  ensure_gemm_pool_helpers(kForcedHelpers);
  const GemmParallelScope fan(kForcedHelpers + 1);
  std::mutex mu;
  std::vector<std::pair<int, int>> seen;
  parallel_ranges(64, 4, [&](int begin, int end) {
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(begin, end);
  });
  ASSERT_GT(seen.size(), 1u)
      << "worker pool cannot split even after ensure_gemm_pool_helpers(); "
         "every worker fan-out test in this binary would be vacuous";
}

TEST(BackendParity, WorkerFanOutIsBitIdenticalToSerialAtAnyWorkerCount) {
  ensure_gemm_pool_helpers(kForcedHelpers);
  Rng rng(11);
  const int m = 61, n = 37, k = 29;
  for (const Variant v : kAllVariants) {
    const auto a = random_vec(a_floats(v, m, k), rng);
    const auto b = random_vec(b_floats(v, n, k), rng);
    const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
    for (const ComputeBackend backend : kAllBackends) {
      const auto serial = run_variant(v, backend, m, n, k, a, b, c0);
      for (const int workers : {2, 3, 8, 0 /* = hardware */}) {
        const GemmParallelScope fan(workers);
        const auto parallel = run_variant(v, backend, m, n, k, a, b, c0);
        EXPECT_EQ(serial, parallel)
            << variant_name(v) << " " << backend_name(backend) << " workers="
            << workers;
      }
    }
  }
}

TEST(BackendParity, SimdDriftsFromReferenceWhenAVectorIsaDispatches) {
  // FMA's single rounding makes the simd kernel a genuinely different float
  // profile — the measured noise the axis exists for. Only asserted when a
  // vector ISA actually dispatched (the scalar fallback shares the blocked
  // kernel's arithmetic).
  if (std::string(simd_isa_name()) == "scalar") GTEST_SKIP();
  Rng rng(3);
  const int m = 32, n = 48, k = 96;
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, 0.0f);
  const auto ref =
      run_variant(Variant::kGemm, ComputeBackend::kReference, m, n, k, a, b, c0);
  const auto simd =
      run_variant(Variant::kGemm, ComputeBackend::kSimd, m, n, k, a, b, c0);
  EXPECT_GT(max_abs_diff(ref, simd), 0.0f);
}

// ---------------------------------------------------------------------------
// Reference zero-skip vs IEEE non-finite propagation (the satellite bug)
// ---------------------------------------------------------------------------

TEST(BackendNonFinite, ZeroSkipIsAReferenceOnlyProperty) {
  // A = [0, 1] row; B rows: b[0] = inf (hit only through a zero weight),
  // b[1] finite. IEEE says 0 * inf = NaN must poison the output; the
  // reference kernels' zero-skip drops that, as documented.
  const float inf = std::numeric_limits<float>::infinity();
  const int m = 1, n = 4, k = 2;
  const std::vector<float> a = {0.0f, 1.0f};            // m x k
  const std::vector<float> b = {inf,  inf,  inf,  inf,  // k x n, row 0
                                1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, 0.0f);

  for (const Variant v : {Variant::kGemm, Variant::kGemmAcc, Variant::kGemmAt,
                          Variant::kGemmAtAcc}) {
    // a is symmetric (1 x 2 == 2 x 1 transposed reads the same buffer).
    const auto ref = run_variant(v, ComputeBackend::kReference, m, n, k, a, b, c0);
    for (int j = 0; j < n; ++j)
      EXPECT_TRUE(std::isfinite(ref[static_cast<std::size_t>(j)]))
          << variant_name(v) << " j=" << j;
    for (const ComputeBackend backend :
         {ComputeBackend::kBlocked, ComputeBackend::kSimd}) {
      const auto out = run_variant(v, backend, m, n, k, a, b, c0);
      for (int j = 0; j < n; ++j)
        EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(j)]))
            << variant_name(v) << " " << backend_name(backend) << " j=" << j;
    }
  }

  // gemm_bt_acc never had the skip: every backend propagates. B is n x k
  // with an inf in each row's k=0 slot.
  const std::vector<float> bt = {inf, 1.0f, inf, 2.0f, inf, 3.0f, inf, 4.0f};
  for (const ComputeBackend backend : kAllBackends) {
    const auto out =
        run_variant(Variant::kGemmBtAcc, backend, m, n, k, a, bt, c0);
    for (int j = 0; j < n; ++j)
      EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(j)]))
          << backend_name(backend) << " j=" << j;
  }
}

TEST(BackendNonFinite, NonReferenceBackendsPropagateNaNInputs) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const int m = 3, n = 5, k = 4;
  Rng rng(9);
  auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  a[k] = nan;  // poison row 1
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, 0.0f);
  for (const ComputeBackend backend : kAllBackends) {
    const auto out = run_variant(Variant::kGemm, backend, m, n, k, a, b, c0);
    for (int j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isfinite(out[static_cast<std::size_t>(j)]))
          << backend_name(backend);  // row 0 untouched
      EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(n + j)]))
          << backend_name(backend);  // row 1 poisoned
    }
  }
}

// ---------------------------------------------------------------------------
// Chain oracles: the packed engine reproduces each backend's loops bit for bit
// ---------------------------------------------------------------------------

// The reference backend's historical loops, kept here as the oracle its
// packed micro-kernel must match: C itself is the accumulator, zero A
// elements skip their term, and the k/n blocking does not change any
// element's k-ascending chain.
constexpr int kOracleBlockK = 128;
constexpr int kOracleBlockN = 256;

void oracle_ref_gemm_acc(int m, int n, int k, const float* a, const float* b,
                         float* c) {
  for (int k0 = 0; k0 < k; k0 += kOracleBlockK) {
    const int k1 = std::min(k, k0 + kOracleBlockK);
    for (int n0 = 0; n0 < n; n0 += kOracleBlockN) {
      const int n1 = std::min(n, n0 + kOracleBlockN);
      for (int i = 0; i < m; ++i) {
        float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
        const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
        for (int kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + static_cast<std::ptrdiff_t>(kk) * n;
          for (int j = n0; j < n1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void oracle_ref_gemm_at_acc(int m, int n, int k, const float* a,
                            const float* b, float* c) {
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::ptrdiff_t>(kk) * m;
    const float* brow = b + static_cast<std::ptrdiff_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void oracle_ref_gemm_bt_acc(int m, int n, int k, const float* a,
                            const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
    float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::ptrdiff_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

// The blocked chain for every variant: a fresh zero accumulator per element,
// mul then add in k-ascending order with no skip, added to C once.
void oracle_fresh_acc(Variant v, int m, int n, int k, const float* a,
                      const float* b, float* c) {
  const bool at = v == Variant::kGemmAt || v == Variant::kGemmAtAcc;
  const bool bt = v == Variant::kGemmBtAcc;
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float av = at ? a[static_cast<std::ptrdiff_t>(kk) * m + i]
                            : a[static_cast<std::ptrdiff_t>(i) * k + kk];
        const float bv = bt ? b[static_cast<std::ptrdiff_t>(j) * k + kk]
                            : b[static_cast<std::ptrdiff_t>(kk) * n + j];
        acc += av * bv;
      }
      c[static_cast<std::ptrdiff_t>(i) * n + j] += acc;
    }
}

// What `backend` (reference or blocked) must compute for variant v.
std::vector<float> oracle_variant(Variant v, ComputeBackend backend, int m,
                                  int n, int k, const std::vector<float>& a,
                                  const std::vector<float>& b,
                                  std::vector<float> c) {
  if (v == Variant::kGemm || v == Variant::kGemmAt)
    std::fill(c.begin(), c.end(), 0.0f);
  if (backend == ComputeBackend::kBlocked)
    oracle_fresh_acc(v, m, n, k, a.data(), b.data(), c.data());
  else if (v == Variant::kGemmBtAcc)
    oracle_ref_gemm_bt_acc(m, n, k, a.data(), b.data(), c.data());
  else if (v == Variant::kGemmAt || v == Variant::kGemmAtAcc)
    oracle_ref_gemm_at_acc(m, n, k, a.data(), b.data(), c.data());
  else
    oracle_ref_gemm_acc(m, n, k, a.data(), b.data(), c.data());
  return c;
}

// Operands that exercise every branch of the chains: about 20% of A is +-0
// (the reference skip), B holds +-0, +-inf and NaN in a few places, and C
// starts with -0, +-inf and NaN entries (the seeded tile must keep a -0
// that every term skips). Each NaN is the one 0 x inf produces, so where two
// NaNs meet, the compiler's choice of which operand survives (gemm.h)
// cannot show in the bits.
struct OracleOperands {
  std::vector<float> a, b, c;
};

OracleOperands oracle_operands(int m, int n, int k, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  volatile float zero = 0.0f;
  const float nan = zero * inf;
  OracleOperands ops{random_vec(static_cast<std::size_t>(m) * k, rng),
                     random_vec(static_cast<std::size_t>(k) * n, rng),
                     random_vec(static_cast<std::size_t>(m) * n, rng)};
  for (float& x : ops.a) {
    const float u = rng.uniform_f(0.0f, 1.0f);
    if (u < 0.1f) x = 0.0f;
    else if (u < 0.2f) x = -0.0f;
  }
  for (float& x : ops.b) {
    const float u = rng.uniform_f(0.0f, 1.0f);
    if (u < 0.05f) x = 0.0f;
    else if (u < 0.1f) x = -0.0f;
  }
  // About one non-finite per three B columns' worth of entries, so most
  // chains stay finite and the skip decides the rest.
  const float specials[] = {inf, -inf, nan};
  const int nonfinite = 1 + n / 3;
  for (int s = 0; s < nonfinite; ++s) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_f(0.0f, 1.0f) * static_cast<float>(ops.b.size()));
    ops.b[std::min(at, ops.b.size() - 1)] = specials[s % 3];
  }
  const float c_specials[] = {-0.0f, -0.0f, inf, -inf, nan};
  for (std::size_t i = 0; i < ops.c.size(); ++i)
    if (i % 4 == 1) ops.c[i] = c_specials[(i / 4) % 5];
  return ops;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(BackendOracle, ReferenceAndBlockedReproduceTheirLoopsBitForBit) {
  ensure_gemm_pool_helpers(kForcedHelpers);
  Rng rng(1234);
  int compared = 0;
  for (const int m : {1, 3, 5, 17})
    for (const int n : {1, 15, 17, 33})
      for (const int k : {1, 127, 129, 300})
        for (const Variant v : kAllVariants) {
          const OracleOperands ops = oracle_operands(m, n, k, rng);
          for (const ComputeBackend backend :
               {ComputeBackend::kReference, ComputeBackend::kBlocked}) {
            const auto want = oracle_variant(v, backend, m, n, k, ops.a,
                                             ops.b, ops.c);
            const auto serial =
                run_variant(v, backend, m, n, k, ops.a, ops.b, ops.c);
            std::vector<float> fanned;
            {
              const GemmParallelScope fan(3);
              fanned = run_variant(v, backend, m, n, k, ops.a, ops.b, ops.c);
            }
            EXPECT_TRUE(same_bits(want, serial))
                << variant_name(v) << " " << backend_name(backend)
                << " serial m=" << m << " n=" << n << " k=" << k;
            EXPECT_TRUE(same_bits(want, fanned))
                << variant_name(v) << " " << backend_name(backend)
                << " 3 workers m=" << m << " n=" << n << " k=" << k;
            ++compared;
          }
        }
  EXPECT_EQ(compared, 4 * 4 * 4 * 5 * 2);
}

// ---------------------------------------------------------------------------
// parallel_ranges
// ---------------------------------------------------------------------------

TEST(Backend, ParallelRangesCoversTotalExactlyOnceWithAlignment) {
  ensure_gemm_pool_helpers(kForcedHelpers);
  const GemmParallelScope fan(0);
  for (const int total : {1, 7, 64, 129}) {
    for (const int align : {1, 4, 16}) {
      std::mutex mu;
      std::vector<std::pair<int, int>> seen;
      parallel_ranges(total, align, [&](int begin, int end) {
        std::lock_guard<std::mutex> lock(mu);
        seen.emplace_back(begin, end);
      });
      std::sort(seen.begin(), seen.end());
      int next = 0;
      for (const auto& [begin, end] : seen) {
        EXPECT_EQ(begin, next);
        EXPECT_LT(begin, end);
        // Interior boundaries land on align multiples.
        if (end != total) EXPECT_EQ(end % align, 0) << total << "/" << align;
        next = end;
      }
      EXPECT_EQ(next, total) << total << "/" << align;
    }
  }
}

TEST(Backend, BackToBackJobsExecuteEachRangeExactlyOnce) {
  // Cross-job integrity: a worker preempted between jobs must never carry a
  // stale range index into the next job. Alternate a 2-range job with a
  // 4-range job so a stale overrun index from the small job (2 or 3) would
  // be in range for the big one — the old race then executes that range
  // twice, which shows up here as an over-count.
  ensure_gemm_pool_helpers(kForcedHelpers);
  constexpr int kTotal = 64, kJobs = 500;
  std::vector<int> counts(kTotal, 0);
  for (int j = 0; j < kJobs; ++j) {
    const GemmParallelScope fan(j % 2 == 0 ? 2 : 4);
    parallel_ranges(kTotal, 1, [&](int begin, int end) {
      for (int i = begin; i < end; ++i) ++counts[i];
    });
  }
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(counts[i], kJobs) << "i=" << i;
}

TEST(Backend, ParallelRangesRunsInlineWithoutAGrant) {
  // gemm_workers() defaults to 1: the callback must run on this thread,
  // exactly once, covering everything.
  int calls = 0;
  parallel_ranges(100, 4, [&](int begin, int end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// conv2d im2col edge cases, per backend
// ---------------------------------------------------------------------------

// Direct O(everything) convolution oracle.
Tensor conv_oracle(const Tensor& x, const Tensor& w, const float* bias,
                   int stride, int pad, int groups) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int oc = w.dim(0), icg = w.dim(1), k = w.dim(2);
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (wd + 2 * pad - k) / stride + 1;
  const int ocg = oc / groups;
  Tensor out({n, oc, oh, ow});
  for (int ni = 0; ni < n; ++ni)
    for (int co = 0; co < oc; ++co) {
      const int g = co / ocg;
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          double acc = bias != nullptr ? bias[co] : 0.0;
          for (int ci = 0; ci < icg; ++ci)
            for (int ky = 0; ky < k; ++ky)
              for (int kx = 0; kx < k; ++kx) {
                const int iy = oy * stride - pad + ky;
                const int ix = ox * stride - pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(
                           x.at4(ni, g * icg + ci, iy, ix)) *
                       w.at4(co, ci, ky, kx);
              }
          out.at4(ni, co, oy, ox) = static_cast<float>(acc);
        }
    }
  (void)c;
  return out;
}

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  return t;
}

struct ConvCase {
  int n, c, h, w, oc, k, stride, pad, groups;
  int icg() const { return c / groups; }
  int ocg() const { return oc / groups; }
  int oh() const { return (h + 2 * pad - k) / stride + 1; }
  int ow() const { return (w + 2 * pad - k) / stride + 1; }
  int col_rows() const { return icg() * k * k; }
};

TEST(BackendConv, Im2colEdgeCasesMatchDirectConvolutionPerBackend) {
  const std::vector<ConvCase> cases = {
      {2, 3, 8, 8, 4, 3, 1, 1, 1},   // plain 3x3 same-pad
      {1, 4, 7, 5, 6, 3, 2, 1, 1},   // stride 2, odd sizes
      {2, 4, 6, 6, 8, 1, 1, 0, 1},   // 1x1 pointwise
      {1, 6, 9, 9, 6, 3, 2, 0, 3},   // grouped, stride 2, no pad
      {1, 8, 5, 5, 8, 3, 1, 2, 8},   // depthwise, pad > stride
      {1, 2, 4, 4, 2, 4, 4, 0, 1},   // kernel == input tile, stride = k
  };
  Rng rng(123);
  for (const ConvCase& cc : cases) {
    const Tensor x = random_tensor({cc.n, cc.c, cc.h, cc.w}, rng);
    const Tensor w =
        random_tensor({cc.oc, cc.c / cc.groups, cc.k, cc.k}, rng);
    Tensor bias = random_tensor({cc.oc}, rng);
    const Tensor expect =
        conv_oracle(x, w, bias.data(), cc.stride, cc.pad, cc.groups);
    for (const ComputeBackend backend : kAllBackends) {
      nn::Tape tape;
      tape.ctx.backend = backend;
      nn::Param wp(w), bp(bias);
      nn::Node* in = tape.input(x);
      nn::Node* y =
          nn::conv2d(tape, in, wp, &bp, {cc.stride, cc.pad, cc.groups}, "t");
      ASSERT_EQ(y->value.shape(), expect.shape());
      const float tol = 1e-4f;
      for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(y->value[i], expect[i], tol)
            << backend_name(backend) << " case n=" << cc.n << " g=" << cc.groups
            << " k=" << cc.k << " i=" << i;
    }
  }
}

TEST(BackendConv, ForwardIsBitExactPerBackendAcrossRepeatsAndFanOut) {
  ensure_gemm_pool_helpers(kForcedHelpers);
  Rng rng(321);
  const Tensor x = random_tensor({3, 4, 9, 9}, rng);
  const Tensor w = random_tensor({6, 2, 3, 3}, rng);
  for (const ComputeBackend backend : kAllBackends) {
    std::vector<float> first;
    for (int rep = 0; rep < 3; ++rep) {
      nn::Tape tape;
      tape.ctx.backend = backend;
      nn::Param wp(w);
      nn::Node* in = tape.input(x);
      // rep 2 runs under a worker-pool grant: the (image, group) fan-out
      // must not change a single bit.
      std::unique_ptr<GemmParallelScope> fan;
      if (rep == 2) fan = std::make_unique<GemmParallelScope>(0);
      nn::Node* y = nn::conv2d(tape, in, wp, nullptr, {1, 1, 2}, "t");
      if (rep == 0)
        first = y->value.vec();
      else
        EXPECT_EQ(first, y->value.vec())
            << backend_name(backend) << " rep=" << rep;
    }
  }
}

TEST(BackendConv, BackwardGradientsAgreeAcrossBackendsWithinEpsilon) {
  Rng rng(55);
  const Tensor x = random_tensor({2, 4, 6, 6}, rng);
  const Tensor w = random_tensor({4, 2, 3, 3}, rng);
  std::vector<float> ref_gw, ref_gx;
  for (const ComputeBackend backend : kAllBackends) {
    nn::Tape tape;
    tape.ctx.backend = backend;
    nn::Param wp(w);
    nn::Node* in = tape.input(x, /*requires_grad=*/true);
    nn::Node* y = nn::conv2d(tape, in, wp, nullptr, {1, 1, 2}, "t");
    // Loss = sum(y): seed dL/dy = 1 everywhere and run the conv backward.
    y->grad = Tensor::full(y->value.shape(), 1.0f);
    y->backprop();
    if (backend == ComputeBackend::kReference) {
      ref_gw = wp.grad.vec();
      ref_gx = in->grad.vec();
    } else {
      EXPECT_LE(max_abs_diff(ref_gw, wp.grad.vec()), 1e-3f)
          << backend_name(backend);
      EXPECT_LE(max_abs_diff(ref_gx, in->grad.vec()), 1e-3f)
          << backend_name(backend);
    }
  }
}

// ---------------------------------------------------------------------------
// conv2d's data paths vs the im2col + gemm() computation, bit for bit
// ---------------------------------------------------------------------------

// The straightforward conv computation conv2d's depthwise, pointwise and
// pointer-im2col paths must reproduce exactly: per (image, group) a naive
// im2col, one gemm() under the backend, then the bias.
std::vector<float> naive_im2col(const Tensor& x, int ni, int c0, int icg,
                                int k, int stride, int pad, int oh, int ow) {
  const int h = x.dim(2), w = x.dim(3);
  std::vector<float> col(static_cast<std::size_t>(icg) * k * k * oh * ow);
  std::size_t i = 0;
  for (int c = 0; c < icg; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox, ++i) {
            const int iy = oy * stride - pad + ky, ix = ox * stride - pad + kx;
            col[i] = iy >= 0 && iy < h && ix >= 0 && ix < w
                         ? x.at4(ni, c0 + c, iy, ix)
                         : 0.0f;
          }
  return col;
}

void naive_col2im_acc(const std::vector<float>& col, int ni, int c0, int icg,
                      int k, int stride, int pad, int oh, int ow, Tensor& gx) {
  const int h = gx.dim(2), w = gx.dim(3);
  std::size_t i = 0;
  for (int c = 0; c < icg; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox, ++i) {
            const int iy = oy * stride - pad + ky, ix = ox * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              gx.at4(ni, c0 + c, iy, ix) += col[i];
          }
}

std::string describe(const ConvCase& g) {
  std::ostringstream os;
  os << "n=" << g.n << " c=" << g.c << " " << g.h << "x" << g.w
     << " oc=" << g.oc << " k=" << g.k << " s=" << g.stride << " p=" << g.pad
     << " groups=" << g.groups;
  return os.str();
}

Tensor im2col_gemm_conv(ComputeBackend backend, const ConvCase& g,
                        const Tensor& x, const Tensor& w, const Tensor* bias) {
  const BackendScope scope(backend);
  const int oh = g.oh(), ow = g.ow(), rows = g.col_rows();
  Tensor out({g.n, g.oc, oh, ow});
  for (int ni = 0; ni < g.n; ++ni)
    for (int gi = 0; gi < g.groups; ++gi) {
      const auto col = naive_im2col(x, ni, gi * g.icg(), g.icg(), g.k,
                                    g.stride, g.pad, oh, ow);
      gemm(g.ocg(), oh * ow, rows,
           w.data() + static_cast<std::size_t>(gi) * g.ocg() * rows,
           col.data(), &out.at4(ni, gi * g.ocg(), 0, 0));
    }
  if (bias != nullptr)
    for (int ni = 0; ni < g.n; ++ni)
      for (int co = 0; co < g.oc; ++co) {
        float* p = &out.at4(ni, co, 0, 0);
        for (int i = 0; i < oh * ow; ++i) p[i] += (*bias)[co];
      }
  return out;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Byte equality, except that two NaNs match whatever their sign/payload.
// Where an input NaN (+nan) and a generated one (inf*0 or inf-inf: -nan on
// x86) meet in one accumulation, SSE keeps the first source operand's NaN,
// and which operand comes first is the compiler's register choice — the
// packed micro-kernel itself picks differently for its two column halves.
// So that bit is not a property of the kernel's arithmetic; every other bit
// (signed zeros, infinities, finite values) still has to match.
bool same_bits_or_both_nan(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0 &&
        !(std::isnan(a[i]) && std::isnan(b[i])))
      return false;
  return true;
}

// Scatter signed zeros and non-finite values through a tensor: every
// `every`-th element (from `offset`) takes the next value of `specials`.
void sprinkle(Tensor& t, const std::vector<float>& specials, std::size_t every,
              std::size_t offset) {
  std::size_t s = 0;
  for (std::size_t i = offset; i < t.size(); i += every, ++s)
    t[i] = specials[s % specials.size()];
}

// Channel/group shapes: dense, grouped (groups=2, ocg=2), depthwise, a
// single-channel conv (also the depthwise path) and a depthwise multiplier
// (icg=1, ocg=2: the GEMM path). Pointwise is their k=1, s=1, p=0 point.
struct ChannelShape {
  int c, oc, groups;
};
constexpr ChannelShape kChannelShapes[] = {
    {3, 4, 1}, {6, 4, 2}, {3, 3, 3}, {1, 1, 1}, {3, 6, 3}};
// Plane sizes, including ones smaller than the kernel that only padding
// makes valid.
constexpr std::pair<int, int> kPlanes[] = {
    {1, 1}, {2, 3}, {4, 4}, {7, 9}, {17, 10}};

// Every valid geometry over k 1/3/5, stride 1-3, pad 0-2 and kPlanes.
std::vector<ConvCase> oracle_geometries() {
  std::vector<ConvCase> out;
  for (const ChannelShape& cs : kChannelShapes)
    for (const int k : {1, 3, 5})
      for (const int stride : {1, 2, 3})
        for (const int pad : {0, 1, 2})
          for (const auto& [h, w] : kPlanes)
            if (h + 2 * pad >= k && w + 2 * pad >= k)
              out.push_back({2, cs.c, h, w, cs.oc, k, stride, pad, cs.groups});
  return out;
}

// How expect_conv_matches_oracle fills inputs and weights:
//  - kFinite: uniform values, with a bias;
//  - kSpecials: signed zeros, NaN/inf and tiny values scattered through the
//    inputs, zero/-0/inf/tiny weights, compared with same_bits_or_both_nan;
//  - kUnderflow: tiny positive inputs and tiny negative weights, so every
//    product underflows to -0 and an FMA chain ends on -0 that the GEMM's
//    final 0 + acc turns into +0.
// The last two add no bias, so the sign of a zero output stays visible.
enum class ConvValues { kFinite, kSpecials, kUnderflow };

// Runs conv2d and the oracle for every geometry and backend, serially and
// under a 4-worker grant, and asserts byte equality.
void expect_conv_matches_oracle(ConvValues values) {
  ensure_gemm_pool_helpers(kForcedHelpers);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(4242 + static_cast<int>(values));
  int checked = 0;
  for (const ConvCase& g : oracle_geometries()) {
    Tensor x = random_tensor({g.n, g.c, g.h, g.w}, rng);
    Tensor w = random_tensor({g.oc, g.icg(), g.k, g.k}, rng);
    const Tensor bias = random_tensor({g.oc}, rng);
    if (values == ConvValues::kSpecials) {
      sprinkle(x, {nan, inf, -0.0f, 1e-30f, -inf, 0.0f}, 7, 3);
      sprinkle(w, {0.0f, inf, -1e-30f, -0.0f}, 5, 1);
    } else if (values == ConvValues::kUnderflow) {
      for (float& v : x.vec()) v = 1e-30f * (1.5f + v);
      for (float& v : w.vec()) v = -1e-30f * (1.5f + v);
    }
    const bool with_bias = values == ConvValues::kFinite;
    for (const ComputeBackend backend : kAllBackends) {
      const Tensor expect =
          im2col_gemm_conv(backend, g, x, w, with_bias ? &bias : nullptr);
      for (const int workers : {1, 4}) {
        const GemmParallelScope fan(workers);
        nn::Tape tape;
        tape.ctx.backend = backend;
        nn::Param wp(w), bp(bias);
        nn::Node* y = nn::conv2d(tape, tape.input(x), wp,
                                 with_bias ? &bp : nullptr,
                                 {g.stride, g.pad, g.groups}, "t");
        EXPECT_TRUE(values == ConvValues::kSpecials
                        ? same_bits_or_both_nan(y->value, expect)
                        : same_bytes(y->value, expect))
            << backend_name(backend) << " workers=" << workers << " "
            << describe(g);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(BackendConv, EveryDataPathIsBitIdenticalToIm2colGemmSerialAndFanOut) {
  expect_conv_matches_oracle(ConvValues::kFinite);
}

TEST(BackendConv, NonFiniteAndSignedZeroValuesMatchIm2colGemmBitForBit) {
  expect_conv_matches_oracle(ConvValues::kSpecials);
}

TEST(BackendConv, UnderflowedProductsMatchIm2colGemmBitForBit) {
  expect_conv_matches_oracle(ConvValues::kUnderflow);
}

TEST(BackendConv, BackwardGradsBitIdenticalToCol2imGemm) {
  const std::vector<ConvCase> geoms = {
      {2, 3, 7, 9, 4, 3, 2, 1, 1},   // dense, strided, padded
      {2, 6, 5, 5, 4, 3, 1, 2, 2},   // grouped, pad > stride
      {2, 3, 9, 8, 3, 3, 2, 1, 3},   // depthwise
      {2, 4, 6, 6, 5, 1, 1, 0, 1},   // pointwise
      {1, 2, 2, 3, 2, 5, 3, 2, 1},   // plane smaller than the kernel
  };
  Rng rng(77);
  for (const ConvCase& g : geoms) {
    const Tensor x = random_tensor({g.n, g.c, g.h, g.w}, rng);
    const Tensor w = random_tensor({g.oc, g.icg(), g.k, g.k}, rng);
    Tensor gy = random_tensor({g.n, g.oc, g.oh(), g.ow()}, rng);
    const int oh = g.oh(), ow = g.ow(), rows = g.col_rows();
    for (const ComputeBackend backend : kAllBackends) {
      nn::Tape tape;
      tape.ctx.backend = backend;
      nn::Param wp(w);
      nn::Node* in = tape.input(x, /*requires_grad=*/true);
      nn::Node* y =
          nn::conv2d(tape, in, wp, nullptr, {g.stride, g.pad, g.groups}, "t");
      y->grad = gy;
      y->backprop();

      const BackendScope scope(backend);
      Tensor gw(w.shape()), gx(x.shape());
      std::vector<float> gcol(static_cast<std::size_t>(rows) * oh * ow);
      for (int ni = 0; ni < g.n; ++ni)
        for (int gi = 0; gi < g.groups; ++gi) {
          const auto col = naive_im2col(x, ni, gi * g.icg(), g.icg(), g.k,
                                        g.stride, g.pad, oh, ow);
          const float* gout = &gy.at4(ni, gi * g.ocg(), 0, 0);
          const std::size_t wofs = static_cast<std::size_t>(gi) * g.ocg() * rows;
          gemm_bt_acc(g.ocg(), rows, oh * ow, gout, col.data(),
                      gw.data() + wofs);
          gemm_at(rows, oh * ow, g.ocg(), w.data() + wofs, gout, gcol.data());
          naive_col2im_acc(gcol, ni, gi * g.icg(), g.icg(), g.k, g.stride,
                           g.pad, oh, ow, gx);
        }
      EXPECT_TRUE(same_bytes(wp.grad, gw)) << backend_name(backend) << " "
                                           << describe(g);
      EXPECT_TRUE(same_bytes(in->grad, gx)) << backend_name(backend) << " "
                                            << describe(g);
    }
  }
}

// conv2d geometry validation: each malformed layer throws, naming the layer.
void expect_conv_rejects(std::vector<int> x_shape, std::vector<int> w_shape,
                         nn::Conv2dSpec spec) {
  nn::Tape tape;
  nn::Param wp{Tensor(std::move(w_shape))};
  nn::Node* in = tape.input(Tensor(std::move(x_shape)));
  try {
    nn::conv2d(tape, in, wp, nullptr, spec, "blk.dw");
    ADD_FAILURE() << "conv2d accepted stride=" << spec.stride
                  << " pad=" << spec.pad;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("blk.dw"), std::string::npos)
        << e.what();
  }
}

TEST(BackendConv, RejectsStrideBelowOne) {
  expect_conv_rejects({1, 2, 6, 6}, {2, 2, 3, 3}, {0, 1, 1});
  expect_conv_rejects({1, 2, 6, 6}, {2, 2, 3, 3}, {-1, 1, 1});
}

TEST(BackendConv, RejectsNegativePad) {
  expect_conv_rejects({1, 2, 6, 6}, {2, 2, 3, 3}, {1, -1, 1});
}

TEST(BackendConv, RejectsWeightThatIsNotRank4WithASquareKernel) {
  expect_conv_rejects({1, 2, 6, 6}, {2, 2, 3}, {1, 1, 1});
  expect_conv_rejects({1, 2, 6, 6}, {2, 2, 3, 2}, {1, 1, 1});
}

TEST(BackendConv, RejectsKernelLargerThanThePaddedInput) {
  // (2 + 0 - 3) / 2 + 1 truncates to a phantom 1-row output of zero taps.
  expect_conv_rejects({1, 2, 2, 8}, {2, 2, 3, 3}, {2, 0, 1});
  expect_conv_rejects({1, 2, 8, 2}, {2, 1, 3, 3}, {1, 0, 2});
  // Padding that just fits is valid: a 1x1 plane, k=3, pad 1.
  nn::Tape tape;
  nn::Param wp{Tensor({2, 2, 3, 3})};
  nn::Node* y = nn::conv2d(tape, tape.input(Tensor({1, 2, 1, 1})), wp, nullptr,
                           {1, 1, 1}, "t");
  EXPECT_EQ(y->value.shape(), (std::vector<int>{1, 2, 1, 1}));
}

// ---------------------------------------------------------------------------
// Stage-cache scoping: forward products never mix across backends
// ---------------------------------------------------------------------------

TEST(BackendCaching, ForwardKeysSplitByBackendButPreprocessKeysDoNot) {
  const core::SyntheticStagedTask task(core::TaskKind::kClassification, false);
  SysNoiseConfig ref_cfg;
  ref_cfg.backend = ComputeBackend::kReference;
  SysNoiseConfig blk_cfg = ref_cfg;
  blk_cfg.backend = ComputeBackend::kBlocked;
  // The kernel family touches nothing in stage 1...
  EXPECT_EQ(task.preprocess_key(ref_cfg), task.preprocess_key(blk_cfg));
  // ...but forward products and metrics are per-backend.
  EXPECT_NE(task.forward_key(ref_cfg), task.forward_key(blk_cfg));
  EXPECT_NE(ref_cfg.describe(), blk_cfg.describe());
}

// Registry with only the Backend axis: baseline (process default) + the two
// alternate kernel families + Combined.
core::AxisRegistry backend_only_registry() {
  core::AxisRegistry reg;
  core::NoiseAxis a;
  a.name = "Backend";
  a.key = "backend";
  const auto backends = backend_noise_options();
  for (auto b : backends) a.option_labels.push_back(backend_name(b));
  a.apply = [backends](SysNoiseConfig& cfg, int i) {
    cfg.backend = backends[static_cast<std::size_t>(i)];
  };
  reg.add(std::move(a));
  return reg;
}

TEST(BackendCaching, WarmDiskCacheUnderOneBackendNeverServesAnother) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "sysnoise_test_backend_disk";
  std::filesystem::remove_all(dir);
  const core::SyntheticStagedTask task(core::TaskKind::kClassification, false);
  const core::AxisRegistry reg = backend_only_registry();
  const core::SweepPlan plan = core::plan_sweep(task, reg);

  // Cold: baseline + 2 backend options (the Combined config of a backend-
  // only registry coincides with an option and dedups at the metric key) —
  // one preprocess product shared by all configs, but one forward product
  // PER backend. If a cached forward product ever served a different
  // backend, fwd_runs would drop below 3.
  core::DiskStageCache cold_disk(dir.string());
  core::StageStats cold;
  const core::StagedExecutor cold_ex(&cold, &cold_disk);
  const core::MetricMap cold_metrics = cold_ex.execute(task, plan);
  EXPECT_EQ(task.pre_runs(), 1);
  EXPECT_EQ(task.fwd_runs(), 3);
  EXPECT_EQ(cold.forward_misses, 3u);
  EXPECT_EQ(cold.forward_hits, 0u);

  // Warm, fresh process state: every per-backend product comes back from
  // disk under its own key; no stage recomputes, metrics are bit-identical.
  task.reset();
  core::DiskStageCache warm_disk(dir.string());
  core::StageStats warm;
  const core::StagedExecutor warm_ex(&warm, &warm_disk);
  const core::MetricMap warm_metrics = warm_ex.execute(task, plan);
  EXPECT_EQ(warm_metrics, cold_metrics);
  EXPECT_EQ(task.fwd_runs(), 0);
  EXPECT_EQ(warm.forward_disk_hits, 3u);

  // And the three per-backend products really are three distinct values —
  // the synthetic forward folds the backend-qualified key into the product.
  std::set<double> distinct;
  for (const auto& [key, metric] : cold_metrics) distinct.insert(metric);
  EXPECT_EQ(cold_metrics.size(), 3u);
  EXPECT_EQ(distinct.size(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(BackendCaching, ExecutorsStayBitIdenticalPerBackendOnTheBackendAxis) {
  // The per-backend bit-exactness contract, exercised on a plan whose
  // configs span all three kernel families: thread-pool, staged, and
  // sharded execution must agree key-for-key, bit for bit.
  const core::SyntheticStagedTask task(core::TaskKind::kClassification, false);
  const core::AxisRegistry reg = backend_only_registry();
  const core::SweepPlan plan = core::plan_sweep(task, reg);

  core::SweepOptions serial;
  serial.threads = 1;
  const core::MetricMap a = core::ThreadPoolExecutor().execute(task, plan, serial);
  core::SweepOptions parallel;
  parallel.threads = 4;
  const core::MetricMap b = core::ThreadPoolExecutor().execute(task, plan, parallel);
  const core::MetricMap c = core::StagedExecutor().execute(task, plan);
  const core::MetricMap d = core::ShardExecutor::merge(
      plan, {core::ShardExecutor(core::StagedExecutor(), 0, 2).execute(task, plan),
             core::ShardExecutor(core::StagedExecutor(), 1, 2).execute(task, plan)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, d);
}

}  // namespace
}  // namespace sysnoise
