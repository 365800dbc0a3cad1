// Library micro-benchmarks (google-benchmark): throughput of the
// substrates the harness exercises on every sample — JPEG decode per
// vendor, the resize kernels, color round trips, GEMM per compute backend
// and conv inference.
//
// Besides the google-benchmark tables, the binary emits a machine-readable
// BENCH_perf.json (per-backend kernel timings and bit-identity checks, and a
// per-layer ledger of conv2d's data paths on MCUNet's shapes with the
// whole-forward time they add up to) so the perf trajectory is tracked
// across PRs — the CI perf-gate job asserts its invariants on every push.
// Sweep-engine timings are not here: they come from real table benches and
// perfbench/, not from a synthetic task. Set SYSNOISE_PERF_JSON to override
// the output path (default: $SYSNOISE_RESULTS_DIR/BENCH_perf.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "color/yuv.h"
#include "image/synthetic.h"
#include "jpeg/codec.h"
#include "models/classifiers.h"
#include "nn/ops.h"
#include "nn/tape.h"
#include "resize/resize.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

using namespace sysnoise;

namespace {

const std::vector<std::uint8_t>& sample_jpeg() {
  static const std::vector<std::uint8_t> bytes = [] {
    Rng rng(1);
    TextureParams p = class_texture(3, 10, rng);
    return jpeg::encode(render_texture(p, 96, 96, rng), {.quality = 90});
  }();
  return bytes;
}

const ImageU8& sample_image() {
  static const ImageU8 img = jpeg::decode(sample_jpeg(), jpeg::DecoderVendor::kPillow);
  return img;
}

void BM_JpegDecode(benchmark::State& state) {
  const auto vendor = static_cast<jpeg::DecoderVendor>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::decode(sample_jpeg(), vendor));
  state.SetLabel(jpeg::vendor_name(vendor));
}
BENCHMARK(BM_JpegDecode)->DenseRange(0, jpeg::kNumDecoderVendors - 1);

void BM_JpegEncode(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::encode(sample_image(), {}));
}
BENCHMARK(BM_JpegEncode);

void BM_Resize(benchmark::State& state) {
  const auto method = static_cast<ResizeMethod>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(resize(sample_image(), 32, 32, method));
  state.SetLabel(resize_method_name(method));
}
BENCHMARK(BM_Resize)->DenseRange(0, kNumResizeMethods - 1);

void BM_ColorRoundTrip(benchmark::State& state) {
  const auto mode = static_cast<ColorMode>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(apply_color_mode(sample_image(), mode));
  state.SetLabel(color_mode_name(mode));
}
BENCHMARK(BM_ColorRoundTrip)->DenseRange(0, kNumColorModes - 1);

// GEMM kernel throughput per compute backend at an im2col-shaped problem
// (m = output channels, n = spatial positions, k = patch size).
void BM_Gemm(benchmark::State& state) {
  const auto backend = static_cast<ComputeBackend>(state.range(0));
  const BackendScope scope(backend);
  constexpr int kM = 64, kN = 784, kK = 576;
  Rng rng(7);
  std::vector<float> a(kM * kK), b(kK * kN), c(kM * kN);
  for (float& v : a) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : b) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto _ : state) {
    gemm(kM, kN, kK, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(backend_name(backend));
}
BENCHMARK(BM_Gemm)
    ->DenseRange(0, kNumComputeBackends - 1)
    ->Unit(benchmark::kMillisecond);

void BM_ClassifierForward(benchmark::State& state) {
  Rng rng(3);
  auto model = models::make_classifier("ResNet-XS", 10, rng);
  Tensor x({1, 3, 32, 32});
  for (float& v : x.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto _ : state) {
    nn::Tape t;
    benchmark::DoNotOptimize(model->forward(t, t.input(x), nn::BnMode::kEval));
  }
}
BENCHMARK(BM_ClassifierForward);

// ---------------------------------------------------------------------------
// BENCH_perf.json: the cross-PR perf trajectory record
// ---------------------------------------------------------------------------

double time_ms(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Per-backend compute-kernel microbench. The GEMM shape mirrors the im2col
// matmul of a 3x3 conv over 64 channels at 28x28 spatial resolution — the
// hot shape of the zoo's forward passes — and the classifier timing runs a
// real ResNet-XS forward (conv + linear through the same backend seam). The
// CI perf-gate asserts that every backend is bit-exactly repeatable, that
// blocked is bit-identical to reference (their chains differ only where a
// zero A meets a non-finite B or C holds a -0, which this finite, zero-C
// GEMM never has), and that simd is strictly faster than reference and
// within epsilon of it, so the gated GEMM timings take the best of extra
// repetitions.
std::string perf_json_backends() {
  constexpr int kM = 64, kN = 784, kK = 576;
  constexpr int kKernelReps = 7;

  Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(kM) * kK);
  std::vector<float> b(static_cast<std::size_t>(kK) * kN);
  for (float& v : a) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : b) v = rng.uniform_f(-1.0f, 1.0f);
  std::vector<float> c(static_cast<std::size_t>(kM) * kN);
  std::vector<float> c2(c.size()), ref_c(c.size());

  Rng model_rng(3);
  auto model = models::make_classifier("ResNet-XS", 10, model_rng);
  Tensor x({4, 3, 32, 32});
  for (float& v : x.vec()) v = model_rng.uniform_f(-1.0f, 1.0f);

  double ref_gemm_ms = 0.0, ref_fwd_ms = 0.0;
  std::ostringstream os;
  os << "  \"compute_backends\": {\n"
     << "    \"simd_isa\": \"" << simd_isa_name() << "\",\n"
     << "    \"gemm_shape\": {\"m\": " << kM << ", \"n\": " << kN
     << ", \"k\": " << kK << "},\n"
     << "    \"backends\": [\n";
  for (int bi = 0; bi < kNumComputeBackends; ++bi) {
    const auto backend = static_cast<ComputeBackend>(bi);
    const BackendScope scope(backend);

    const double gemm_ms = time_ms(
        [&] { gemm(kM, kN, kK, a.data(), b.data(), c.data()); }, kKernelReps);
    gemm(kM, kN, kK, a.data(), b.data(), c2.data());
    const bool repeatable =
        std::memcmp(c.data(), c2.data(), c.size() * sizeof(float)) == 0;
    if (backend == ComputeBackend::kReference) ref_c = c;
    const bool same_as_reference =
        std::memcmp(c.data(), ref_c.data(), c.size() * sizeof(float)) == 0;
    float max_diff = 0.0f;
    for (std::size_t i = 0; i < c.size(); ++i)
      max_diff = std::max(max_diff, std::abs(c[i] - ref_c[i]));

    const double fwd_ms = time_ms([&] {
      nn::Tape t;
      t.ctx.backend = backend;
      model->forward(t, t.input(x), nn::BnMode::kEval);
    });
    if (backend == ComputeBackend::kReference) {
      ref_gemm_ms = gemm_ms;
      ref_fwd_ms = fwd_ms;
    }

    os << "      {\"backend\": \"" << backend_name(backend) << "\",\n"
       << "       \"gemm_ms\": " << gemm_ms << ",\n"
       << "       \"gemm_speedup_vs_reference\": " << ref_gemm_ms / gemm_ms
       << ",\n"
       << "       \"gemm_strictly_faster_than_reference\": "
       << (backend != ComputeBackend::kReference && gemm_ms < ref_gemm_ms
               ? "true"
               : "false")
       << ",\n"
       << "       \"gemm_bit_identical_across_repeats\": "
       << (repeatable ? "true" : "false") << ",\n"
       << "       \"gemm_bit_identical_to_reference\": "
       << (same_as_reference ? "true" : "false") << ",\n"
       << "       \"gemm_max_abs_diff_vs_reference\": " << max_diff << ",\n"
       << "       \"classifier_forward_ms\": " << fwd_ms << ",\n"
       << "       \"classifier_forward_speedup_vs_reference\": "
       << ref_fwd_ms / fwd_ms << "}"
       << (bi + 1 < kNumComputeBackends ? ",\n" : "\n");
  }
  os << "    ]\n  }";
  return os.str();
}

// conv2d's data paths on MCUNet's layer shapes at serving batch 16, per
// backend: time, FLOPs and achieved GFLOP/s for the dense stem (pointer
// im2col + GEMM), a pointwise expansion (the input planes are the GEMM's B)
// and a depthwise conv (the direct kernel), each checked bit-identical to
// a naive im2col + gemm() under the same backend — the CI perf-gate
// asserts that check, not the timings. The whole MCUNet batch-16 forward
// per backend shows whether the layer gains reach the model.
struct ConvPathShape {
  const char* layer;
  const char* path;
  int c, h, w, oc, k, stride, pad, groups;
};

// out = naive im2col + one gemm() per (image, group), as conv2d computed
// every conv before it grew direct paths.
std::vector<float> im2col_gemm_conv(const Tensor& x, const Tensor& wt,
                                    const ConvPathShape& s, int oh, int ow) {
  const int n = x.dim(0), icg = s.c / s.groups, ocg = s.oc / s.groups;
  const int rows = icg * s.k * s.k;
  std::vector<float> out(static_cast<std::size_t>(n) * s.oc * oh * ow);
  std::vector<float> col(static_cast<std::size_t>(rows) * oh * ow);
  for (int ni = 0; ni < n; ++ni)
    for (int g = 0; g < s.groups; ++g) {
      std::size_t i = 0;
      for (int c = 0; c < icg; ++c)
        for (int ky = 0; ky < s.k; ++ky)
          for (int kx = 0; kx < s.k; ++kx)
            for (int oy = 0; oy < oh; ++oy)
              for (int ox = 0; ox < ow; ++ox, ++i) {
                const int iy = oy * s.stride - s.pad + ky;
                const int ix = ox * s.stride - s.pad + kx;
                col[i] = iy >= 0 && iy < s.h && ix >= 0 && ix < s.w
                             ? x.at4(ni, g * icg + c, iy, ix)
                             : 0.0f;
              }
      gemm(ocg, oh * ow, rows,
           wt.data() + static_cast<std::size_t>(g) * ocg * rows, col.data(),
           out.data() + (static_cast<std::size_t>(ni) * s.oc + g * ocg) * oh * ow);
    }
  return out;
}

// Best-of-5 mean time of `iters` back-to-back calls, in ms per call.
double per_call_ms(const std::function<void()>& fn, int iters) {
  return time_ms(
             [&] {
               for (int i = 0; i < iters; ++i) fn();
             },
             5) /
         iters;
}

std::string perf_json_conv_paths() {
  constexpr int kBatch = 16;
  constexpr int kIters = 20;
  const ConvPathShape shapes[] = {
      {"stem", "im2col_gemm", 3, 32, 32, 8, 3, 2, 1, 1},
      {"b1.exp", "pointwise", 12, 8, 8, 24, 1, 1, 0, 1},
      {"b1.dw", "depthwise", 24, 8, 8, 24, 3, 1, 1, 24},
  };
  Rng rng(17);
  std::ostringstream os;
  os << "  \"conv_paths\": {\n"
     << "    \"model\": \"MCUNet\",\n"
     << "    \"batch\": " << kBatch << ",\n"
     << "    \"layers\": [\n";
  for (std::size_t si = 0; si < std::size(shapes); ++si) {
    const ConvPathShape& s = shapes[si];
    const int oh = (s.h + 2 * s.pad - s.k) / s.stride + 1;
    const int ow = (s.w + 2 * s.pad - s.k) / s.stride + 1;
    Tensor x({kBatch, s.c, s.h, s.w});
    for (float& v : x.vec()) v = rng.uniform_f(-1.0f, 1.0f);
    Tensor wt({s.oc, s.c / s.groups, s.k, s.k});
    for (float& v : wt.vec()) v = rng.uniform_f(-1.0f, 1.0f);
    nn::Param wp(wt);
    const long long flops = 2LL * kBatch * s.oc * oh * ow * (s.c / s.groups) *
                            s.k * s.k;
    os << "      {\"layer\": \"" << s.layer << "\", \"path\": \"" << s.path
       << "\",\n"
       << "       \"input\": [" << kBatch << ", " << s.c << ", " << s.h << ", "
       << s.w << "], \"out_channels\": " << s.oc << ", \"kernel\": " << s.k
       << ", \"stride\": " << s.stride << ", \"pad\": " << s.pad
       << ", \"groups\": " << s.groups << ",\n"
       << "       \"flops\": " << flops << ",\n"
       << "       \"backends\": [\n";
    for (int bi = 0; bi < kNumComputeBackends; ++bi) {
      const auto backend = static_cast<ComputeBackend>(bi);
      auto conv = [&](nn::Tape& t) {
        t.ctx.backend = backend;
        return nn::conv2d(t, t.input(x), wp, nullptr,
                          {s.stride, s.pad, s.groups}, s.layer);
      };
      nn::Tape check;
      const Tensor& got = conv(check)->value;
      std::vector<float> expect;
      {
        const BackendScope scope(backend);
        expect = im2col_gemm_conv(x, wt, s, oh, ow);
      }
      const bool identical =
          got.size() == expect.size() &&
          std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)) == 0;
      const double ms = per_call_ms(
          [&] {
            nn::Tape t;
            conv(t);
          },
          kIters);
      os << "         {\"backend\": \"" << backend_name(backend)
         << "\", \"ms\": " << ms << ", \"gflops\": " << flops / (ms * 1e6)
         << ", \"bit_identical_to_im2col_gemm\": "
         << (identical ? "true" : "false") << "}"
         << (bi + 1 < kNumComputeBackends ? ",\n" : "\n");
    }
    os << "       ]}" << (si + 1 < std::size(shapes) ? ",\n" : "\n");
  }

  Rng model_rng(3);
  auto model = models::make_classifier("MCUNet", 10, model_rng);
  Tensor batch({kBatch, 3, 32, 32});
  for (float& v : batch.vec()) v = model_rng.uniform_f(-1.0f, 1.0f);
  os << "    ],\n    \"forward_ms\": {";
  for (int bi = 0; bi < kNumComputeBackends; ++bi) {
    const auto backend = static_cast<ComputeBackend>(bi);
    const double ms = per_call_ms(
        [&] {
          nn::Tape t;
          t.ctx.backend = backend;
          model->forward(t, t.input(batch), nn::BnMode::kEval);
        },
        kIters);
    os << "\"" << backend_name(backend) << "\": " << ms
       << (bi + 1 < kNumComputeBackends ? ", " : "");
  }
  os << "}\n  }";
  return os.str();
}

bool write_perf_json() {
  std::ostringstream os;
  os << "{\n  \"bench\": \"perf_micro\",\n"
     << "  \"hardware_threads\": "
     << std::max(1u, std::thread::hardware_concurrency()) << ",\n"
     << "  \"simd_isa\": \"" << simd_isa_name() << "\",\n"
     << perf_json_backends() << ",\n"
     << perf_json_conv_paths() << "\n}\n";

  const char* override_path = std::getenv("SYSNOISE_PERF_JSON");
  const std::string path = override_path != nullptr
                               ? std::string(override_path)
                               : bench::results_dir() + "/BENCH_perf.json";
  std::ofstream f(path);
  f << os.str();
  f.flush();
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_perf_json() ? 0 : 1;
}
