#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace sysnoise {

namespace {

// Upper bound on kernel fan-out: past this the per-range fork/join overhead
// beats the win for the matrix sizes this engine sees.
constexpr int kMaxGemmWorkers = 16;

std::atomic<int>& default_backend_slot() {
  static std::atomic<int> slot = [] {
    const char* env = std::getenv("SYSNOISE_BACKEND");
    const ComputeBackend b =
        env != nullptr && *env != '\0' ? backend_from_name(env)
                                       : ComputeBackend::kReference;
    return static_cast<int>(b);
  }();
  return slot;
}

// -1 = no per-thread override: fall through to the process default.
thread_local int tls_backend_override = -1;
thread_local int tls_workers = 1;
// Pool workers never fan out again (no nested parallelism).
thread_local bool tls_in_pool_worker = false;

// A tiny persistent fork/join pool. Work is handed out as precomputed
// [begin, end) ranges through an atomic cursor; the submitting thread
// participates, so a pool of N-1 helpers yields N-way parallelism and a
// single-core machine runs everything inline on the caller.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  int helpers() {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
  }

  // Grow the pool to at least `n` helper threads (capped at the fan-out
  // bound). Lets tests force a real split on hosts where
  // hardware_concurrency() == 1, so the worker fan-out tests can never be
  // vacuously green. Threads are only ever added, never removed.
  void ensure_helpers(int n) {
    n = std::min(n, kMaxGemmWorkers - 1);
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(threads_.size()) < n) spawn_helper();
  }

  void run(const std::vector<std::pair<int, int>>& ranges,
           const std::function<void(int, int)>& fn) {
    // One fork/join at a time: concurrent submitters (e.g. two serving
    // workers granted a fan-out) queue here instead of racing on the job
    // slot. The holder always participates, so this cannot deadlock.
    std::lock_guard<std::mutex> run_lock(run_mu_);
    std::uint64_t gen;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ranges_ = &ranges;
      job_fn_ = &fn;
      next_ = 0;
      pending_ = static_cast<int>(ranges.size());
      gen = ++generation_;
      cv_.notify_all();
    }
    {
      // The caller takes ranges too. While it does, it counts as a pool
      // worker so a kernel called from inside a range cannot fan out again
      // (which would re-enter run() on this thread and deadlock on run_mu_).
      const bool was_worker = tls_in_pool_worker;
      tls_in_pool_worker = true;
      work(gen);
      tls_in_pool_worker = was_worker;
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    job_ranges_ = nullptr;
    job_fn_ = nullptr;
  }

 private:
  WorkerPool() {
    const int n =
        std::min<int>(kMaxGemmWorkers,
                      std::max(1u, std::thread::hardware_concurrency())) -
        1;
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < n; ++i) spawn_helper();
  }

  // Requires mu_ held (threads_ is guarded by mu_ once ensure_helpers can
  // grow the pool after construction).
  void spawn_helper() {
    threads_.emplace_back([this] {
      tls_in_pool_worker = true;
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
          if (stop_) return;
          seen = generation_;
        }
        work(seen);
      }
    });
  }

  ~WorkerPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    for (std::thread& t : threads_) t.join();
  }

  // Drain ranges of job `gen`. The index handout and the generation check
  // happen under one mu_ hold, so a worker preempted between jobs can never
  // carry a stale index into a newer job (which would execute that range
  // twice and keep accumulating into C after run() returned). A claimed
  // range always belongs to `gen`: run() cannot retire the job until
  // pending_ — which counts exactly the claimed ranges — hits zero.
  void work(std::uint64_t gen) {
    for (;;) {
      const std::vector<std::pair<int, int>>* ranges;
      const std::function<void(int, int)>* fn;
      int i;
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (generation_ != gen || job_ranges_ == nullptr ||
            next_ >= static_cast<int>(job_ranges_->size()))
          return;
        i = next_++;
        ranges = job_ranges_;
        fn = job_fn_;
      }
      (*fn)((*ranges)[static_cast<std::size_t>(i)].first,
            (*ranges)[static_cast<std::size_t>(i)].second);
      std::unique_lock<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  const std::vector<std::pair<int, int>>* job_ranges_ = nullptr;
  const std::function<void(int, int)>* job_fn_ = nullptr;
  int next_ = 0;  // guarded by mu_
  int pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

const char* backend_name(ComputeBackend b) {
  switch (b) {
    case ComputeBackend::kReference: return "reference";
    case ComputeBackend::kBlocked: return "blocked";
    case ComputeBackend::kSimd: return "simd";
  }
  return "?";
}

ComputeBackend backend_from_name(const std::string& name) {
  for (int i = 0; i < kNumComputeBackends; ++i) {
    const auto b = static_cast<ComputeBackend>(i);
    if (name == backend_name(b)) return b;
  }
  throw std::invalid_argument("unknown compute backend name \"" + name + "\"");
}

ComputeBackend default_backend() {
  return static_cast<ComputeBackend>(
      default_backend_slot().load(std::memory_order_relaxed));
}

ComputeBackend set_default_backend(ComputeBackend b) {
  return static_cast<ComputeBackend>(default_backend_slot().exchange(
      static_cast<int>(b), std::memory_order_relaxed));
}

ComputeBackend active_backend() {
  return tls_backend_override >= 0
             ? static_cast<ComputeBackend>(tls_backend_override)
             : default_backend();
}

BackendScope::BackendScope(ComputeBackend b) : prev_(tls_backend_override) {
  tls_backend_override = static_cast<int>(b);
}

BackendScope::~BackendScope() { tls_backend_override = prev_; }

int gemm_workers() { return tls_in_pool_worker ? 1 : std::max(1, tls_workers); }

GemmParallelScope::GemmParallelScope(int workers) : prev_(tls_workers) {
  if (workers <= 0)
    workers = std::min<int>(kMaxGemmWorkers,
                            std::max(1u, std::thread::hardware_concurrency()));
  tls_workers = workers;
}

GemmParallelScope::~GemmParallelScope() { tls_workers = prev_; }

void ensure_gemm_pool_helpers(int n) {
  if (n > 0) WorkerPool::instance().ensure_helpers(n);
}

void parallel_ranges(int total, int align,
                     const std::function<void(int, int)>& fn) {
  if (total <= 0) return;
  align = std::max(1, align);
  const int workers =
      std::min({gemm_workers(), WorkerPool::instance().helpers() + 1,
                (total + align - 1) / align});
  if (workers <= 1) {
    fn(0, total);
    return;
  }
  // Equal chunks rounded to `align`; chunk boundaries never change results
  // (each fn range is independent), only which thread computes what.
  std::vector<std::pair<int, int>> ranges;
  const int per = ((total + workers - 1) / workers + align - 1) / align * align;
  for (int begin = 0; begin < total; begin += per)
    ranges.emplace_back(begin, std::min(total, begin + per));
  obs::TraceSpan span("gemm.fanout");
  if (span.active()) {
    span.attr("total", static_cast<std::int64_t>(total));
    span.attr("ranges", ranges.size());
  }
  // Backend choice is thread-local: pool helpers must compute with the
  // submitting thread's backend, not the process default.
  const ComputeBackend backend = active_backend();
  WorkerPool::instance().run(ranges, [&fn, backend](int begin, int end) {
    const BackendScope scope(backend);
    fn(begin, end);
  });
}

const char* simd_isa_name() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool avx2 = [] {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return avx2 ? "avx2" : "scalar";
#elif defined(__aarch64__)
  return "neon";
#else
  return "scalar";
#endif
}

float* tls_scratch(std::size_t floats, int slot) {
  constexpr int kSlots = 4;
  thread_local std::vector<float> buffers[kSlots];
  std::vector<float>& buf = buffers[slot % kSlots];
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

}  // namespace sysnoise
