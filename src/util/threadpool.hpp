// Fixed-size thread pool: fork-join parallel regions plus a futures queue.
//
// The pool is the execution substrate for (a) the CPU training stack's
// parallel tensor kernels and (b) jube's and chaos's concurrent workpackages.
//
// Hot compute paths use `parallel_for_range`, a fork-join region. A pool of
// size N computes a region on at most min(N, hardware_concurrency()) threads:
// the calling thread plus that many minus one helper threads. The caller
// claims chunks itself; helpers wake once per region (an epoch counter; they
// spin briefly after a region, then park) and claim chunks through the same
// atomic counter. A region allocates nothing and invokes the callable once
// per contiguous [lo, hi) chunk through a non-owning reference. A pool of one
// runs every range inline, and one region is open at a time per pool: a
// nested region (from any thread inside a region) or a region opened while
// another is in flight runs inline on its caller.
//
// `submit` queues a callable for one of N dedicated workers (started on the
// first submit) and returns a future; workers never spin.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace caraml {

/// Non-owning reference to a `void(std::size_t lo, std::size_t hi)` callable.
/// The referenced callable must outlive the call it is passed to.
class RangeFn {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, RangeFn>>>
  RangeFn(F&& fn)  // implicit, so callers pass a lambda directly
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_(&invoke<std::remove_reference_t<F>>) {}

  void operator()(std::size_t lo, std::size_t hi) const { call_(obj_, lo, hi); }

 private:
  template <typename F>
  static void invoke(void* obj, std::size_t lo, std::size_t hi) {
    (*static_cast<F*>(obj))(lo, hi);
  }

  void* obj_;
  void (*call_)(void*, std::size_t, std::size_t);
};

class ThreadPool {
 public:
  /// Creates a pool of `num_threads` (>=1). Default: hardware concurrency,
  /// at least 2. Threads start lazily: region helpers on the first
  /// multi-chunk region, submit workers on the first submit.
  explicit ThreadPool(std::size_t num_threads = default_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Grow the pool by one submit worker. Used to restore capacity after a
  /// timed-out task permanently occupies its worker (jube's detach-on-timeout
  /// semantics): the hung task keeps its thread, the pool keeps its
  /// throughput. Throws after the pool has begun stopping.
  void add_worker();

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      if (workers_.empty()) start_workers_locked();
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run `fn(lo, hi)` over disjoint chunks covering [begin, end), each chunk
  /// at least `grain` indices (a grain of 0 counts as 1); blocks until all
  /// chunks completed. Chunk boundaries depend only on (end - begin, grain,
  /// size()) and are grain-aligned: every chunk but the last is an exact
  /// multiple of `grain` long and starts at `begin + c * chunk`; the last
  /// chunk absorbs the remainder. The only chunk ever smaller than `grain` is
  /// a whole range shorter than one grain (which runs inline). Which thread
  /// runs which chunk is decided at run time, so kernels must not depend on
  /// it. Runs `fn(begin, end)` inline on the calling thread for an empty or
  /// single-chunk range, a pool of one, a nested region, or a region opened
  /// while another is in flight on this pool. Exceptions from any chunk are
  /// rethrown (first one wins) after every participant has left the region.
  void parallel_for_range(std::size_t begin, std::size_t end,
                          std::size_t grain, RangeFn fn);

  /// Shared process-wide pool (lazily constructed). Its size honours
  /// CARAML_NUM_THREADS when set (see parse_env_threads), else
  /// default_threads().
  static ThreadPool& global();

  static std::size_t default_threads();

  /// Validate a CARAML_NUM_THREADS value: an integer in [1, 1024]. Throws
  /// caraml::Error with a lint-style message on garbage (empty, non-numeric,
  /// out of range). `text == nullptr` (variable unset) yields
  /// default_threads().
  static std::size_t parse_env_threads(const char* text);

 private:
  void start_workers_locked();
  void worker_loop();

  void run_region(std::size_t begin, std::size_t end, std::size_t chunk,
                  std::size_t num_chunks, const RangeFn& fn);
  void run_chunks();
  void helper_loop(std::uint32_t seen_epoch);

  std::atomic<std::size_t> size_;

  // Submit workers and their queue.
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Fork-join region. `region_busy_` admits one opener at a time; the
  // opener owns `helpers_` and writes the region fields, then publishes them
  // by setting the open bit of `join_word_`. Helpers join by incrementing
  // its count while the bit is set and leave by decrementing it; the opener
  // clears the bit and waits for a zero count before it returns.
  struct Region {
    const RangeFn* fn = nullptr;
    std::size_t begin = 0, end = 0, chunk = 0, num_chunks = 0;
  };
  std::atomic<bool> region_busy_{false};
  std::vector<std::thread> helpers_;
  Region region_;
  std::mutex error_mutex_;
  std::exception_ptr error_;
  alignas(64) std::atomic<std::size_t> next_chunk_{0};
  alignas(64) std::atomic<std::uint32_t> join_word_{0};
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> helpers_stop_{false};
};

/// Convenience: parallel_for_range on the global pool.
void parallel_for_range(std::size_t begin, std::size_t end, std::size_t grain,
                        RangeFn fn);

}  // namespace caraml
