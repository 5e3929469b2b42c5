#include "util/threadpool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace caraml {

namespace {
// Set while a thread computes chunks of a region (the opener during its own
// share, helpers always). A region opened from such a thread runs inline:
// nested data-parallelism needs no second team and cannot deadlock.
thread_local bool t_in_region = false;

// Open bit of ThreadPool::join_word_; the low bits count joined helpers.
constexpr std::uint32_t kRegionOpen = 1u << 31;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Returns the value of `word` once it differs from `old`: polls for up to
// 50 µs, then parks. The regions of a training step follow each other within
// microseconds; set-up and idle phases should not keep helpers burning cores.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old) {
  const auto spin_until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(50);
  for (unsigned spin = 1;; ++spin) {
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
    cpu_relax();
    if (spin % 64 == 0 && std::chrono::steady_clock::now() > spin_until) {
      word.wait(old, std::memory_order_acquire);
    }
  }
}

std::size_t hardware_threads() {
  static const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return hw;
}
}  // namespace

std::size_t ThreadPool::default_threads() {
  return std::max<std::size_t>(2, hardware_threads());
}

std::size_t ThreadPool::parse_env_threads(const char* text) {
  if (text == nullptr) return default_threads();
  const std::string value(text);
  constexpr std::size_t kMaxThreads = 1024;
  const auto fail = [&value]() {
    throw Error("CARAML_NUM_THREADS: invalid value '" + value +
                "' — expected an integer in [1, 1024] "
                "(unset it to use hardware concurrency)");
  };
  if (value.empty() || value.size() > 5) fail();
  for (const char ch : value) {
    if (ch < '0' || ch > '9') fail();
  }
  const unsigned long parsed = std::stoul(value);
  if (parsed < 1 || parsed > kMaxThreads) fail();
  return static_cast<std::size_t>(parsed);
}

ThreadPool::ThreadPool(std::size_t num_threads) : size_(num_threads) {
  CARAML_CHECK_MSG(num_threads >= 1, "thread pool needs at least one worker");
}

void ThreadPool::start_workers_locked() {
  const std::size_t n = size();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::add_worker() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) throw std::runtime_error("ThreadPool: add_worker after stop");
  size_.fetch_add(1, std::memory_order_relaxed);
  if (!workers_.empty()) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  helpers_stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& helper : helpers_) helper.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for_range(std::size_t begin, std::size_t end,
                                    std::size_t grain, RangeFn fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  grain = std::max<std::size_t>(1, grain);
  // Up to 4 chunks per thread for load balancing, but never chunks smaller
  // than the grain.
  const std::size_t threads = size();
  const std::size_t max_chunks = std::min(total, threads * 4);
  std::size_t num_chunks = std::min(max_chunks, (total + grain - 1) / grain);
  if (num_chunks <= 1 || std::min(threads, hardware_threads()) == 1 ||
      t_in_region) {
    fn(begin, end);
    return;
  }
  // Chunk size rounded up to a multiple of the grain so every boundary is
  // grain-aligned; the last chunk absorbs the remainder (and is therefore the
  // only one whose size may exceed — but never undershoot — the grain).
  const std::size_t raw_chunk = (total + num_chunks - 1) / num_chunks;
  const std::size_t chunk = ((raw_chunk + grain - 1) / grain) * grain;
  num_chunks = std::max<std::size_t>(1, total / chunk);
  if (num_chunks <= 1 || region_busy_.exchange(true, std::memory_order_acquire)) {
    fn(begin, end);
    return;
  }
  run_region(begin, end, chunk, num_chunks, fn);
}

void ThreadPool::run_region(std::size_t begin, std::size_t end,
                            std::size_t chunk, std::size_t num_chunks,
                            const RangeFn& fn) {
  // At most one computing thread per core: oversubscribed helpers would only
  // preempt each other while the region waits for the slowest one.
  const std::size_t want = std::min(size(), hardware_threads()) - 1;
  try {
    while (helpers_.size() < want) {
      const std::uint32_t seen = epoch_.load(std::memory_order_relaxed);
      helpers_.emplace_back([this, seen] { helper_loop(seen); });
    }
  } catch (...) {
    region_busy_.store(false, std::memory_order_release);
    throw;
  }
  region_ = Region{&fn, begin, end, chunk, num_chunks};
  error_ = nullptr;
  next_chunk_.store(0, std::memory_order_relaxed);
  join_word_.store(kRegionOpen, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  t_in_region = true;
  run_chunks();
  t_in_region = false;

  // Close the region to late helpers, then wait for the joined ones to
  // finish their chunks.
  std::uint32_t word =
      join_word_.fetch_and(~kRegionOpen, std::memory_order_acq_rel) &
      ~kRegionOpen;
  while (word != 0) word = await_change(join_word_, word);
  std::exception_ptr error = std::move(error_);
  region_busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_chunks() {
  const Region& r = region_;
  for (;;) {
    const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= r.num_chunks) return;
    const std::size_t lo = r.begin + c * r.chunk;
    const std::size_t hi = c + 1 == r.num_chunks ? r.end : lo + r.chunk;
    try {
      (*r.fn)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::helper_loop(std::uint32_t seen_epoch) {
  t_in_region = true;
  for (;;) {
    seen_epoch = await_change(epoch_, seen_epoch);
    if (helpers_stop_.load(std::memory_order_relaxed)) return;

    // Join the open region, if it is still open (it may have closed, or a
    // later one may have opened; joining that one is just as good).
    std::uint32_t word = join_word_.load(std::memory_order_relaxed);
    bool joined = false;
    while ((word & kRegionOpen) != 0 && !joined) {
      joined = join_word_.compare_exchange_weak(word, word + 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed);
    }
    if (!joined) continue;
    run_chunks();
    if (join_word_.fetch_sub(1, std::memory_order_release) == 1) {
      join_word_.notify_all();  // last helper out of a closed region
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(parse_env_threads(std::getenv("CARAML_NUM_THREADS")));
  return pool;
}

void parallel_for_range(std::size_t begin, std::size_t end, std::size_t grain,
                        RangeFn fn) {
  ThreadPool::global().parallel_for_range(begin, end, grain, fn);
}

}  // namespace caraml
