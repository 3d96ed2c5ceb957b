#include "common/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>

#include "common/logging.h"

namespace dpbr {
namespace {

// Pause iterations an idle thread spins before it parks: about 55 µs on
// a Xeon whose `pause` takes ~27 ns. A count, not a deadline, because
// src/ reads no clocks; it bridges the gap between the back-to-back
// dispatches of one round without a futex wake.
constexpr size_t kSpinIterations = 2000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// True on pool workers and on a caller while it runs its share of a
// dispatch; nested ParallelFor calls then run inline instead of waiting
// on occupied threads.
thread_local bool t_run_inline = false;

// ScopedPoolOverride target; read by ThreadPool::Ambient().
ThreadPool* g_pool_override = nullptr;

// Fanned-out ParallelFor invocations; see ParallelDispatchCount().
std::atomic<uint64_t> g_dispatch_count{0};

}  // namespace

// Protocol. A dispatch waits for inside_ to drain, rewrites the job,
// opens the next epoch (odd), and closes it (even) once every index has
// finished. A worker that loads an odd epoch announces itself in inside_
// and then re-reads the epoch; only if it is unchanged does it read the
// job. The closing store is followed by the next dispatch's inside_
// loads, and the worker's inside_ increment by its epoch re-read, all
// seq_cst: either the dispatcher sees the worker inside and waits, or
// the worker sees the epoch moved and skips, so a late waker never runs
// a half-written job. Parking uses the same store-then-load pairs
// (epoch_/parked_, done_/caller_parked_), so a wakeup is sent, and a
// mutex taken, only when a thread really parked.

ThreadPool::ThreadPool(size_t num_threads) {
  DPBR_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads - 1);
  for (size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    stop_.store(true);
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::RunClaimed() noexcept {
  size_t ran = 0;
  for (;;) {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) break;
    body_(begin_ + i);
    ++ran;
  }
  if (ran == 0) return;
  if (done_.fetch_add(ran) + ran == count_ && caller_parked_.load()) {
    std::lock_guard<std::mutex> lock(park_mu_);
    done_cv_.notify_one();
  }
}

void ThreadPool::WorkerLoop() {
  t_run_inline = true;
  uint64_t seen = 0;
  size_t spins = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    uint64_t e = epoch_.load();
    if (e == seen) {
      if (++spins < kSpinIterations) {
        CpuRelax();
        continue;
      }
      std::unique_lock<std::mutex> lock(park_mu_);
      parked_.fetch_add(1);
      work_cv_.wait(lock, [&] { return epoch_.load() != seen || stop_; });
      parked_.fetch_sub(1);
      spins = 0;
      continue;
    }
    seen = e;
    spins = 0;
    if ((e & 1) == 0) continue;  // closed while this worker was away
    inside_.fetch_add(1);
    if (epoch_.load() == e) RunClaimed();
    inside_.fetch_sub(1);
  }
}

bool ThreadPool::Run(size_t begin, size_t count,
                     FunctionRef<void(size_t)> body) {
  if (busy_.exchange(true, std::memory_order_acquire)) return false;
  // A worker still inside the previous (closed) job leaves it as soon as
  // its next_ claim fails; wait for that before rewriting the job.
  for (size_t spin = 0; inside_.load() != 0; ++spin) {
    if (spin < kSpinIterations) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  body_ = body;
  begin_ = begin;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  const uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(e);
  if (parked_.load() != 0) {
    // A parked worker holds park_mu_ from its predicate check until it
    // waits, so taking the mutex here orders this notify after that.
    std::lock_guard<std::mutex> lock(park_mu_);
    work_cv_.notify_all();
  }

  t_run_inline = true;
  RunClaimed();
  t_run_inline = false;
  for (size_t spin = 0; spin < kSpinIterations && done_.load() != count;
       ++spin) {
    CpuRelax();
  }
  if (done_.load() != count) {
    std::unique_lock<std::mutex> lock(park_mu_);
    caller_parked_.store(true);
    done_cv_.wait(lock, [&] { return done_.load() == count; });
    caller_parked_.store(false);
  }
  // Every index has finished; workers that wake from here on skip it.
  epoch_.store(e + 1);
  busy_.store(false, std::memory_order_release);
  return true;
}

size_t ThreadPool::DefaultSize() {
  size_t cpus = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&mask));
  }
#endif
  return std::clamp<size_t>(cpus, 1, 16);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultSize());
  return pool;
}

ThreadPool& ThreadPool::Ambient() {
  return g_pool_override != nullptr ? *g_pool_override : Global();
}

ScopedPoolOverride::ScopedPoolOverride(ThreadPool* pool)
    : prev_(g_pool_override) {
  g_pool_override = pool;
}

ScopedPoolOverride::~ScopedPoolOverride() { g_pool_override = prev_; }

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 FunctionRef<void(size_t)> body) {
  if (end <= begin) return;
  if (end - begin > 1 && pool.num_threads() > 1 && !t_run_inline) {
    g_dispatch_count.fetch_add(1, std::memory_order_relaxed);
    if (pool.Run(begin, end - begin, body)) return;
  }
  for (size_t i = begin; i < end; ++i) body(i);
}

void ParallelFor(size_t begin, size_t end, FunctionRef<void(size_t)> body) {
  ParallelFor(ThreadPool::Ambient(), begin, end, body);
}

uint64_t ParallelDispatchCount() {
  return g_dispatch_count.load(std::memory_order_relaxed);
}

void ParallelForBlocked(size_t total, size_t block_size,
                        FunctionRef<void(size_t, size_t)> body) {
  if (total == 0) return;
  DPBR_CHECK_GE(block_size, 1u);
  size_t num_blocks = (total + block_size - 1) / block_size;
  ParallelFor(0, num_blocks, [&](size_t b) {
    size_t lo = b * block_size;
    size_t hi = std::min(total, lo + block_size);
    body(lo, hi);
  });
}

}  // namespace dpbr
