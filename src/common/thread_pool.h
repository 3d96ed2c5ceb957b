// Fork-join thread pool and a blocking ParallelFor helper.
//
// The FL trainer runs each worker's local step through ParallelFor; all
// randomness inside the loop body must come from per-index SplitRng streams
// so scheduling does not affect results.

#ifndef DPBR_COMMON_THREAD_POOL_H_
#define DPBR_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.h"

namespace dpbr {

/// A fork-join pool: `num_threads` executing threads, the dispatching
/// caller counted among them. A dispatch publishes one job (body, index
/// range, atomic next-index counter); the caller and every worker claim
/// indices from it until none remain, and the caller returns once all of
/// them have finished. Idle workers spin for a fixed budget, then park.
class ThreadPool {
 public:
  /// `num_threads` (>= 1) executing threads including the caller of each
  /// dispatch, so this spawns num_threads - 1 workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size() + 1; }

  /// Process-wide pool of DefaultSize() threads, sized by the first
  /// thread to call it (lazily created).
  static ThreadPool& Global();

  /// The CPUs the calling thread may run on (its sched_getaffinity mask,
  /// so a `taskset -c 0` run gets 1), else hardware_concurrency() where
  /// the mask is unavailable; clamped to [1, 16].
  static size_t DefaultSize();

  /// Pool the single-argument ParallelFor overload dispatches to: the
  /// ScopedPoolOverride in effect, else Global().
  static ThreadPool& Ambient();

 private:
  friend void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                          FunctionRef<void(size_t)> body);

  // Runs body(begin + i) for i in [0, count) on the caller and the
  // workers and returns true once all have finished. Returns false,
  // running nothing, while another thread's dispatch occupies the pool.
  bool Run(size_t begin, size_t count, FunctionRef<void(size_t)> body);
  // Claims and runs indices of the open job until none remain.
  void RunClaimed() noexcept;
  void WorkerLoop();

  // The job. Written only by the dispatcher holding busy_, and only once
  // inside_ reads 0, so no worker is reading it.
  FunctionRef<void(size_t)> body_;
  size_t begin_ = 0;
  size_t count_ = 0;
  // Next unclaimed index, and the count of finished ones.
  alignas(64) std::atomic<size_t> next_{0};
  std::atomic<size_t> done_{0};
  // Odd while a job is open; each dispatch advances it by two.
  alignas(64) std::atomic<uint64_t> epoch_{0};
  // Workers that may be reading the job.
  std::atomic<size_t> inside_{0};
  // Set while a dispatcher owns the job slot.
  std::atomic<bool> busy_{false};
  std::atomic<bool> stop_{false};

  // Parking: workers wait on work_cv_, a caller whose indices are still
  // running on workers waits on done_cv_. Only the slow paths lock.
  std::mutex park_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<size_t> parked_{0};
  std::atomic<bool> caller_parked_{false};

  std::vector<std::thread> workers_;
};

/// Runs body(i) for i in [begin, end) across the ambient pool and blocks
/// until all iterations complete; the calling thread runs iterations
/// too. Runs inline when the range has one index, when the pool has one
/// thread, when called from inside any ParallelFor body (caller or
/// worker thread), since a nested dispatch would wait on occupied
/// threads, and when another thread's dispatch occupies the pool.
/// `body` is borrowed only until ParallelFor returns. Results
/// must not depend on the pool size or on which thread runs an index:
/// per-index work only, with any reduction done by the caller in fixed
/// order.
void ParallelFor(size_t begin, size_t end, FunctionRef<void(size_t)> body);

/// Same as ParallelFor but on an explicit pool.
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 FunctionRef<void(size_t)> body);

/// While alive, routes the pool-less ParallelFor overload to `pool`
/// instead of ThreadPool::Global(). Lets tests and benchmarks run the
/// production aggregation code under pool sizes 1/2/N to check that
/// results are bit-identical and to measure scaling. Not reentrant:
/// create and destroy on one thread, one override at a time.
class ScopedPoolOverride {
 public:
  explicit ScopedPoolOverride(ThreadPool* pool);
  ~ScopedPoolOverride();

  ScopedPoolOverride(const ScopedPoolOverride&) = delete;
  ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

 private:
  ThreadPool* prev_;
};

/// Splits `total` indices into fixed-size blocks and runs
/// body(block_begin, block_end) for each block across the ambient pool.
/// The block boundaries depend only on (total, block_size), never on the
/// pool, so per-block reductions are deterministic under any thread
/// count.
void ParallelForBlocked(size_t total, size_t block_size,
                        FunctionRef<void(size_t, size_t)> body);

/// Number of ParallelFor invocations so far that fanned out: two or more
/// indices, a pool of more than one thread, not nested inside another
/// ParallelFor body (the inline runs do not count). A call that finds
/// the pool occupied by another thread's dispatch runs inline on its
/// caller but still counts, so the counter depends only on the sequence
/// of calls. Pure observability: tests diff this counter around a kernel
/// call to prove single-dispatch contracts such as "one batched dispatch
/// per layer backward". Monotonic, process-wide, atomic (safe under
/// TSan).
uint64_t ParallelDispatchCount();

}  // namespace dpbr

#endif  // DPBR_COMMON_THREAD_POOL_H_
