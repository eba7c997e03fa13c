#pragma once
// Small reusable worker pool for data-parallel sweeps.
//
// A pool of `size()` logical workers executes the same callable, each
// with its own worker index; the caller blocks until every worker
// finishes. Worker 0 always runs on the calling thread, so a pool of
// size 1 spawns no threads and adds no synchronization -- single-thread
// configurations pay nothing. Threads are created once and parked on a
// condition variable between jobs, so per-call overhead is a wakeup, not
// a thread spawn (the fault simulator dispatches one job per 64*W-pattern
// batch).
//
// Determinism contract: the pool imposes no ordering between workers;
// callers get deterministic results by giving each worker a disjoint,
// index-derived slice of the work and merging slices in index order.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scanpower {

class ThreadPool {
 public:
  /// `num_threads` logical workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Runs fn(worker_index) for worker_index in [0, size()); blocks until
  /// all invocations return. fn(0) runs on the calling thread.
  void run_on_all(const std::function<void(int)>& fn);

  /// Resolves a user-facing thread-count knob: 0 -> hardware concurrency,
  /// otherwise the value itself (minimum 1).
  static int resolve_threads(int requested);

  /// Lifetime telemetry totals. Each worker slot is written only by the
  /// thread running that worker index; call while the pool is idle (the
  /// run_on_all completion hand-off makes every slot visible to the
  /// caller).
  struct Stats {
    std::uint64_t runs = 0;     ///< run_on_all invocations
    std::uint64_t jobs = 0;     ///< per-worker fn invocations
    std::uint64_t busy_us = 0;  ///< summed wall time inside worker fns
  };
  Stats stats() const;

 private:
  void worker_loop(int index);
  /// fn(index), timed into worker slot `index`.
  void run_timed(const std::function<void(int)>& fn, int index);

  struct alignas(64) WorkerSlot {
    std::uint64_t jobs = 0;
    std::uint64_t busy_ns = 0;
  };

  int size_ = 1;
  std::vector<std::thread> threads_;  ///< size_ - 1 helper threads
  std::vector<WorkerSlot> slots_;     ///< one per worker, owner-written
  std::uint64_t runs_ = 0;            ///< caller-thread only

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped per job; workers wait on it
  int outstanding_ = 0;           ///< helpers still running current job
  bool shutdown_ = false;
};

/// Deterministic wave-parallel sweep over `nblocks` independent blocks:
/// each wave assigns block `wave + t` to worker t (so a worker's scratch
/// holds exactly one block's partial at a time), then `merge` runs on the
/// calling thread in ascending block order. Results are therefore
/// bit-identical for any pool size as long as `work` derives everything
/// from the block index (e.g. via block_seed()). Used by the packed
/// Monte-Carlo observability engine and the min-leakage vector search.
///
/// work(worker, block): compute block `block` into worker-local state.
/// merge(worker, block): fold that partial into the global accumulators.
template <typename WorkFn, typename MergeFn>
void ordered_block_sweep(ThreadPool& pool, std::size_t nblocks, WorkFn&& work,
                         MergeFn&& merge) {
  const std::size_t num_workers = static_cast<std::size_t>(pool.size());
  for (std::size_t wave = 0; wave < nblocks; wave += num_workers) {
    pool.run_on_all([&](int t) {
      const std::size_t b = wave + static_cast<std::size_t>(t);
      if (b < nblocks) work(t, b);
    });
    for (std::size_t t = 0; t < num_workers && wave + t < nblocks; ++t) {
      merge(static_cast<int>(t), wave + t);
    }
  }
}

}  // namespace scanpower
