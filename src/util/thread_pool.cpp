#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace scanpower {

namespace {
inline std::uint64_t busy_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

void ThreadPool::run_timed(const std::function<void(int)>& fn, int index) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(index)];
  const std::uint64_t t0 = busy_clock_ns();
  fn(index);
  slot.busy_ns += busy_clock_ns() - t0;
  ++slot.jobs;
}

int ThreadPool::resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

ThreadPool::ThreadPool(int num_threads) {
  size_ = std::max(1, resolve_threads(num_threads));
  slots_.resize(static_cast<std::size_t>(size_));
  threads_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 1; i < size_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(int index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    run_timed(*job, index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_on_all(const std::function<void(int)>& fn) {
  ++runs_;
  if (size_ == 1) {
    run_timed(fn, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    outstanding_ = size_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  run_timed(fn, 0);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
    job_ = nullptr;
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.runs = runs_;
  for (const WorkerSlot& slot : slots_) {  // ascending worker order
    s.jobs += slot.jobs;
    s.busy_us += slot.busy_ns / 1000;
  }
  return s;
}

}  // namespace scanpower
