#include "core/work_queue.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

DiagnosisQueue::DiagnosisQueue(Options opts, Telemetry* telemetry)
    : opts_(opts), telemetry_(telemetry),
      pool_(opts.pool_capacity, telemetry) {
  SP_CHECK(opts_.max_batch >= 1,
           strprintf("DiagnosisQueue: max_batch must be >= 1 (got %zu)",
                     opts_.max_batch));
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

DiagnosisQueue::~DiagnosisQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  done_cv_.notify_all();  // wake submitters blocked on max_pending
  dispatcher_.join();     // poisons whatever was still queued
}

DiagnosisQueue::DesignKey DiagnosisQueue::open(
    const Netlist& nl, const FlowOptions& opts,
    std::span<const TestPattern> patterns) {
  const DesignKey key = DesignContext::hash_design(nl);
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  if (it == tenants_.end()) {
    Tenant t;
    t.ctx = pool_.acquire(nl, opts);
    t.session = std::make_unique<ScanSession>(t.ctx, opts);
    t.session->bind_patterns(patterns);
    it = tenants_.emplace(key, std::move(t)).first;
    return key;
  }
  // Re-opening an already-registered design: a true no-op for identical
  // patterns (safe even mid-traffic -- nothing is rebound, and bound_ is
  // only ever written here under mu_); different patterns would
  // invalidate caches under the dispatcher, so require the design idle.
  Tenant& t = it->second;
  const std::span<const TestPattern> bound = t.session->patterns();
  if (std::equal(bound.begin(), bound.end(), patterns.begin(),
                 patterns.end())) {
    return key;
  }
  SP_CHECK(!t.busy && t.fifo.empty(),
           strprintf("DiagnosisQueue::open: design '%s' (key %016llx) has "
                     "pending or in-flight jobs; collect their results "
                     "before rebinding patterns",
                     nl.name().c_str(), static_cast<unsigned long long>(key)));
  t.session->bind_patterns(patterns);
  return key;
}

std::future<DiagnosisResult> DiagnosisQueue::submit(DesignKey key,
                                                    Evidence evidence) {
  std::future<DiagnosisResult> fut;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = tenants_.find(key);
    SP_CHECK(it != tenants_.end(),
             strprintf("DiagnosisQueue::submit: unregistered design key "
                       "%016llx (call open() first)",
                       static_cast<unsigned long long>(key)));
    if (opts_.max_pending > 0 && pending_ >= opts_.max_pending) {
      if (opts_.overload == OverloadPolicy::Reject) {
        SP_TELEM_ADD(telemetry_, 0, CounterId::kQueueRejected, 1);
        throw OverloadError(opts_.retry_hint_ms);
      }
      // Block: park until the dispatcher frees depth. The tenant map only
      // grows, so `it` stays valid across the wait.
      done_cv_.wait(lock, [this] {
        return stop_ || pending_ < opts_.max_pending;
      });
      if (stop_) throw QueueShutdownError();
    }
    if (stop_) throw QueueShutdownError();
    Job job;
    job.evidence = std::move(evidence);
    job.seq = next_seq_++;
    job.enqueued = std::chrono::steady_clock::now();
    fut = job.promise.get_future();
    it->second.fifo.push_back(std::move(job));
    ++pending_;
    SP_TELEM_ADD(telemetry_, 0, CounterId::kQueueSubmitted, 1);
    update_depth_gauge();
  }
  cv_.notify_one();
  return fut;
}

void DiagnosisQueue::update_depth_gauge() {
  if (telemetry_) {
    telemetry_->metrics.set_gauge(GaugeId::kQueueDepth,
                                  static_cast<std::int64_t>(pending_));
  }
}

DiagnosisQueue::Tenant* DiagnosisQueue::pick_round_robin() {
  if (tenants_.empty()) return nullptr;
  // First backlogged design strictly after the cursor, wrapping -- a
  // design that just ran a batch goes to the back of the rotation.
  auto it = tenants_.upper_bound(rr_cursor_);
  for (std::size_t i = 0; i < tenants_.size(); ++i, ++it) {
    if (it == tenants_.end()) it = tenants_.begin();
    if (!it->second.busy && !it->second.fifo.empty()) {
      rr_cursor_ = it->first;
      return &it->second;
    }
  }
  return nullptr;
}

void DiagnosisQueue::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      if (stop_) return true;
      for (const auto& [key, t] : tenants_) {
        if (!t.fifo.empty()) return true;
      }
      return false;
    });
    if (stop_) {
      // Shutdown: fail every still-queued job with the typed shutdown
      // error instead of running it (or silently dropping the promise,
      // which would surface as an opaque broken_promise at the client).
      std::size_t poisoned = 0;
      for (auto& [key, t] : tenants_) {
        for (Job& j : t.fifo) {
          j.promise.set_exception(
              std::make_exception_ptr(QueueShutdownError()));
          ++poisoned;
        }
        t.fifo.clear();
      }
      pending_ -= poisoned;
      SP_TELEM_ADD(telemetry_, 0, CounterId::kQueuePoisoned, poisoned);
      update_depth_gauge();
      done_cv_.notify_all();
      return;
    }
    Tenant* best = pick_round_robin();
    if (!best) continue;
    const std::size_t n = std::min(opts_.max_batch, best->fifo.size());
    std::vector<Job> jobs;
    jobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      jobs.push_back(std::move(best->fifo.front()));
      best->fifo.pop_front();
    }
    best->busy = true;
    lock.unlock();
    run_batch(*best, std::move(jobs));
    lock.lock();
  }
}

void DiagnosisQueue::run_batch(Tenant& tenant, std::vector<Job> jobs) {
  const auto now = std::chrono::steady_clock::now();
  std::uint64_t wait_us = 0;
  for (const Job& j : jobs) {
    wait_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - j.enqueued)
            .count());
  }
  SP_TELEM_ADD(telemetry_, 0, CounterId::kQueueWaitUs, wait_us);
  SP_TELEM_ADD(telemetry_, 0, CounterId::kQueueBatches, 1);
  SP_TELEM_ADD(telemetry_, 0, CounterId::kQueueCoalesced,
               static_cast<std::uint64_t>(jobs.size() - 1));

  std::vector<Evidence> evidence;
  evidence.reserve(jobs.size());
  for (Job& j : jobs) evidence.push_back(std::move(j.evidence));
  std::vector<DiagnosisResult> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  try {
    results = tenant.session->diagnose_batch(evidence);
  } catch (...) {
    // One malformed log fails batch validation before any scoring; retry
    // per log so it poisons only its own future. Results stay
    // bit-identical: sequential diagnose() is the batch's reference
    // semantics.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      try {
        results[i] = tenant.session->diagnose(evidence[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  }
  // Retire the batch before answering it: a client holding every result
  // may rebind the design's patterns at once, and that needs it idle.
  {
    std::lock_guard<std::mutex> lock(mu_);
    tenant.busy = false;
    pending_ -= jobs.size();
    update_depth_gauge();
  }
  done_cv_.notify_all();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (errors[i]) {
      jobs[i].promise.set_exception(errors[i]);
    } else {
      jobs[i].promise.set_value(std::move(results[i]));
    }
  }
}

void DiagnosisQueue::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t DiagnosisQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

}  // namespace scanpower
