#pragma once
// DiagnosisQueue: the async front door of the diagnosis service.
//
// Clients submit tester evidence and get a future back; a single
// dispatcher thread drains the queue, coalescing whatever accumulated
// per design into one ScanSession::diagnose_batch call (up to max_batch
// logs, matching the diagnoser's fixed 64-candidate scoring rounds).
// Batching amortizes the shared per-batch engine state and fans logs
// across the session's worker pool, while the determinism contract keeps
// every result bit-identical to a sequential diagnose() on the same
// evidence -- so the queue changes latency and throughput, never answers.
//
//   DiagnosisQueue q(opts, &telemetry);
//   auto key = q.open(netlist, options, patterns);  // context + session
//   std::future<DiagnosisResult> f = q.submit(key, evidence);
//   DiagnosisResult r = f.get();
//
// Designs register through open(), which parks a shared DesignContext in
// the queue's SessionPool and binds one per-design tenant session (only
// the dispatcher thread ever touches a session, honoring its
// single-threaded contract). submit() is thread-safe and cheap: push,
// stamp, notify. Dispatch is round-robin across designs (FIFO within a
// design, batched per design): after a design's batch the cursor moves
// on, so one backlogged design costs every other design at most one
// batch of head-of-line delay instead of monopolizing the dispatcher
// the way global submission-order FIFO did. A failing batch falls back
// to per-log dispatch so one malformed log poisons only its own future.
//
// Admission control: `max_pending` bounds queued + in-flight jobs.
// At the bound, OverloadPolicy::Block parks submit() until the
// dispatcher frees depth, and OverloadPolicy::Reject throws
// OverloadError carrying a retry_after_ms hint -- the wire layer maps it
// to {"error":"overloaded","retry_after_ms":...} and the net client
// backs off and retries. Destruction does NOT run pending work: any job
// still queued fails with QueueShutdownError (call drain() first for a
// graceful stop); blocked submitters are woken with the same error.
//
// Telemetry (optional, queue-scoped): queue.{submitted,batches,
// coalesced,rejected,poisoned,wait_us} and the queue.depth gauge.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "core/session.hpp"
#include "core/session_pool.hpp"

namespace scanpower {

/// Thrown by submit() under OverloadPolicy::Reject when the queue is at
/// max_pending. retry_after_ms() is the server's backoff hint.
class OverloadError : public Error {
 public:
  explicit OverloadError(std::uint64_t retry_after_ms)
      : Error("DiagnosisQueue overloaded: depth at max_pending; retry in " +
              std::to_string(retry_after_ms) + " ms"),
        retry_after_ms_(retry_after_ms) {}
  std::uint64_t retry_after_ms() const { return retry_after_ms_; }

 private:
  std::uint64_t retry_after_ms_;
};

/// Poison carried by futures whose job was still pending when the queue
/// shut down, and thrown by submit()/blocked submitters racing it.
class QueueShutdownError : public Error {
 public:
  QueueShutdownError()
      : Error("DiagnosisQueue shut down with this job still pending "
              "(drain() before destruction for a graceful stop)") {}
};

class DiagnosisQueue {
 public:
  /// What submit() does when the queue is at max_pending.
  enum class OverloadPolicy {
    Block,   ///< park the submitter until the dispatcher frees depth
    Reject,  ///< throw OverloadError with a retry_after_ms hint
  };

  struct Options {
    /// Max logs coalesced into one diagnose_batch dispatch. 64 matches
    /// the diagnoser's fixed candidate-round width: one batch keeps every
    /// worker busy without starving other designs behind it.
    std::size_t max_batch = 64;
    /// Capacity of the internal DesignContext pool.
    std::size_t pool_capacity = SessionPool::kDefaultCapacity;
    /// Admission bound on queued + in-flight jobs; 0 = unbounded (the
    /// pre-admission-control behavior).
    std::size_t max_pending = 0;
    /// Behavior at the max_pending bound.
    OverloadPolicy overload = OverloadPolicy::Block;
    /// Base retry hint attached to OverloadError / the wire reject.
    std::uint64_t retry_hint_ms = 20;
  };

  /// Key identifying one registered design (its structural hash).
  using DesignKey = std::uint64_t;

  /// Starts the dispatcher thread. `telemetry` (optional, borrowed, must
  /// outlive the queue) receives the queue and pool counters.
  explicit DiagnosisQueue(Options opts, Telemetry* telemetry = nullptr);
  DiagnosisQueue() : DiagnosisQueue(Options()) {}
  /// Finishes the in-flight batch, poisons every still-pending future
  /// with QueueShutdownError and joins the dispatcher. Pending work is
  /// NOT run -- call drain() first for a graceful stop.
  ~DiagnosisQueue();

  DiagnosisQueue(const DiagnosisQueue&) = delete;
  DiagnosisQueue& operator=(const DiagnosisQueue&) = delete;

  /// Registers a design: acquires (or builds) its shared context, creates
  /// the tenant session and binds `patterns`. Idempotent for identical
  /// patterns; rebinding different patterns requires the design idle (no
  /// pending or in-flight jobs -- throws Error otherwise). Returns the key
  /// submit() takes. Thread-safe, but heavy on first sight of a design;
  /// treat it as control-plane.
  DesignKey open(const Netlist& nl, const FlowOptions& opts,
                 std::span<const TestPattern> patterns);

  /// Enqueues one tester report against a registered design and returns
  /// the future result. Throws Error for an unregistered key, and at the
  /// max_pending bound either blocks or throws OverloadError per
  /// Options::overload. The future carries any diagnosis error for this
  /// log. Thread-safe.
  std::future<DiagnosisResult> submit(DesignKey key, Evidence evidence);

  /// Blocks until every job submitted so far has been dispatched and
  /// completed.
  void drain();

  /// Jobs waiting or in flight right now.
  std::size_t depth() const;

  const Options& options() const { return opts_; }

  /// The underlying context pool (contexts stay warm across open calls).
  SessionPool& contexts() { return pool_; }

 private:
  struct Job {
    Evidence evidence;
    std::promise<DiagnosisResult> promise;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct Tenant {
    std::shared_ptr<const DesignContext> ctx;
    std::unique_ptr<ScanSession> session;
    std::deque<Job> fifo;
    bool busy = false;  ///< dispatcher is running a batch on this session
  };

  void dispatcher_loop();
  /// Runs one batch without mu_, retires it (tenant idle, depth down),
  /// then answers its jobs -- so a client holding every result finds the
  /// design idle.
  void run_batch(Tenant& tenant, std::vector<Job> jobs);
  void update_depth_gauge();  ///< callers hold mu_
  Tenant* pick_round_robin(); ///< callers hold mu_

  const Options opts_;
  Telemetry* telemetry_;
  SessionPool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< dispatcher wakeup
  std::condition_variable done_cv_;  ///< drain() + blocked-submit waiters
  std::map<DesignKey, Tenant> tenants_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;  ///< queued + in-flight jobs
  /// Round-robin cursor: the last design dispatched; the next batch goes
  /// to the first backlogged design strictly after it (wrapping).
  DesignKey rr_cursor_ = 0;
  bool stop_ = false;

  std::thread dispatcher_;  ///< last member: joins before state destructs
};

}  // namespace scanpower
