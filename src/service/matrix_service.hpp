// MatrixService — the resilient coverage-matrix batch service.
//
// Promotes the one-shot coverage CLI into a long-running service: clients
// submit (test, fault list, n, cap) jobs; the service evaluates them
// concurrently on the bounded thread pool (common/parallel.hpp submit queue)
// and streams per-job results.  Robustness is the headline — every failure
// mode has a defined, non-corrupting outcome:
//
//  * Bounded submission queue with an explicit backpressure policy: when
//    `queue_capacity` jobs are already queued, submit() either blocks until
//    a slot frees (Block) or returns a Rejected submission immediately
//    (Reject).  Dispatch is fair FIFO — the pool's task queue preserves
//    submission order.
//  * Every job carries a CancelToken (common/cancel.hpp) parented to one
//    service-wide token: per-job cancel(), per-job deadlines (measured from
//    submission, so queue time counts), service-wide cancel_all()/shutdown
//    and an optional external token (SIGINT) all trip the same cooperative
//    switch.  evaluate_coverage polls it at chunk granularity, so a doomed
//    job stops within a few class simulations and reports
//    Cancelled/DeadlineExceeded — never a partial report.
//  * Engine exceptions (invalid tests, internal errors) are captured on the
//    worker (the pool's exception plumbing) and surface as a per-job Failed
//    status with the message; the service keeps serving.
//  * A shared cache keyed by the canonical-form stable hash (the sweep
//    store's key scheme): the CompiledTest (per test — includes the shared
//    fault-free trace) is computed ONCE and reused by every job that names
//    it, with single-flight deduplication — concurrent jobs for the same
//    test wait on the first compilation instead of duplicating it.  Fault
//    lists need no cache: evaluate_coverage simulates one representative
//    per behaviour class and never instantiates the sampled layouts.
//  * Optional SweepStore read-through/write-back: a verified record is a
//    store hit (no evaluation); computed jobs persist their report.  The
//    store's own degradation ladder applies unchanged — retries with
//    backoff + jitter, then store-less completion, then (sticky failure)
//    the store disables itself for all jobs and the service keeps serving.
//    Results are byte-identical with or without a (failing) store.
//  * A fault-injection seam for the scheduler itself: `scheduler_hook` is
//    consulted once per dispatch and may delay, fail or cancel the k-th job
//    — the harness (tests/service/) proves that completed jobs' reports stay
//    byte-identical to solo evaluate_coverage runs under every injection
//    schedule and thread count.
//
// Determinism argument: each job evaluates sequentially on one worker
// (coverage_threads = 1 — the parallelism lives ACROSS jobs, the sweep
// grid's shape), and the shared artifacts are immutable after construction,
// so a completed job's report cannot depend on the worker count, the
// dispatch schedule, or what other jobs were in flight.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/parallel.hpp"
#include "fp/fault_list.hpp"
#include "march/march_test.hpp"
#include "sim/coverage.hpp"

namespace mtg {

class SweepStore;
struct CompiledTest;

/// Lifecycle of a job.  Terminal states: Completed, Failed, Cancelled,
/// DeadlineExceeded, Rejected.
enum class JobStatus : unsigned char {
  Queued,            ///< admitted, waiting for a worker
  Running,           ///< evaluating on a worker
  Completed,         ///< report is valid (evaluated or loaded from store)
  Failed,            ///< the engine threw; `error` holds the message
  Cancelled,         ///< cancel()/cancel_all()/external token tripped first
  DeadlineExceeded,  ///< the job's deadline passed before it completed
  Rejected,          ///< bounced by the backpressure policy, never queued
};

const char* to_string(JobStatus status) noexcept;

/// One coverage-matrix job: evaluate `test` against `list` at memory size
/// `memory_size` with the per-fault instantiation cap
/// `max_instances_per_fault` (the sweep-store key fields, exactly).
struct MatrixJob {
  MarchTest test;
  /// Shared: many jobs typically name the same list.  Must not be null at
  /// submit().
  std::shared_ptr<const FaultList> list;
  std::size_t memory_size = 8;
  std::size_t max_instances_per_fault = 4096;
  /// Per-job deadline measured from submission (0 = none).  Queue time
  /// counts: a job that waited out its whole budget in the queue reports
  /// DeadlineExceeded without evaluating.
  std::chrono::milliseconds deadline{0};
};

struct MatrixJobResult {
  std::size_t job_id = 0;
  JobStatus status = JobStatus::Queued;
  /// Valid only when status == Completed; never partial otherwise.
  CoverageReport report;
  std::string error;  ///< Failed: the exception message
  double queue_ms = 0;  ///< submission → dispatch
  double run_ms = 0;    ///< dispatch → terminal state
  bool from_store = false;          ///< report loaded, not evaluated
  bool compiled_cache_hit = false;  ///< reused a cached CompiledTest
};

enum class BackpressurePolicy : unsigned char {
  Block,   ///< submit() waits for a queue slot
  Reject,  ///< submit() returns a Rejected submission immediately
};

/// Cumulative service counters (test/bench observability).
struct MatrixServiceStats {
  std::uint64_t submitted = 0;  ///< admitted jobs (excludes rejected)
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_saves = 0;
  std::uint64_t compiled_cache_hits = 0;
  std::uint64_t compiled_cache_misses = 0;
  /// Fault instances covered by evaluated reports (store hits excluded).
  /// Simulation work is one run per behaviour class, far fewer (see
  /// evaluate_coverage).
  std::uint64_t instance_evaluations = 0;
};

// -- Scheduler fault injection (test seam) -----------------------------------
// The I/O half of the fault harness is FaultInjectedStorage wrapped under
// the SweepStore; this is the scheduling half: the hook is consulted exactly
// once per dispatch (1-based dispatch index, FIFO order) and can perturb the
// k-th job the way a sick scheduler would.

enum class SchedulerFaultAction : unsigned char {
  None,
  Delay,            ///< sleep `delay` before the job runs (reorders races)
  Fail,             ///< the job reports Failed without evaluating
  CancelBeforeRun,  ///< trip the job's token before evaluation starts
  CancelMidRun,     ///< trip the token after setup, mid-evaluation path
};

struct SchedulerFault {
  SchedulerFaultAction action = SchedulerFaultAction::None;
  std::chrono::milliseconds delay{0};  ///< for Delay
};

using SchedulerHook =
    std::function<SchedulerFault(std::size_t dispatch_index,
                                 std::size_t job_id)>;

struct MatrixServiceOptions {
  /// Worker threads (0 = hardware concurrency, minimum 1).
  std::size_t threads = 0;
  /// Jobs admitted but not yet dispatched before backpressure applies.
  std::size_t queue_capacity = 256;
  BackpressurePolicy when_full = BackpressurePolicy::Block;
  /// Optional read-through/write-back result store (caller opens it and
  /// keeps it alive; its degradation ladder is self-contained).
  SweepStore* store = nullptr;
  /// Optional external kill switch (e.g. the CLI's SIGINT token); tripping
  /// it cancels every queued and running job.
  const CancelToken* cancel = nullptr;
  /// Called on the worker thread the moment a job reaches a terminal state
  /// (streaming front ends).  Must be thread-safe; keep it quick.
  std::function<void(const MatrixJobResult&)> on_result;
  /// Scheduler fault injection; leave empty in production.
  SchedulerHook scheduler_hook;
};

class MatrixService {
 public:
  explicit MatrixService(MatrixServiceOptions options = {});
  /// Cancels everything still queued or running, waits for in-flight jobs
  /// to reach a terminal state, then joins the workers.
  ~MatrixService();

  MatrixService(const MatrixService&) = delete;
  MatrixService& operator=(const MatrixService&) = delete;

  struct Submission {
    std::size_t job_id = 0;
    /// True when the Reject backpressure policy bounced the job; wait()
    /// then reports status Rejected.
    bool rejected = false;
  };

  /// Admits a job (job.list must be non-null).  With a full queue, blocks
  /// or rejects per the backpressure policy.  Throws only on misuse (null
  /// list, submit after shutdown) — engine failures surface as the job's
  /// Failed status, not here.
  Submission submit(MatrixJob job);

  /// Trips the job's token: a queued job reports Cancelled at dispatch, a
  /// running one stops at its next cancellation point.  False for unknown
  /// ids or jobs already terminal.
  bool cancel(std::size_t job_id);

  /// Trips every non-terminal job's token.
  void cancel_all();

  /// Blocks until the job reaches a terminal state and returns its result.
  MatrixJobResult wait(std::size_t job_id);

  /// Blocks until every submitted job is terminal; results in job-id order.
  std::vector<MatrixJobResult> drain();

  MatrixServiceStats stats() const;

  /// Jobs admitted but not yet dispatched (the backpressure queue depth).
  std::size_t queued() const;

 private:
  struct JobState;

  void run_job(const std::shared_ptr<JobState>& state);
  void finish(const std::shared_ptr<JobState>& state, JobStatus status,
              std::string error);
  std::shared_ptr<const CompiledTest> compiled_for(const MarchTest& test,
                                                   std::uint64_t test_hash,
                                                   bool& cache_hit);

  MatrixServiceOptions options_;
  CancelToken service_cancel_;  ///< parent of every job token

  mutable std::mutex mutex_;
  std::condition_variable job_done_;  ///< wait()/drain()
  std::condition_variable space_;     ///< Block backpressure
  std::map<std::size_t, std::shared_ptr<JobState>> jobs_;
  std::size_t next_id_ = 0;
  std::size_t queued_ = 0;
  std::size_t dispatched_ = 0;  ///< dispatch counter for the scheduler hook
  MatrixServiceStats stats_;
  bool shutting_down_ = false;

  // Single-flight cache: the future materializes once, every waiter shares
  // the immutable artifact.  A failed computation is erased so a later job
  // can retry.
  std::map<std::uint64_t,
           std::shared_future<std::shared_ptr<const CompiledTest>>>
      compiled_cache_;

  // Declared last: destroyed first, so the worker drain in ~ThreadPool runs
  // while the service state above is still alive.
  ThreadPool pool_;
};

}  // namespace mtg
