#include "service/matrix_service.hpp"

#include <thread>
#include <utility>

#include "sim/packed_engine.hpp"
#include "store/sweep_store.hpp"

namespace mtg {

const char* to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::Queued:
      return "queued";
    case JobStatus::Running:
      return "running";
    case JobStatus::Completed:
      return "completed";
    case JobStatus::Failed:
      return "failed";
    case JobStatus::Cancelled:
      return "cancelled";
    case JobStatus::DeadlineExceeded:
      return "deadline_exceeded";
    case JobStatus::Rejected:
      return "rejected";
  }
  return "unknown";
}

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

bool is_terminal(JobStatus status) noexcept {
  return status != JobStatus::Queued && status != JobStatus::Running;
}

}  // namespace

struct MatrixService::JobState {
  explicit JobState(const CancelToken* parent) : token(parent) {}

  MatrixJob job;
  CancelToken token;
  MatrixJobResult result;
  /// Flipped after on_result ran: wait()/drain() return only once the
  /// streaming callback for the job finished too.
  bool terminal = false;
  std::chrono::steady_clock::time_point submitted_at;
  std::chrono::steady_clock::time_point dispatched_at;
};

MatrixService::MatrixService(MatrixServiceOptions options)
    : options_(std::move(options)),
      service_cancel_(options_.cancel),
      pool_(ThreadPool::resolve_thread_count(options_.threads)) {
  require(options_.queue_capacity >= 1,
          "MatrixService: queue_capacity must be >= 1");
}

MatrixService::~MatrixService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    space_.notify_all();  // unblock submitters; they observe the shutdown
  }
  // One switch stops everything: queued jobs report Cancelled at dispatch,
  // running ones stop at their next cooperative check.
  service_cancel_.cancel();
  drain();
  // ~ThreadPool then drains the task queue and joins the workers while the
  // service state is still alive (pool_ is the last-declared member).
}

MatrixService::Submission MatrixService::submit(MatrixJob job) {
  require(job.list != nullptr, "MatrixService::submit: job.list is null");
  std::shared_ptr<JobState> state;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    require(!shutting_down_, "MatrixService::submit after shutdown began");
    if (queued_ >= options_.queue_capacity) {
      if (options_.when_full == BackpressurePolicy::Reject) {
        const std::size_t id = next_id_++;
        auto rejected = std::make_shared<JobState>(&service_cancel_);
        rejected->job = std::move(job);
        rejected->submitted_at = std::chrono::steady_clock::now();
        rejected->result.job_id = id;
        rejected->result.status = JobStatus::Rejected;
        jobs_.emplace(id, rejected);
        ++stats_.rejected;
        lock.unlock();
        finish(rejected, JobStatus::Rejected, "");
        return Submission{id, true};
      }
      space_.wait(lock, [&] {
        return queued_ < options_.queue_capacity || shutting_down_;
      });
      if (shutting_down_) {
        // Racing a shutdown is not caller misuse: bounce instead of throw.
        const std::size_t id = next_id_++;
        auto rejected = std::make_shared<JobState>(&service_cancel_);
        rejected->job = std::move(job);
        rejected->submitted_at = std::chrono::steady_clock::now();
        rejected->result.job_id = id;
        rejected->result.status = JobStatus::Rejected;
        jobs_.emplace(id, rejected);
        ++stats_.rejected;
        lock.unlock();
        finish(rejected, JobStatus::Rejected, "");
        return Submission{id, true};
      }
    }
    const std::size_t id = next_id_++;
    state = std::make_shared<JobState>(&service_cancel_);
    state->job = std::move(job);
    state->submitted_at = std::chrono::steady_clock::now();
    state->result.job_id = id;
    state->result.status = JobStatus::Queued;
    // The deadline clock starts at submission: queue time counts against
    // the budget (a service must not let a full queue defeat deadlines).
    state->token.set_deadline_after(state->job.deadline);
    jobs_.emplace(id, state);
    ++stats_.submitted;
    ++queued_;
  }
  pool_.submit([this, state] { run_job(state); });
  return Submission{state->result.job_id, false};
}

bool MatrixService::cancel(std::size_t job_id) {
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end() || is_terminal(it->second->result.status)) {
      return false;
    }
    state = it->second;
  }
  state->token.cancel();
  return true;
}

void MatrixService::cancel_all() {
  std::vector<std::shared_ptr<JobState>> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, state] : jobs_) {
      if (!is_terminal(state->result.status)) live.push_back(state);
    }
  }
  for (const auto& state : live) state->token.cancel();
}

MatrixJobResult MatrixService::wait(std::size_t job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  require(it != jobs_.end(),
          "MatrixService::wait: unknown job id " + std::to_string(job_id));
  const std::shared_ptr<JobState> state = it->second;
  job_done_.wait(lock, [&] { return state->terminal; });
  return state->result;
}

std::vector<MatrixJobResult> MatrixService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock, [&] {
    for (const auto& [id, state] : jobs_) {
      if (!state->terminal) return false;
    }
    return true;
  });
  std::vector<MatrixJobResult> results;
  results.reserve(jobs_.size());
  for (const auto& [id, state] : jobs_) results.push_back(state->result);
  return results;
}

MatrixServiceStats MatrixService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t MatrixService::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

void MatrixService::finish(const std::shared_ptr<JobState>& state,
                           JobStatus status, std::string error) {
  MatrixJobResult snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MatrixJobResult& result = state->result;
    result.status = status;
    result.error = std::move(error);
    if (status != JobStatus::Rejected) {
      result.run_ms =
          ms_between(state->dispatched_at, std::chrono::steady_clock::now());
    }
    switch (status) {
      case JobStatus::Completed:
        ++stats_.completed;
        break;
      case JobStatus::Failed:
        ++stats_.failed;
        break;
      case JobStatus::Cancelled:
        ++stats_.cancelled;
        break;
      case JobStatus::DeadlineExceeded:
        ++stats_.deadline_exceeded;
        break;
      default:
        break;  // Rejected counted at submit; Queued/Running never finish
    }
    snapshot = result;
  }
  // Streaming callback outside the lock (it may do I/O); the terminal flag
  // flips after it returns, so wait()/drain() never overtake the stream.
  if (options_.on_result) options_.on_result(snapshot);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state->terminal = true;
  }
  job_done_.notify_all();
}

std::shared_ptr<const CompiledTest> MatrixService::compiled_for(
    const MarchTest& test, std::uint64_t test_hash, bool& cache_hit) {
  std::promise<std::shared_ptr<const CompiledTest>> promise;
  std::shared_future<std::shared_ptr<const CompiledTest>> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = compiled_cache_.find(test_hash);
    if (it != compiled_cache_.end()) {
      ++stats_.compiled_cache_hits;
      cache_hit = true;
      future = it->second;
    } else {
      ++stats_.compiled_cache_misses;
      cache_hit = false;
      owner = true;
      future = promise.get_future().share();
      compiled_cache_.emplace(test_hash, future);
    }
  }
  // Single flight: only the owner computes; concurrent jobs for the same
  // key block on the shared future instead of recompiling.
  if (!owner) return future.get();
  try {
    auto compiled =
        std::make_shared<const CompiledTest>(compile_march_test(test));
    promise.set_value(compiled);
    return compiled;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mutex_);
    compiled_cache_.erase(test_hash);  // a later job may retry
    throw;
  }
}

void MatrixService::run_job(const std::shared_ptr<JobState>& state) {
  SchedulerFault fault;
  std::size_t dispatch_index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state->dispatched_at = std::chrono::steady_clock::now();
    state->result.queue_ms =
        ms_between(state->submitted_at, state->dispatched_at);
    --queued_;
    dispatch_index = ++dispatched_;
  }
  space_.notify_one();
  if (options_.scheduler_hook) {
    fault = options_.scheduler_hook(dispatch_index, state->result.job_id);
  }
  if (fault.action == SchedulerFaultAction::Delay && fault.delay.count() > 0) {
    std::this_thread::sleep_for(fault.delay);
  }
  if (fault.action == SchedulerFaultAction::Fail) {
    finish(state, JobStatus::Failed, "injected scheduler fault");
    return;
  }
  if (fault.action == SchedulerFaultAction::CancelBeforeRun) {
    state->token.cancel();
  }

  // A job whose token tripped while queued (cancel, deadline, shutdown)
  // terminates here without touching the engine.
  const CancelCause queued_cause = state->token.cause();
  if (queued_cause != CancelCause::None) {
    finish(state,
           queued_cause == CancelCause::DeadlineExceeded
               ? JobStatus::DeadlineExceeded
               : JobStatus::Cancelled,
           "");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state->result.status = JobStatus::Running;
  }

  const MatrixJob& job = state->job;
  try {
    // Engine failures from here on are per-job: the catch below converts
    // them into a Failed status and the service keeps serving.
    FaultSimulator::validate(job.test);
    const std::uint64_t test_hash = stable_hash(job.test);
    const std::uint64_t list_hash = stable_hash(*job.list);

    if (options_.store != nullptr) {
      SweepKey key;
      key.test_hash = test_hash;
      key.list_hash = list_hash;
      key.memory_size = job.memory_size;
      key.max_instances_per_fault = job.max_instances_per_fault;
      CoverageReport cached;
      if (options_.store->load(key, cached)) {
        // Content from the store, presentation from the job (sweep.cpp's
        // rule): the report must be byte-identical to a fresh evaluation
        // even when the record came from a run naming the test differently.
        cached.test_name = job.test.name().empty() ? job.test.to_string()
                                                   : job.test.name();
        cached.list_name = job.list->name;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          state->result.report = std::move(cached);
          state->result.from_store = true;
          ++stats_.store_hits;
        }
        finish(state, JobStatus::Completed, "");
        return;
      }
    }

    bool compiled_hit = false;
    const std::shared_ptr<const CompiledTest> compiled =
        compiled_for(job.test, test_hash, compiled_hit);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      state->result.compiled_cache_hit = compiled_hit;
    }

    if (fault.action == SchedulerFaultAction::CancelMidRun) {
      // Trip the token after setup so the cancellation lands inside the
      // evaluation's cooperative polling path.
      state->token.cancel();
    }

    SimulatorOptions sim_options;
    sim_options.memory_size = job.memory_size;
    // Each job evaluates sequentially on its worker: the parallelism lives
    // across jobs (determinism: a report cannot depend on the worker count
    // or the dispatch schedule).
    sim_options.coverage_threads = 1;
    CoverageContext context;
    context.compiled = compiled.get();
    CoverageReport report = evaluate_coverage(
        FaultSimulator(sim_options), job.test, *job.list,
        job.max_instances_per_fault, &state->token, &context);

    if (options_.store != nullptr) {
      SweepKey key;
      key.test_hash = test_hash;
      key.list_hash = list_hash;
      key.memory_size = job.memory_size;
      key.max_instances_per_fault = job.max_instances_per_fault;
      if (options_.store->save(key, report)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.store_saves;
      }
      // A failed save already degraded (or disabled) the store with its own
      // warning; the job completes store-less either way.
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.instance_evaluations += report.instances_total();
      state->result.report = std::move(report);
    }
    finish(state, JobStatus::Completed, "");
  } catch (const CancelledError& e) {
    finish(state,
           e.cause() == CancelCause::DeadlineExceeded
               ? JobStatus::DeadlineExceeded
               : JobStatus::Cancelled,
           "");
  } catch (const std::exception& e) {
    finish(state, JobStatus::Failed, e.what());
  }
}

}  // namespace mtg
