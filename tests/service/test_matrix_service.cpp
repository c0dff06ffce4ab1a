// MatrixService tests: the robustness contract of the coverage-matrix
// service.  The load-bearing invariant, asserted throughout: a COMPLETED
// job's report is byte-identical (store-codec bytes) to a solo
// evaluate_coverage run of the same (test, list, n, cap) — for every thread
// count, backpressure policy, cancellation schedule, store health and
// scheduler fault injection.  Everything else (cancel, deadline, failure,
// rejection) must terminate with the right status and NO report.
#include "service/matrix_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/coverage.hpp"
#include "store/fault_injection.hpp"
#include "store/storage.hpp"
#include "store/sweep_store.hpp"
#include "../sim/coverage_helpers.hpp"

namespace mtg {
namespace {

/// The solo reference: what one direct evaluate_coverage call produces for
/// the job's parameters (matching the service's fixed SimulatorOptions).
CoverageReport solo_report(const MarchTest& test, const FaultList& list,
                           std::size_t n, std::size_t cap) {
  SimulatorOptions options;
  options.memory_size = n;
  options.coverage_threads = 1;
  return evaluate_coverage(FaultSimulator(options), test, list, cap);
}

/// Byte-level identity of a report: the store codec is the project's
/// canonical byte serialization of a CoverageReport.
std::string report_bytes(const CoverageReport& report) {
  return SweepStore::encode_record(SweepKey{}, report);
}

MatrixJob make_job(const MarchTest& test,
                   const std::shared_ptr<const FaultList>& list,
                   std::size_t n = 6, std::size_t cap = 64) {
  MatrixJob job;
  job.test = test;
  job.list = list;
  job.memory_size = n;
  job.max_instances_per_fault = cap;
  return job;
}

std::shared_ptr<const FaultList> shared_list_1() {
  return std::make_shared<const FaultList>(fault_list_1());
}

/// Spin until the service has dispatched everything it can (queue empty) or
/// the timeout passes — used to sequence backpressure tests without relying
/// on submit/dispatch timing.
void wait_until_queue_empty(const MatrixService& service) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.queued() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.queued(), 0u) << "queue did not drain in 30s";
}

TEST(MatrixService, CompletedReportsAreByteIdenticalAcrossThreadCounts) {
  const auto list = shared_list_1();
  const std::vector<MarchTest> tests = {mats_plus(), march_c_minus(),
                                        march_y(), march_sl()};
  std::vector<std::string> expected;
  for (const MarchTest& test : tests) {
    expected.push_back(report_bytes(solo_report(test, *list, 6, 64)));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    MatrixServiceOptions options;
    options.threads = threads;
    MatrixService service(options);
    std::vector<std::size_t> ids;
    for (const MarchTest& test : tests) {
      const auto submission = service.submit(make_job(test, list));
      EXPECT_FALSE(submission.rejected);
      ids.push_back(submission.job_id);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const MatrixJobResult result = service.wait(ids[i]);
      ASSERT_EQ(result.status, JobStatus::Completed) << result.error;
      EXPECT_EQ(report_bytes(result.report), expected[i])
          << "threads=" << threads << " job " << i;
    }
    const MatrixServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, tests.size());
    EXPECT_EQ(stats.failed, 0u);
  }
}

TEST(MatrixService, DispatchIsFifoOnOneWorker) {
  const auto list = shared_list_1();
  std::mutex order_mutex;
  std::vector<std::size_t> completion_order;
  MatrixServiceOptions options;
  options.threads = 1;
  options.on_result = [&](const MatrixJobResult& result) {
    std::lock_guard<std::mutex> lock(order_mutex);
    completion_order.push_back(result.job_id);
  };
  MatrixService service(options);
  std::vector<std::size_t> submitted;
  for (int i = 0; i < 8; ++i) {
    submitted.push_back(service.submit(make_job(mats_plus(), list)).job_id);
  }
  service.drain();
  std::lock_guard<std::mutex> lock(order_mutex);
  EXPECT_EQ(completion_order, submitted) << "one worker preserves FIFO order";
}

TEST(MatrixService, RejectPolicyBouncesWhenTheQueueIsFull) {
  const auto list = shared_list_1();
  MatrixServiceOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  options.when_full = BackpressurePolicy::Reject;
  // Hold the worker on the first dispatch so the second job stays queued.
  options.scheduler_hook = [](std::size_t index, std::size_t) {
    SchedulerFault fault;
    if (index == 1) {
      fault.action = SchedulerFaultAction::Delay;
      fault.delay = std::chrono::milliseconds(200);
    }
    return fault;
  };
  MatrixService service(options);
  const auto first = service.submit(make_job(mats_plus(), list));
  wait_until_queue_empty(service);  // first job dispatched (and sleeping)
  const auto queued = service.submit(make_job(mats_plus(), list));
  EXPECT_FALSE(queued.rejected);
  const auto bounced = service.submit(make_job(mats_plus(), list));
  EXPECT_TRUE(bounced.rejected);

  EXPECT_EQ(service.wait(bounced.job_id).status, JobStatus::Rejected);
  EXPECT_EQ(service.wait(first.job_id).status, JobStatus::Completed);
  EXPECT_EQ(service.wait(queued.job_id).status, JobStatus::Completed);
  const MatrixServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.submitted, 2u) << "rejected jobs are not admitted";
}

TEST(MatrixService, BlockPolicyWaitsForASlotInsteadOfBouncing) {
  const auto list = shared_list_1();
  MatrixServiceOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  options.when_full = BackpressurePolicy::Block;
  MatrixService service(options);
  std::vector<std::size_t> ids;
  for (int i = 0; i < 6; ++i) {
    const auto submission = service.submit(make_job(mats_plus(), list));
    EXPECT_FALSE(submission.rejected) << "Block never bounces";
    ids.push_back(submission.job_id);
  }
  for (const std::size_t id : ids) {
    EXPECT_EQ(service.wait(id).status, JobStatus::Completed);
  }
}

TEST(MatrixService, CancelledQueuedJobReportsCancelledWithoutEvaluating) {
  const auto list = shared_list_1();
  MatrixServiceOptions options;
  options.threads = 1;
  options.scheduler_hook = [](std::size_t index, std::size_t) {
    SchedulerFault fault;
    if (index == 1) {
      fault.action = SchedulerFaultAction::Delay;
      fault.delay = std::chrono::milliseconds(100);
    }
    return fault;
  };
  MatrixService service(options);
  const auto running = service.submit(make_job(mats_plus(), list));
  const auto victim = service.submit(make_job(march_sl(), list));
  EXPECT_TRUE(service.cancel(victim.job_id));
  const MatrixJobResult result = service.wait(victim.job_id);
  EXPECT_EQ(result.status, JobStatus::Cancelled);
  EXPECT_TRUE(result.report.entries.empty()) << "never a partial report";
  EXPECT_EQ(service.wait(running.job_id).status, JobStatus::Completed);
  // Cancelling a terminal job is a no-op.
  EXPECT_FALSE(service.cancel(victim.job_id));
  EXPECT_FALSE(service.cancel(9999));
}

TEST(MatrixService, QueueTimeCountsAgainstTheDeadline) {
  const auto list = shared_list_1();
  MatrixServiceOptions options;
  options.threads = 1;
  options.scheduler_hook = [](std::size_t index, std::size_t) {
    SchedulerFault fault;
    if (index == 1) {
      fault.action = SchedulerFaultAction::Delay;
      fault.delay = std::chrono::milliseconds(150);
    }
    return fault;
  };
  MatrixService service(options);
  service.submit(make_job(mats_plus(), list));
  MatrixJob doomed = make_job(march_sl(), list);
  doomed.deadline = std::chrono::milliseconds(1);  // expires in the queue
  const auto submission = service.submit(doomed);
  const MatrixJobResult result = service.wait(submission.job_id);
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(result.report.entries.empty());
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(MatrixService, DeadlineInterruptsARunningEvaluation) {
  const auto list = std::make_shared<const FaultList>(slow_coverage_list());
  MatrixServiceOptions options;
  options.threads = 1;
  MatrixService service(options);
  // The slow workload runs far longer than 1ms.
  MatrixJob job = make_job(slow_coverage_test(), list, /*n=*/4096, /*cap=*/0);
  job.deadline = std::chrono::milliseconds(1);
  const auto submission = service.submit(job);
  const MatrixJobResult result = service.wait(submission.job_id);
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(result.report.entries.empty()) << "never a partial report";
}

TEST(MatrixService, InvalidTestFailsTheJobAndTheServiceKeepsServing) {
  const auto list = shared_list_1();
  MatrixServiceOptions options;
  options.threads = 1;
  MatrixService service(options);
  // r0 against unknown power-on content: statically invalid.
  const auto bad = service.submit(
      make_job(parse_march_test("{^(r0)}", "invalid"), list));
  const auto good = service.submit(make_job(mats_plus(), list));
  const MatrixJobResult bad_result = service.wait(bad.job_id);
  EXPECT_EQ(bad_result.status, JobStatus::Failed);
  EXPECT_FALSE(bad_result.error.empty());
  EXPECT_TRUE(bad_result.report.entries.empty());
  EXPECT_EQ(service.wait(good.job_id).status, JobStatus::Completed);
  const MatrixServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(MatrixService, SharedArtifactsAreComputedOnceAcrossJobs) {
  const auto list = shared_list_1();
  MatrixServiceOptions options;
  options.threads = 4;
  MatrixService service(options);
  constexpr std::size_t kJobs = 12;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < kJobs; ++i) {
    ids.push_back(service.submit(make_job(march_c_minus(), list)).job_id);
  }
  const std::string expected =
      report_bytes(solo_report(march_c_minus(), *list, 6, 64));
  for (const std::size_t id : ids) {
    const MatrixJobResult result = service.wait(id);
    ASSERT_EQ(result.status, JobStatus::Completed) << result.error;
    EXPECT_EQ(report_bytes(result.report), expected);
  }
  const MatrixServiceStats stats = service.stats();
  // Single flight: one compilation total, no matter how many jobs raced
  // for it.
  EXPECT_EQ(stats.compiled_cache_misses, 1u);
  EXPECT_EQ(stats.compiled_cache_hits, kJobs - 1);

  // A saturated batch: four tests × three sizes × two repeats, all queued
  // at once on a queue that holds exactly the batch.  Each test compiles
  // once however many jobs and sizes share it.
  const auto list2 = std::make_shared<const FaultList>(fault_list_2());
  const std::vector<MarchTest> tests = {mats_plus(), march_y(),
                                        march_c_minus(), march_sl()};
  const std::vector<std::size_t> sizes = {64, 256, 1024};
  constexpr std::size_t kRepeats = 2;
  constexpr std::size_t kCap = 256;
  std::vector<std::string> solo;  // per (test, size)
  for (const MarchTest& test : tests) {
    for (const std::size_t n : sizes) {
      solo.push_back(report_bytes(solo_report(test, *list2, n, kCap)));
    }
  }
  MatrixServiceOptions saturated;
  saturated.threads = 4;
  saturated.queue_capacity = kRepeats * solo.size();
  MatrixService batch(saturated);
  std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (id, solo index)
  for (std::size_t r = 0; r < kRepeats; ++r) {
    for (std::size_t t = 0; t < tests.size(); ++t) {
      for (std::size_t s = 0; s < sizes.size(); ++s) {
        const auto submitted =
            batch.submit(make_job(tests[t], list2, sizes[s], kCap));
        ASSERT_FALSE(submitted.rejected);
        jobs.emplace_back(submitted.job_id, t * sizes.size() + s);
      }
    }
  }
  for (const auto& [id, index] : jobs) {
    const MatrixJobResult result = batch.wait(id);
    ASSERT_EQ(result.status, JobStatus::Completed) << result.error;
    EXPECT_EQ(report_bytes(result.report), solo[index]);
  }
  const MatrixServiceStats batch_stats = batch.stats();
  EXPECT_EQ(batch_stats.completed, jobs.size());
  EXPECT_EQ(batch_stats.compiled_cache_misses, tests.size());
}

TEST(MatrixService, StoreRoundTripServesVerifiedRecordsWithoutEvaluating) {
  const auto list = shared_list_1();
  InMemoryStorage storage;
  SweepStore store(storage, "matrix-store");
  ASSERT_TRUE(store.open());
  const std::string expected =
      report_bytes(solo_report(mats_plus(), *list, 6, 64));

  {
    MatrixServiceOptions options;
    options.threads = 2;
    options.store = &store;
    MatrixService service(options);
    const auto id = service.submit(make_job(mats_plus(), list)).job_id;
    const MatrixJobResult result = service.wait(id);
    ASSERT_EQ(result.status, JobStatus::Completed);
    EXPECT_FALSE(result.from_store);
    EXPECT_EQ(report_bytes(result.report), expected);
    EXPECT_EQ(service.stats().store_saves, 1u);
  }
  {
    // A second service over the same store: the record is a verified hit,
    // byte-identical to the evaluated run.
    MatrixServiceOptions options;
    options.threads = 2;
    options.store = &store;
    MatrixService service(options);
    const auto id = service.submit(make_job(mats_plus(), list)).job_id;
    const MatrixJobResult result = service.wait(id);
    ASSERT_EQ(result.status, JobStatus::Completed);
    EXPECT_TRUE(result.from_store);
    EXPECT_EQ(report_bytes(result.report), expected)
        << "store hits are byte-identical to fresh evaluations";
    EXPECT_EQ(service.stats().store_hits, 1u);
  }
}

TEST(MatrixService, StickyStoreFailureDegradesTheStoreNotTheService) {
  const auto list = shared_list_1();
  InMemoryStorage base;
  FaultInjectedStorage storage(base);
  SweepStore store(storage, "matrix-store",
                   [] {
                     SweepStoreOptions store_options;
                     store_options.retry_backoff = std::chrono::milliseconds(0);
                     store_options.warn = [](const std::string&) {};
                     return store_options;
                   }());
  ASSERT_TRUE(store.open());
  storage.fail_kth_operation(1, StoreFaultMode::Error, /*sticky=*/true);

  MatrixServiceOptions options;
  options.threads = 2;
  options.store = &store;
  MatrixService service(options);
  const std::vector<MarchTest> tests = {mats_plus(), march_y(),
                                        march_c_minus()};
  std::vector<std::size_t> ids;
  for (const MarchTest& test : tests) {
    ids.push_back(service.submit(make_job(test, list)).job_id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const MatrixJobResult result = service.wait(ids[i]);
    ASSERT_EQ(result.status, JobStatus::Completed)
        << "a dead store must not fail jobs: " << result.error;
    EXPECT_FALSE(result.from_store);
    EXPECT_EQ(report_bytes(result.report),
              report_bytes(solo_report(tests[i], *list, 6, 64)))
        << "results are byte-identical with or without a failing store";
  }
  EXPECT_FALSE(store.enabled()) << "exhausted retries disable the store";
  EXPECT_EQ(service.stats().store_saves, 0u);
}

TEST(MatrixService, SchedulerFaultInjectionsPerturbOnlyTheTargetedJob) {
  const auto list = shared_list_1();
  const std::string expected =
      report_bytes(solo_report(mats_plus(), *list, 6, 64));
  struct Case {
    SchedulerFaultAction action;
    JobStatus expected_status;
  };
  const std::vector<Case> cases = {
      {SchedulerFaultAction::Delay, JobStatus::Completed},
      {SchedulerFaultAction::Fail, JobStatus::Failed},
      {SchedulerFaultAction::CancelBeforeRun, JobStatus::Cancelled},
      {SchedulerFaultAction::CancelMidRun, JobStatus::Cancelled},
  };
  for (const Case& test_case : cases) {
    constexpr std::size_t kJobs = 5;
    constexpr std::size_t kTarget = 3;  // dispatch index of the victim
    MatrixServiceOptions options;
    options.threads = 1;  // dispatch index == submission order
    options.scheduler_hook = [&](std::size_t index, std::size_t) {
      SchedulerFault fault;
      if (index == kTarget) {
        fault.action = test_case.action;
        fault.delay = std::chrono::milliseconds(10);
      }
      return fault;
    };
    MatrixService service(options);
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < kJobs; ++i) {
      ids.push_back(service.submit(make_job(mats_plus(), list)).job_id);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const MatrixJobResult result = service.wait(ids[i]);
      if (i + 1 == kTarget) {
        EXPECT_EQ(result.status, test_case.expected_status)
            << "action " << static_cast<int>(test_case.action);
        if (test_case.expected_status != JobStatus::Completed) {
          EXPECT_TRUE(result.report.entries.empty());
          continue;
        }
      } else {
        ASSERT_EQ(result.status, JobStatus::Completed) << result.error;
      }
      EXPECT_EQ(report_bytes(result.report), expected)
          << "untargeted jobs stay byte-identical";
    }
  }
}

TEST(MatrixService, DestructionCancelsQueuedJobsWithoutHanging) {
  const auto list = shared_list_1();
  std::mutex results_mutex;
  std::vector<JobStatus> statuses;
  {
    MatrixServiceOptions options;
    options.threads = 1;
    options.on_result = [&](const MatrixJobResult& result) {
      std::lock_guard<std::mutex> lock(results_mutex);
      statuses.push_back(result.status);
    };
    MatrixService service(options);
    for (int i = 0; i < 20; ++i) {
      service.submit(make_job(march_sl(), list, /*n=*/16, /*cap=*/0));
    }
    // Destructor: cancel everything, drain, join — must not hang.
  }
  std::lock_guard<std::mutex> lock(results_mutex);
  ASSERT_EQ(statuses.size(), 20u) << "every admitted job reaches a terminal "
                                     "state before destruction completes";
  for (const JobStatus status : statuses) {
    EXPECT_TRUE(status == JobStatus::Completed ||
                status == JobStatus::Cancelled)
        << to_string(status);
  }
}

TEST(MatrixService, ExternalTokenCancelsQueuedAndFutureJobs) {
  const auto list = shared_list_1();
  CancelToken external;
  MatrixServiceOptions options;
  options.threads = 1;
  options.cancel = &external;
  MatrixService service(options);
  external.cancel();
  const auto submission = service.submit(make_job(mats_plus(), list));
  const MatrixJobResult result = service.wait(submission.job_id);
  EXPECT_EQ(result.status, JobStatus::Cancelled);
  EXPECT_TRUE(result.report.entries.empty());
}

TEST(MatrixService, MisuseThrows) {
  MatrixServiceOptions bad_capacity;
  bad_capacity.queue_capacity = 0;
  EXPECT_THROW(MatrixService{bad_capacity}, Error);

  MatrixService service;
  EXPECT_THROW(service.submit(MatrixJob{}), Error);  // null list
  EXPECT_THROW(service.wait(42), Error);             // unknown id
}

}  // namespace
}  // namespace mtg
