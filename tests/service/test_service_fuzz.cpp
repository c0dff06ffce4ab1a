// Seeded schedule fuzzer for the matrix service: each case draws a random
// service configuration (threads, queue capacity, backpressure policy,
// external token), a random job batch, a random scheduler-fault injection
// schedule and a racing canceller thread, then asserts the service's
// robustness contract:
//
//  * no crash, no exception escaping submit()/wait()/drain()/~MatrixService;
//  * no hang — a watchdog thread aborts the process with the replay seed if
//    a case wedges (the failure mode a lost condition-variable notify or an
//    undrained queue would produce);
//  * every admitted job reaches a terminal state, and every COMPLETED job's
//    report is byte-identical (store-codec bytes) to a solo
//    evaluate_coverage run of the same parameters — cancellation schedules
//    and fault injections may decide WHETHER a job completes, never WHAT a
//    completed job reports.
//
// Reproducibility: every case derives from a single 64-bit seed printed on
// failure.  Replay one case with MTG_FUZZ_SEED=<seed>; rescale the sweep
// with MTG_SERVICE_FUZZ_CASES=<n> (cases here run whole service lifecycles,
// so the default is far below the differential fuzzer's — the sanitizer CI
// jobs reduce it further).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "service/matrix_service.hpp"
#include "sim/coverage.hpp"
#include "store/fault_injection.hpp"
#include "store/storage.hpp"
#include "store/sweep_store.hpp"

namespace mtg {
namespace {

// splitmix64 (the repo's fuzz PRNG): portable, seed-stable.
struct Rng {
  std::uint64_t state;

  explicit Rng(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }

  bool coin() { return (next() & 1u) != 0; }
};

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Aborts the whole process if the fuzz sweep wedges: a deadlocked service
/// would otherwise hang CI with no diagnostics.  Disarmed on destruction.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds budget, const std::uint64_t* current_seed)
      : thread_([this, budget, current_seed] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_.wait_for(lock, budget, [this] { return disarmed_; })) {
            std::fprintf(stderr,
                         "service fuzz watchdog: wedged after %llds "
                         "(replay: MTG_FUZZ_SEED=%llu)\n",
                         static_cast<long long>(budget.count()),
                         static_cast<unsigned long long>(*current_seed));
            std::abort();
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    done_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  bool disarmed_ = false;
  std::thread thread_;
};

/// The fuzzer's job pool: a few cheap (test, n) combos against one shared
/// list, with solo reference bytes computed once per combo.
struct Combo {
  MarchTest test;
  std::size_t memory_size;
};

std::string solo_bytes(const Combo& combo, const FaultList& list,
                       std::size_t cap) {
  SimulatorOptions options;
  options.memory_size = combo.memory_size;
  options.coverage_threads = 1;
  const CoverageReport report = evaluate_coverage(
      FaultSimulator(options), combo.test, list, cap);
  return SweepStore::encode_record(SweepKey{}, report);
}

TEST(ServiceFuzz, RandomSchedulesNeverCorruptCompletedReports) {
  const std::uint64_t base_seed = env_u64("MTG_FUZZ_SEED", 0);
  const bool replay_single = std::getenv("MTG_FUZZ_SEED") != nullptr;
  const std::uint64_t cases =
      replay_single ? 1 : env_u64("MTG_SERVICE_FUZZ_CASES", 30);

  const auto list = std::make_shared<const FaultList>(fault_list_1());
  constexpr std::size_t kCap = 64;
  const std::vector<Combo> combos = {
      {mats_plus(), 4}, {mats_plus(), 6},   {march_y(), 4},
      {march_y(), 6},   {march_c_minus(), 6}, {march_sl(), 6},
  };
  std::vector<std::string> reference;
  reference.reserve(combos.size());
  for (const Combo& combo : combos) {
    reference.push_back(solo_bytes(combo, *list, kCap));
  }

  std::uint64_t current_seed = 0;
  Watchdog watchdog(std::chrono::seconds(240), &current_seed);

  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = replay_single ? base_seed : 0x5E4F1CEull + i;
    current_seed = seed;
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (replay: MTG_FUZZ_SEED=" + std::to_string(seed) + ")");
    Rng rng(seed);

    // Random configuration.
    MatrixServiceOptions options;
    options.threads = 1 + rng.below(4);
    options.queue_capacity = 1 + rng.below(8);
    options.when_full = rng.coin() ? BackpressurePolicy::Block
                                   : BackpressurePolicy::Reject;
    CancelToken external;
    const bool use_external = rng.below(4) == 0;
    if (use_external) options.cancel = &external;

    // Random store health: absent, healthy, or failing sticky from the
    // k-th operation.
    InMemoryStorage base_storage;
    FaultInjectedStorage storage(base_storage);
    std::unique_ptr<SweepStore> store;
    const std::size_t store_mode = rng.below(3);
    if (store_mode != 0) {
      SweepStoreOptions store_options;
      store_options.retry_backoff = std::chrono::milliseconds(0);
      store_options.warn = [](const std::string&) {};
      store.reset(new SweepStore(storage, "fuzz-store", store_options));
      store->open();
      if (store_mode == 2) {
        storage.fail_kth_operation(1 + rng.below(20), StoreFaultMode::Error,
                                   /*sticky=*/rng.coin());
      }
      options.store = store.get();
    }

    // Random scheduler-fault schedule: each dispatch index gets an action
    // drawn from the seed (mostly None; delays stay tiny to bound runtime).
    const std::uint64_t hook_seed = rng.next();
    options.scheduler_hook = [hook_seed](std::size_t index, std::size_t) {
      Rng hook_rng(hook_seed ^ (0x9E3779B97F4A7C15ull * index));
      SchedulerFault fault;
      switch (hook_rng.below(8)) {
        case 0:
          fault.action = SchedulerFaultAction::Delay;
          fault.delay = std::chrono::milliseconds(hook_rng.below(3));
          break;
        case 1:
          fault.action = SchedulerFaultAction::Fail;
          break;
        case 2:
          fault.action = SchedulerFaultAction::CancelBeforeRun;
          break;
        case 3:
          fault.action = SchedulerFaultAction::CancelMidRun;
          break;
        default:
          break;
      }
      return fault;
    };

    const std::size_t num_jobs = 4 + rng.below(12);
    std::vector<std::size_t> combo_of_job(num_jobs);
    std::vector<std::size_t> ids;
    ids.reserve(num_jobs);
    {
      MatrixService service(options);

      // Racing canceller: a second thread cancels random job ids (some not
      // yet submitted, some long done — both must be harmless no-ops) and
      // sometimes trips the external token.
      const std::uint64_t cancel_seed = rng.next();
      const bool cancel_externally = use_external && rng.coin();
      std::thread canceller([&service, &external, cancel_seed, num_jobs,
                             cancel_externally] {
        Rng cancel_rng(cancel_seed);
        for (int round = 0; round < 8; ++round) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(cancel_rng.below(2000)));
          service.cancel(cancel_rng.below(num_jobs + 4));
        }
        if (cancel_externally) external.cancel();
      });

      for (std::size_t j = 0; j < num_jobs; ++j) {
        combo_of_job[j] = rng.below(combos.size());
        MatrixJob job;
        job.test = combos[combo_of_job[j]].test;
        job.list = list;
        job.memory_size = combos[combo_of_job[j]].memory_size;
        job.max_instances_per_fault = kCap;
        if (rng.below(4) == 0) {
          // Mix of deadlines that certainly pass and certainly don't.
          job.deadline = rng.coin() ? std::chrono::milliseconds(1)
                                    : std::chrono::seconds(60);
        }
        ids.push_back(service.submit(job).job_id);
      }
      canceller.join();

      const std::vector<MatrixJobResult> results = service.drain();
      ASSERT_EQ(results.size(), num_jobs);
      for (std::size_t j = 0; j < results.size(); ++j) {
        const MatrixJobResult& result = results[j];
        switch (result.status) {
          case JobStatus::Completed:
            EXPECT_EQ(SweepStore::encode_record(SweepKey{}, result.report),
                      reference[combo_of_job[j]])
                << "job " << j << " (from_store=" << result.from_store
                << "): a completed report diverged from the solo run";
            break;
          case JobStatus::Failed:
          case JobStatus::Cancelled:
          case JobStatus::DeadlineExceeded:
          case JobStatus::Rejected:
            EXPECT_TRUE(result.report.entries.empty())
                << "job " << j << ": " << to_string(result.status)
                << " must not carry a partial report";
            break;
          case JobStatus::Queued:
          case JobStatus::Running:
            ADD_FAILURE() << "job " << j << " not terminal after drain(): "
                          << to_string(result.status);
            break;
        }
      }
      // ~MatrixService: cancel, drain, join — the watchdog guards this too.
    }
  }
}

}  // namespace
}  // namespace mtg
