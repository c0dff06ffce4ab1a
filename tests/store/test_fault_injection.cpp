// The fault-injection harness for the persistent sweep store (ISSUE: the
// crash-safety acceptance bar).  A sweep is driven once against a counting
// storage to learn its operation count M, then replayed failing the k-th
// storage operation for every k ∈ [1, M], every failure shape and both
// stickiness settings, asserting two invariants:
//
//  1. coverage results are byte-identical with and without a (possibly
//     failing) store — a damaged or unavailable store only ever costs
//     recomputation, never correctness;
//  2. a store damaged mid-write is always detected, skipped, and repaired on
//     the next run — after one clean run the grid resumes fully warm.
//
// MTG_STORE_FAULT_POINTS=<n> caps the number of k values swept per
// configuration (the sanitizer CI job runs a reduced sweep); the randomized
// harness follows the differential-fuzz replay conventions: every failure
// prints its seed and MTG_FUZZ_SEED=<seed> replays exactly that case.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/march_test.hpp"
#include "sim/sweep.hpp"
#include "store/fault_injection.hpp"
#include "store/storage.hpp"
#include "store/sweep_store.hpp"

namespace mtg {
namespace {

// Small, fast, but real workload: every store code path (miss, save, hit)
// fires, and two points exercise ordering.
const std::vector<std::size_t>& workload_sizes() {
  static const std::vector<std::size_t> sizes = {6, 8};
  return sizes;
}
constexpr std::size_t kCap = 4;

SweepOptions workload_options(SweepStore* store = nullptr) {
  SweepOptions options;
  options.max_instances_per_fault = kCap;
  options.threads = 1;  // deterministic storage-operation ordering
  options.store = store;
  return options;
}

// The byte-identity yardstick: the full human-readable rendering of the
// grid, per-point summaries included (they embed names, counts, escapes).
std::string grid_string(const std::vector<SweepPoint>& points) {
  std::string out = sweep_summary(points);
  for (const SweepPoint& point : points) {
    out += point.report.summary();
    out += '\n';
  }
  return out;
}

std::string store_less_baseline(const MarchTest& test, const FaultList& list) {
  return grid_string(
      sweep_coverage(test, list, workload_sizes(), workload_options()));
}

SweepStoreOptions quiet_options(std::vector<std::string>* warnings = nullptr) {
  SweepStoreOptions options;
  options.retry_backoff = std::chrono::milliseconds{0};
  if (warnings != nullptr) {
    options.warn = [warnings](const std::string& m) { warnings->push_back(m); };
  } else {
    options.warn = [](const std::string&) {};
  }
  return options;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

// Number of storage operations one cold store-backed sweep performs — the
// size of the failure-point space the exhaustive test enumerates.
std::uint64_t measure_operation_count(const MarchTest& test,
                                      const FaultList& list) {
  InMemoryStorage mem;
  FaultInjectedStorage counting(mem);
  SweepStore store(counting, "/store", quiet_options());
  EXPECT_TRUE(store.open());
  sweep_coverage(test, list, workload_sizes(), workload_options(&store));
  return counting.counts().total();
}

const char* mode_name(StoreFaultMode mode) {
  switch (mode) {
    case StoreFaultMode::Error:
      return "Error";
    case StoreFaultMode::TornWriteError:
      return "TornWriteError";
    case StoreFaultMode::TornWriteSilent:
      return "TornWriteSilent";
  }
  return "?";
}

// One full crash-recovery scenario: fail the k-th operation during a cold
// store-backed sweep, then prove the three-run invariant chain.
void run_failure_scenario(const MarchTest& test, const FaultList& list,
                          const std::string& baseline, std::uint64_t k,
                          StoreFaultMode mode, bool sticky,
                          const std::string& label) {
  InMemoryStorage mem;
  FaultInjectedStorage faulty(mem);
  std::vector<std::string> warnings;

  // Run 1 — the fault fires somewhere inside open/load/save.  Whatever it
  // hits (including the store's own open), results must not move.
  {
    SweepStore store(faulty, "/store", quiet_options(&warnings));
    faulty.fail_kth_operation(k, mode, sticky);
    store.open();  // may fail under injection; the sweep must not care
    const auto points =
        sweep_coverage(test, list, workload_sizes(), workload_options(&store));
    ASSERT_EQ(grid_string(points), baseline)
        << label << ": a failing store changed the results";
  }

  // Run 2 — the disk "comes back".  Any record damaged by run 1 (torn
  // prefixes, silently acked half-writes) must be detected, skipped, and
  // repaired; results still identical.
  faulty.clear_fault();
  {
    SweepStore store(faulty, "/store", quiet_options(&warnings));
    ASSERT_TRUE(store.open()) << label;
    const auto points =
        sweep_coverage(test, list, workload_sizes(), workload_options(&store));
    ASSERT_EQ(grid_string(points), baseline)
        << label << ": recovery run changed the results";
    ASSERT_EQ(store.stats().save_failures, 0u)
        << label << ": recovery run could not rewrite the store";
  }

  // Run 3 — the store is now fully healed: a warm resume evaluates nothing.
  {
    SweepStore store(faulty, "/store", quiet_options(&warnings));
    ASSERT_TRUE(store.open()) << label;
    const auto points =
        sweep_coverage(test, list, workload_sizes(), workload_options(&store));
    ASSERT_EQ(sweep_points_evaluated(points), 0u)
        << label << ": store not fully repaired after a clean run";
    ASSERT_EQ(grid_string(points), baseline) << label;
  }
}

TEST(StoreFaultInjection, EveryFailurePointEveryModeKeepsResultsIdentical) {
  const MarchTest test = mats_plus();
  const FaultList list = fault_list_2();
  const std::string baseline = store_less_baseline(test, list);
  const std::uint64_t ops = measure_operation_count(test, list);
  ASSERT_GE(ops, workload_sizes().size() * 4)
      << "workload too small to exercise the store";

  // MTG_STORE_FAULT_POINTS caps the k values per configuration (sanitizer CI
  // runs a strided sweep); unset = exhaustive.
  const std::uint64_t max_points = env_u64("MTG_STORE_FAULT_POINTS", ops);
  const std::uint64_t stride =
      max_points == 0 ? 1 : (ops + max_points - 1) / max_points;

  for (const StoreFaultMode mode :
       {StoreFaultMode::Error, StoreFaultMode::TornWriteError,
        StoreFaultMode::TornWriteSilent}) {
    for (const bool sticky : {false, true}) {
      for (std::uint64_t k = 1; k <= ops; k += stride) {
        const std::string label = std::string("fail op ") + std::to_string(k) +
                                  "/" + std::to_string(ops) + " mode=" +
                                  mode_name(mode) +
                                  (sticky ? " sticky" : " transient");
        run_failure_scenario(test, list, baseline, k, mode, sticky, label);
        if (HasFatalFailure()) return;
      }
      // The boundary case k = ops (the very last operation) is always swept.
      if ((ops - 1) % stride != 0) {
        run_failure_scenario(test, list, baseline, ops, mode, sticky,
                             std::string("fail last op mode=") +
                                 mode_name(mode));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(StoreFaultInjection, RandomizedFaultScheduleKeepsInvariants) {
  // Randomized complement of the exhaustive sweep: arbitrary k (including
  // past-the-end schedules that never fire), random shape and stickiness.
  // Replay conventions match the differential fuzz harness: MTG_FUZZ_SEED
  // replays one case, MTG_FUZZ_CASES rescales the sweep.
  const MarchTest test = mats_plus();
  const FaultList list = fault_list_2();
  const std::string baseline = store_less_baseline(test, list);
  const std::uint64_t ops = measure_operation_count(test, list);

  const std::uint64_t base_seed = env_u64("MTG_FUZZ_SEED", 0);
  const bool replay_single = std::getenv("MTG_FUZZ_SEED") != nullptr;
  const std::uint64_t cases =
      replay_single ? 1 : env_u64("MTG_FUZZ_CASES", 1500) / 50;

  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = replay_single ? base_seed : 0x57DEu + i;
    // splitmix64: small, seed-stable across platforms (no std::mt19937
    // distribution variance).
    std::uint64_t state = seed;
    const auto next = [&state]() {
      state += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    const std::uint64_t k = 1 + next() % (ops + ops / 2);  // may never fire
    const StoreFaultMode mode = static_cast<StoreFaultMode>(next() % 3);
    const bool sticky = next() % 2 == 0;
    run_failure_scenario(
        test, list, baseline, k, mode, sticky,
        "seed " + std::to_string(seed) +
            " (replay: MTG_FUZZ_SEED=" + std::to_string(seed) + ")");
    if (HasFatalFailure()) return;
  }
}

TEST(StoreFaultInjection, ResumeRecomputesOnlyMissingAndCorruptPoints) {
  // The resumability contract (ISSUE satellite): punch one hole into a
  // complete grid, corrupt one record in place, and prove — by storage
  // operation counts — that the re-run recomputes exactly those two points
  // and nothing else, with a final grid byte-identical to store-less.
  const MarchTest test = mats_plus();
  const FaultList list = fault_list_2();
  const std::vector<std::size_t> sizes = {6, 8, 12, 16};

  SweepOptions options = workload_options();
  const std::string baseline =
      grid_string(sweep_coverage(test, list, sizes, options));

  InMemoryStorage mem;
  FaultInjectedStorage counting(mem);

  SweepKey key;
  key.test_hash = stable_hash(test);
  key.list_hash = stable_hash(list);
  key.max_instances_per_fault = kCap;

  std::string dropped_path, corrupted_path;
  {
    SweepStore store(counting, "/store", quiet_options());
    ASSERT_TRUE(store.open());
    options.store = &store;
    const auto points = sweep_coverage(test, list, sizes, options);
    ASSERT_EQ(sweep_points_evaluated(points), sizes.size());
    ASSERT_EQ(grid_string(points), baseline);
    ASSERT_EQ(store.stats().saves, sizes.size());

    // Drop the n=8 record entirely...
    key.memory_size = 8;
    dropped_path = store.record_path(key);
    ASSERT_TRUE(store.remove(key));
    // ...and flip one byte of the n=12 record in place (bit rot / torn tail).
    key.memory_size = 12;
    corrupted_path = store.record_path(key);
    std::string& record = mem.files().at(corrupted_path);
    record[record.size() - 1] = static_cast<char>(record.back() ^ 0x40);
  }

  counting.reset_counts();
  {
    SweepStore store(counting, "/store", quiet_options());
    ASSERT_TRUE(store.open());
    options.store = &store;
    const auto points = sweep_coverage(test, list, sizes, options);

    // Exactly the missing and the corrupt point were recomputed.
    EXPECT_EQ(sweep_points_evaluated(points), 2u);
    EXPECT_TRUE(points[0].from_store) << "n=6 should be a hit";
    EXPECT_TRUE(points[3].from_store) << "n=16 should be a hit";
    EXPECT_EQ(grid_string(points), baseline);

    const SweepStoreStats stats = store.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.corrupt_records, 1u);

    // The operation counts agree: one probe per point, one full
    // write-sync-rename per recomputed point, one repair removal.
    const StorageOpCounts counts = counting.counts();
    EXPECT_EQ(counts.open_dirs, 1u);
    EXPECT_EQ(counts.reads, sizes.size());
    EXPECT_EQ(counts.writes, 2u);
    EXPECT_EQ(counts.syncs, 2u);
    EXPECT_EQ(counts.renames, 2u);
    EXPECT_EQ(counts.removes, 1u);
    EXPECT_EQ(mem.files().count(dropped_path), 1u) << "hole not refilled";
    EXPECT_EQ(mem.files().count(corrupted_path), 1u) << "record not repaired";
  }

  // Fully warm now: zero evaluations, zero writes.
  counting.reset_counts();
  {
    SweepStore store(counting, "/store", quiet_options());
    ASSERT_TRUE(store.open());
    options.store = &store;
    const auto points = sweep_coverage(test, list, sizes, options);
    EXPECT_EQ(sweep_points_evaluated(points), 0u);
    EXPECT_EQ(grid_string(points), baseline);
    EXPECT_EQ(counting.counts().writes, 0u);
  }
}

TEST(StoreFaultInjection, StoreBackedSweepIsByteIdenticalAcrossThreadCounts) {
  // The store must not break the sweep's thread-count independence: pool
  // workers save/load concurrently, results land in size-list order.  The
  // cold pass fills the store and the warm pass answers every point from
  // it, once in memory and once on a real filesystem.
  const MarchTest test = mats_plus();
  const FaultList list = fault_list_2();
  const std::vector<std::size_t> sizes = {6, 8, 12, 16, 20, 24};

  SweepOptions options = workload_options();
  const std::string baseline =
      grid_string(sweep_coverage(test, list, sizes, options));

  InMemoryStorage mem;
  PosixStorage posix;
  const std::string posix_root = testing::TempDir() + "mtg_sweep_store_" +
                                 std::to_string(::getpid());
  std::filesystem::remove_all(posix_root);
  const std::pair<Storage*, std::string> inputs[] = {{&mem, "/store"},
                                                     {&posix, posix_root}};
  for (const auto& [storage, root] : inputs) {
    SCOPED_TRACE(root);
    SweepStore store(*storage, root, quiet_options());
    ASSERT_TRUE(store.open());
    options.store = &store;
    options.threads = 4;
    const auto cold = sweep_coverage(test, list, sizes, options);
    EXPECT_EQ(sweep_points_evaluated(cold), sizes.size());
    EXPECT_EQ(grid_string(cold), baseline);

    const auto warm = sweep_coverage(test, list, sizes, options);
    EXPECT_EQ(sweep_points_evaluated(warm), 0u);
    EXPECT_EQ(grid_string(warm), baseline);
  }
  std::filesystem::remove_all(posix_root);
}

}  // namespace
}  // namespace mtg
