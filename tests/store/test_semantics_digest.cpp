// Semantics digest: one stable_hash64 over the canonical bytes (the store's
// record codec) of every coverage report of a fixed grid — every catalog
// test × every built-in fault list × n ∈ {4, 6, 64, 4096}, uncapped at
// n ≤ 6 and capped at 256 above.  The golden is pinned next to
// kSweepStoreEngineVersion: a change of coverage semantics moves the digest,
// and stored records from the old engine would be served stale unless the
// version is bumped with it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"
#include "store/sweep_store.hpp"

namespace mtg {
namespace {

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t semantics_digest() {
  const std::vector<FaultList> lists = {
      fault_list_1(), fault_list_2(), standard_simple_static_faults(),
      retention_fault_list(), decoder_fault_list()};
  std::string bytes;
  for (const MarchTest& test : all_catalog_tests()) {
    for (const FaultList& list : lists) {
      for (const std::size_t n : {4, 6, 64, 4096}) {
        const std::size_t cap = n <= 6 ? 0 : 256;
        SimulatorOptions options;
        options.memory_size = n;
        const CoverageReport report = evaluate_coverage(
            FaultSimulator(options), test, list, cap);
        SweepKey key;
        key.test_hash = stable_hash(test);
        key.list_hash = stable_hash(list);
        key.memory_size = n;
        key.max_instances_per_fault = cap;
        // The digest describes report content, not the version label.
        key.engine_version = 0;
        bytes += SweepStore::encode_record(key, report);
      }
    }
  }
  return stable_hash64(bytes);
}

TEST(CoverageSemanticsDigest, MatchesThePinnedGolden) {
  const std::uint64_t digest = semantics_digest();
  ASSERT_EQ(kSweepStoreEngineVersion, kSweepStoreSemanticsDigestVersion)
      << "kSweepStoreEngineVersion moved: re-pin kSweepStoreSemanticsDigest "
         "(now "
      << hex(digest) << ") and kSweepStoreSemanticsDigestVersion with it";
  EXPECT_EQ(digest, kSweepStoreSemanticsDigest)
      << "coverage reports changed (digest " << hex(digest) << ", pinned "
      << hex(kSweepStoreSemanticsDigest)
      << "): bump kSweepStoreEngineVersion, then re-pin the digest";
}

}  // namespace
}  // namespace mtg
