// Unknown-domain elimination: the symbolic analyzer must resolve every
// (catalog test, built-in list) pair — and every shipped example catalog —
// to a definite verdict.  Unknown is reserved for genuinely out-of-domain
// machines (> 4 involved cells or bound FPs, decoder+FP in one instance);
// nothing the repo ships is allowed to hit those exits.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/static_analyzer.hpp"
#include "format/catalog_io.hpp"
#include "format/fault_list_text.hpp"
#include "format/suite_text.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"

namespace mtg {
namespace {

std::vector<std::pair<std::string, FaultList>> builtin_lists() {
  return {{"list1", fault_list_1()},
          {"list2", fault_list_2()},
          {"simple", standard_simple_static_faults()},
          {"retention", retention_fault_list()},
          {"decoder", decoder_fault_list()}};
}

std::filesystem::path example_catalog_dir() {
  return std::filesystem::path(MTG_TESTS_SOURCE_DIR) / ".." / "examples" /
         "catalogs";
}

TEST(ZeroUnknown, EveryCatalogTestResolvesEveryBuiltinList) {
  // Memory sizes bracket the domain: the smallest the linked3 faults fit,
  // the default, one multi-word size, and one large enough that any
  // accidental n-dependence in the state walk would show.
  const std::size_t sizes[] = {4, 6, 64, 4096};
  for (const MarchTest& test : all_catalog_tests()) {
    for (const auto& [list_name, list] : builtin_lists()) {
      for (const std::size_t n : sizes) {
        const StaticCoverage coverage = analyze_coverage(test, list, n);
        EXPECT_EQ(coverage.unknown, 0u)
            << test.name() << " vs " << list_name << " at n=" << n;
        for (const StaticCoverageEntry& entry : coverage.entries) {
          if (entry.verdict == StaticVerdict::Unknown) {
            ADD_FAILURE() << test.name() << " vs " << list_name << " at n="
                          << n << ": " << entry.fault_name << " — "
                          << entry.reason;
          }
        }
      }
    }
  }
}

TEST(ZeroUnknown, ShippedExampleCatalogsResolveDefinitely) {
  const MarchSuite suite = load_march_suite_file(
      (example_catalog_dir() / "classic.suite").string());
  ASSERT_GT(suite.size(), 0u);
  const FaultList custom = load_fault_list_file(
      (example_catalog_dir() / "custom_static.faults").string());
  ASSERT_GT(custom.size(), 0u);

  auto lists = builtin_lists();
  lists.emplace_back("custom_static.faults", custom);
  for (const MarchTest& test : suite.tests) {
    for (const auto& [list_name, list] : lists) {
      for (const std::size_t n : {std::size_t{6}, std::size_t{64}}) {
        const StaticCoverage coverage = analyze_coverage(test, list, n);
        EXPECT_EQ(coverage.unknown, 0u)
            << test.name() << " vs " << list_name << " at n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace mtg
