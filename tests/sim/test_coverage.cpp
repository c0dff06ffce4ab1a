#include "sim/coverage.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/error.hpp"
#include "coverage_helpers.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "memory/pattern_graph.hpp"

namespace mtg {
namespace {

FaultList small_list() {
  FaultList list;
  list.name = "small";
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::Zero)));
  list.simple.push_back(SimpleFault::single(FaultPrimitive::wdf(Bit::Zero)));
  list.linked.push_back(disturb_coupling_linked_fault());
  return list;
}

TEST(Coverage, FullCoverageReport) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const CoverageReport report =
      evaluate_coverage(simulator, march_sl(), small_list());
  EXPECT_TRUE(report.full_coverage());
  EXPECT_EQ(report.faults_total(), 3u);
  EXPECT_EQ(report.faults_covered(), 3u);
  EXPECT_DOUBLE_EQ(report.fault_coverage_percent(), 100.0);
  EXPECT_DOUBLE_EQ(report.instance_coverage_percent(), 100.0);
  EXPECT_TRUE(report.missed_faults().empty());
  EXPECT_EQ(report.test_complexity, 41u);
}

TEST(Coverage, PartialCoverageIdentifiesMisses) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const CoverageReport report =
      evaluate_coverage(simulator, mats_plus(), small_list());
  EXPECT_FALSE(report.full_coverage());
  // MATS+ has no non-transition writes: WDF0 escapes; the linked CF also
  // escapes one of its orders.
  const auto missed = report.missed_faults();
  EXPECT_FALSE(missed.empty());
  bool wdf_missed = false;
  for (const std::string& name : missed) {
    if (name == "WDF0 [v]") wdf_missed = true;
  }
  EXPECT_TRUE(wdf_missed);
  for (const CoverageEntry& entry : report.entries) {
    if (!entry.covered) {
      EXPECT_FALSE(entry.escape_description.empty()) << entry.fault;
    }
    EXPECT_LE(entry.detected, entry.instances);
  }
}

TEST(Coverage, InstanceAccounting) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const CoverageReport report =
      evaluate_coverage(simulator, march_sl(), small_list());
  // 4 + 4 single-cell instances, C(4,2) = 6 linked instances.
  EXPECT_EQ(report.instances_total(), 4u + 4u + 6u);
  EXPECT_EQ(report.instances_detected(), report.instances_total());
}

TEST(Coverage, SummaryMentionsTestAndList) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const CoverageReport report =
      evaluate_coverage(simulator, march_sl(), small_list());
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("March SL"), std::string::npos);
  EXPECT_NE(summary.find("small"), std::string::npos);
  EXPECT_NE(summary.find("41n"), std::string::npos);
}

TEST(Coverage, RejectsInvalidTests) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const MarchTest invalid = parse_march_test("{c(r0,w0)}", "bad");
  EXPECT_THROW(evaluate_coverage(simulator, invalid, small_list()), Error);
}

TEST(Coverage, EmptyListReportsZeroNotVacuousFull) {
  // The divide-by-empty convention used to claim 100% coverage / full
  // coverage for an *empty* fault list; an empty report now says so
  // explicitly and reports 0%.
  const FaultSimulator simulator(SimulatorOptions{4});
  FaultList empty;
  empty.name = "empty";
  const CoverageReport report =
      evaluate_coverage(simulator, mats_plus(), empty);
  EXPECT_TRUE(report.empty());
  EXPECT_FALSE(report.full_coverage());
  EXPECT_DOUBLE_EQ(report.fault_coverage_percent(), 0.0);
  EXPECT_DOUBLE_EQ(report.instance_coverage_percent(), 0.0);
  EXPECT_NE(report.summary().find("empty fault list"), std::string::npos)
      << report.summary();
}

void expect_same_report(const CoverageReport& a, const CoverageReport& b,
                        const std::string& label) {
  ASSERT_EQ(a.entries.size(), b.entries.size()) << label;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const CoverageEntry& x = a.entries[i];
    const CoverageEntry& y = b.entries[i];
    EXPECT_EQ(x.fault_index, y.fault_index) << label << " entry " << i;
    EXPECT_EQ(x.fault, y.fault) << label << " entry " << i;
    EXPECT_EQ(x.instances, y.instances) << label << " entry " << i;
    EXPECT_EQ(x.detected, y.detected) << label << " entry " << i;
    EXPECT_EQ(x.covered, y.covered) << label << " entry " << i;
    EXPECT_EQ(x.escape_description, y.escape_description)
        << label << " entry " << i;
  }
  EXPECT_EQ(a.summary(), b.summary()) << label;
}

TEST(Coverage, DeterministicAcrossThreadCounts) {
  // The coverage matrix must be identical for every worker count — counts,
  // per-fault verdicts and the reported first escaping instance alike —
  // and must match the sequential scalar oracle.
  const MarchTest test = march_c_minus();  // partial coverage: real escapes
  const FaultList list = fault_list_2();

  SimulatorOptions scalar_options;
  scalar_options.memory_size = 6;
  const CoverageReport reference = evaluate_coverage_per_instance(
      FaultSimulator(scalar_options), test, list, 0, /*scalar=*/true);
  EXPECT_FALSE(reference.full_coverage());

  const std::size_t hardware = std::thread::hardware_concurrency();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              hardware == 0 ? std::size_t{4} : hardware}) {
    SimulatorOptions options;
    options.memory_size = 6;
    options.coverage_threads = threads;
    const CoverageReport report =
        evaluate_coverage(FaultSimulator(options), test, list);
    expect_same_report(reference, report,
                       "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace mtg
