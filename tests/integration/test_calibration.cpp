// Calibration of the reconstructed fault lists against the published march
// tests — the ground truth the paper itself provides:
//
//  * March SL (41n) was published as covering ALL static linked faults; it
//    must reach 100% on our reconstructed Fault List #1.
//  * March LF1 (11n) and the paper's March ABL1 (9n) must reach 100% on
//    Fault List #2.
//  * The paper's March ABL / RABL were generated for the authors' exact
//    list; on our slightly broader constructive reconstruction they must
//    land within a fraction of a percent of full coverage.
//  * Classic tests (MATS+, March C-) must fail on linked faults — the
//    masking motivation of the paper's introduction.
#include <gtest/gtest.h>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"

namespace mtg {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simulator_ = new FaultSimulator(SimulatorOptions{5});
    list1_ = new FaultList(fault_list_1());
    list2_ = new FaultList(fault_list_2());
  }
  static void TearDownTestSuite() {
    delete simulator_;
    delete list1_;
    delete list2_;
    simulator_ = nullptr;
    list1_ = nullptr;
    list2_ = nullptr;
  }

  static FaultSimulator* simulator_;
  static FaultList* list1_;
  static FaultList* list2_;
};

FaultSimulator* CalibrationTest::simulator_ = nullptr;
FaultList* CalibrationTest::list1_ = nullptr;
FaultList* CalibrationTest::list2_ = nullptr;

TEST_F(CalibrationTest, MarchSlCoversAllStaticLinkedFaults) {
  const CoverageReport report =
      evaluate_coverage(*simulator_, march_sl(), *list1_);
  EXPECT_TRUE(report.full_coverage()) << report.summary();
}

TEST_F(CalibrationTest, MarchLf1CoversSingleCellLinkedFaults) {
  const CoverageReport report =
      evaluate_coverage(*simulator_, march_lf1(), *list2_);
  EXPECT_TRUE(report.full_coverage()) << report.summary();
}

TEST_F(CalibrationTest, MarchAbl1CoversSingleCellLinkedFaults) {
  const CoverageReport report =
      evaluate_coverage(*simulator_, march_abl1(), *list2_);
  EXPECT_TRUE(report.full_coverage()) << report.summary();
}

TEST_F(CalibrationTest, PaperGeneratedTestsNearlyCoverOurReconstruction) {
  // Our constructive enumeration is marginally broader than the authors'
  // realistic list; March ABL/RABL must stay above 98.5% fault coverage.
  const CoverageReport abl = evaluate_coverage(*simulator_, march_abl(), *list1_);
  EXPECT_GE(abl.fault_coverage_percent(), 99.0) << abl.summary();
  const CoverageReport rabl =
      evaluate_coverage(*simulator_, march_rabl(), *list1_);
  EXPECT_GE(rabl.fault_coverage_percent(), 98.5) << rabl.summary();
}

TEST_F(CalibrationTest, PaperGeneratedTestsFullyCoverSingleCellFaults) {
  EXPECT_TRUE(
      evaluate_coverage(*simulator_, march_abl(), *list2_).full_coverage());
  EXPECT_TRUE(
      evaluate_coverage(*simulator_, march_rabl(), *list2_).full_coverage());
}

TEST_F(CalibrationTest, ClassicTestsFailOnLinkedFaults) {
  // The motivation of the paper: masking defeats classic march tests.
  for (const MarchTest& test :
       {mats_plus(), march_x(), march_y(), march_c_minus(), march_u()}) {
    const CoverageReport report = evaluate_coverage(*simulator_, test, *list2_);
    EXPECT_LT(report.fault_coverage_percent(), 100.0) << report.summary();
  }
}

TEST_F(CalibrationTest, LinkedFaultTestsOutperformClassicOnListOne) {
  const double c_minus =
      evaluate_coverage(*simulator_, march_c_minus(), *list1_)
          .fault_coverage_percent();
  const double la =
      evaluate_coverage(*simulator_, march_la(), *list1_).fault_coverage_percent();
  const double sl =
      evaluate_coverage(*simulator_, march_sl(), *list1_).fault_coverage_percent();
  EXPECT_LT(c_minus, la);
  EXPECT_LT(la, sl);
  EXPECT_DOUBLE_EQ(sl, 100.0);
}

TEST_F(CalibrationTest, MarchSsCoversAllSimpleStaticFaults) {
  const FaultList simple = standard_simple_static_faults();
  const CoverageReport report =
      evaluate_coverage(*simulator_, march_ss(), simple);
  EXPECT_TRUE(report.full_coverage()) << report.summary();
  // But the 10n March C- does not (it misses WDF/DRDF-style faults).
  EXPECT_FALSE(
      evaluate_coverage(*simulator_, march_c_minus(), simple).full_coverage());
}

TEST_F(CalibrationTest, CoverageMonotoneInMemorySize) {
  // A test covering the list on n=5 also covers it on n=7 (sanity of the
  // instance enumeration; detection only depends on relative layout).
  const FaultSimulator larger(SimulatorOptions{7});
  EXPECT_TRUE(evaluate_coverage(larger, march_lf1(), *list2_).full_coverage());
  EXPECT_TRUE(evaluate_coverage(larger, march_abl1(), *list2_).full_coverage());
}

}  // namespace
}  // namespace mtg
