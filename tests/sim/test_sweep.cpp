// The memory-size sweep workload (sim/sweep.hpp) and the lifted n <= 64
// ceiling: multi-word scalar/packed agreement, deterministic bounded
// instantiation, and sweep results that are byte-identical for every thread
// count.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/fault_instance.hpp"
#include "coverage_helpers.hpp"

namespace mtg {
namespace {

SimulatorOptions options_for(std::size_t n) {
  SimulatorOptions options;
  options.memory_size = n;
  return options;
}

std::string points_string(const std::vector<SweepPoint>& points) {
  std::string out = sweep_summary(points);
  for (const SweepPoint& point : points) out += point.report.summary() + "\n";
  return out;
}

TEST(Sweep, MatchesDirectCoverageEvaluation) {
  const MarchTest test = march_c_minus();  // partial coverage: real escapes
  const FaultList list = fault_list_2();
  SweepOptions options;
  options.max_instances_per_fault = 0;  // full enumeration at these sizes
  const std::vector<std::size_t> sizes = {4, 6};
  const std::vector<SweepPoint> points = sweep_coverage(test, list, sizes, options);
  ASSERT_EQ(points.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(points[i].memory_size, sizes[i]);
    const CoverageReport direct =
        evaluate_coverage(FaultSimulator(options_for(sizes[i])), test, list);
    EXPECT_EQ(points[i].report.summary(), direct.summary()) << "n=" << sizes[i];
  }
}

TEST(Sweep, ByteIdenticalAcrossThreadCounts) {
  const MarchTest test = march_sl();
  const FaultList list = fault_list_2();
  const std::vector<std::size_t> sizes = {4, 6, 70, 130};

  SweepOptions reference_options;
  reference_options.max_instances_per_fault = 48;
  reference_options.threads = 1;
  const std::string reference = points_string(
      sweep_coverage(test, list, sizes, reference_options));

  const std::size_t hardware = std::thread::hardware_concurrency();
  for (const std::size_t threads :
       {std::size_t{2}, hardware == 0 ? std::size_t{4} : hardware}) {
    SweepOptions options = reference_options;
    options.threads = threads;
    EXPECT_EQ(points_string(sweep_coverage(test, list, sizes, options)),
              reference)
        << "threads=" << threads;
  }
}

TEST(Sweep, MultiWordSizesRunAndCover) {
  // March SL fully covers Fault List #2 and detection depends only on the
  // relative order of the involved cells, so the sweep must report full
  // coverage at every n — including far beyond one 64-bit word.
  SweepOptions options;
  options.max_instances_per_fault = 32;
  const std::vector<SweepPoint> points = sweep_coverage(
      march_sl(), fault_list_2(), {64, 256, 4096, 65536}, options);
  for (const SweepPoint& point : points) {
    EXPECT_TRUE(point.report.full_coverage()) << "n=" << point.memory_size;
    for (const CoverageEntry& entry : point.report.entries) {
      EXPECT_GE(entry.instances, 1u);
      EXPECT_LE(entry.instances, 32u);
    }
  }
}

TEST(Sweep, RejectsTooSmallSizes) {
  EXPECT_THROW(
      sweep_coverage(march_sl(), standard_simple_static_faults(), {4, 2}),
      Error);
}

TEST(Sweep, EmptySizeListYieldsNoPoints) {
  EXPECT_TRUE(
      sweep_coverage(march_sl(), standard_simple_static_faults(), {}).empty());
}

// --- bounded instantiation ---------------------------------------------------

TEST(BoundedInstantiation, UncappedAndSmallMemoriesAreUnchanged) {
  const FaultList list = standard_simple_static_faults();
  const auto full = instantiate_all(list, 5);
  const auto capped = instantiate_all(list, 5, 1000);  // above every count
  ASSERT_EQ(capped.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(capped[i].description, full[i].description);
  }
}

TEST(BoundedInstantiation, CapsEveryFaultDeterministically) {
  const FaultList list = fault_list_2();
  const auto a = instantiate_all(list, 500, 64);
  const auto b = instantiate_all(list, 500, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].description, b[i].description);
    EXPECT_EQ(a[i].fault_index, b[i].fault_index);
  }
  // Per-fault counts respect the cap.
  std::vector<std::size_t> per_fault(fault_count(list), 0);
  for (const FaultInstance& inst : a) ++per_fault[inst.fault_index];
  for (std::size_t f = 0; f < per_fault.size(); ++f) {
    EXPECT_GE(per_fault[f], 1u) << fault_name(list, f);
    EXPECT_LE(per_fault[f], 64u) << fault_name(list, f);
  }
}

TEST(BoundedInstantiation, SampleIncludesBothBoundaryLayouts) {
  // The lowest ({0..k-1}) and highest ({n-k..n-1}) layouts anchor the
  // sample: march address-order corner cases live at the memory boundary.
  FaultList list;
  list.name = "cfds only";
  list.simple.push_back(SimpleFault::coupled(
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero),
      /*aggressor_below=*/true));
  const std::size_t n = 5000;  // C(5000, 2) >> 4 * 16: the sampled branch
  const auto instances = instantiate_all(list, n, 16);
  ASSERT_LE(instances.size(), 16u);
  bool lowest = false, highest = false;
  for (const FaultInstance& inst : instances) {
    std::size_t lo = inst.fps[0].a_cell, hi = inst.fps[0].v_cell;
    if (lo > hi) std::swap(lo, hi);
    if (lo == 0 && hi == 1) lowest = true;
    if (lo == n - 2 && hi == n - 1) highest = true;
  }
  EXPECT_TRUE(lowest);
  EXPECT_TRUE(highest);
}

// --- multi-word scalar/packed agreement -------------------------------------

TEST(MultiWord, ScalarAndPackedAgreeAtN200) {
  // detects_scalar works at n = 200 and matches the packed engine bit for
  // bit, including for instances bound at the far memory boundary.
  const std::size_t n = 200;
  const FaultSimulator simulator(options_for(n));
  const FaultList list = fault_list_2();
  const auto instances = instantiate_all(list, n, 6);
  ASSERT_FALSE(instances.empty());
  for (const MarchTest& test : {march_sl(), mats_plus()}) {
    for (const FaultInstance& inst : instances) {
      EXPECT_EQ(simulator.detects(test, inst),
                simulator.detects_scalar(test, inst))
          << test.name() << " / " << inst.description;
    }
  }
}

TEST(MultiWord, SimulateDiagnosticsAgreeAtN150) {
  // Every scenario's verdict at n = 150: the packed block's detected lanes
  // against run_scenario for each power-on × ⇕ mask.
  const std::size_t n = 150;
  const FaultSimulator simulator(options_for(n));
  const MarchTest test = march_c_minus();  // escapes exist: both branches
  for (const FaultInstance& inst :
       instantiate_all(standard_simple_static_faults(), n, 4)) {
    EXPECT_EQ(packed_detected_words(test, PackedFaultSim(inst)),
              scalar_detected_words(simulator, test, inst))
        << inst.description;
  }
}

}  // namespace
}  // namespace mtg
