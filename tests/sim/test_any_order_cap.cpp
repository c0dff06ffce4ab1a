// The ⇕ cap (kMaxAnyOrderElements): every entry point that simulates or
// certifies a test rejects one with more ⇕ elements than the cap, with the
// simulator's message, and accepts one at the cap.  The scenario set of a
// test is 2 · 2^⇕ lanes, so the cap is what guards user input against an
// exponential blow-up.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/lint.hpp"
#include "common/error.hpp"
#include "fp/fault_list.hpp"
#include "march/parser.hpp"
#include "service/matrix_service.hpp"
#include "sim/coverage.hpp"
#include "sim/prefix_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace mtg {
namespace {

constexpr char kCapMessage[] =
    "too many ⇕ elements to enumerate order assignments";
constexpr std::size_t kN = 4;

/// A valid test of `count` ⇕ elements: ⇕(w0), then ⇕(r0,w1,r1,w0) repeated.
MarchTest any_order_test(std::size_t count) {
  std::string notation = "{c(w0)";
  for (std::size_t i = 1; i < count; ++i) notation += "; c(r0,w1,r1,w0)";
  return parse_march_test(notation + "}",
                          std::to_string(count) + " any-order elements");
}

/// Every capped entry point, run on `test`; `check` receives each one's
/// name and a callable that runs it.
template <typename Check>
void for_each_entry_point(const MarchTest& test, Check&& check) {
  const FaultList list = fault_list_2();
  const FaultSimulator simulator(SimulatorOptions{kN});
  const FaultInstance instance = instantiate_all(list, kN).front();
  check("detects", [&] { simulator.detects(test, instance); });
  check("detects_scalar", [&] { simulator.detects_scalar(test, instance); });
  check("evaluate_coverage",
        [&] { evaluate_coverage(simulator, test, list); });
  check("sweep_coverage", [&] {
    SweepOptions options;
    options.threads = 1;
    sweep_coverage(test, list, {kN}, options);
  });
  check("PrefixEngine", [&] {
    const PrefixEngine engine(kN, behaviour_classes(list, kN), test,
                              /*record_checkpoints=*/false);
    EXPECT_GT(engine.num_instances(), 0u);
  });
  check("lint_march_test", [&] {
    LintOptions options;
    options.memory_size = kN;
    lint_march_test(test, list, options);
  });
  check("optimize_suite", [&] {
    MarchSuite suite;
    suite.tests.push_back(test);
    optimize_suite(suite, list, "", kN);
  });
  check("MatrixService", [&] {
    MatrixServiceOptions options;
    options.threads = 1;
    MatrixService service(options);
    MatrixJob job;
    job.test = test;
    job.list = std::make_shared<const FaultList>(list);
    job.memory_size = kN;
    const MatrixJobResult result = service.wait(service.submit(job).job_id);
    if (result.status == JobStatus::Failed) throw Error(result.error);
    ASSERT_EQ(result.status, JobStatus::Completed);
  });
}

TEST(AnyOrderCap, OneElementPastTheCapIsRejectedEverywhere) {
  const MarchTest test = any_order_test(kMaxAnyOrderElements + 1);
  ASSERT_EQ(FaultSimulator::any_order_count(test), 11u);
  for_each_entry_point(test, [](const char* where, const auto& run) {
    try {
      run();
      ADD_FAILURE() << where << " accepted " << kMaxAnyOrderElements + 1
                    << " ⇕ elements";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(kCapMessage), std::string::npos)
          << where << ": " << e.what();
    }
  });
}

TEST(AnyOrderCap, TheCapItselfIsAccepted) {
  const MarchTest test = any_order_test(kMaxAnyOrderElements);
  ASSERT_EQ(FaultSimulator::any_order_count(test), 10u);
  for_each_entry_point(test, [](const char* where, const auto& run) {
    EXPECT_NO_THROW(run()) << where;
  });
  // The certificate optimize_suite writes for it verifies.
  MarchSuite suite;
  suite.tests.push_back(test);
  const FaultList list = fault_list_2();
  const Certificate cert = optimize_suite(suite, list, "", kN);
  const CertificateCheck check = verify_certificate(cert, list);
  EXPECT_TRUE(check.ok) << check.summary();
}

}  // namespace
}  // namespace mtg
