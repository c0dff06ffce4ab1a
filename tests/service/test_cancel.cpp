// CancelToken unit tests plus the cooperative-cancellation contract of the
// evaluation engines: a tripped token stops evaluate_coverage/sweep_coverage
// in bounded time, the first cause wins and sticks, and an interrupted
// computation never yields a partial report — completed sweep points stay
// byte-identical to an uninterrupted run.
#include "common/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_store.hpp"
#include "../sim/coverage_helpers.hpp"

namespace mtg {
namespace {

TEST(CancelToken, StartsLiveAndLatchesCancel) {
  CancelToken token;
  EXPECT_EQ(token.cause(), CancelCause::None);
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());

  token.cancel();
  EXPECT_EQ(token.cause(), CancelCause::Cancelled);
  EXPECT_TRUE(token.cancelled());
  try {
    token.check();
    FAIL() << "check() must throw once the token tripped";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cause(), CancelCause::Cancelled);
  }
}

TEST(CancelToken, FirstCauseWins) {
  // Explicit cancel first: the deadline passing later must not rewrite it.
  CancelToken token;
  token.cancel();
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(token.cause(), CancelCause::Cancelled);

  // Deadline first: a later cancel() must not rewrite it either.
  CancelToken expired;
  expired.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
  EXPECT_EQ(expired.cause(), CancelCause::DeadlineExceeded);
  expired.cancel();
  EXPECT_EQ(expired.cause(), CancelCause::DeadlineExceeded);
}

TEST(CancelToken, ZeroBudgetMeansNoDeadline) {
  CancelToken token;
  token.set_deadline_after(std::chrono::milliseconds(0));
  EXPECT_EQ(token.cause(), CancelCause::None);
}

TEST(CancelToken, DeadlineTripsAfterTheBudget) {
  CancelToken token;
  token.set_deadline_after(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(token.cause(), CancelCause::DeadlineExceeded);
}

TEST(CancelToken, ChildTripsWithParent) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_EQ(child.cause(), CancelCause::Cancelled);
  // The child latched: it stays tripped even if queried again.
  EXPECT_TRUE(child.cancelled());
}

TEST(CancelToken, ChildKeepsItsOwnCause) {
  CancelToken parent;
  CancelToken child(&parent);
  child.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(child.cause(), CancelCause::DeadlineExceeded);
  EXPECT_EQ(parent.cause(), CancelCause::None);  // never propagates upward
  parent.cancel();
  EXPECT_EQ(child.cause(), CancelCause::DeadlineExceeded);  // latched
}

TEST(CancelToken, GrandparentChainTrips) {
  CancelToken grandparent;
  CancelToken parent(&grandparent);
  CancelToken child(&parent);
  grandparent.cancel();
  EXPECT_TRUE(child.cancelled());
}

// --- the engines' cooperative-cancellation contract -------------------------

TEST(CancelEvaluate, PreCancelledTokenThrowsBeforeEvaluating) {
  CancelToken token;
  token.cancel();
  SimulatorOptions options;
  options.memory_size = 6;
  options.coverage_threads = 1;
  EXPECT_THROW(evaluate_coverage(FaultSimulator(options), march_sl(),
                                 fault_list_1(), 0, &token),
               CancelledError);
}

TEST(CancelEvaluate, DeadlineInterruptsMidEvaluationInBoundedTime) {
  // A workload that takes well over the deadline (hundreds of milliseconds
  // even on fast hardware) must stop a few chunks after the deadline
  // passes — and produce no report at all.
  CancelToken token;
  token.set_deadline_after(std::chrono::milliseconds(1));
  SimulatorOptions options;
  options.memory_size = 4096;
  options.coverage_threads = 2;
  const FaultList list = slow_coverage_list();
  const auto start = std::chrono::steady_clock::now();
  try {
    evaluate_coverage(FaultSimulator(options), slow_coverage_test(), list, 0,
                      &token);
    FAIL() << "a 1ms deadline must interrupt a multi-ten-ms evaluation";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cause(), CancelCause::DeadlineExceeded);
  }
  // Bounded-latency assertion, deliberately generous for loaded CI machines:
  // the poll happens every chunk (16 classes), so even slow hardware stops
  // orders of magnitude below an uncancelled run.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);
}

TEST(CancelEvaluate, CancelFromAnotherThreadStopsTheEvaluation) {
  const FaultList list = slow_coverage_list();
  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.cancel();
  });
  SimulatorOptions options;
  options.memory_size = 4096;
  options.coverage_threads = 2;
  bool interrupted = false;
  CancelCause cause = CancelCause::None;
  try {
    evaluate_coverage(FaultSimulator(options), slow_coverage_test(), list, 0,
                      &token);
  } catch (const CancelledError& e) {
    interrupted = true;
    cause = e.cause();
  }
  canceller.join();  // before any assertion that could return early
  EXPECT_TRUE(interrupted) << "the cancel must land mid-evaluation";
  EXPECT_EQ(cause, CancelCause::Cancelled);
}

TEST(CancelSweep, PreCancelledTokenMarksEveryPointCancelled) {
  CancelToken token;
  token.cancel();
  SweepOptions options;
  options.cancel = &token;
  options.threads = 2;
  const auto points =
      sweep_coverage(march_sl(), fault_list_1(), {4, 5, 6}, options);
  ASSERT_EQ(points.size(), 3u);
  for (const SweepPoint& point : points) {
    EXPECT_TRUE(point.cancelled);
    EXPECT_TRUE(point.report.entries.empty()) << "no partial reports";
  }
}

TEST(CancelSweep, CompletedPointsStayByteIdentical) {
  // Reference run: no cancellation.  List 2 keeps the per-point cost in the
  // milliseconds while the growing sizes still give the racing cancel a
  // mid-sweep window to land in.
  SweepOptions plain;
  plain.threads = 1;
  const std::vector<std::size_t> sizes = {64, 128, 256, 512, 1024, 2048};
  const auto reference = sweep_coverage(march_sl(), fault_list_2(), sizes,
                                        plain);

  // Interrupted run: a racing cancel lands at an arbitrary point boundary.
  CancelToken token;
  SweepOptions interrupted;
  interrupted.threads = 1;
  interrupted.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    token.cancel();
  });
  const auto points = sweep_coverage(march_sl(), fault_list_2(), sizes,
                                     interrupted);
  canceller.join();

  // Whatever completed must match the reference byte for byte (the store
  // codec is the byte-level serialization of a report); whatever didn't must
  // be absent, not partial.
  const SweepKey key;  // any fixed key: only the payload bytes matter
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].cancelled) {
      EXPECT_TRUE(points[i].report.entries.empty());
      continue;
    }
    EXPECT_EQ(SweepStore::encode_record(key, points[i].report),
              SweepStore::encode_record(key, reference[i].report))
        << "point " << i;
  }
}

}  // namespace
}  // namespace mtg
