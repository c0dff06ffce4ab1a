// Exhaustive unit tests of the packed engine's scenario word helpers
// (sim/packed_engine.hpp) against a naive per-scenario enumeration, plus the
// lane-word popcount (popcount64, common/bit.hpp) and its portable
// (builtin-free) twin.
//
// The naive reference restates the lane layout of the engine's file comment
// from scratch: scenario sc = power_on · combos + order_mask lives in lane
// (sc mod 64) of block (sc div 64); ⇕ element `ordinal` runs Down in sc iff
// bit `ordinal` of (sc mod combos).  Every block boundary case is covered:
// partial final blocks (total < a multiple of 64), blocks starting exactly
// at `combos`, blocks crossing `combos` mid-word, and ordinals >= 6 (where
// the ⇓ pattern is constant across a block instead of alternating).
#include <gtest/gtest.h>

#include "march/march_element.hpp"
#include "sim/packed_engine.hpp"

namespace mtg {
namespace {

TEST(ScenarioWords, MatchNaiveEnumerationExhaustively) {
  // any_count 0..8 → combos 1..256; with both power-on polarities the
  // scenario sets span sub-word totals (partial single block), exact single
  // blocks, and multi-block sets where `combos` falls on and off block
  // boundaries.
  for (std::size_t any_count = 0; any_count <= 8; ++any_count) {
    const std::size_t combos = std::size_t{1} << any_count;
    for (const std::size_t power_ons : {std::size_t{1}, std::size_t{2}}) {
      const std::size_t total = power_ons * combos;
      for (std::size_t base = 0; base < total + 64; base += 64) {
        const std::uint64_t active = scenario_active_word(base, total);
        const std::uint64_t power1 = scenario_power1_word(base, combos);
        for (std::size_t lane = 0; lane < 64; ++lane) {
          const std::size_t sc = base + lane;
          ASSERT_EQ((active >> lane) & 1u, sc < total ? 1u : 0u)
              << "active: combos=" << combos << " total=" << total
              << " base=" << base << " lane=" << lane;
          if (sc >= total) continue;  // power1/down only read under `active`
          if (power_ons == 2) {
            ASSERT_EQ((power1 >> lane) & 1u, sc >= combos ? 1u : 0u)
                << "power1: combos=" << combos << " base=" << base
                << " lane=" << lane;
          }
          const std::size_t order_mask = sc % combos;
          for (std::size_t ordinal = 0; ordinal < any_count; ++ordinal) {
            const std::uint64_t down =
                scenario_down_word(base, combos, ordinal);
            ASSERT_EQ((down >> lane) & 1u, (order_mask >> ordinal) & 1u)
                << "down: combos=" << combos << " base=" << base
                << " lane=" << lane << " ordinal=" << ordinal;
          }
        }
      }
    }
  }
}

TEST(ScenarioWords, ElementDownWordFollowsTheOrder) {
  const MarchElement up(AddressOrder::Up, {Op::R0});
  const MarchElement down(AddressOrder::Down, {Op::R0});
  const MarchElement any(AddressOrder::Any, {Op::R0});
  const std::size_t combos = 256;  // any_count = 8, ordinals 6 and 7 live
  for (std::size_t base = 0; base < 2 * combos; base += 64) {
    EXPECT_EQ(element_down_word(up, -1, base, combos), std::uint64_t{0});
    EXPECT_EQ(element_down_word(down, -1, base, combos), ~std::uint64_t{0});
    for (const int ordinal : {0, 5, 6, 7}) {
      EXPECT_EQ(element_down_word(any, ordinal, base, combos),
                scenario_down_word(base, combos,
                                   static_cast<std::size_t>(ordinal)));
    }
  }
}

TEST(LaneWords, HelpersMatchTheirPortableTwins) {
  // The portable branches used to be dead code in CI; exercise them
  // directly against the builtin-backed versions over single bits, dense
  // words, and mixed patterns.
  std::uint64_t patterns[] = {0,
                              1,
                              0x8000000000000000ull,
                              ~std::uint64_t{0},
                              0xAAAAAAAAAAAAAAAAull,
                              0x5555555555555555ull,
                              0xDEADBEEFCAFEF00Dull,
                              0xFFFF0000FFFF0000ull};
  for (std::size_t bit = 0; bit < 64; ++bit) {
    const std::uint64_t word = std::uint64_t{1} << bit;
    EXPECT_EQ(popcount64(word), 1u);
    EXPECT_EQ(popcount64_portable(word), 1u);
  }
  for (const std::uint64_t word : patterns) {
    EXPECT_EQ(popcount64_portable(word), popcount64(word));
  }
}

}  // namespace
}  // namespace mtg
