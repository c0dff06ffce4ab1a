// Validated CLI number parsing (common/parse.hpp), shared by mtg_cli and
// bench_coverage_matrix.
#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"

namespace mtg {
namespace {

TEST(ParseCount, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_count("0", "x"), 0u);
  EXPECT_EQ(parse_count("4096", "x"), 4096u);
}

TEST(ParseCount, RejectsSignsGarbageAndOverflow) {
  for (const char* bad : {"", "-1", "+3", " 4", "4 ", "0x10", "12k", "1.5"}) {
    EXPECT_THROW(parse_count(bad, "x"), Error) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_count("99999999999999999999999999", "x"), Error);
}

TEST(ParseCount, HandlesTheFullSizeTRange) {
  // parse_count must go through a 64-bit conversion (std::stoull): on LLP64
  // platforms std::stoul is 32-bit and would truncate or reject these.
  EXPECT_EQ(parse_count("4294967295", "x"), 4294967295ull);  // UINT32_MAX
  EXPECT_EQ(parse_count("4294967296", "x"), 4294967296ull);  // UINT32_MAX + 1
  const std::string size_max =
      std::to_string(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(parse_count(size_max, "x"),
            std::numeric_limits<std::size_t>::max());
  // One digit past SIZE_MAX overflows and must throw, not wrap.
  EXPECT_THROW(parse_count(size_max + "0", "x"), Error);
  EXPECT_THROW(parse_count("18446744073709551616", "x"), Error);  // 2^64
}

TEST(ParseMemorySize, EnforcesTheSimulatorMinimum) {
  EXPECT_EQ(parse_memory_size("3", "n"), 3u);
  for (const char* bad : {"0", "1", "2", "-6", "abc"}) {
    EXPECT_THROW(parse_memory_size(bad, "n"), Error) << "'" << bad << "'";
  }
}

TEST(ParseSizeList, KeepsDuplicatesAndOrder) {
  EXPECT_EQ(parse_size_list("64,8,64", "sweep"),
            (std::vector<std::size_t>{64, 8, 64}));
  EXPECT_EQ(parse_size_list("7", "sweep"), (std::vector<std::size_t>{7}));
}

TEST(ParseSizeList, RejectsEmptyItems) {
  for (const char* bad : {"", ",", "64,", ",64", "64,,256", "64;256"}) {
    EXPECT_THROW(parse_size_list(bad, "sweep"), Error) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace mtg
