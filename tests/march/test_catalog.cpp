#include "march/catalog.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace mtg {
namespace {

struct PublishedComplexity {
  const char* name;
  std::size_t complexity;
};

// Without a printer gtest lists the parameter as its raw bytes, which hold the
// address of `name`; that address moves with every change to the test binary
// and with address-space randomisation, so the listed test names would too.
void PrintTo(const PublishedComplexity& param, std::ostream* os) {
  *os << param.name << " " << param.complexity << "n";
}

class CatalogComplexity
    : public ::testing::TestWithParam<PublishedComplexity> {};

TEST_P(CatalogComplexity, MatchesPublishedValue) {
  for (const MarchTest& test : all_catalog_tests()) {
    if (test.name() == GetParam().name) {
      EXPECT_EQ(test.complexity(), GetParam().complexity) << test.to_string();
      return;
    }
  }
  FAIL() << "catalog has no test named " << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    PublishedValues, CatalogComplexity,
    ::testing::Values(PublishedComplexity{"MATS+", 5},
                      PublishedComplexity{"March X", 6},
                      PublishedComplexity{"March Y", 8},
                      PublishedComplexity{"March C-", 10},
                      PublishedComplexity{"March A", 15},
                      PublishedComplexity{"March B", 17},
                      PublishedComplexity{"March U", 13},
                      PublishedComplexity{"March G", 25},
                      PublishedComplexity{"PMOVI", 13},
                      PublishedComplexity{"March LR", 14},
                      PublishedComplexity{"March LA", 22},
                      PublishedComplexity{"March SS", 22},
                      PublishedComplexity{"March SL", 41},
                      PublishedComplexity{"March LF1", 11},
                      PublishedComplexity{"March ABL", 37},
                      PublishedComplexity{"March RABL", 35},
                      PublishedComplexity{"March ABL1", 9}),
    [](const auto& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

class CatalogValidity : public ::testing::TestWithParam<MarchTest> {};

TEST_P(CatalogValidity, ConsistentAndValidOnFaultFreeMemory) {
  const MarchTest& test = GetParam();
  EXPECT_EQ(test.consistency_violation(), "") << test.to_string();
  EXPECT_EQ(FaultSimulator::validity_violation(test), "") << test.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllCatalogTests, CatalogValidity,
    ::testing::ValuesIn(all_catalog_tests()),
    [](const ::testing::TestParamInfo<MarchTest>& param_info) {
      std::string name = param_info.param.name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Catalog, TableOneTestsAreTranscribedVerbatim) {
  EXPECT_EQ(march_abl().to_string(/*ascii=*/true),
            "{c(w0); ^(r0,r0,w0,r0,w1,w1,r1); ^(r1,r1,w1,r1,w0,w0,r0); "
            "v(r0,w1); v(r1,w0); v(r0,r0,w0,r0,w1,w1,r1); "
            "v(r1,r1,w1,r1,w0,w0,r0); ^(r0,w1); ^(r1,w0)}");
  EXPECT_EQ(march_rabl().to_string(/*ascii=*/true),
            "{c(w0); ^(r0,r0,w0,r0); ^(r0,w1,r1,r1,w1,r1,w0,r0); ^(r0,w1); "
            "v(r1,r1,w1,r1,w0,r0,w0,r0); ^(w1); "
            "^(r1,r1,w1,r1,w0,r0,r0,w0,r0,w1,r1)}");
  EXPECT_EQ(march_abl1().to_string(/*ascii=*/true),
            "{c(w0); c(w0,r0,r0,w1); c(w1,r1,r1,w0)}");
}

TEST(Catalog, LinkedSubsetIsContainedInFullCatalog) {
  const auto all = all_catalog_tests();
  for (const MarchTest& linked : linked_fault_catalog_tests()) {
    bool found = false;
    for (const MarchTest& test : all) {
      if (test == linked) found = true;
    }
    EXPECT_TRUE(found) << linked.name();
  }
}

TEST(Catalog, AlHarbiGuptaLengthConstant) {
  EXPECT_EQ(kAlHarbiGupta43nComplexity, 43u);
}

}  // namespace
}  // namespace mtg
