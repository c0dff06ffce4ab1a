// Certificate tests: 'certificate v1' round-trips byte-exactly through the
// canonical writer, optimize_suite's greedy sub-suite re-verifies against
// the packed engine, and tampered certificates are rejected with named
// problems — the prove-then-cross-check discipline end to end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/universe.hpp"
#include "common/error.hpp"
#include "common/text_position.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"

namespace mtg {
namespace {

MarchSuite classic_suite() {
  MarchSuite suite;
  suite.tests = {mats_plus(), march_y(), march_c_minus(), march_ss()};
  return suite;
}

Certificate optimized(const char* spec, std::size_t n = 6) {
  const FaultUniverse universe = FaultUniverse::parse(spec);
  return optimize_suite(classic_suite(), universe.materialize(),
                        universe.spec(), n);
}

TEST(Certificate, ParseWriteRoundTripIsExact) {
  const Certificate cert = optimized("simple");
  const std::string text = to_canonical_string(cert);
  const Certificate parsed = parse_certificate_text(text, "<round-trip>");
  EXPECT_EQ(parsed, cert);
  EXPECT_EQ(to_canonical_string(parsed), text);
}

TEST(Certificate, OptimizedSuiteVerifiesAgainstThePackedEngine) {
  for (const char* spec : {"simple", "list2", "simple+decoder[0,3)"}) {
    const Certificate cert = optimized(spec);
    ASSERT_FALSE(cert.kept.empty()) << spec;
    // The greedy pass must actually shrink this suite: March SS alone
    // covers the simple static space.
    EXPECT_FALSE(cert.dropped.empty()) << spec;
    const CertificateCheck check = verify_certificate(
        cert, FaultUniverse::parse(spec).materialize());
    EXPECT_TRUE(check.ok) << spec << ": "
                          << (check.problems.empty() ? "<no problems>"
                                                     : check.problems[0]);
    EXPECT_GT(check.faults_checked, 0u);
  }
}

TEST(Certificate, KeptSubSuitePreservesUnionStaticCoverage) {
  const FaultList universe = FaultUniverse::parse("simple").materialize();
  const Certificate cert = optimized("simple");
  // Union coverage of the kept tests equals the union of the full suite,
  // fault by fault, on the analyzer's own verdicts.
  const MarchSuite full = classic_suite();
  for (std::size_t f = 0; f < universe.size(); ++f) {
    bool full_covers = false, kept_covers = false;
    for (const MarchTest& test : full.tests) {
      full_covers = full_covers ||
                    analyze_coverage(test, universe, cert.memory_size)
                            .entries[f]
                            .verdict == StaticVerdict::Detected;
    }
    for (const MarchTest& test : cert.kept) {
      kept_covers = kept_covers ||
                    analyze_coverage(test, universe, cert.memory_size)
                            .entries[f]
                            .verdict == StaticVerdict::Detected;
    }
    EXPECT_EQ(full_covers, kept_covers) << "fault " << f;
  }
}

TEST(Certificate, HashMismatchIsRejected) {
  Certificate cert = optimized("simple");
  cert.list_hash ^= 1;
  const CertificateCheck check =
      verify_certificate(cert, FaultUniverse::parse("simple").materialize());
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.problems.empty());
  EXPECT_NE(check.problems[0].find("hash"), std::string::npos);
}

TEST(Certificate, MissingCoverRowIsRejected) {
  Certificate cert = optimized("simple");
  ASSERT_FALSE(cert.dropped.empty());
  ASSERT_FALSE(cert.dropped[0].covers.empty());
  cert.dropped[0].covers.pop_back();
  const CertificateCheck check =
      verify_certificate(cert, FaultUniverse::parse("simple").materialize());
  EXPECT_FALSE(check.ok);
}

TEST(Certificate, CoverRowNamingAMissingKeptTestIsRejected) {
  Certificate cert = optimized("simple");
  ASSERT_FALSE(cert.dropped.empty());
  ASSERT_FALSE(cert.dropped[0].covers.empty());
  cert.dropped[0].covers[0].kept_test = "No Such Test";
  const CertificateCheck check =
      verify_certificate(cert, FaultUniverse::parse("simple").materialize());
  EXPECT_FALSE(check.ok);
}

TEST(Certificate, CoverRowWithWrongFaultNameIsRejected) {
  Certificate cert = optimized("simple");
  ASSERT_FALSE(cert.dropped.empty());
  ASSERT_FALSE(cert.dropped[0].covers.empty());
  cert.dropped[0].covers[0].fault_name = "bogus fault";
  const CertificateCheck check =
      verify_certificate(cert, FaultUniverse::parse("simple").materialize());
  EXPECT_FALSE(check.ok);
}

TEST(Certificate, DuplicateCoverRowIsRejected) {
  Certificate cert = optimized("simple");
  ASSERT_FALSE(cert.dropped.empty());
  ASSERT_FALSE(cert.dropped[0].covers.empty());
  cert.dropped[0].covers.push_back(cert.dropped[0].covers.front());
  const CertificateCheck check =
      verify_certificate(cert, FaultUniverse::parse("simple").materialize());
  EXPECT_FALSE(check.ok);
}

TEST(Certificate, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(parse_certificate_text("", "<t>"), ParseError);
  EXPECT_THROW(parse_certificate_text("certificate v2\n", "<t>"), ParseError);
  // A cover row before any drop record has no owner.
  EXPECT_THROW(
      parse_certificate_text("certificate v1\n"
                             "universe \"simple\"\n"
                             "list-hash 0000000000000000\n"
                             "n 6\n"
                             "keep \"A\" {c(w0)}\n"
                             "cover 0 \"SF0\" by \"A\"\n",
                             "<t>"),
      ParseError);
  // keep after the first drop breaks canonical order.
  EXPECT_THROW(
      parse_certificate_text("certificate v1\n"
                             "universe \"simple\"\n"
                             "list-hash 0000000000000000\n"
                             "n 6\n"
                             "keep \"A\" {c(w0)}\n"
                             "drop \"B\" {c(w1)}\n"
                             "keep \"C\" {c(w0)}\n",
                             "<t>"),
      ParseError);
}

TEST(Certificate, ParseErrorsCarryPositions) {
  try {
    parse_certificate_text("certificate v1\nbogus record\n", "cert.txt");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position().line, 2u);
    EXPECT_NE(std::string(e.what()).find("cert.txt:2:"), std::string::npos)
        << e.what();
  }
}

TEST(Certificate, OptimizeRejectsUnnamedAndDuplicateTests) {
  MarchSuite unnamed;
  unnamed.tests = {MarchTest("", mats_plus().elements())};
  const FaultList universe = FaultUniverse::parse("simple").materialize();
  EXPECT_THROW(optimize_suite(unnamed, universe, "simple", 6), Error);

  MarchSuite duplicated;
  duplicated.tests = {mats_plus(), mats_plus()};
  EXPECT_THROW(optimize_suite(duplicated, universe, "simple", 6), Error);
}

}  // namespace
}  // namespace mtg
