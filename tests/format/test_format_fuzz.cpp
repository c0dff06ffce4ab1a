// Seeded malformed-input fuzzer over the text formats: 'faultlist v1' and
// 'suite v1' catalogs, 'jobs v1' matrix job files and 'certificate v1'
// suite-optimization proofs.
//
// Each case takes a valid seed document of one format (a canonical
// serialization, or a hand-written file with comments), applies a few
// random byte/line mutations, and feeds it to that format's reader.  The
// invariant: the reader either
//
//   (a) accepts — and for the formats with a canonical writer (catalogs and
//       certificates), to_canonical_string(parse(m)) must be a fixpoint
//       (reparse equal, rewrite byte-identical), or
//   (b) rejects with mtg::ParseError carrying a valid line:column position —
//
// never a crash, never a stray exception type.  The sanitizer CI job runs
// this under ASan/UBSan with a reduced case count.
//
// Reproducibility follows the differential-fuzz convention: every case
// derives from a 64-bit seed printed on failure.  Replay one case with
// MTG_FUZZ_SEED=<seed>; rescale the sweep with MTG_FUZZ_CASES=<n>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/universe.hpp"
#include "fp/fault_list.hpp"
#include "format/catalog_io.hpp"
#include "march/catalog.hpp"
#include "service/job_file.hpp"

namespace mtg {
namespace {

// splitmix64, as in tests/sim/test_differential_fuzz.cpp: seed-stable
// across platforms and standard libraries.
struct Rng {
  std::uint64_t state;

  explicit Rng(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }
};

std::vector<std::string> catalog_seeds() {
  std::vector<std::string> docs;
  for (const FaultList& list :
       {fault_list_2(), standard_simple_static_faults(),
        retention_fault_list(), decoder_fault_list()}) {
    docs.push_back(to_canonical_string(list));
  }
  MarchSuite suite;
  suite.tests = all_catalog_tests();
  docs.push_back(to_canonical_string(suite));
  docs.push_back(
      "# hand-written sample\n"
      "faultlist v1\n"
      "name fuzz seed\n"
      "\n"
      "simple <0/1/-> a_pos=-1 v_pos=0\n"
      "linked <0/1/-> -> <1w1/0/-> cells=1 a1=-1 a2=-1 v=0\n"
      "decoder cls=2 bit=5 wired=1\n");
  docs.push_back(
      "suite v1\n"
      "# a comment between records\n"
      "test \"A \\\"quoted\\\" name\" {c(w0); ^(r0,w1); v(r1,w0)}\n");
  return docs;
}

std::vector<std::string> job_file_seeds() {
  return {
      "jobs v1\n"
      "suite \"classic.suite\"\n"
      "faultlist custom \"custom_static.faults\"\n"
      "\n"
      "# suite tests against built-in and external lists\n"
      "job test=\"MATS+\" list=simple n=8\n"
      "job test=\"March C-\" list=custom n=8 cap=64\n"
      "job test=\"{c(w0); ^(r0,w1); v(r1,w0); c(r0)}\" list=list1 n=64 "
      "cap=256 deadline_ms=60000\n",
      "jobs v1\n"
      "job test=\"March SS\" list=simple n=8\n"
      "job test=\"March SL\" list=decoder n=4096 cap=0 deadline_ms=0\n",
  };
}

std::vector<std::string> certificate_seeds() {
  MarchSuite suite;
  suite.tests = {mats_plus(), march_y(), march_c_minus(), march_ss()};
  std::vector<std::string> docs;
  for (const char* spec : {"list2", "simple+decoder[0,3)"}) {
    const FaultUniverse universe = FaultUniverse::parse(spec);
    docs.push_back(to_canonical_string(optimize_suite(
        suite, universe.materialize(), universe.spec(), 6)));
  }
  docs.push_back(
      "certificate v1\n"
      "# an external-list certificate: no universe spec\n"
      "universe \"\"\n"
      "list-hash 00000000deadbeef\n"
      "n 6\n"
      "keep \"A \\\"quoted\\\" name\" {c(w0); ^(r0,w1); v(r1,w0)}\n"
      "drop \"B\" {c(w0); ^(r0)}\n"
      "cover 3 \"<0/1/->\" by \"A \\\"quoted\\\" name\"\n");
  return docs;
}

/// Applies 1-3 random byte/line mutations; the splice mutation draws its
/// donor from `seeds`, the mutated document's own format.  The run
/// mutation repeats one byte of the document 64 KiB times in place, so a
/// digit, an FP token, a name or a nesting level grows far past any line
/// the seeds hold.
std::string mutate(std::string doc, const std::vector<std::string>& seeds,
                   Rng& rng) {
  const std::size_t rounds = 1 + rng.below(3);
  for (std::size_t round = 0; round < rounds && !doc.empty(); ++round) {
    switch (rng.below(7)) {
      case 0:  // truncate
        doc.resize(rng.below(doc.size() + 1));
        break;
      case 1:  // flip a byte
        doc[rng.below(doc.size())] = static_cast<char>(rng.below(256));
        break;
      case 2:  // insert a byte
        doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(doc.size() + 1)),
                   static_cast<char>(rng.below(256)));
        break;
      case 3:  // delete a byte
        doc.erase(doc.begin() +
                  static_cast<std::ptrdiff_t>(rng.below(doc.size())));
        break;
      case 4: {  // duplicate a random line somewhere else
        const std::size_t start = doc.rfind('\n', rng.below(doc.size()));
        const std::size_t from = start == std::string::npos ? 0 : start + 1;
        std::size_t to = doc.find('\n', from);
        if (to == std::string::npos) to = doc.size();
        const std::string line = doc.substr(from, to - from) + "\n";
        doc.insert(rng.below(doc.size() + 1), line);
        break;
      }
      case 5: {  // splice the head of one document onto the tail of another
        const std::string& other = seeds[rng.below(seeds.size())];
        doc = doc.substr(0, rng.below(doc.size() + 1)) +
              other.substr(rng.below(other.size() + 1));
        break;
      }
      case 6: {  // splice in a 64 KiB run of the byte at a random offset
        const std::size_t at = rng.below(doc.size());
        doc.insert(at, std::string(std::size_t{64} << 10, doc[at]));
        break;
      }
    }
  }
  return doc;
}

/// Applies the fuzz invariant to one mutated document: `accept` parses it
/// and returns a failure description for an accepted document that breaks
/// its format's contract (empty when it holds); a ParseError must carry a
/// valid position, and any other exception type is a failure.
template <class Accept>
std::string run_one(const Accept& accept, const std::string& doc) {
  try {
    return accept(doc);
  } catch (const ParseError& e) {
    if (e.position().line < 1 || e.position().column < 1) {
      return std::string("ParseError without a valid position: ") + e.what();
    }
    return "";  // clean, position-bearing rejection
  } catch (const std::exception& e) {
    return std::string("unexpected exception type: ") + e.what();
  }
}

std::string accept_catalog(const std::string& doc) {
  switch (detect_catalog_kind(doc, "fuzz")) {
    case CatalogKind::FaultListFile: {
      const FaultList list = parse_fault_list_text(doc, "fuzz");
      const std::string canon = to_canonical_string(list);
      const FaultList reparsed = parse_fault_list_text(canon, "fuzz2");
      if (!(reparsed == list)) return "accepted list fails to round-trip";
      if (to_canonical_string(reparsed) != canon) {
        return "canonical list serialization is not a fixpoint";
      }
      return "";
    }
    case CatalogKind::SuiteFile: {
      const MarchSuite suite = parse_march_suite_text(doc, "fuzz");
      const std::string canon = to_canonical_string(suite);
      const MarchSuite reparsed = parse_march_suite_text(canon, "fuzz2");
      if (!(reparsed == suite)) return "accepted suite fails to round-trip";
      if (to_canonical_string(reparsed) != canon) {
        return "canonical suite serialization is not a fixpoint";
      }
      return "";
    }
  }
  return "detect_catalog_kind returned an unknown kind";
}

std::string accept_certificate(const std::string& doc) {
  const Certificate cert = parse_certificate_text(doc, "fuzz");
  const std::string canon = to_canonical_string(cert);
  const Certificate reparsed = parse_certificate_text(canon, "fuzz2");
  if (!(reparsed == cert)) return "accepted certificate fails to round-trip";
  if (to_canonical_string(reparsed) != canon) {
    return "canonical certificate serialization is not a fixpoint";
  }
  return "";
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Mutates `seeds` MTG_FUZZ_CASES times (default 1500; MTG_FUZZ_SEED
/// replays one case) and checks each document with `accept` via run_one.
template <class Accept>
void fuzz(const std::vector<std::string>& seeds, const Accept& accept) {
  const std::uint64_t base_seed = env_u64("MTG_FUZZ_SEED", 0);
  const bool replay_single = std::getenv("MTG_FUZZ_SEED") != nullptr;
  const std::uint64_t cases =
      replay_single ? 1 : env_u64("MTG_FUZZ_CASES", 1500);
  // Every seed must be accepted unmutated, or the cases below would only
  // exercise the reader's first error.
  for (const std::string& doc : seeds) {
    EXPECT_NO_THROW(EXPECT_EQ(accept(doc), "")) << doc;
  }

  std::size_t failures = 0;
  for (std::uint64_t i = 0; i < cases && failures < 5; ++i) {
    const std::uint64_t seed = replay_single ? base_seed : base_seed + i;
    Rng rng(seed);
    const std::string doc =
        mutate(seeds[rng.below(seeds.size())], seeds, rng);
    const std::string failure = run_one(accept, doc);
    if (!failure.empty()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " (replay: MTG_FUZZ_SEED=" << seed
                    << ")\n"
                    << failure << "\ndocument (" << doc.size()
                    << " bytes):\n"
                    << doc.substr(0, 2000);
    }
  }
}

TEST(FormatFuzz, MutatedCatalogsParseCleanlyOrRejectWithPosition) {
  fuzz(catalog_seeds(), accept_catalog);
}

TEST(FormatFuzz, MutatedJobFilesParseOrRejectWithPosition) {
  fuzz(job_file_seeds(), [](const std::string& doc) {
    parse_job_file_text(doc, "fuzz");
    return std::string();
  });
}

TEST(FormatFuzz, MutatedCertificatesRoundTripOrRejectWithPosition) {
  fuzz(certificate_seeds(), accept_certificate);
}

}  // namespace
}  // namespace mtg
