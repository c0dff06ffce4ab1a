// Suite-optimization certificates ('certificate v1'): machine-checkable
// proofs that a greedy minimal sub-suite preserves the full suite's union
// static coverage over a fault universe.
//
// `mtg_cli optimize` emits one; `mtg_cli verify` re-checks it against the
// PACKED SIMULATION ENGINE — the certificate is produced by the symbolic
// analyzer but never trusted on its own word, the same
// prove-then-cross-check discipline as the static == packed == scalar fuzz
// harness.
//
// Grammar (record per line; blank lines and full-line '#' comments ignored):
//
//   file      := header universe listhash n keep* (drop cover*)*
//   header    := 'certificate v1'
//   universe  := 'universe' '"' spec '"'     (FaultUniverse spec; "" when the
//                                            universe was an external list)
//   listhash  := 'list-hash' hex64           (stable_hash of the universe)
//   n         := 'n' int                     (memory size of every verdict)
//   keep      := 'keep' '"' name '"' notation
//   drop      := 'drop' '"' name '"' notation
//   cover     := 'cover' int '"' fault '"' 'by' '"' kept-name '"'
//
// Each cover row belongs to the drop record above it: it names one fault
// the dropped test detects and the kept test that also detects it.  A
// certificate is therefore self-contained modulo the universe — the kept
// and dropped tests are embedded as full notation, and the universe is
// either re-derivable from its spec or pinned by content hash.
//
// The writer is to_canonical_string(); parse(write(x)) == x exactly (names
// included), the PR 7 catalog-format contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/static_analyzer.hpp"
#include "analysis/universe.hpp"
#include "format/suite_text.hpp"
#include "march/march_test.hpp"

namespace mtg {

/// One witness row: the dropped test detects `fault_name`; so does
/// `kept_test`.
struct CertificateCover {
  std::size_t fault_index = 0;  ///< index in the materialized universe
  std::string fault_name;
  std::string kept_test;

  friend bool operator==(const CertificateCover& x, const CertificateCover& y) {
    return x.fault_index == y.fault_index && x.fault_name == y.fault_name &&
           x.kept_test == y.kept_test;
  }
  friend bool operator!=(const CertificateCover& x, const CertificateCover& y) {
    return !(x == y);
  }
};

struct CertificateDrop {
  MarchTest test;
  std::vector<CertificateCover> covers;  ///< one row per fault it detects

  friend bool operator==(const CertificateDrop& x, const CertificateDrop& y) {
    return x.test == y.test && x.test.name() == y.test.name() &&
           x.covers == y.covers;
  }
  friend bool operator!=(const CertificateDrop& x, const CertificateDrop& y) {
    return !(x == y);
  }
};

struct Certificate {
  std::string universe_spec;    ///< parseable FaultUniverse spec, or ""
  std::uint64_t list_hash = 0;  ///< stable_hash of the materialized universe
  std::size_t memory_size = 6;
  std::vector<MarchTest> kept;  ///< suite order
  std::vector<CertificateDrop> dropped;

  /// Round-trip equality: names included (MarchTest::operator== alone
  /// ignores them, but a certificate's covers reference tests by name).
  friend bool operator==(const Certificate& x, const Certificate& y);
  friend bool operator!=(const Certificate& x, const Certificate& y) {
    return !(x == y);
  }
};

/// Canonical serialization; parse_certificate_text(to_canonical_string(c))
/// == c.  Throws mtg::Error on names containing newlines or '"'-quoting
/// surprises the suite format also rejects.
std::string to_canonical_string(const Certificate& cert);

/// Parses 'certificate v1'.  Throws mtg::ParseError (line:column-annotated)
/// on malformed input, records out of canonical order, or a cover row
/// before the first drop.
Certificate parse_certificate_text(std::string_view text,
                                   const std::string& source = "<string>");

/// read_text_file + parse_certificate_text with the path as source name.
Certificate load_certificate_file(const std::string& path);

/// Greedy minimal sub-suite preserving the suite's union static coverage
/// over `universe` at memory size n, with per-removed-test witnesses.
/// `universe_spec` is embedded verbatim (pass FaultUniverse::spec(), or ""
/// for an external list).  Throws mtg::Error before analyzing anything when
/// a test has more than kMaxAnyOrderElements ⇕ elements (verify_certificate
/// could not simulate it), on empty or duplicate test names, or on an empty
/// suite; and when any (test, fault) verdict comes back Unknown (the
/// certificate would not be checkable).
Certificate optimize_suite(const MarchSuite& suite, const FaultList& universe,
                           const std::string& universe_spec, std::size_t n);

/// Outcome of re-checking a certificate against the packed engine.
struct CertificateCheck {
  bool ok = true;
  std::vector<std::string> problems;   ///< empty iff ok
  std::size_t faults_checked = 0;      ///< covered-fault witnesses re-proved
  std::size_t reports_evaluated = 0;   ///< packed evaluate_coverage runs

  std::string summary() const;
};

/// Re-verifies `cert` against the packed engine: the universe hash matches,
/// every fault a dropped test covers (full enumeration, cap 0) has a cover
/// row, and every cover row names a kept test that the packed engine agrees
/// covers that fault.  Never throws on a bad certificate — problems are
/// collected; engine-level failures (an invalid embedded test) become
/// problems too.
CertificateCheck verify_certificate(const Certificate& cert,
                                    const FaultList& universe);

}  // namespace mtg
