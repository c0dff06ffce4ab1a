#include "analysis/certificate.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "format/catalog_io.hpp"
#include "format/reader.hpp"
#include "march/parser.hpp"
#include "sim/coverage.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

std::uint64_t read_hex64(const LineReader& reader, std::size_t& pos,
                         const char* what) {
  const std::string_view line = reader.line();
  const std::size_t begin = pos;
  std::uint64_t value = 0;
  while (pos < line.size()) {
    const char c = line[pos];
    int digit = -1;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      break;
    }
    if (pos - begin >= 16) {
      reader.fail(begin + 1, std::string(what) + " has more than 16 digits");
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
    ++pos;
  }
  if (pos == begin) {
    reader.fail(pos + 1,
                std::string("expected lowercase hex digits for the ") + what);
  }
  return value;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '\n' || c == '\r') {
      throw Error("certificate: a name containing a line break is not "
                  "representable in the text format");
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

/// Parses the test embedded in a keep/drop record; march-notation errors
/// surface in whole-document coordinates.
MarchTest read_test_record(const LineReader& reader, std::size_t pos,
                           const char* what) {
  std::size_t cursor = skip_ws(reader.line(), pos);
  const std::string name = read_quoted(reader, cursor, what);
  cursor = skip_ws(reader.line(), cursor);
  if (cursor >= reader.line().size()) {
    reader.fail(cursor + 1,
                std::string("expected march notation after the ") + what);
  }
  const TextPosition origin{reader.line_number(),
                            reader.line_indent() + cursor};
  try {
    return parse_march_test(reader.line().substr(cursor), name, origin);
  } catch (const ParseError& e) {
    // Re-anchor under the document's source name; the notation never spans
    // lines, so only the column moves back into trimmed-line coordinates.
    reader.fail(e.position().column - reader.line_indent() + 1, e.detail());
  }
}

std::string test_line(const char* keyword, const MarchTest& test) {
  return std::string(keyword) + " " + quoted(test.name()) + " " +
         test.to_canonical_string();
}

}  // namespace

bool operator==(const Certificate& x, const Certificate& y) {
  if (x.universe_spec != y.universe_spec || x.list_hash != y.list_hash ||
      x.memory_size != y.memory_size || x.kept.size() != y.kept.size() ||
      x.dropped != y.dropped) {
    return false;
  }
  for (std::size_t i = 0; i < x.kept.size(); ++i) {
    if (x.kept[i] != y.kept[i] || x.kept[i].name() != y.kept[i].name()) {
      return false;
    }
  }
  return true;
}

std::string to_canonical_string(const Certificate& cert) {
  std::ostringstream out;
  out << "certificate v1\n";
  out << "universe " << quoted(cert.universe_spec) << "\n";
  out << "list-hash " << hex64(cert.list_hash) << "\n";
  out << "n " << cert.memory_size << "\n";
  for (const MarchTest& test : cert.kept) {
    out << test_line("keep", test) << "\n";
  }
  for (const CertificateDrop& drop : cert.dropped) {
    out << test_line("drop", drop.test) << "\n";
    for (const CertificateCover& cover : drop.covers) {
      out << "cover " << cover.fault_index << " " << quoted(cover.fault_name)
          << " by " << quoted(cover.kept_test) << "\n";
    }
  }
  return out.str();
}

Certificate parse_certificate_text(std::string_view text,
                                   const std::string& source) {
  LineReader reader(text, source);
  reader.read_header("certificate", "certificate");

  Certificate cert;
  // The three metadata records are required, in canonical order.
  const auto expect_record = [&reader](const char* keyword) -> std::size_t {
    if (!reader.next()) {
      reader.fail_at_end(std::string("expected '") + keyword + "' record");
    }
    std::size_t pos = 0;
    const std::string_view found = read_token(reader.line(), pos);
    if (found != keyword) {
      reader.fail(1, std::string("expected '") + keyword + "' record, got '" +
                         std::string(found) + "'");
    }
    return skip_ws(reader.line(), pos);
  };
  {
    std::size_t pos = expect_record("universe");
    cert.universe_spec = read_quoted(reader, pos, "universe spec");
    expect_end_of_record(reader, pos, "universe spec");
  }
  {
    std::size_t pos = expect_record("list-hash");
    cert.list_hash = read_hex64(reader, pos, "list-hash");
    expect_end_of_record(reader, pos, "list-hash");
  }
  {
    std::size_t pos = expect_record("n");
    cert.memory_size = read_number(reader, pos, "n");
    expect_end_of_record(reader, pos, "memory size n");
    if (cert.memory_size < 3) {
      reader.fail(1, "n must be >= 3 (simulated memory size)");
    }
  }

  bool saw_drop = false;
  while (reader.next()) {
    std::size_t pos = 0;
    const std::string_view keyword = read_token(reader.line(), pos);
    if (keyword == "keep") {
      if (saw_drop) {
        reader.fail(1, "keep records must come before the first drop "
                       "(canonical order)");
      }
      cert.kept.push_back(read_test_record(reader, pos, "kept test name"));
    } else if (keyword == "drop") {
      saw_drop = true;
      CertificateDrop drop;
      drop.test = read_test_record(reader, pos, "dropped test name");
      cert.dropped.push_back(std::move(drop));
    } else if (keyword == "cover") {
      if (!saw_drop) {
        reader.fail(1, "cover row before the first drop record (each cover "
                       "belongs to the drop above it)");
      }
      CertificateCover cover;
      pos = skip_ws(reader.line(), pos);
      cover.fault_index = read_number(reader, pos, "fault index");
      pos = skip_ws(reader.line(), pos);
      cover.fault_name = read_quoted(reader, pos, "fault name");
      pos = skip_ws(reader.line(), pos);
      const std::size_t by_column = pos + 1;
      if (read_token(reader.line(), pos) != "by") {
        reader.fail(by_column, "expected 'by' between the fault and the "
                               "kept-test name");
      }
      pos = skip_ws(reader.line(), pos);
      cover.kept_test = read_quoted(reader, pos, "kept-test name");
      expect_end_of_record(reader, pos, "cover row");
      cert.dropped.back().covers.push_back(std::move(cover));
    } else {
      reader.fail(1, "unknown record '" + std::string(keyword) +
                         "' (expected: keep, drop or cover)");
    }
  }
  return cert;
}

Certificate load_certificate_file(const std::string& path) {
  return parse_certificate_text(read_text_file(path), path);
}

Certificate optimize_suite(const MarchSuite& suite, const FaultList& universe,
                           const std::string& universe_spec, std::size_t n) {
  require(!suite.tests.empty(), "optimize_suite: the suite is empty");
  for (std::size_t i = 0; i < suite.tests.size(); ++i) {
    // verify_certificate simulates every kept test, so a test past the ⇕ cap
    // would yield a certificate that can never verify.
    require_any_order_cap(FaultSimulator::any_order_count(suite.tests[i]));
    require(!suite.tests[i].name().empty(),
            "optimize_suite: every test needs a name (covers reference kept "
            "tests by name)");
    for (std::size_t j = i + 1; j < suite.tests.size(); ++j) {
      require(suite.tests[i].name() != suite.tests[j].name(),
              "optimize_suite: duplicate test name '" + suite.tests[i].name() +
                  "'");
    }
  }

  // Per-test symbolic verdict sets; the certificate refuses to exist unless
  // every verdict is definite.
  const std::size_t faults = fault_count(universe);
  std::vector<std::vector<char>> covered(suite.tests.size(),
                                         std::vector<char>(faults, 0));
  for (std::size_t t = 0; t < suite.tests.size(); ++t) {
    const StaticCoverage coverage =
        analyze_coverage(suite.tests[t], universe, n);
    for (const StaticCoverageEntry& entry : coverage.entries) {
      if (entry.verdict == StaticVerdict::Unknown) {
        throw Error("optimize_suite: '" + suite.tests[t].name() +
                    "' vs " + entry.fault_name +
                    " is Unknown — the certificate would not be checkable (" +
                    entry.reason + ")");
      }
      covered[t][entry.fault_index] =
          entry.verdict == StaticVerdict::Detected ? 1 : 0;
    }
  }

  std::vector<char> remaining(faults, 0);
  for (std::size_t f = 0; f < faults; ++f) {
    for (std::size_t t = 0; t < suite.tests.size(); ++t) {
      if (covered[t][f] != 0) {
        remaining[f] = 1;
        break;
      }
    }
  }

  // Greedy set cover: most new faults per pick, ties to the earliest suite
  // position (deterministic, and it favours the suite's own ordering).
  std::vector<char> picked(suite.tests.size(), 0);
  std::size_t uncovered =
      static_cast<std::size_t>(std::count(remaining.begin(), remaining.end(),
                                          static_cast<char>(1)));
  while (uncovered > 0) {
    std::size_t best = suite.tests.size();
    std::size_t best_gain = 0;
    for (std::size_t t = 0; t < suite.tests.size(); ++t) {
      if (picked[t] != 0) continue;
      std::size_t gain = 0;
      for (std::size_t f = 0; f < faults; ++f) {
        if (remaining[f] != 0 && covered[t][f] != 0) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = t;
      }
    }
    require(best < suite.tests.size(),
            "optimize_suite: internal error — uncovered faults with no "
            "covering test");
    picked[best] = 1;
    for (std::size_t f = 0; f < faults; ++f) {
      if (covered[best][f] != 0 && remaining[f] != 0) {
        remaining[f] = 0;
        --uncovered;
      }
    }
  }

  Certificate cert;
  cert.universe_spec = universe_spec;
  cert.list_hash = stable_hash(universe);
  cert.memory_size = n;
  std::vector<std::size_t> kept_indices;
  for (std::size_t t = 0; t < suite.tests.size(); ++t) {
    if (picked[t] != 0) {
      cert.kept.push_back(suite.tests[t]);
      kept_indices.push_back(t);
    }
  }
  for (std::size_t t = 0; t < suite.tests.size(); ++t) {
    if (picked[t] != 0) continue;
    CertificateDrop drop;
    drop.test = suite.tests[t];
    for (std::size_t f = 0; f < faults; ++f) {
      if (covered[t][f] == 0) continue;
      for (std::size_t k = 0; k < kept_indices.size(); ++k) {
        if (covered[kept_indices[k]][f] != 0) {
          CertificateCover cover;
          cover.fault_index = f;
          cover.fault_name = fault_name(universe, f);
          cover.kept_test = cert.kept[k].name();
          drop.covers.push_back(std::move(cover));
          break;
        }
      }
    }
    cert.dropped.push_back(std::move(drop));
  }
  return cert;
}

std::string CertificateCheck::summary() const {
  std::ostringstream out;
  if (ok) {
    out << "certificate verified: " << faults_checked
        << " covered-fault witnesses re-proved by the packed engine across "
        << reports_evaluated << " coverage reports";
  } else {
    out << "certificate REJECTED (" << problems.size() << " problem"
        << (problems.size() == 1 ? "" : "s") << ")";
    for (const std::string& problem : problems) {
      out << "\n  " << problem;
    }
  }
  return out.str();
}

CertificateCheck verify_certificate(const Certificate& cert,
                                    const FaultList& universe) {
  CertificateCheck check;
  const auto problem = [&check](std::string message) {
    check.ok = false;
    check.problems.push_back(std::move(message));
  };

  if (stable_hash(universe) != cert.list_hash) {
    problem("universe hash mismatch: certificate pins " +
            hex64(cert.list_hash) + ", the supplied list hashes to " +
            hex64(stable_hash(universe)));
    return check;  // verdicts against a different universe prove nothing
  }
  const std::size_t faults = fault_count(universe);

  for (std::size_t i = 0; i < cert.kept.size(); ++i) {
    if (cert.kept[i].name().empty()) {
      problem("kept test #" + std::to_string(i) + " has no name");
    }
    for (std::size_t j = i + 1; j < cert.kept.size(); ++j) {
      if (cert.kept[i].name() == cert.kept[j].name()) {
        problem("duplicate kept test name '" + cert.kept[i].name() + "'");
      }
    }
  }
  if (!check.ok) return check;

  SimulatorOptions sim_options;
  sim_options.memory_size = cert.memory_size;
  const FaultSimulator simulator(sim_options);

  // Packed coverage of every kept test, once; covers reference them by name.
  std::map<std::string, CoverageReport> kept_reports;
  for (const MarchTest& test : cert.kept) {
    try {
      kept_reports.emplace(test.name(),
                           evaluate_coverage(simulator, test, universe,
                                             /*max_instances_per_fault=*/0));
      ++check.reports_evaluated;
    } catch (const std::exception& e) {
      problem("kept test '" + test.name() + "' failed to evaluate: " +
              e.what());
      return check;
    }
  }

  for (const CertificateDrop& drop : cert.dropped) {
    CoverageReport dropped_report;
    try {
      dropped_report = evaluate_coverage(simulator, drop.test, universe,
                                         /*max_instances_per_fault=*/0);
      ++check.reports_evaluated;
    } catch (const std::exception& e) {
      problem("dropped test '" + drop.test.name() +
              "' failed to evaluate: " + e.what());
      continue;
    }

    std::vector<char> witnessed(faults, 0);
    for (const CertificateCover& cover : drop.covers) {
      if (cover.fault_index >= faults) {
        problem("'" + drop.test.name() + "': cover row names fault index " +
                std::to_string(cover.fault_index) + " of a " +
                std::to_string(faults) + "-fault universe");
        continue;
      }
      if (witnessed[cover.fault_index] != 0) {
        problem("'" + drop.test.name() + "': duplicate cover row for fault " +
                cover.fault_name);
        continue;
      }
      witnessed[cover.fault_index] = 1;
      const std::string canonical = fault_name(universe, cover.fault_index);
      if (cover.fault_name != canonical) {
        problem("'" + drop.test.name() + "': cover row calls fault " +
                std::to_string(cover.fault_index) + " '" + cover.fault_name +
                "' but the universe names it '" + canonical + "'");
        continue;
      }
      if (!dropped_report.entries[cover.fault_index].covered) {
        problem("'" + drop.test.name() + "': cover row claims it detects " +
                cover.fault_name +
                " but the packed engine says it does not");
        continue;
      }
      const auto kept_it = kept_reports.find(cover.kept_test);
      if (kept_it == kept_reports.end()) {
        problem("'" + drop.test.name() + "': cover row names unknown kept "
                "test '" + cover.kept_test + "'");
        continue;
      }
      if (!kept_it->second.entries[cover.fault_index].covered) {
        problem("'" + drop.test.name() + "': kept test '" + cover.kept_test +
                "' does not cover " + cover.fault_name +
                " under the packed engine — the witness is wrong");
        continue;
      }
      ++check.faults_checked;
    }

    // Union preservation is exactly: every fault the dropped test covers
    // has a (verified) witness row.
    for (std::size_t f = 0; f < faults; ++f) {
      if (dropped_report.entries[f].covered && witnessed[f] == 0) {
        problem("'" + drop.test.name() + "': covers " +
                dropped_report.entries[f].fault +
                " but the certificate has no witness row for it — dropping "
                "the test would lose coverage the certificate does not "
                "account for");
      }
    }
  }
  return check;
}

}  // namespace mtg
