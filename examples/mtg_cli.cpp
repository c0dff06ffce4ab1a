// mtg_cli — command line front end for the march test generation library.
//
//   mtg_cli catalog
//       list the published march tests with complexity
//   mtg_cli lists [--list-file <path>] [--suite-file <path>]
//       show the built-in fault lists and their sizes; with --list-file /
//       --suite-file, also summarize the external catalog file(s)
//   mtg_cli generate <list1|list2|simple|retention|decoder> [--stats]
//   mtg_cli generate --list-file <path> [--stats]
//       generate a march test for a built-in or external fault list; --stats
//       prints the per-phase timing breakdown and the generation lap log
//   mtg_cli coverage [<test>] <list> [n]
//       fault-simulate a march test against a built-in fault list.  <test>
//       is march notation (e.g. "{c(w0); ^(r0,w1); v(r1,w0)}"), a catalog
//       test name (e.g. "March SL"), or — with --suite-file — a test name
//       from the external suite; omitted, it defaults to March SL
//   mtg_cli coverage ... --list-file <path>
//       target an external fault list (format/fault_list_text.hpp: simple,
//       linked and decoder sections) instead of a built-in one
//   mtg_cli coverage ... --suite-file <path>
//       resolve <test> by name from an external march-test suite
//   mtg_cli coverage ... --sweep 64,256,4096,65536 [--cap k]
//       memory-size sweep: coverage at every listed n, evaluated in
//       parallel; per-fault layouts are capped (deterministically sampled)
//       above --cap instances (default 4096, 0 = full enumeration)
//   mtg_cli coverage ... --store <dir>
//       persistent result cache (store/sweep_store.hpp): external catalogs
//       key by the same canonical-serialization hashes as built-ins, so
//       re-runs hit the store (0 points evaluated) with no schema change.
//       --store-retries / --store-backoff-ms tune the write-retry ladder
//   mtg_cli matrix <jobfile> [--threads <k>] [--queue-capacity <q>]
//           [--reject] [--store <dir>]
//       batch front end of the coverage-matrix service
//       (service/matrix_service.hpp): submits every job of a 'jobs v1' file
//       (service/job_file.hpp) and streams one JSON line per completed job
//       to stdout, summary to stderr.  --reject switches the backpressure
//       policy from Block to Reject; Ctrl-C cancels the remaining jobs and
//       reports the completed ones (exit 130)
//
// SIGINT/SIGTERM trip one cooperative cancel token: 'matrix' and
// 'coverage --sweep' stop in bounded time, flush completed results (and the
// store), and report a partial summary instead of dying mid-write.
//   mtg_cli lint [<test>...] [<list>] [n] [--list-file <path>]
//           [--suite-file <path>] [--werror]
//       static catalog linter (analysis/lint.hpp): flags redundant march
//       elements, dead operations, duplicate/subsumed fault records and
//       zero-instance faults at the given memory size (default 6), against
//       a built-in list (default list1) or --list-file.  Tests come from
//       the positional specs (march notation or catalog/suite names); with
//       --suite-file and no specs, every suite test is linted.  Findings
//       from catalog files carry path:line:column positions.  Findings are
//       warnings by default (exit 0); --werror exits 1 on any finding — the
//       CI catalog-check mode
//   mtg_cli lint --jobs-file <path> [--werror]
//       lint a 'jobs v1' file instead (analysis/job_lint.hpp): duplicate
//       (test, list, n, cap) jobs, references to tests/lists no directive
//       defines, zero/implausible deadline_ms — path:line:column anchored
//   mtg_cli optimize <suite-file> [n] [--list <universe-spec>]
//           [--list-file <path>] [--out <path>]
//       greedy minimal sub-suite preserving the suite's union static
//       coverage over a fault universe (analysis/certificate.hpp), proved
//       by the symbolic analyzer; emits a 'certificate v1' document (stdout
//       or --out) whose per-dropped-test witness rows 'verify' re-checks.
//       The universe is a closed-form spec ("list1", "simple+decoder[0,12)",
//       families simple/retention/linked1/linked2/linked3/linkedrt/
//       list1/list2; default list1) or an external --list-file
//   mtg_cli verify <certificate-file> [--list-file <path>]
//       re-check a certificate against the packed simulation engine: the
//       universe hash must match, and every witness row must hold under
//       full fault enumeration.  The universe re-materializes from the
//       embedded spec; certificates over external lists need --list-file.
//       Exits 1 when any check fails
//   mtg_cli check <path>...
//       parse catalog files (fault lists or suites), reporting
//       path:line:column-annotated errors; the CI catalog-rot guard.  Adds
//       a static-coverage summary per parsed catalog (instantiable fault
//       counts; per-suite-test verdict counts vs list1 at n=6)
//   mtg_cli dot <g0|pgcf>
//       print the Figure 2 / Figure 4 graph as GraphViz DOT
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/job_lint.hpp"
#include "analysis/lint.hpp"
#include "analysis/static_analyzer.hpp"
#include "analysis/subsumption.hpp"
#include "common/cancel.hpp"
#include "common/parse.hpp"
#include "service/job_file.hpp"
#include "service/matrix_service.hpp"
#include "format/catalog_io.hpp"
#include "fp/fault_list.hpp"
#include "gen/generator.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "memory/pattern_graph.hpp"
#include "sim/coverage.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_store.hpp"

namespace {

using namespace mtg;

/// The process-wide interrupt token: SIGINT/SIGTERM trip it, and every
/// cancellable command ('matrix', 'coverage --sweep') polls it.  cancel() is
/// one lock-free CAS, so calling it from the handler is async-signal-safe.
CancelToken g_interrupt;

extern "C" void handle_interrupt(int) { g_interrupt.cancel(); }

void install_interrupt_handler() {
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
}

/// Exit status for an interrupted run: the shell convention 128 + SIGINT.
constexpr int kInterruptedExit = 130;

FaultList list_by_name(const std::string& name) {
  if (name == "list1") return fault_list_1();
  if (name == "list2") return fault_list_2();
  if (name == "simple") return standard_simple_static_faults();
  if (name == "retention") return retention_fault_list();
  if (name == "decoder") return decoder_fault_list();
  throw Error("unknown fault list '" + name +
              "' (use list1, list2, simple, retention or decoder)");
}

/// Resolves the coverage test spec: march notation when it contains an
/// element (a '(' is never part of a name), otherwise a test name looked up
/// in the external suite (when given) and then in the built-in catalog.
MarchTest resolve_test(const std::string& spec, const MarchSuite* suite) {
  if (spec.find('(') != std::string::npos) {
    return parse_march_test(spec, "cli test");
  }
  if (suite != nullptr) {
    if (const MarchTest* test = suite->find(spec)) return *test;
  }
  for (const MarchTest& test : all_catalog_tests()) {
    if (test.name() == spec) return test;
  }
  std::string message = "unknown test name '" + spec + "'";
  if (suite != nullptr) {
    message += "; the suite defines:";
    for (const MarchTest& test : suite->tests) {
      message += " \"" + test.name() + "\"";
    }
  }
  message +=
      " (pass a catalog test name or march notation like "
      "\"{c(w0); ^(r0,w1); v(r1,w0)}\")";
  throw Error(message);
}

int cmd_catalog() {
  for (const MarchTest& test : all_catalog_tests()) {
    std::cout << test.name() << " (" << test.complexity_label() << "): "
              << test.to_string() << "\n";
  }
  return 0;
}

void print_list_summary(const std::string& label, const FaultList& list) {
  std::cout << label << ": " << list.name << " — " << list.size()
            << " faults (" << list.simple.size() << " simple, "
            << list.linked.size() << " linked, " << list.decoder.size()
            << " decoder)\n";
}

int cmd_lists(const std::string& list_file, const std::string& suite_file) {
  for (const char* name : {"list1", "list2", "simple", "retention", "decoder"}) {
    print_list_summary(name, list_by_name(name));
  }
  if (!list_file.empty()) {
    print_list_summary(list_file, load_fault_list_file(list_file));
  }
  if (!suite_file.empty()) {
    const MarchSuite suite = load_march_suite_file(suite_file);
    std::cout << suite_file << ": " << suite.size() << " tests\n";
    for (const MarchTest& test : suite.tests) {
      std::cout << "  " << test.name() << " (" << test.complexity_label()
                << "): " << test.to_string() << "\n";
    }
  }
  return 0;
}

int cmd_generate(const FaultList& list, bool stats) {
  const GenerationResult result = generate_march_test(list);
  std::cout << result.test.to_string() << "\n"
            << "complexity: " << result.test.complexity_label() << "\n"
            << "cpu time:   " << result.stats.elapsed_seconds << " s\n"
            << result.certification.summary() << "\n";
  for (const std::string& name : result.uncoverable) {
    std::cout << "uncoverable: " << name << "\n";
  }
  if (stats) {
    const GenerationStats& s = result.stats;
    std::cout << "--- generation stats ---\n"
              << "phase A (greedy):        " << s.phase_a_seconds << " s ("
              << s.greedy_rounds << " rounds, " << s.working_instances
              << " instances, pool " << s.candidate_pool << ")\n"
              << "certify state prep:      " << s.cert_prep_seconds << " s ("
              << s.certify_instances << " instances)\n"
              << "phase B (certification): " << s.phase_b_seconds << " s ("
              << s.certify_iterations << " iterations, "
              << s.instances_dropped << " instances dropped)\n"
              << "phase C (minimizer):     " << s.phase_c_seconds << " s ("
              << s.minimize_trials << " trials, "
              << s.minimize_element_replays << " element replays)\n"
              << "phase B2 (re-certify):   " << s.phase_b2_seconds << " s\n"
              << "--- generation log ---\n";
    for (const std::string& line : s.log) std::cout << line << "\n";
  }
  return result.full_coverage ? 0 : 1;
}

void print_store_stats(const SweepStore& store, const std::string& path) {
  const SweepStoreStats stats = store.stats();
  std::cout << "store " << path << ": " << stats.hits << " hits, "
            << stats.misses << " misses, " << stats.saves << " saved";
  if (stats.corrupt_records > 0) {
    std::cout << ", " << stats.corrupt_records << " corrupt repaired";
  }
  if (!store.enabled()) std::cout << " (degraded: store disabled)";
  std::cout << "\n";
}

int cmd_sweep(const MarchTest& test, const FaultList& list,
              const std::string& size_list, std::size_t cap,
              const std::string& store_path,
              const SweepStoreOptions& store_options) {
  SweepOptions options;
  options.max_instances_per_fault = cap;
  options.cancel = &g_interrupt;  // Ctrl-C skips the remaining points
  PosixStorage storage;
  std::optional<SweepStore> store;
  if (!store_path.empty()) {
    store.emplace(storage, store_path, store_options);
    store->open();  // failure degrades to store-less with a warning
    options.store = &*store;
  }
  // parse_size_list (common/parse.hpp) keeps duplicates and unsorted sizes
  // as given; sweep_coverage validates the n >= 3 minimum up front and
  // throws a clean Error before any point evaluates.
  const std::vector<SweepPoint> points = sweep_coverage(
      test, list, parse_size_list(size_list, "--sweep memory size"), options);
  std::cout << test.to_string() << " vs " << list.name << " (per-fault cap "
            << cap << "):\n"
            << sweep_summary(points);
  for (const SweepPoint& point : points) {
    // Cancelled points have no report (never partial) — the summary table
    // above already marks them; full-coverage rows need no detail line.
    if (point.cancelled || point.report.full_coverage()) continue;
    std::cout << "n=" << point.memory_size << ": "
              << point.report.summary() << "\n";
  }
  if (store.has_value()) {
    std::cout << "points evaluated: " << sweep_points_evaluated(points)
              << " of " << points.size() << "\n";
    print_store_stats(*store, store_path);
  }
  if (g_interrupt.cancelled()) {
    // Completed points printed and (with --store) persisted above — the
    // re-run resumes from them; only the cancelled rows recompute.
    const std::size_t done =
        static_cast<std::size_t>(std::count_if(
            points.begin(), points.end(),
            [](const SweepPoint& p) { return !p.cancelled; }));
    std::cerr << "interrupted: " << done << " of " << points.size()
              << " sweep points completed before cancellation\n";
    return kInterruptedExit;
  }
  const bool all_covered =
      std::all_of(points.begin(), points.end(), [](const SweepPoint& p) {
        return p.report.full_coverage();
      });
  return all_covered ? 0 : 1;
}

int cmd_coverage(const MarchTest& test, const FaultList& list, std::size_t n,
                 const std::string& store_path,
                 const SweepStoreOptions& store_options) {
  if (!store_path.empty()) {
    // Route through the sweep path so the single point reads/writes the
    // store like any grid cell.  Full enumeration (cap 0) matches the
    // store-less branch below, so the printed report is byte-identical.
    PosixStorage storage;
    SweepStore store(storage, store_path, store_options);
    store.open();
    SweepOptions options;
    options.max_instances_per_fault = 0;
    options.store = &store;
    const std::vector<SweepPoint> points =
        sweep_coverage(test, list, {n}, options);
    std::cout << points[0].report.summary() << "\n"
              << analyze_coverage(test, list, n).summary() << "\n";
    print_store_stats(store, store_path);
    return points[0].report.full_coverage() ? 0 : 1;
  }
  const FaultSimulator simulator(SimulatorOptions{n});
  const CoverageReport report = evaluate_coverage(simulator, test, list);
  std::cout << report.summary() << "\n"
            << analyze_coverage(test, list, n).summary() << "\n";
  return report.full_coverage() ? 0 : 1;
}

/// The static-coverage lines 'check' appends per parsed catalog: how much
/// of a fault list is even instantiable at the default memory size, and the
/// analyzer's verdict counts for every suite test against list1.
void print_check_static_summary(const std::string& path) {
  constexpr std::size_t kN = 6;
  const std::string text = read_text_file(path);
  if (detect_catalog_kind(text, path) == CatalogKind::FaultListFile) {
    const FaultList list = parse_fault_list_text(text, path);
    std::size_t instantiable = 0;
    for (const SimpleFault& fault : list.simple) {
      if (static_instance_count(fault, kN) > 0) ++instantiable;
    }
    for (const LinkedFault& fault : list.linked) {
      if (static_instance_count(fault, kN) > 0) ++instantiable;
    }
    for (const DecoderFault& fault : list.decoder) {
      if (static_instance_count(fault, kN) > 0) ++instantiable;
    }
    std::cout << "  static@n=" << kN << ": " << instantiable << " of "
              << list.size() << " faults instantiable\n";
    return;
  }
  const MarchSuite suite = parse_march_suite_text(text, path);
  const FaultList list = fault_list_1();
  for (const MarchTest& test : suite.tests) {
    std::cout << "  " << test.name() << " vs " << list.name << " @n=" << kN
              << ": " << analyze_coverage(test, list, kN).summary() << "\n";
  }
}

int cmd_check(const std::vector<std::string>& paths) {
  bool all_ok = true;
  for (const std::string& path : paths) {
    try {
      const std::string summary = check_catalog_file(path);
      std::cout << "ok " << path << ": " << summary << "\n";
      print_check_static_summary(path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

/// Prints the findings and maps them to an exit status: findings are
/// warnings unless --werror promotes them (the CI catalog-check mode).
int report_lint_findings(const std::vector<LintFinding>& findings,
                         const std::string& clean_message, bool werror) {
  for (const LintFinding& finding : findings) {
    std::cout << finding.format() << "\n";
  }
  if (findings.empty()) {
    std::cout << clean_message << "\n";
    return 0;
  }
  std::cout << findings.size() << " lint finding(s)"
            << (werror ? " (treated as errors)" : "") << "\n";
  return werror ? 1 : 0;
}

int cmd_lint_jobs(const std::string& jobs_file, bool werror) {
  JobFilePositions positions;
  const JobFile file = load_job_file(jobs_file, &positions);
  std::optional<MarchSuite> suite;
  if (!file.suite_path.empty()) suite = load_march_suite_file(file.suite_path);
  const std::vector<LintFinding> findings = lint_job_file(
      file, suite.has_value() ? &*suite : nullptr, {}, jobs_file, &positions);
  return report_lint_findings(
      findings,
      "clean: no lint findings in " + jobs_file + " (" +
          std::to_string(file.jobs.size()) + " jobs)",
      werror);
}

int cmd_lint(const std::vector<std::string>& test_specs,
             const std::string& list_name, const std::string& list_file,
             const std::string& suite_file, std::size_t n, bool werror) {
  LintOptions options;
  options.memory_size = n;
  std::vector<LintFinding> findings;

  FaultList list;
  FaultListPositions list_positions;
  if (list_file.empty()) {
    list = list_by_name(list_name);
    const auto list_findings = lint_fault_list(list, options, list_name);
    findings.insert(findings.end(), list_findings.begin(),
                    list_findings.end());
  } else {
    list = parse_fault_list_text(read_text_file(list_file), list_file,
                                 &list_positions);
    const auto list_findings =
        lint_fault_list(list, options, list_file, &list_positions);
    findings.insert(findings.end(), list_findings.begin(),
                    list_findings.end());
  }

  std::optional<MarchSuite> suite;
  std::vector<SuiteTestPosition> suite_positions;
  if (!suite_file.empty()) {
    suite = parse_march_suite_text(read_text_file(suite_file), suite_file,
                                   &suite_positions);
  }

  // Lint targets: the positional specs; with a suite and no specs, every
  // suite test.  Suite-resolved tests keep their document positions.
  struct Target {
    MarchTest test;
    const SuiteTestPosition* positions;
    std::string source;
  };
  std::vector<Target> targets;
  const auto suite_target = [&](const std::string& name)
      -> const SuiteTestPosition* {
    if (!suite.has_value()) return nullptr;
    for (std::size_t i = 0; i < suite->tests.size(); ++i) {
      if (suite->tests[i].name() == name) return &suite_positions[i];
    }
    return nullptr;
  };
  if (test_specs.empty() && suite.has_value()) {
    for (std::size_t i = 0; i < suite->tests.size(); ++i) {
      targets.push_back({suite->tests[i], &suite_positions[i], suite_file});
    }
  }
  for (const std::string& spec : test_specs) {
    const MarchTest test = resolve_test(spec, suite ? &*suite : nullptr);
    const SuiteTestPosition* positions = suite_target(test.name());
    targets.push_back(
        {test, positions, positions != nullptr ? suite_file : test.name()});
  }
  for (const Target& target : targets) {
    const auto test_findings = lint_march_test(target.test, list, options,
                                               target.source,
                                               target.positions);
    findings.insert(findings.end(), test_findings.begin(),
                    test_findings.end());
  }

  return report_lint_findings(findings,
                              "clean: no lint findings against " + list.name +
                                  " at n=" + std::to_string(n),
                              werror);
}

int cmd_optimize(const std::string& suite_path,
                 const std::string& universe_spec,
                 const std::string& list_file, std::size_t n,
                 const std::string& out_path) {
  const MarchSuite suite = load_march_suite_file(suite_path);
  FaultList universe;
  std::string spec;
  if (!list_file.empty()) {
    // External universes have no closed-form spec: the certificate pins
    // them by content hash, and 'verify' needs the same --list-file.
    universe = load_fault_list_file(list_file);
  } else {
    const FaultUniverse parsed =
        FaultUniverse::parse(universe_spec.empty() ? "list1" : universe_spec);
    universe = parsed.materialize();
    spec = parsed.spec();
  }
  const Certificate cert = optimize_suite(suite, universe, spec, n);
  const std::string text = to_canonical_string(cert);
  if (out_path.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    out << text;
    out.flush();
    require(out.good(), "failed to write certificate to " + out_path);
  }
  std::size_t cover_rows = 0;
  for (const CertificateDrop& drop : cert.dropped) {
    cover_rows += drop.covers.size();
  }
  std::cerr << "optimize: kept " << cert.kept.size() << " of "
            << suite.size() << " tests over " << universe.size()
            << " faults at n=" << n << " (" << cert.dropped.size()
            << " dropped, " << cover_rows << " witness rows)\n";
  return 0;
}

int cmd_verify(const std::string& cert_path, const std::string& list_file) {
  const Certificate cert = load_certificate_file(cert_path);
  FaultList universe;
  if (!list_file.empty()) {
    universe = load_fault_list_file(list_file);
  } else {
    require(!cert.universe_spec.empty(),
            "certificate pins an external universe by hash only — pass the "
            "same fault list with --list-file");
    universe = FaultUniverse::parse(cert.universe_spec).materialize();
  }
  const CertificateCheck check = verify_certificate(cert, universe);
  for (const std::string& problem : check.problems) {
    std::cout << cert_path << ": " << problem << "\n";
  }
  std::cout << cert_path << ": " << check.summary() << "\n";
  return check.ok ? 0 : 1;
}

int cmd_dot(const std::string& which) {
  if (which == "g0") {
    std::cout << make_g0().to_dot("G0");
    return 0;
  }
  if (which == "pgcf") {
    std::cout << make_pgcf().to_dot("PGCF");
    return 0;
  }
  throw Error("unknown graph '" + which + "' (use g0 or pgcf)");
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int cmd_matrix(const std::string& path, std::size_t threads,
               std::size_t queue_capacity, bool reject,
               const std::string& store_path,
               const SweepStoreOptions& store_options) {
  const JobFile file = load_job_file(path);
  std::optional<MarchSuite> suite;
  if (!file.suite_path.empty()) suite = load_march_suite_file(file.suite_path);
  // Catalogs load once and are shared: many jobs typically name the same
  // list.
  std::map<std::string, std::shared_ptr<const FaultList>> lists;
  for (const auto& [alias, list_path] : file.fault_list_files) {
    lists[alias] =
        std::make_shared<const FaultList>(load_fault_list_file(list_path));
  }
  const auto list_for = [&](const std::string& name) {
    const auto it = lists.find(name);
    if (it != lists.end()) return it->second;
    const auto list = std::make_shared<const FaultList>(list_by_name(name));
    lists.emplace(name, list);
    return list;
  };

  // Resolve every job before submitting any: a typo in job 40 should be a
  // clean file:line diagnostic, not 39 evaluations followed by an error.
  struct ResolvedJob {
    MatrixJob job;
    std::string test_display;
    std::string list_display;
  };
  std::vector<ResolvedJob> resolved;
  resolved.reserve(file.jobs.size());
  for (const JobFileRecord& record : file.jobs) {
    try {
      ResolvedJob entry;
      entry.job.test = resolve_test(record.test_spec,
                                    suite.has_value() ? &*suite : nullptr);
      entry.job.list = list_for(record.list_name);
      entry.job.memory_size = record.memory_size;
      entry.job.max_instances_per_fault = record.max_instances_per_fault;
      entry.job.deadline = record.deadline;
      // Display the spec as written: a suite/catalog name stays a name,
      // march notation stays notation (its parsed "name" is a source tag).
      entry.test_display = record.test_spec;
      entry.list_display = record.list_name;
      resolved.push_back(std::move(entry));
    } catch (const Error& e) {
      throw Error(path + ":" + std::to_string(record.line) + ": " + e.what());
    }
  }

  PosixStorage storage;
  std::optional<SweepStore> store;
  if (!store_path.empty()) {
    store.emplace(storage, store_path, store_options);
    store->open();  // failure degrades to store-less with a warning
  }

  // One JSON line per terminal job, streamed from the workers as jobs land
  // (completion order, not submission order — the job id ties them back).
  std::mutex output_mutex;
  MatrixServiceOptions options;
  options.threads = threads;
  options.queue_capacity = queue_capacity;
  options.when_full =
      reject ? BackpressurePolicy::Reject : BackpressurePolicy::Block;
  options.store = store.has_value() ? &*store : nullptr;
  options.cancel = &g_interrupt;
  options.on_result = [&](const MatrixJobResult& result) {
    const ResolvedJob& entry = resolved[result.job_id];
    std::lock_guard<std::mutex> lock(output_mutex);
    std::cout << "{\"job\":" << result.job_id << ",\"test\":\""
              << json_escape(entry.test_display) << "\",\"list\":\""
              << json_escape(entry.list_display) << "\",\"n\":"
              << entry.job.memory_size << ",\"cap\":"
              << entry.job.max_instances_per_fault << ",\"status\":\""
              << to_string(result.status) << "\"";
    if (result.status == JobStatus::Completed) {
      std::cout << ",\"faults_covered\":" << result.report.faults_covered()
                << ",\"faults_total\":" << result.report.faults_total()
                << ",\"instances_detected\":"
                << result.report.instances_detected()
                << ",\"instances_total\":" << result.report.instances_total()
                << ",\"from_store\":"
                << (result.from_store ? "true" : "false");
    }
    if (!result.error.empty()) {
      std::cout << ",\"error\":\"" << json_escape(result.error) << "\"";
    }
    std::cout << "}\n" << std::flush;
  };

  std::vector<MatrixJobResult> results;
  {
    MatrixService service(options);
    for (const ResolvedJob& entry : resolved) {
      // After an interrupt the submission loop stops: already-queued jobs
      // drain as Cancelled, unsubmitted ones are never admitted.
      if (g_interrupt.cancelled()) break;
      service.submit(entry.job);
    }
    results = service.drain();
    const MatrixServiceStats stats = service.stats();
    std::lock_guard<std::mutex> lock(output_mutex);
    std::cerr << "matrix: " << stats.completed << " completed ("
              << stats.store_hits << " from store), " << stats.failed
              << " failed, " << stats.cancelled << " cancelled, "
              << stats.deadline_exceeded << " deadline-exceeded, "
              << stats.rejected << " rejected of " << resolved.size()
              << " jobs\n";
  }
  if (store.has_value()) print_store_stats(*store, store_path);

  if (g_interrupt.cancelled()) return kInterruptedExit;
  const bool all_completed =
      results.size() == resolved.size() &&
      std::all_of(results.begin(), results.end(),
                  [](const MatrixJobResult& r) {
                    return r.status == JobStatus::Completed;
                  });
  return all_completed ? 0 : 1;
}

int usage() {
  std::cerr
      << "usage:\n"
      << "  mtg_cli catalog\n"
      << "  mtg_cli lists [--list-file <path>] [--suite-file <path>]\n"
      << "  mtg_cli generate <list1|list2|simple|retention|decoder> "
         "[--stats]\n"
      << "  mtg_cli generate --list-file <path> [--stats]\n"
      << "  mtg_cli coverage [<test>] <list> [n] [--store <dir>]\n"
      << "  mtg_cli coverage [<test>] <list> --sweep <n1,n2,...> "
         "[--cap <instances-per-fault>] [--store <dir>]\n"
      << "    <test>: march notation, a catalog test name, or (with "
         "--suite-file) a suite\n"
      << "    test name; defaults to \"March SL\" when omitted\n"
      << "    <list>: a built-in list name, or --list-file <path> instead\n"
      << "  mtg_cli matrix <jobfile> [--threads <k>] [--queue-capacity <q>] "
         "[--reject] [--store <dir>]\n"
      << "    batch coverage-matrix service over a 'jobs v1' file; one JSON "
         "line per job\n"
      << "  (stores: --store-retries <k> and --store-backoff-ms <ms> tune "
         "the write-retry ladder)\n"
      << "  mtg_cli lint [<test>...] [<list>] [n] [--list-file <path>] "
         "[--suite-file <path>] [--werror]\n"
      << "  mtg_cli lint --jobs-file <path> [--werror]\n"
      << "  mtg_cli optimize <suite-file> [n] [--list <universe-spec>] "
         "[--list-file <path>] [--out <path>]\n"
      << "    greedy minimal sub-suite + 'certificate v1' proof; universe "
         "spec e.g. \"simple+decoder[0,12)\"\n"
      << "  mtg_cli verify <certificate-file> [--list-file <path>]\n"
      << "    re-check a certificate against the packed simulation engine\n"
      << "  mtg_cli check <path>...\n"
      << "  mtg_cli dot <g0|pgcf>\n";
  return 2;
}

bool all_digits(const std::string& text) {
  return !text.empty() &&
         text.find_first_not_of("0123456789") == std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "catalog") return cmd_catalog();
    if (command == "check" && argc > 2) {
      return cmd_check(std::vector<std::string>(argv + 2, argv + argc));
    }
    if (command == "lists" || command == "generate" ||
        command == "coverage" || command == "lint" || command == "matrix" ||
        command == "optimize" || command == "verify") {
      // Shared flag/positional split for the catalog-aware commands.
      std::vector<std::string> positional;
      std::string list_file, suite_file, sweep_sizes, store_path;
      std::string universe_spec, out_path, jobs_file;
      std::size_t cap = 4096;
      bool stats = false;
      std::size_t threads = 0, queue_capacity = 256;
      bool reject = false, werror = false;
      SweepStoreOptions store_options;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-file" && i + 1 < argc) {
          list_file = argv[++i];
        } else if (arg == "--suite-file" && i + 1 < argc) {
          suite_file = argv[++i];
        } else if (arg == "--sweep" && i + 1 < argc) {
          sweep_sizes = argv[++i];
        } else if (arg == "--cap" && i + 1 < argc) {
          cap = parse_count(argv[++i], "--cap");
        } else if (arg == "--store" && i + 1 < argc) {
          store_path = argv[++i];
        } else if (arg == "--store-retries" && i + 1 < argc) {
          const std::size_t retries =
              parse_count(argv[++i], "--store-retries");
          require(retries >= 1 && retries <= 1000,
                  "--store-retries must be between 1 and 1000");
          store_options.max_write_attempts = static_cast<int>(retries);
        } else if (arg == "--store-backoff-ms" && i + 1 < argc) {
          store_options.retry_backoff = std::chrono::milliseconds(
              parse_count(argv[++i], "--store-backoff-ms"));
        } else if (arg == "--threads" && i + 1 < argc) {
          threads = parse_count(argv[++i], "--threads");
        } else if (arg == "--queue-capacity" && i + 1 < argc) {
          queue_capacity = parse_count(argv[++i], "--queue-capacity");
          require(queue_capacity >= 1, "--queue-capacity must be >= 1");
        } else if (arg == "--reject") {
          reject = true;
        } else if (arg == "--stats") {
          stats = true;
        } else if (arg == "--werror") {
          werror = true;
        } else if (arg == "--list" && i + 1 < argc) {
          universe_spec = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
          out_path = argv[++i];
        } else if (arg == "--jobs-file" && i + 1 < argc) {
          jobs_file = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
          return usage();
        } else {
          positional.push_back(arg);
        }
      }

      if (command == "matrix") {
        if (positional.size() != 1 || stats || !sweep_sizes.empty() ||
            !list_file.empty() || !suite_file.empty() ||
            !universe_spec.empty() || !out_path.empty() ||
            !jobs_file.empty() || werror) {
          return usage();
        }
        install_interrupt_handler();
        return cmd_matrix(positional[0], threads, queue_capacity, reject,
                          store_path, store_options);
      }
      if (threads != 0 || queue_capacity != 256 || reject) {
        return usage();
      }

      if (command == "optimize") {
        if (stats || werror || !sweep_sizes.empty() || !store_path.empty() ||
            !suite_file.empty() || !jobs_file.empty() ||
            (!universe_spec.empty() && !list_file.empty())) {
          return usage();
        }
        // Positionals: <suite-file> [n].
        std::string suite_path;
        std::size_t n = 6;
        for (const std::string& arg : positional) {
          if (all_digits(arg)) {
            n = parse_memory_size(arg, "memory size");
          } else if (suite_path.empty()) {
            suite_path = arg;
          } else {
            return usage();
          }
        }
        if (suite_path.empty()) return usage();
        return cmd_optimize(suite_path, universe_spec, list_file, n,
                            out_path);
      }

      if (command == "verify") {
        if (positional.size() != 1 || stats || werror ||
            !sweep_sizes.empty() || !store_path.empty() ||
            !suite_file.empty() || !jobs_file.empty() ||
            !universe_spec.empty() || !out_path.empty()) {
          return usage();
        }
        return cmd_verify(positional[0], list_file);
      }
      if (!universe_spec.empty() || !out_path.empty()) return usage();

      if (command == "lists") {
        if (!positional.empty() || stats || werror || !jobs_file.empty()) {
          return usage();
        }
        return cmd_lists(list_file, suite_file);
      }

      if (command == "lint") {
        // Positionals sort themselves: digits are the memory size, a
        // built-in list name selects the lint target, anything else is a
        // test spec (march notation or a catalog/suite test name).
        if (stats || !sweep_sizes.empty() || !store_path.empty()) {
          return usage();
        }
        if (!jobs_file.empty()) {
          // Jobs-file mode is its own lint target: the checks are about the
          // batch file's internal consistency, not any one catalog.
          if (!positional.empty() || !list_file.empty() ||
              !suite_file.empty()) {
            return usage();
          }
          return cmd_lint_jobs(jobs_file, werror);
        }
        std::vector<std::string> specs;
        std::string lint_list = "list1";
        std::size_t lint_n = 6;
        for (const std::string& arg : positional) {
          if (all_digits(arg)) {
            lint_n = parse_memory_size(arg, "memory size");
          } else if (arg == "list1" || arg == "list2" || arg == "simple" ||
                     arg == "retention" || arg == "decoder") {
            lint_list = arg;
          } else {
            specs.push_back(arg);
          }
        }
        return cmd_lint(specs, lint_list, list_file, suite_file, lint_n,
                        werror);
      }
      if (werror || !jobs_file.empty()) return usage();

      if (command == "generate") {
        if (positional.size() != (list_file.empty() ? 1 : 0)) return usage();
        const FaultList list = list_file.empty()
                                   ? list_by_name(positional[0])
                                   : load_fault_list_file(list_file);
        return cmd_generate(list, stats);
      }

      // coverage: positionals are [<test>] <list> [n], where <list> moves to
      // --list-file when given and [n] conflicts with --sweep.
      if (stats) return usage();
      std::optional<MarchSuite> suite;
      if (!suite_file.empty()) suite = load_march_suite_file(suite_file);

      std::string test_spec;
      std::string list_name;
      std::optional<std::size_t> n;
      std::vector<std::string> rest = positional;
      if (list_file.empty()) {
        // <test> <list> [n] — but tolerate a leading-list-only spelling
        // ("coverage list1") by treating a lone built-in list name as the
        // list with the default test.
        if (rest.empty()) return usage();
        if (rest.size() == 1) {
          list_name = rest[0];
        } else {
          test_spec = rest[0];
          list_name = rest[1];
          if (rest.size() == 3) {
            n = parse_memory_size(rest[2], "memory size");
          } else if (rest.size() > 3) {
            return usage();
          }
        }
      } else {
        // [<test>] [n]
        if (rest.size() == 1) {
          (all_digits(rest[0]) ? void(n = parse_memory_size(rest[0],
                                                            "memory size"))
                               : void(test_spec = rest[0]));
        } else if (rest.size() == 2) {
          test_spec = rest[0];
          n = parse_memory_size(rest[1], "memory size");
        } else if (rest.size() > 2) {
          return usage();
        }
      }

      const FaultList list = list_file.empty() ? list_by_name(list_name)
                                               : load_fault_list_file(list_file);
      const MarchTest test = test_spec.empty()
                                 ? march_sl()
                                 : resolve_test(test_spec, suite ? &*suite
                                                                 : nullptr);
      if (!sweep_sizes.empty()) {
        if (n.has_value()) return usage();  // [n] is the non-sweep form
        install_interrupt_handler();
        return cmd_sweep(test, list, sweep_sizes, cap, store_path,
                         store_options);
      }
      return cmd_coverage(test, list, n.value_or(6), store_path,
                          store_options);
    }
    if (command == "dot" && argc > 2) return cmd_dot(argv[2]);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
