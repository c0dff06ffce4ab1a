// mtg_cli — command line front end for the march test generation library:
// generates march tests for the built-in fault lists (the paper's Table 1)
// and for external catalogs, measures and lints their coverage, runs
// coverage-matrix batches, and optimizes suites under a checkable
// certificate.
//
// Each verb is one entry of kVerbs: its operands, the flags it accepts and
// its handler.  main() parses argv against that entry and usage() prints
// the same table, so `mtg_cli` without arguments shows the whole grammar.
// Anything an entry does not name is a usage error.
//
// Exit status: 0 success; 1 failure (an `error:` line, partial coverage, a
// lint finding under --werror, a rejected certificate); 2 usage error; 130
// interrupted.  SIGINT/SIGTERM stop 'matrix' and 'coverage --sweep' in
// bounded time; completed results are printed (and stored) first.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/job_lint.hpp"
#include "analysis/lint.hpp"
#include "analysis/universe.hpp"
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

/// A malformed command line: main() prints the reason and the usage text,
/// and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

FaultList list_by_name(const std::string& name) {
  if (const BuiltinFaultList* list = find_builtin_fault_list(name)) {
    return list->make();
  }
  throw Error("unknown fault list '" + name + "' (use " +
              builtin_fault_list_names() + ")");
}

/// One parsed command line: the verb's operands and flags.  A value flag
/// maps to its value, which is never empty; a switch maps to "".
struct Args {
  std::vector<std::string> operands;
  std::map<std::string, std::string> flags;

  bool has(const std::string& flag) const { return flags.count(flag) != 0; }
  /// The flag's value, or "" when the flag is absent.
  std::string get(const std::string& flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? std::string() : it->second;
  }
  /// The flag's value as a count, or `fallback` when the flag is absent.
  std::size_t count(const std::string& flag, std::size_t fallback) const {
    return has(flag) ? parse_count(get(flag), flag) : fallback;
  }
};

bool all_digits(const std::string& text) {
  return !text.empty() &&
         text.find_first_not_of("0123456789") == std::string::npos;
}

/// Resolves a test spec: march notation when it contains an element (a '('
/// is never part of a name), otherwise a test name looked up in the
/// external suite (when given) and then in the built-in catalog.
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

/// The sweep store --store names, opened (an unusable directory degrades
/// to store-less with a warning); null without --store.
std::unique_ptr<SweepStore> open_store(const Args& args) {
  if (!args.has("--store")) return nullptr;
  SweepStoreOptions options;
  if (args.has("--store-retries")) {
    const std::size_t retries = args.count("--store-retries", 0);
    require(retries >= 1 && retries <= 1000,
            "--store-retries must be between 1 and 1000");
    options.max_write_attempts = static_cast<int>(retries);
  }
  if (args.has("--store-backoff-ms")) {
    options.retry_backoff =
        std::chrono::milliseconds(args.count("--store-backoff-ms", 0));
  }
  static PosixStorage storage;  // stateless, and outlives every store
  auto store =
      std::make_unique<SweepStore>(storage, args.get("--store"), options);
  store->open();
  return store;
}

void print_store_stats(const SweepStore* store, const Args& args) {
  if (store == nullptr) return;
  const SweepStoreStats stats = store->stats();
  std::cout << "store " << args.get("--store") << ": " << stats.hits
            << " hits, " << stats.misses << " misses, " << stats.saves
            << " saved";
  if (stats.corrupt_records > 0) {
    std::cout << ", " << stats.corrupt_records << " corrupt repaired";
  }
  if (!store->enabled()) std::cout << " (degraded: store disabled)";
  std::cout << "\n";
}

int cmd_catalog(const Args&) {
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

int cmd_lists(const Args& args) {
  for (const BuiltinFaultList& list : builtin_fault_lists()) {
    print_list_summary(list.name, list.make());
  }
  const std::string list_file = args.get("--list-file");
  if (!list_file.empty()) {
    print_list_summary(list_file, load_fault_list_file(list_file));
  }
  const std::string suite_file = args.get("--suite-file");
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

int cmd_generate(const Args& args) {
  const std::string list_file = args.get("--list-file");
  if (args.operands.size() != (list_file.empty() ? 1u : 0u)) {
    throw UsageError("generate takes either a built-in list or --list-file");
  }
  const FaultList list = list_file.empty() ? list_by_name(args.operands[0])
                                           : load_fault_list_file(list_file);
  const GenerationResult result = generate_march_test(list);
  std::cout << result.test.to_string() << "\n"
            << "complexity: " << result.test.complexity_label() << "\n"
            << "wall time:  " << result.stats.elapsed_seconds << " s\n"
            << result.certification.summary() << "\n";
  for (const std::string& name : result.uncoverable) {
    std::cout << "uncoverable: " << name << "\n";
  }
  if (args.has("--stats")) {
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

int run_sweep(const MarchTest& test, const FaultList& list, const Args& args,
              SweepStore* store) {
  install_interrupt_handler();
  SweepOptions options;
  options.max_instances_per_fault = args.count("--cap", 4096);
  options.cancel = &g_interrupt;  // Ctrl-C skips the remaining points
  options.store = store;
  // parse_size_list (common/parse.hpp) keeps duplicates and unsorted sizes
  // as given; sweep_coverage validates the n >= 3 minimum up front and
  // throws a clean Error before any point evaluates.
  const std::vector<SweepPoint> points = sweep_coverage(
      test, list, parse_size_list(args.get("--sweep"), "--sweep memory size"),
      options);
  std::cout << test.to_string() << " vs " << list.name << " (per-fault cap "
            << options.max_instances_per_fault << "):\n"
            << sweep_summary(points);
  for (const SweepPoint& point : points) {
    // Cancelled points have no report (never partial) — the summary table
    // above already marks them; full-coverage rows need no detail line.
    if (point.cancelled || point.report.full_coverage()) continue;
    std::cout << "n=" << point.memory_size << ": "
              << point.report.summary() << "\n";
  }
  if (store != nullptr) {
    std::cout << "points evaluated: " << sweep_points_evaluated(points)
              << " of " << points.size() << "\n";
    print_store_stats(store, args);
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

int cmd_coverage(const Args& args) {
  // Operands: [<test>] <list> [n], where --list-file takes <list>'s place.
  const std::string list_file = args.get("--list-file");
  const std::vector<std::string>& rest = args.operands;
  std::string test_spec;
  std::string list_name;
  std::optional<std::size_t> n;
  if (list_file.empty()) {
    // A lone operand is the list, with the default test.
    if (rest.empty()) {
      throw UsageError("coverage needs a built-in list or --list-file");
    }
    list_name = rest.size() == 1 ? rest[0] : rest[1];
    if (rest.size() >= 2) test_spec = rest[0];
    if (rest.size() == 3) n = parse_memory_size(rest[2], "memory size");
  } else if (rest.size() == 3) {
    throw UsageError("extra operand '" + rest[2] +
                     "' (with --list-file, coverage takes [<test>] [n])");
  } else if (rest.size() == 2 || (rest.size() == 1 && all_digits(rest[0]))) {
    n = parse_memory_size(rest.back(), "memory size");
    if (rest.size() == 2) test_spec = rest[0];
  } else if (rest.size() == 1) {
    test_spec = rest[0];
  }
  if (n.has_value() && args.has("--sweep")) {
    throw UsageError("coverage takes [n] or --sweep, not both");
  }

  std::optional<MarchSuite> suite;
  if (args.has("--suite-file")) {
    suite = load_march_suite_file(args.get("--suite-file"));
  }
  const FaultList list = list_file.empty() ? list_by_name(list_name)
                                           : load_fault_list_file(list_file);
  const MarchTest test =
      test_spec.empty() ? march_sl()
                        : resolve_test(test_spec, suite ? &*suite : nullptr);
  const std::unique_ptr<SweepStore> store = open_store(args);
  if (args.has("--sweep")) return run_sweep(test, list, args, store.get());

  // One sweep point with full enumeration (cap 0), so the store, when
  // given, serves it like any grid cell.
  SweepOptions options;
  options.max_instances_per_fault = 0;
  options.store = store.get();
  const std::size_t memory_size = n.value_or(6);
  const CoverageReport report =
      sweep_coverage(test, list, {memory_size}, options)[0].report;
  std::cout << report.summary() << "\n";
  print_store_stats(store.get(), args);
  return report.full_coverage() ? 0 : 1;
}

/// The coverage lines 'check' appends per parsed catalog: how much of a
/// fault list is even instantiable at the default memory size, and every
/// suite test's uncapped coverage of list1 there.
void print_check_static_summary(const std::string& path) {
  constexpr std::size_t kN = 6;
  const std::string text = read_text_file(path);
  if (detect_catalog_kind(text, path) == CatalogKind::FaultListFile) {
    const FaultList list = parse_fault_list_text(text, path);
    const auto fits = [](int cells) {
      return kept_layouts(kN, static_cast<std::size_t>(cells), 0) > 0;
    };
    std::size_t fit = 0;  // faults with at least one instance at kN
    for (const SimpleFault& f : list.simple) fit += fits(f.num_cells());
    for (const LinkedFault& f : list.linked) fit += fits(f.num_cells());
    for (const DecoderFault& f : list.decoder) {
      fit += decoder_address_count(f, kN) > 0;
    }
    std::cout << "  static@n=" << kN << ": " << fit << " of "
              << list.size() << " faults instantiable\n";
    return;
  }
  const MarchSuite suite = parse_march_suite_text(text, path);
  const FaultList list = fault_list_1();
  SimulatorOptions options;
  options.memory_size = kN;
  const FaultSimulator simulator(options);
  for (const MarchTest& test : suite.tests) {
    const CoverageReport report = evaluate_coverage(simulator, test, list, 0);
    std::cout << "  " << test.name() << " vs " << list.name << " @n=" << kN
              << ": " << report.faults_covered() << "/"
              << report.faults_total() << " faults covered\n";
  }
}

int cmd_check(const Args& args) {
  bool all_ok = true;
  for (const std::string& path : args.operands) {
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

/// 'lint --jobs-file': the checks are about the batch file's internal
/// consistency, not any one catalog.
int cmd_lint_jobs(const Args& args) {
  if (!args.operands.empty() || args.has("--list-file") ||
      args.has("--suite-file")) {
    throw UsageError("lint --jobs-file takes no operands, --list-file or "
                     "--suite-file");
  }
  const std::string jobs_file = args.get("--jobs-file");
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
      args.has("--werror"));
}

int cmd_lint(const Args& args) {
  if (args.has("--jobs-file")) return cmd_lint_jobs(args);
  const std::string list_file = args.get("--list-file");
  const std::string suite_file = args.get("--suite-file");

  // Operands sort themselves: digits are the memory size, a built-in list
  // name selects the lint target, anything else is a test spec (march
  // notation or a catalog/suite test name).
  std::vector<std::string> specs;
  std::string list_name;
  std::optional<std::size_t> n;
  for (const std::string& arg : args.operands) {
    if (all_digits(arg)) {
      if (n.has_value()) throw UsageError("extra memory size '" + arg + "'");
      n = parse_memory_size(arg, "memory size");
    } else if (find_builtin_fault_list(arg) != nullptr) {
      if (!list_name.empty() || !list_file.empty()) {
        throw UsageError("extra fault list '" + arg +
                         "' (lint takes one built-in list or --list-file)");
      }
      list_name = arg;
    } else {
      specs.push_back(arg);
    }
  }
  LintOptions options;
  options.memory_size = n.value_or(6);
  std::vector<LintFinding> findings;
  const auto append = [&findings](const std::vector<LintFinding>& more) {
    findings.insert(findings.end(), more.begin(), more.end());
  };

  FaultList list;
  if (list_file.empty()) {
    if (list_name.empty()) list_name = "list1";
    list = list_by_name(list_name);
    append(lint_fault_list(list, options, list_name));
  } else {
    FaultListPositions list_positions;
    list = parse_fault_list_text(read_text_file(list_file), list_file,
                                 &list_positions);
    append(lint_fault_list(list, options, list_file, &list_positions));
  }

  std::optional<MarchSuite> suite;
  std::vector<SuiteTestPosition> suite_positions;
  if (!suite_file.empty()) {
    suite = parse_march_suite_text(read_text_file(suite_file), suite_file,
                                   &suite_positions);
  }
  // Lint targets: the test specs; with a suite and no specs, every suite
  // test.  Suite-resolved tests keep their document positions.
  if (specs.empty() && suite.has_value()) {
    for (std::size_t i = 0; i < suite->tests.size(); ++i) {
      append(lint_march_test(suite->tests[i], list, options, suite_file,
                             &suite_positions[i]));
    }
  }
  for (const std::string& spec : specs) {
    const MarchTest test = resolve_test(spec, suite ? &*suite : nullptr);
    const SuiteTestPosition* positions = nullptr;
    for (std::size_t i = 0; suite && i < suite->tests.size(); ++i) {
      if (suite->tests[i].name() == test.name()) {
        positions = &suite_positions[i];
      }
    }
    append(lint_march_test(test, list, options,
                           positions != nullptr ? suite_file : test.name(),
                           positions));
  }
  return report_lint_findings(findings,
                              "clean: no lint findings against " + list.name +
                                  " at n=" +
                                  std::to_string(options.memory_size),
                              args.has("--werror"));
}

int cmd_optimize(const Args& args) {
  // Operands: <suite-file> [n], in either order.
  std::string suite_path;
  std::optional<std::size_t> n;
  for (const std::string& arg : args.operands) {
    if (all_digits(arg) && !n.has_value()) {
      n = parse_memory_size(arg, "memory size");
    } else if (!all_digits(arg) && suite_path.empty()) {
      suite_path = arg;
    } else {
      throw UsageError("extra operand '" + arg + "'");
    }
  }
  if (suite_path.empty()) throw UsageError("optimize needs a suite file");
  const std::string list_file = args.get("--list-file");
  if (!list_file.empty() && args.has("--list")) {
    throw UsageError("optimize takes --list or --list-file, not both");
  }

  const MarchSuite suite = load_march_suite_file(suite_path);
  FaultList universe;
  std::string spec;
  if (!list_file.empty()) {
    // External universes have no closed-form spec: the certificate pins
    // them by content hash, and 'verify' needs the same --list-file.
    universe = load_fault_list_file(list_file);
  } else {
    const FaultUniverse parsed =
        FaultUniverse::parse(args.has("--list") ? args.get("--list") : "list1");
    universe = parsed.materialize();
    spec = parsed.spec();
  }
  const Certificate cert =
      optimize_suite(suite, universe, spec, n.value_or(6));
  const std::string text = to_canonical_string(cert);
  const std::string out_path = args.get("--out");
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
            << " faults at n=" << cert.memory_size << " ("
            << cert.dropped.size() << " dropped, " << cover_rows
            << " witness rows)\n";
  return 0;
}

int cmd_verify(const Args& args) {
  const std::string& cert_path = args.operands[0];
  const Certificate cert = load_certificate_file(cert_path);
  FaultList universe;
  if (args.has("--list-file")) {
    universe = load_fault_list_file(args.get("--list-file"));
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

int cmd_dot(const Args& args) {
  const std::string& which = args.operands[0];
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

int cmd_matrix(const Args& args) {
  const std::string& path = args.operands[0];
  MatrixServiceOptions options;
  options.threads = args.count("--threads", 0);
  options.queue_capacity = args.count("--queue-capacity", 256);
  require(options.queue_capacity >= 1, "--queue-capacity must be >= 1");
  options.when_full = args.has("--reject") ? BackpressurePolicy::Reject
                                           : BackpressurePolicy::Block;
  install_interrupt_handler();

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
  // Jobs display their specs as written: a suite/catalog name stays a
  // name, march notation stays notation (its parsed "name" is a source tag).
  std::vector<MatrixJob> jobs;
  jobs.reserve(file.jobs.size());
  for (const JobFileRecord& record : file.jobs) {
    try {
      MatrixJob job;
      job.test = resolve_test(record.test_spec,
                              suite.has_value() ? &*suite : nullptr);
      job.list = list_for(record.list_name);
      job.memory_size = record.memory_size;
      job.max_instances_per_fault = record.max_instances_per_fault;
      job.deadline = record.deadline;
      jobs.push_back(std::move(job));
    } catch (const Error& e) {
      throw Error(path + ":" + std::to_string(record.line) + ": " + e.what());
    }
  }

  const std::unique_ptr<SweepStore> store = open_store(args);
  options.store = store.get();
  options.cancel = &g_interrupt;
  // One JSON line per terminal job, streamed from the workers as jobs land
  // (completion order, not submission order — the job id ties them back).
  std::mutex output_mutex;
  options.on_result = [&](const MatrixJobResult& result) {
    const JobFileRecord& record = file.jobs[result.job_id];
    std::lock_guard<std::mutex> lock(output_mutex);
    std::cout << "{\"job\":" << result.job_id << ",\"test\":\""
              << json_escape(record.test_spec) << "\",\"list\":\""
              << json_escape(record.list_name) << "\",\"n\":"
              << record.memory_size << ",\"cap\":"
              << record.max_instances_per_fault << ",\"status\":\""
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
    for (const MatrixJob& job : jobs) {
      // After an interrupt the submission loop stops: already-queued jobs
      // drain as Cancelled, unsubmitted ones are never admitted.
      if (g_interrupt.cancelled()) break;
      service.submit(job);
    }
    results = service.drain();
    const MatrixServiceStats stats = service.stats();
    std::lock_guard<std::mutex> lock(output_mutex);
    std::cerr << "matrix: " << stats.completed << " completed ("
              << stats.store_hits << " from store), " << stats.failed
              << " failed, " << stats.cancelled << " cancelled, "
              << stats.deadline_exceeded << " deadline-exceeded, "
              << stats.rejected << " rejected of " << jobs.size()
              << " jobs\n";
  }
  print_store_stats(store.get(), args);

  if (g_interrupt.cancelled()) return kInterruptedExit;
  const bool all_completed =
      results.size() == jobs.size() &&
      std::all_of(results.begin(), results.end(),
                  [](const MatrixJobResult& r) {
                    return r.status == JobStatus::Completed;
                  });
  return all_completed ? 0 : 1;
}

/// One verb of the command line.  `flags` holds every flag the verb
/// accepts, as "--name" for a switch or "--name <value>" for a flag that
/// takes a value; `operands` is the synopsis of its positional operands,
/// of which it takes between `min_operands` and `max_operands`.
struct Verb {
  const char* name;
  const char* operands;
  std::vector<const char*> flags;
  std::size_t min_operands;
  std::size_t max_operands;
  int (*run)(const Args&);
  const char* summary;
};

constexpr std::size_t kAny = static_cast<std::size_t>(-1);

const Verb kVerbs[] = {
    {"catalog", "", {}, 0, 0, cmd_catalog, "the published march tests"},
    {"lists", "", {"--list-file <path>", "--suite-file <path>"}, 0, 0,
     cmd_lists, "the built-in fault lists, and summaries of catalog files"},
    {"generate", "[<list>]", {"--list-file <path>", "--stats"}, 0, 1,
     cmd_generate, "generate a march test for a fault list"},
    {"coverage", "[<test>] [<list>] [n]",
     {"--list-file <path>", "--suite-file <path>", "--sweep <n1,n2,...>",
      "--cap <instances>", "--store <dir>", "--store-retries <k>",
      "--store-backoff-ms <ms>"},
     0, 3, cmd_coverage, "fault-simulate a test (default March SL, n=6)"},
    {"lint", "[<test>...] [<list>] [n]",
     {"--list-file <path>", "--suite-file <path>", "--jobs-file <path>",
      "--werror"},
     0, kAny, cmd_lint, "lint tests and a fault list, or a job file"},
    {"matrix", "<jobfile>",
     {"--threads <k>", "--queue-capacity <q>", "--reject", "--store <dir>",
      "--store-retries <k>", "--store-backoff-ms <ms>"},
     1, 1, cmd_matrix, "run a 'jobs v1' file, one JSON line per job"},
    {"optimize", "<suite-file> [n]",
     {"--list <universe-spec>", "--list-file <path>", "--out <path>"}, 1, 2,
     cmd_optimize, "minimal sub-suite with a 'certificate v1' proof"},
    {"verify", "<certificate-file>", {"--list-file <path>"}, 1, 1, cmd_verify,
     "re-check a certificate by simulation"},
    {"check", "<path>...", {}, 1, kAny, cmd_check, "parse catalog files"},
    {"dot", "<g0|pgcf>", {}, 1, 1, cmd_dot, "Figure 2 or 4 as GraphViz DOT"},
};

/// Flags that only modify another flag, and the flag each one needs.
const std::pair<const char*, const char*> kModifierFlags[] = {
    {"--cap", "--sweep"},
    {"--store-retries", "--store"},
    {"--store-backoff-ms", "--store"},
};

std::string_view flag_name(std::string_view spec) {
  return spec.substr(0, spec.find(' '));
}

/// The spec of `flag` in `verb`'s flag list, or null when it has none.
const char* find_flag(const Verb& verb, std::string_view flag) {
  for (const char* spec : verb.flags) {
    if (flag_name(spec) == flag) return spec;
  }
  return nullptr;
}

/// Prints the reason (if any) and the synopsis of `verb`, or of every verb
/// when it is null; returns the usage-error exit status.
int usage(const std::string& reason, const Verb* verb) {
  if (!reason.empty()) std::cerr << "mtg_cli: " << reason << "\n";
  std::cerr << "usage:\n";
  for (const Verb& entry : kVerbs) {
    if (verb != nullptr && verb != &entry) continue;
    std::cerr << "  mtg_cli " << entry.name
              << (*entry.operands != '\0' ? " " : "") << entry.operands;
    for (const char* spec : entry.flags) std::cerr << " [" << spec << "]";
    std::cerr << "\n      " << entry.summary << "\n";
  }
  std::cerr << "  <list>: " << builtin_fault_list_names() << "\n";
  for (const auto& [flag, needs] : kModifierFlags) {
    std::cerr << "  " << flag << " needs " << needs << "\n";
  }
  std::cerr << "  exit status: 0 ok, 1 failure, 2 usage error, "
               "130 interrupted\n";
  return 2;
}

/// Splits argv[2..] into `verb`'s operands and flags; throws UsageError on
/// anything the verb does not accept.
Args parse_args(const Verb& verb, int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty()) throw UsageError("empty operand");
    if (arg[0] != '-') {
      args.operands.push_back(arg);
      continue;
    }
    const char* spec = find_flag(verb, arg);
    if (spec == nullptr) {
      throw UsageError(std::string(verb.name) + " does not take " + arg);
    }
    if (args.has(arg)) throw UsageError(arg + " given twice");
    std::string value;
    if (flag_name(spec) != spec) {  // "--name <value>"
      if (i + 1 == argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
        throw UsageError(arg + " needs a value");
      }
      value = argv[++i];
      if (value.empty()) throw UsageError(arg + " needs a non-empty value");
    }
    args.flags.emplace(arg, value);
  }
  if (args.operands.size() < verb.min_operands) {
    throw UsageError(std::string(verb.name) + " needs " + verb.operands);
  }
  if (args.operands.size() > verb.max_operands) {
    throw UsageError("extra operand '" + args.operands[verb.max_operands] +
                     "'");
  }
  for (const auto& [flag, needs] : kModifierFlags) {
    if (args.has(flag) && !args.has(needs)) {
      throw UsageError(std::string(flag) + " needs " + needs);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  const Verb* verb = nullptr;
  for (const Verb& entry : kVerbs) {
    if (name == entry.name) verb = &entry;
  }
  if (verb == nullptr) {
    return usage(name.empty() ? "" : "unknown verb '" + name + "'", nullptr);
  }
  try {
    return verb->run(parse_args(*verb, argc, argv));
  } catch (const UsageError& e) {
    return usage(e.what(), verb);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
