// Symbolic analyzer benchmark (analysis/static_analyzer.hpp): raw verdict
// throughput of analyze_coverage over catalog tests and fault lists (the
// linter's and the subsumption prover's unit of work), plus the zero-Unknown
// gate — every pair must resolve to a definite verdict.
//
// --json <path|-> writes a machine-readable summary (BENCH_analysis.json in
// the CI bench-smoke job); --quick runs a reduced matrix.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/static_analyzer.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"

namespace {

struct AnalyzerRecord {
  std::string test;
  std::string list;
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t unknown = 0;
  double seconds = 0.0;
};

std::vector<AnalyzerRecord>& analyzer_records() {
  static std::vector<AnalyzerRecord> all;
  return all;
}

void run_analyzer(const mtg::MarchTest& test, const char* list_name,
                  const mtg::FaultList& list) {
  const auto t0 = std::chrono::steady_clock::now();
  const mtg::StaticCoverage coverage = analyze_coverage(test, list, 6);
  AnalyzerRecord record;
  record.test = test.name();
  record.list = list_name;
  record.faults = coverage.entries.size();
  record.detected = coverage.detected;
  record.unknown = coverage.unknown;
  record.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("%-14s vs %-8s %6zu faults  %8.2f us/fault  (%zu detected, "
              "%zu unknown)\n",
              record.test.c_str(), list_name, record.faults,
              1e6 * record.seconds /
                  static_cast<double>(record.faults > 0 ? record.faults : 1),
              record.detected, record.unknown);
  analyzer_records().push_back(std::move(record));
}

double unknown_rate() {
  std::size_t faults = 0;
  std::size_t unknown = 0;
  for (const AnalyzerRecord& r : analyzer_records()) {
    faults += r.faults;
    unknown += r.unknown;
  }
  return faults > 0 ? static_cast<double>(unknown) / static_cast<double>(faults)
                    : 0.0;
}

void write_json(std::FILE* out) {
  std::fprintf(out,
               "{\n  \"bench\": \"analysis\",\n  \"unknown_rate\": %.6f,\n"
               "  \"analyzer\": [\n",
               unknown_rate());
  for (std::size_t i = 0; i < analyzer_records().size(); ++i) {
    const AnalyzerRecord& r = analyzer_records()[i];
    std::fprintf(out,
                 "    {\"test\": \"%s\", \"list\": \"%s\", \"faults\": %zu, "
                 "\"detected\": %zu, \"unknown\": %zu, \"seconds\": %.6f}%s\n",
                 r.test.c_str(), r.list.c_str(), r.faults, r.detected,
                 r.unknown, r.seconds,
                 i + 1 < analyzer_records().size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mtg;
  const char* json_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_analysis [--quick] [--json <path|->]\n");
      return 2;
    }
  }

  std::printf("--- analyzer throughput (n=6) ---\n");
  const FaultList list2 = fault_list_2();
  const FaultList simple = standard_simple_static_faults();
  for (const MarchTest& test :
       {march_ss(), march_sl(), march_c_minus(), march_abl1()}) {
    run_analyzer(test, "list2", list2);
    run_analyzer(test, "simple", simple);
  }
  if (!quick) {
    const FaultList list1 = fault_list_1();
    for (const MarchTest& test : {march_sl(), march_lf1(), march_abl1()}) {
      run_analyzer(test, "list1", list1);
    }
  }

  // Zero-Unknown gate: every shipped (test, list) pair must resolve to a
  // definite verdict; a nonzero rate means the analyzer's domain regressed.
  if (unknown_rate() > 0.0) {
    std::fprintf(stderr,
                 "unknown_rate %.6f != 0 — an analyzer verdict regressed to "
                 "Unknown\n",
                 unknown_rate());
    return 1;
  }

  if (json_path != nullptr) {
    if (std::strcmp(json_path, "-") == 0) {
      write_json(stdout);
    } else {
      std::FILE* out = std::fopen(json_path, "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path);
        return 1;
      }
      write_json(out);
      std::fclose(out);
      std::printf("JSON summary written to %s\n", json_path);
    }
  }
  return 0;
}
