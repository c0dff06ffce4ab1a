// The mtg_cli contract: each row runs the built mtg_cli with one argv and
// pins its exit status and the start of its stderr.  The rows cover every
// verb against each input class that applies to it: valid input, malformed
// files (tests/format/corpus/), a missing file, an unknown flag, a flag the
// verb does not take, a missing value, an empty value and an extra operand.
// Megabyte-line inputs are built in a per-process temporary directory.
//
// Exit status: 0 success, 1 failure ("error: ..." on stderr, or a verdict
// such as partial coverage), 2 usage error (a "mtg_cli: <reason>" line and
// the usage text).  CMake defines MTG_CLI_PATH when the examples are built;
// without them every row is skipped.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

extern char** environ;

#ifndef MTG_CLI_PATH
#define MTG_CLI_PATH ""  // the examples are not built: every row skips
#endif

namespace mtg {
namespace {

struct Row {
  const char* name;  // the test-name suffix
  std::vector<std::string> argv;
  int exit_code;
  std::string stderr_prefix;
  std::string stdout_prefix = "";
};

// Names the row in ctest's listing by its argv, which stays the same from
// build to build (gtest would otherwise dump the struct's bytes).
void PrintTo(const Row& row, std::ostream* os) {
  *os << "mtg_cli";
  for (const std::string& arg : row.argv) {
    *os << " " << (arg.empty() ? "''" : arg);
  }
}

// Placeholders in argv and in the expected prefixes: {catalogs} and
// {corpus} are source directories, {tmp} the per-process scratch directory.
// A {tmp}/<name> argument that generate_input() knows is written there
// before the row runs.
const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      // no verb / unknown verb
      {"no_verb", {}, 2, "usage:\n"},
      {"unknown_verb", {"frobnicate"}, 2, "mtg_cli: unknown verb 'frobnicate'"},

      // catalog
      {"catalog_valid", {"catalog"}, 0, "", "MATS+ (5n): "},
      {"catalog_unknown_flag", {"catalog", "--bogus"}, 2,
       "mtg_cli: catalog does not take --bogus"},
      {"catalog_flag_not_taken", {"catalog", "--stats"}, 2,
       "mtg_cli: catalog does not take --stats"},
      {"catalog_extra_operand", {"catalog", "extra"}, 2,
       "mtg_cli: extra operand 'extra'"},

      // lists
      {"lists_valid", {"lists"}, 0, "", "list1: "},
      {"lists_valid_files",
       {"lists", "--list-file", "{catalogs}/custom_static.faults",
        "--suite-file", "{catalogs}/classic.suite"},
       0, "", "list1: "},
      {"lists_malformed_list",
       {"lists", "--list-file", "{corpus}/bad_header.faults"}, 1,
       "error: {corpus}/bad_header.faults:1:11: unsupported fault-list "
       "format version"},
      {"lists_malformed_linked_layout",
       {"lists", "--list-file", "{corpus}/bad_linked_layout.faults"}, 1,
       "error: {corpus}/bad_linked_layout.faults:3:1: layout uses 2 cells but "
       "declares 3"},
      {"lists_malformed_suite",
       {"lists", "--suite-file", "{corpus}/dup_name.suite"}, 1,
       "error: {corpus}/dup_name.suite:3:1: duplicate test name"},
      {"lists_missing_file", {"lists", "--list-file", "{tmp}/none.faults"}, 1,
       "error: cannot open '{tmp}/none.faults'"},
      {"lists_unknown_flag", {"lists", "--bogus"}, 2,
       "mtg_cli: lists does not take --bogus"},
      {"lists_flag_not_taken", {"lists", "--cap", "7", "--store-retries", "3"},
       2, "mtg_cli: lists does not take --cap"},
      {"lists_missing_value", {"lists", "--list-file"}, 2,
       "mtg_cli: --list-file needs a value"},
      {"lists_value_is_a_flag", {"lists", "--list-file", "--suite-file", "x"},
       2, "mtg_cli: --list-file needs a value"},
      {"lists_empty_value", {"lists", "--suite-file", ""}, 2,
       "mtg_cli: --suite-file needs a non-empty value"},
      {"lists_extra_operand", {"lists", "list1"}, 2,
       "mtg_cli: extra operand 'list1'"},

      // generate
      {"generate_valid", {"generate", "list2"}, 0, "", "{⇕(w0); "},
      {"generate_valid_file",
       {"generate", "--list-file", "{catalogs}/custom_static.faults",
        "--stats"},
       0, ""},
      {"generate_unknown_list", {"generate", "list9"}, 1,
       "error: unknown fault list 'list9' (use list1, list2, simple, "
       "retention, decoder)"},
      {"generate_malformed_list",
       {"generate", "--list-file", "{corpus}/bad_notation.faults"}, 1,
       "error: {corpus}/bad_notation.faults:2:10: expected '/'"},
      {"generate_missing_file", {"generate", "--list-file", "{tmp}/none"}, 1,
       "error: cannot open '{tmp}/none'"},
      {"generate_unknown_flag", {"generate", "list1", "--bogus"}, 2,
       "mtg_cli: generate does not take --bogus"},
      {"generate_suite_file_not_taken",
       {"generate", "simple", "--suite-file", "/nonexistent"}, 2,
       "mtg_cli: generate does not take --suite-file"},
      {"generate_store_not_taken",
       {"generate", "simple", "--store", "{tmp}/store"}, 2,
       "mtg_cli: generate does not take --store"},
      {"generate_missing_value", {"generate", "--list-file"}, 2,
       "mtg_cli: --list-file needs a value"},
      {"generate_empty_value", {"generate", "--list-file", ""}, 2,
       "mtg_cli: --list-file needs a non-empty value"},
      {"generate_extra_operand", {"generate", "list1", "list2"}, 2,
       "mtg_cli: extra operand 'list2'"},
      {"generate_list_and_list_file",
       {"generate", "list1", "--list-file", "{catalogs}/custom_static.faults"},
       2, "mtg_cli: generate takes either a built-in list or --list-file"},
      {"generate_no_list", {"generate", "--stats"}, 2,
       "mtg_cli: generate takes either a built-in list or --list-file"},

      // coverage
      {"coverage_valid_default_test", {"coverage", "simple"}, 0, "",
       "March SL (41n) vs All simple static faults: 84/84 faults covered"},
      {"coverage_valid_n", {"coverage", "March SL", "list1", "8"}, 0, ""},
      {"coverage_partial", {"coverage", "MATS+", "list2"}, 1, ""},
      {"coverage_valid_sweep_store",
       {"coverage", "simple", "--sweep", "8,16", "--cap", "64", "--store",
        "{tmp}/store", "--store-retries", "2", "--store-backoff-ms", "1"},
       0, ""},
      {"coverage_valid_suite",
       {"coverage", "Short C-", "simple", "--suite-file",
        "{catalogs}/classic.suite"},
       1, ""},
      {"coverage_malformed_list",
       {"coverage", "--list-file", "{corpus}/not_linked.faults"}, 1,
       "error: {corpus}/not_linked.faults:3:1: FPs are not linked"},
      {"coverage_malformed_suite",
       {"coverage", "simple", "--suite-file",
        "{corpus}/unterminated_name.suite"},
       1,
       "error: {corpus}/unterminated_name.suite:2:31: unterminated quoted "
       "test name"},
      {"coverage_missing_file", {"coverage", "--list-file", "{tmp}/none"}, 1,
       "error: cannot open '{tmp}/none'"},
      {"coverage_unknown_flag", {"coverage", "simple", "--bogus"}, 2,
       "mtg_cli: coverage does not take --bogus"},
      {"coverage_flag_not_taken", {"coverage", "simple", "--stats"}, 2,
       "mtg_cli: coverage does not take --stats"},
      {"coverage_missing_value", {"coverage", "simple", "--sweep"}, 2,
       "mtg_cli: --sweep needs a value"},
      {"coverage_empty_list_file", {"coverage", "simple", "--list-file", ""},
       2, "mtg_cli: --list-file needs a non-empty value"},
      {"coverage_empty_store", {"coverage", "simple", "--store", ""}, 2,
       "mtg_cli: --store needs a non-empty value"},
      {"coverage_empty_sweep", {"coverage", "simple", "--sweep", ""}, 2,
       "mtg_cli: --sweep needs a non-empty value"},
      {"coverage_empty_operand", {"coverage", "", "simple"}, 2,
       "mtg_cli: empty operand"},
      {"coverage_extra_operand", {"coverage", "March SL", "simple", "8", "9"},
       2, "mtg_cli: extra operand '9'"},
      {"coverage_extra_operand_list_file",
       {"coverage", "--list-file", "{catalogs}/custom_static.faults",
        "March SL", "8", "9"},
       2, "mtg_cli: extra operand '9'"},
      {"coverage_cap_without_sweep",
       {"coverage", "March SL", "simple", "8", "--cap", "5"}, 2,
       "mtg_cli: --cap needs --sweep"},
      {"coverage_backoff_without_store",
       {"coverage", "simple", "--store-backoff-ms", "5"}, 2,
       "mtg_cli: --store-backoff-ms needs --store"},
      {"coverage_n_and_sweep",
       {"coverage", "March SL", "simple", "8", "--sweep", "16"}, 2,
       "mtg_cli: coverage takes [n] or --sweep, not both"},
      {"coverage_repeated_flag",
       {"coverage", "simple", "--store", "{tmp}/a", "--store", "{tmp}/b"}, 2,
       "mtg_cli: --store given twice"},
      {"coverage_bad_count", {"coverage", "simple", "--sweep", "8", "--cap",
                              "x"},
       1, "error: --cap: bad number 'x'"},
      {"coverage_no_list", {"coverage"}, 2,
       "mtg_cli: coverage needs a built-in list or --list-file"},

      // lint
      {"lint_valid", {"lint"}, 0, "", "clean: no lint findings against"},
      {"lint_valid_suite",
       {"lint", "--werror", "--suite-file", "{catalogs}/classic.suite",
        "list1"},
       0, ""},
      {"lint_valid_decoder_large_n",
       {"lint", "--suite-file", "{catalogs}/classic.suite", "decoder",
        "65536"},
       0, "",
       "{catalogs}/classic.suite:10:65: warning: [redundant-element] element "
       "#5 ⇕(r0) of test 'March C-' is removable: no static verdict changes "
       "against list 'Address-decoder faults (12 address lines)'\n"},
      {"lint_valid_jobs",
       {"lint", "--werror", "--jobs-file", "{catalogs}/matrix.jobs"}, 0, ""},
      {"lint_werror_finding",
       {"lint", "--werror", "--suite-file", "{tmp}/seeded.suite", "list2"}, 1,
       "", "{tmp}/seeded.suite:2:"},
      {"lint_malformed_list",
       {"lint", "--list-file", "{corpus}/overflow.faults"}, 1,
       "error: {corpus}/overflow.faults:2:22: a_pos out of range"},
      {"lint_malformed_suite",
       {"lint", "--suite-file", "{corpus}/bad_march.suite"}, 1,
       "error: {corpus}/bad_march.suite:3:28: unknown memory operation"},
      {"lint_malformed_jobs",
       {"lint", "--jobs-file", "{corpus}/bad_number.jobs"}, 1,
       "error: {corpus}/bad_number.jobs:2:32: expected a number for n="},
      {"lint_missing_file", {"lint", "--suite-file", "{tmp}/none.suite"}, 1,
       "error: cannot open '{tmp}/none.suite'"},
      {"lint_unknown_flag", {"lint", "--bogus"}, 2,
       "mtg_cli: lint does not take --bogus"},
      {"lint_flag_not_taken", {"lint", "--cap", "5"}, 2,
       "mtg_cli: lint does not take --cap"},
      {"lint_missing_value", {"lint", "--suite-file"}, 2,
       "mtg_cli: --suite-file needs a value"},
      {"lint_empty_value", {"lint", "--jobs-file", ""}, 2,
       "mtg_cli: --jobs-file needs a non-empty value"},
      {"lint_extra_list", {"lint", "list1", "list2"}, 2,
       "mtg_cli: extra fault list 'list2'"},
      {"lint_extra_size", {"lint", "6", "7"}, 2,
       "mtg_cli: extra memory size '7'"},
      {"lint_list_and_list_file",
       {"lint", "list2", "--list-file", "{catalogs}/custom_static.faults"}, 2,
       "mtg_cli: extra fault list 'list2'"},
      {"lint_jobs_with_operand",
       {"lint", "--jobs-file", "{catalogs}/matrix.jobs", "list1"}, 2,
       "mtg_cli: lint --jobs-file takes no operands"},

      // matrix
      {"matrix_valid", {"matrix", "{catalogs}/matrix.jobs"}, 0,
       "matrix: 8 completed (0 from store)", "{\"job\":"},
      {"matrix_valid_flags",
       {"matrix", "{catalogs}/matrix.jobs", "--threads", "2",
        "--queue-capacity", "4", "--store", "{tmp}/store", "--store-retries",
        "2", "--store-backoff-ms", "1"},
       0, "matrix: 8 completed"},
      {"matrix_malformed", {"matrix", "{corpus}/duplicate_alias.jobs"}, 1,
       "error: {corpus}/duplicate_alias.jobs:3:11: duplicate faultlist alias"},
      {"matrix_cr_in_spec", {"matrix", "{corpus}/cr_in_spec.jobs"}, 1,
       "error: {corpus}/cr_in_spec.jobs:3:13: line break in test spec"},
      {"matrix_missing_file", {"matrix", "{tmp}/none.jobs"}, 1,
       "error: cannot open '{tmp}/none.jobs'"},
      {"matrix_unknown_flag", {"matrix", "{catalogs}/matrix.jobs", "--bogus"},
       2, "mtg_cli: matrix does not take --bogus"},
      {"matrix_flag_not_taken",
       {"matrix", "{catalogs}/matrix.jobs", "--cap", "5"}, 2,
       "mtg_cli: matrix does not take --cap"},
      {"matrix_missing_value", {"matrix", "{catalogs}/matrix.jobs",
                                "--threads"},
       2, "mtg_cli: --threads needs a value"},
      {"matrix_empty_value",
       {"matrix", "{catalogs}/matrix.jobs", "--store", ""}, 2,
       "mtg_cli: --store needs a non-empty value"},
      {"matrix_extra_operand", {"matrix", "{catalogs}/matrix.jobs", "more"}, 2,
       "mtg_cli: extra operand 'more'"},
      {"matrix_missing_operand", {"matrix"}, 2,
       "mtg_cli: matrix needs <jobfile>"},
      {"matrix_retries_without_store",
       {"matrix", "{catalogs}/matrix.jobs", "--store-retries", "3"}, 2,
       "mtg_cli: --store-retries needs --store"},
      {"matrix_zero_queue",
       {"matrix", "{catalogs}/matrix.jobs", "--queue-capacity", "0"}, 1,
       "error: --queue-capacity must be >= 1"},

      // optimize
      {"optimize_valid",
       {"optimize", "{catalogs}/classic.suite", "6", "--list", "list2",
        "--out", "{tmp}/out.cert"},
       0, "optimize: kept "},
      {"optimize_valid_stdout",
       {"optimize", "{catalogs}/classic.suite", "--list", "simple"}, 0,
       "optimize: kept ", "certificate v1\n"},
      {"optimize_malformed_suite", {"optimize", "{corpus}/empty.suite"}, 1,
       "error: {corpus}/empty.suite:3:1: suite contains no tests"},
      {"optimize_malformed_list",
       {"optimize", "{catalogs}/classic.suite", "--list-file",
        "{corpus}/bad_layout.faults"},
       1, "error: {corpus}/bad_layout.faults:3:22: a single-cell simple fault"},
      {"optimize_missing_file", {"optimize", "{tmp}/none.suite"}, 1,
       "error: cannot open '{tmp}/none.suite'"},
      {"optimize_unwritable_out",
       {"optimize", "{catalogs}/classic.suite", "--out",
        "{tmp}/no/such/dir/out.cert"},
       1, "error: failed to write certificate to {tmp}/no/such/dir/out.cert"},
      {"optimize_bad_universe",
       {"optimize", "{catalogs}/classic.suite", "--list", "bogus"}, 1,
       "error: fault universe: unknown family 'bogus'"},
      {"optimize_unknown_flag",
       {"optimize", "{catalogs}/classic.suite", "--bogus"}, 2,
       "mtg_cli: optimize does not take --bogus"},
      {"optimize_flag_not_taken",
       {"optimize", "{catalogs}/classic.suite", "--cap", "5"}, 2,
       "mtg_cli: optimize does not take --cap"},
      {"optimize_missing_value", {"optimize", "{catalogs}/classic.suite",
                                  "--list"},
       2, "mtg_cli: --list needs a value"},
      {"optimize_empty_out", {"optimize", "{catalogs}/classic.suite", "--out",
                              ""},
       2, "mtg_cli: --out needs a non-empty value"},
      {"optimize_extra_size", {"optimize", "{catalogs}/classic.suite", "6",
                               "7"},
       2, "mtg_cli: extra operand '7'"},
      {"optimize_extra_suite",
       {"optimize", "{catalogs}/classic.suite", "{catalogs}/classic.suite"},
       2, "mtg_cli: extra operand '{catalogs}/classic.suite'"},
      {"optimize_no_suite", {"optimize", "6"}, 2,
       "mtg_cli: optimize needs a suite file"},
      {"optimize_list_and_list_file",
       {"optimize", "{catalogs}/classic.suite", "--list", "list2",
        "--list-file", "{catalogs}/custom_static.faults"},
       2, "mtg_cli: optimize takes --list or --list-file, not both"},

      // verify
      {"verify_valid", {"verify", "{tmp}/classic.cert"}, 0, "",
       "{tmp}/classic.cert: certificate verified: "},
      {"verify_tampered", {"verify", "{tmp}/tampered.cert"}, 1, "",
       "{tmp}/tampered.cert: universe hash mismatch"},
      {"verify_malformed", {"verify", "{corpus}/missing_by.cert"}, 1,
       "error: {corpus}/missing_by.cert:7:26: expected 'by'"},
      {"verify_cr_in_name", {"verify", "{corpus}/cr_in_name.cert"}, 1,
       "error: {corpus}/cr_in_name.cert:6:9: line break in kept test name"},
      {"verify_missing_file", {"verify", "{tmp}/none.cert"}, 1,
       "error: cannot open '{tmp}/none.cert'"},
      {"verify_unknown_flag", {"verify", "{tmp}/classic.cert", "--bogus"}, 2,
       "mtg_cli: verify does not take --bogus"},
      {"verify_flag_not_taken",
       {"verify", "{tmp}/classic.cert", "--out", "{tmp}/x"}, 2,
       "mtg_cli: verify does not take --out"},
      {"verify_missing_value", {"verify", "{tmp}/classic.cert",
                                "--list-file"},
       2, "mtg_cli: --list-file needs a value"},
      {"verify_empty_value",
       {"verify", "{tmp}/classic.cert", "--list-file", ""}, 2,
       "mtg_cli: --list-file needs a non-empty value"},
      {"verify_extra_operand",
       {"verify", "{tmp}/classic.cert", "{tmp}/classic.cert"}, 2,
       "mtg_cli: extra operand '{tmp}/classic.cert'"},

      // check
      {"check_valid",
       {"check", "{catalogs}/classic.suite", "{catalogs}/custom_static.faults",
        "{catalogs}/decoder_config.faults"},
       0, "", "ok {catalogs}/classic.suite: "},
      {"check_malformed", {"check", "{corpus}/bad_header.faults"}, 1,
       "error: {corpus}/bad_header.faults:1:1: unrecognized catalog header"},
      {"check_missing_file", {"check", "{tmp}/none.faults"}, 1,
       "error: cannot open '{tmp}/none.faults'"},
      {"check_unknown_flag", {"check", "--bogus", "{catalogs}/classic.suite"},
       2, "mtg_cli: check does not take --bogus"},
      {"check_flag_not_taken", {"check", "--stats", "x.suite"}, 2,
       "mtg_cli: check does not take --stats"},
      {"check_missing_operand", {"check"}, 2,
       "mtg_cli: check needs <path>..."},

      // dot
      {"dot_valid_g0", {"dot", "g0"}, 0, "", "digraph G0 {"},
      {"dot_valid_pgcf", {"dot", "pgcf"}, 0, "", "digraph PGCF {"},
      {"dot_unknown_graph", {"dot", "g9"}, 1, "error: unknown graph 'g9'"},
      {"dot_unknown_flag", {"dot", "g0", "--bogus"}, 2,
       "mtg_cli: dot does not take --bogus"},
      {"dot_flag_not_taken", {"dot", "g0", "--stats"}, 2,
       "mtg_cli: dot does not take --stats"},
      {"dot_extra_operand", {"dot", "g0", "extra"}, 2,
       "mtg_cli: extra operand 'extra'"},
      {"dot_missing_operand", {"dot"}, 2, "mtg_cli: dot needs <g0|pgcf>"},

      // megabyte lines: rejected at their exact position, or accepted
      {"long_token_check", {"check", "{tmp}/long_token.faults"}, 1,
       "error: {tmp}/long_token.faults:2:10: expected '/'"},
      {"long_token_lint", {"lint", "--list-file", "{tmp}/long_token.faults"},
       1, "error: {tmp}/long_token.faults:2:10: expected '/'"},
      {"long_integer_check", {"check", "{tmp}/long_integer.faults"}, 1,
       "error: {tmp}/long_integer.faults:2:13: cls (0=AFna"},
      {"long_integer_coverage",
       {"coverage", "--list-file", "{tmp}/long_integer.faults"}, 1,
       "error: {tmp}/long_integer.faults:2:13: cls (0=AFna"},
      {"long_name_check", {"check", "{tmp}/long_name.suite"}, 1,
       "error: {tmp}/long_name.suite:2:1048591: unterminated quoted test "
       "name"},
      {"long_name_lint", {"lint", "--suite-file", "{tmp}/long_name.suite"}, 1,
       "error: {tmp}/long_name.suite:2:1048591: unterminated quoted test "
       "name"},
      {"long_valid_name_check", {"check", "{tmp}/long_valid_name.suite"}, 0,
       "", "ok {tmp}/long_valid_name.suite: march suite: 1 tests"},
  };
  return table;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

class CliContract : public testing::TestWithParam<Row> {
 protected:
  void SetUp() override {
    if (std::string(MTG_CLI_PATH).empty()) {
      GTEST_SKIP() << "mtg_cli is not built (MTG_BUILD_EXAMPLES=OFF)";
    }
    tmp_ = std::filesystem::path(testing::TempDir()) /
           ("mtg_cli_contract_" + std::to_string(::getpid()));
    std::filesystem::remove_all(tmp_);
    std::filesystem::create_directories(tmp_);
  }

  void TearDown() override {
    if (!tmp_.empty()) std::filesystem::remove_all(tmp_);
  }

  std::string expand(const std::string& text) const {
    const std::filesystem::path source(MTG_TESTS_SOURCE_DIR);
    std::string out = replace_all(
        text, "{catalogs}", (source / ".." / "examples" / "catalogs").string());
    out = replace_all(out, "{corpus}", (source / "format" / "corpus").string());
    return replace_all(out, "{tmp}", tmp_.string());
  }

  /// Writes the generated input `name`, if it is one, into the scratch
  /// directory.
  void generate_input(const std::string& name) {
    const std::size_t megabyte = std::size_t{1} << 20;
    std::string text;
    if (name == "long_token.faults") {
      text = "faultlist v1\nsimple <" + std::string(megabyte, '0') +
             "> a_pos=-1 v_pos=0\n";
    } else if (name == "long_integer.faults") {
      text = "faultlist v1\ndecoder cls=" + std::string(megabyte, '1') +
             " bit=3 wired=1\n";
    } else if (name == "long_name.suite") {  // the name is unterminated
      text = "suite v1\ntest \"" + std::string(megabyte, 'A') + " {c(w0)}\n";
    } else if (name == "long_valid_name.suite") {
      text = "suite v1\ntest \"" + std::string(megabyte, 'A') +
             "\" {c(w0); ^(r0)}\n";
    } else if (name == "seeded.suite") {  // one redundant element
      text = "suite v1\ntest \"Seeded\" {c(w0); ^(r0); ^(r0); ^(r0); "
             "^(w1,r1); ^(r1); ^(w1,r1)}\n";
    } else if (name == "classic.cert" || name == "tampered.cert") {
      const Outcome optimized =
          run({"optimize", expand("{catalogs}/classic.suite"), "6", "--list",
               "list2", "--out", (tmp_ / "classic.cert").string()});
      ASSERT_EQ(optimized.exit_code, 0) << optimized.err;
      text = read_file(tmp_ / "classic.cert");
      text.replace(text.find("list-hash ") + 10, 16, "0000000000000000");
      write_file(tmp_ / "tampered.cert", text);
      return;
    } else {
      return;
    }
    write_file(tmp_ / name, text);
  }

  /// Runs mtg_cli with `args`, stdin from /dev/null.
  Outcome run(const std::vector<std::string>& args) const {
    const std::string out_path = (tmp_ / "stdout.txt").string();
    const std::string err_path = (tmp_ / "stderr.txt").string();
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::string program = MTG_CLI_PATH;
    std::vector<std::string> storage = args;
    std::vector<char*> argv = {program.data()};
    for (std::string& arg : storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, program.c_str(), &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    Outcome outcome;
    if (spawned != 0) {
      ADD_FAILURE() << "cannot run " << program;
      return outcome;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) ADD_FAILURE() << "waitpid failed";
    outcome.exit_code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    outcome.out = read_file(out_path);
    outcome.err = read_file(err_path);
    return outcome;
  }

  std::filesystem::path tmp_;
};

TEST_P(CliContract, ExitStatusAndStderr) {
  const Row& row = GetParam();
  std::vector<std::string> args;
  for (const std::string& arg : row.argv) {
    const std::string prefix = "{tmp}/";
    if (arg.rfind(prefix, 0) == 0) generate_input(arg.substr(prefix.size()));
    args.push_back(expand(arg));
  }
  const Outcome outcome = run(args);
  const std::string excerpt = outcome.err.substr(0, 400);
  EXPECT_EQ(outcome.exit_code, row.exit_code) << "stderr: " << excerpt;
  EXPECT_EQ(outcome.err.rfind(expand(row.stderr_prefix), 0), 0u)
      << "stderr: " << excerpt;
  EXPECT_EQ(outcome.out.rfind(expand(row.stdout_prefix), 0), 0u)
      << "stdout: " << outcome.out.substr(0, 400);
  if (row.exit_code == 2) {
    EXPECT_NE(outcome.err.find("usage:\n  mtg_cli "), std::string::npos)
        << "usage text missing from: " << excerpt;
  }
  // A sanitizer report must not hide behind an expected exit status.
  EXPECT_EQ(outcome.err.find("Sanitizer"), std::string::npos) << excerpt;
  EXPECT_EQ(outcome.err.find("runtime error:"), std::string::npos) << excerpt;
}

INSTANTIATE_TEST_SUITE_P(Rows, CliContract, testing::ValuesIn(rows()),
                         [](const testing::TestParamInfo<Row>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace mtg
