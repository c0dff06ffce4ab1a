// Text format for coverage-matrix job files ('jobs v1') — the batch input
// of `mtg_cli matrix`.
//
// Grammar (record per line; blank lines and full-line '#' comments ignored):
//
//   file      := header directive* job+
//   header    := 'jobs v1'
//   directive := 'suite' '"' path '"'
//              | 'faultlist' alias '"' path '"'
//   job       := 'job' 'test=' quoted 'list=' name 'n=' int
//                ['cap=' int] ['deadline_ms=' int]
//
// Directives bind catalogs for the jobs below: `suite` (at most one) names a
// 'suite v1' file whose test names become resolvable in test= specs;
// `faultlist` binds an alias to a 'faultlist v1' file, usable in list=
// alongside the built-in list names (list1, list2, simple, retention,
// decoder — the front end resolves names, this parser only records them).
// Relative paths resolve against the job file's own directory, so a job
// file can ship next to its catalogs (examples/catalogs/matrix.jobs does).
//
// A test= spec is march notation when it contains '(' (a '(' is never part
// of a test name), otherwise a test name resolved against the bound suite
// and then the built-in catalog — exactly mtg_cli's coverage rule.
//
// Diagnostics follow the catalog-format convention: every violation throws
// ParseError as "<source>:<line>:<column>: <message>" with the offending
// line excerpted (format/reader.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/text_position.hpp"

namespace mtg {

/// One 'job' record, unresolved: specs and names as written (resolution
/// against catalogs is the front end's job — the parser has no file system).
struct JobFileRecord {
  std::string test_spec;  ///< test name or march notation
  std::string list_name;  ///< built-in list name or faultlist alias
  std::size_t memory_size = 0;
  std::size_t max_instances_per_fault = 4096;  ///< cap= (default: no key set)
  std::chrono::milliseconds deadline{0};       ///< deadline_ms= (0 = none)
  /// True when the record spelled out deadline_ms= — the linter needs to
  /// tell an explicit deadline_ms=0 (a no-op worth flagging) from the
  /// default.
  bool deadline_given = false;
  std::size_t line = 0;  ///< 1-based line in the job file (diagnostics)
};

/// Document positions of the job records, index-aligned with JobFile::jobs —
/// the anchors the jobs-file linter (analysis/job_lint.hpp) attaches
/// diagnostics to.
struct JobFilePositions {
  /// The 'job' keyword of each record.
  std::vector<TextPosition> jobs;
  /// The deadline_ms= key of each record; nullopt when the field is absent.
  std::vector<std::optional<TextPosition>> deadlines;
};

struct JobFile {
  /// suite directive path, resolved against the job file's directory by
  /// load_job_file(); empty when the file binds no suite.
  std::string suite_path;
  /// faultlist directives in order: alias -> resolved path.
  std::vector<std::pair<std::string, std::string>> fault_list_files;
  std::vector<JobFileRecord> jobs;
};

/// Parses the 'jobs v1' text format.  Throws mtg::ParseError
/// (line:column-annotated) on malformed input, duplicate aliases, a second
/// suite directive, a directive after the first job, or an empty job list.
/// Paths are recorded as written (no directory resolution).
/// A non-null `positions` receives one entry per job record.
JobFile parse_job_file_text(std::string_view text,
                            const std::string& source = "<string>",
                            JobFilePositions* positions = nullptr);

/// read_text_file + parse_job_file_text with the path as the source name,
/// then resolves relative directive paths against the job file's directory.
JobFile load_job_file(const std::string& path,
                      JobFilePositions* positions = nullptr);

}  // namespace mtg
