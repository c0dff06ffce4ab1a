#include "service/job_file.hpp"

#include <cctype>

#include "common/error.hpp"
#include "format/catalog_io.hpp"
#include "format/reader.hpp"

namespace mtg {

namespace {

bool valid_alias(std::string_view alias) {
  if (alias.empty()) return false;
  for (const char c : alias) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

JobFileRecord parse_job_record(const LineReader& reader,
                               std::optional<TextPosition>* deadline_pos) {
  const std::string_view line = reader.line();
  JobFileRecord job;
  job.line = reader.line_number();
  bool saw_test = false, saw_list = false, saw_n = false;
  bool saw_cap = false, saw_deadline = false;
  std::size_t pos = skip_ws(line, 3);  // past 'job'
  while (pos < line.size()) {
    const std::size_t key_begin = pos;
    const std::size_t eq = line.find('=', pos);
    if (eq == std::string_view::npos) {
      reader.fail(pos + 1,
                  "expected key=value (test=, list=, n=, cap=, deadline_ms=)");
    }
    const std::string_view key = line.substr(pos, eq - pos);
    pos = eq + 1;
    if (key == "test") {
      if (saw_test) reader.fail(key_begin + 1, "duplicate test= field");
      saw_test = true;
      job.test_spec = read_quoted(reader, pos, "test spec");
      if (job.test_spec.empty()) {
        reader.fail(key_begin + 1, "test= spec must not be empty");
      }
    } else if (key == "list") {
      if (saw_list) reader.fail(key_begin + 1, "duplicate list= field");
      saw_list = true;
      const std::string_view name = read_token(line, pos);
      if (name.empty()) {
        reader.fail(pos + 1, "expected a fault-list name after list=");
      }
      job.list_name = std::string(name);
    } else if (key == "n") {
      if (saw_n) reader.fail(key_begin + 1, "duplicate n= field");
      saw_n = true;
      job.memory_size = read_number(reader, pos, "n=");
      if (job.memory_size < 3) {
        reader.fail(key_begin + 1, "n= must be >= 3 (simulated memory size)");
      }
    } else if (key == "cap") {
      if (saw_cap) reader.fail(key_begin + 1, "duplicate cap= field");
      saw_cap = true;
      job.max_instances_per_fault = read_number(reader, pos, "cap=");
    } else if (key == "deadline_ms") {
      if (saw_deadline) {
        reader.fail(key_begin + 1, "duplicate deadline_ms= field");
      }
      saw_deadline = true;
      job.deadline_given = true;
      if (deadline_pos != nullptr) {
        *deadline_pos = TextPosition{reader.line_number(),
                                     reader.line_indent() + key_begin};
      }
      job.deadline =
          std::chrono::milliseconds(read_number(reader, pos, "deadline_ms="));
    } else {
      reader.fail(key_begin + 1,
                  "unknown job field '" + std::string(key) +
                      "=' (expected test=, list=, n=, cap=, deadline_ms=)");
    }
    pos = skip_ws(line, pos);
  }
  if (!saw_test) reader.fail(1, "job record is missing the test= field");
  if (!saw_list) reader.fail(1, "job record is missing the list= field");
  if (!saw_n) reader.fail(1, "job record is missing the n= field");
  return job;
}

}  // namespace

JobFile parse_job_file_text(std::string_view text, const std::string& source,
                            JobFilePositions* positions) {
  LineReader reader(text, source);
  reader.read_header("jobs", "jobs");
  JobFile file;
  bool saw_suite = false;
  while (reader.next()) {
    const std::string_view line = reader.line();
    std::size_t pos = 0;
    const std::string_view keyword = read_token(line, pos);
    if (keyword == "suite") {
      if (!file.jobs.empty()) {
        reader.fail(1, "directives must come before the first job record");
      }
      if (saw_suite) {
        reader.fail(1, "duplicate suite directive (a job file binds at most "
                       "one suite)");
      }
      saw_suite = true;
      pos = skip_ws(line, pos);
      file.suite_path = read_quoted(reader, pos, "suite path");
      pos = skip_ws(line, pos);
      if (pos < line.size()) {
        reader.fail(pos + 1, "trailing characters after the suite path");
      }
    } else if (keyword == "faultlist") {
      if (!file.jobs.empty()) {
        reader.fail(1, "directives must come before the first job record");
      }
      pos = skip_ws(line, pos);
      const std::size_t alias_column = pos + 1;
      const std::string_view alias = read_token(line, pos);
      if (!valid_alias(alias)) {
        reader.fail(alias_column,
                    "expected an alias (letters, digits, '_', '-') after "
                    "'faultlist'");
      }
      for (const auto& [existing, path] : file.fault_list_files) {
        if (existing == alias) {
          reader.fail(alias_column,
                      "duplicate faultlist alias '" + std::string(alias) + "'");
        }
      }
      pos = skip_ws(line, pos);
      std::string path = read_quoted(reader, pos, "faultlist path");
      pos = skip_ws(line, pos);
      if (pos < line.size()) {
        reader.fail(pos + 1, "trailing characters after the faultlist path");
      }
      file.fault_list_files.emplace_back(std::string(alias), std::move(path));
    } else if (keyword == "job") {
      std::optional<TextPosition>* deadline_slot = nullptr;
      if (positions != nullptr) {
        positions->jobs.push_back(
            TextPosition{reader.line_number(), reader.line_indent()});
        positions->deadlines.emplace_back();
        deadline_slot = &positions->deadlines.back();
      }
      file.jobs.push_back(parse_job_record(reader, deadline_slot));
    } else {
      reader.fail(1, "unknown record '" + std::string(keyword) +
                         "' (expected: suite, faultlist or job)");
    }
  }
  if (file.jobs.empty()) {
    reader.fail_at_end("job file contains no jobs (at least one 'job' record "
                       "is required)");
  }
  return file;
}

JobFile load_job_file(const std::string& path, JobFilePositions* positions) {
  JobFile file = parse_job_file_text(read_text_file(path), path, positions);
  // Relative directive paths resolve against the job file's own directory,
  // so a job file travels with its catalogs.
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    const std::string dir = path.substr(0, slash + 1);
    const auto resolve = [&](std::string& p) {
      if (!p.empty() && p.front() != '/') p = dir + p;
    };
    resolve(file.suite_path);
    for (auto& [alias, list_path] : file.fault_list_files) resolve(list_path);
  }
  return file;
}

}  // namespace mtg
