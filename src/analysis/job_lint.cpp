#include "analysis/job_lint.hpp"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"

namespace mtg {

namespace {

std::optional<TextPosition> job_position(const JobFilePositions* positions,
                                         std::size_t index) {
  if (positions == nullptr || index >= positions->jobs.size()) return {};
  return positions->jobs[index];
}

std::optional<TextPosition> deadline_position(
    const JobFilePositions* positions, std::size_t index) {
  if (positions == nullptr || index >= positions->deadlines.size()) return {};
  return positions->deadlines[index];
}

}  // namespace

std::vector<LintFinding> lint_job_file(const JobFile& file,
                                       const MarchSuite* suite,
                                       const JobLintOptions& options,
                                       const std::string& source,
                                       const JobFilePositions* positions) {
  std::vector<LintFinding> findings;
  const auto add = [&](std::optional<TextPosition> position,
                       std::string category, std::string message) {
    findings.push_back(LintFinding{source, position, std::move(category),
                                   std::move(message)});
  };

  std::set<std::string> catalog_names;
  for (const MarchTest& test : all_catalog_tests()) {
    catalog_names.insert(test.name());
  }
  std::set<std::string> aliases;
  for (const auto& [alias, path] : file.fault_list_files) {
    aliases.insert(alias);
  }

  // Key of a job as the matrix service's caches see it: everything that
  // determines the report's content.
  using JobKey = std::tuple<std::string, std::string, std::size_t, std::size_t>;
  std::map<JobKey, std::size_t> first_seen;  // key -> job-file line

  for (std::size_t i = 0; i < file.jobs.size(); ++i) {
    const JobFileRecord& job = file.jobs[i];

    const JobKey key{job.test_spec, job.list_name, job.memory_size,
                     job.max_instances_per_fault};
    const auto [it, inserted] = first_seen.emplace(key, job.line);
    if (!inserted) {
      add(job_position(positions, i), "duplicate-job",
          "job duplicates the job on line " + std::to_string(it->second) +
              " (same test, list, n and cap — the matrix service computes "
              "one report and serves both)");
    }

    // A '(' never appears in a test name, so a spec without one is a name
    // to resolve — exactly the front end's rule.
    if (job.test_spec.find('(') == std::string::npos) {
      const bool in_suite =
          suite != nullptr && suite->find(job.test_spec) != nullptr;
      if (!in_suite && catalog_names.count(job.test_spec) == 0) {
        add(job_position(positions, i), "undefined-reference",
            "test '" + job.test_spec +
                "' is defined by neither the bound suite nor the built-in "
                "catalog");
      }
    }

    if (find_builtin_fault_list(job.list_name) == nullptr &&
        aliases.count(job.list_name) == 0) {
      add(job_position(positions, i), "undefined-reference",
          "list '" + job.list_name +
              "' is neither a faultlist alias nor a built-in list name (" +
              builtin_fault_list_names() + ")");
    }

    if (job.deadline_given) {
      const auto pos = [&] {
        auto p = deadline_position(positions, i);
        return p ? p : job_position(positions, i);
      }();
      if (job.deadline.count() == 0) {
        add(pos, "implausible-deadline",
            "explicit deadline_ms=0 spells out the default (no deadline) — "
            "drop the field or give a real deadline");
      } else if (job.deadline < options.min_plausible_deadline) {
        add(pos, "implausible-deadline",
            "deadline_ms=" + std::to_string(job.deadline.count()) +
                " is shorter than the service's queue latency — the job "
                "will expire before it runs");
      } else if (job.deadline > options.max_plausible_deadline) {
        add(pos, "implausible-deadline",
            "deadline_ms=" + std::to_string(job.deadline.count()) +
                " exceeds 24 hours — probably a unit mistake (the field is "
                "milliseconds)");
      }
    }
  }

  return findings;
}

}  // namespace mtg
