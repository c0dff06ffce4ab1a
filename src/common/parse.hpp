// Validated command-line number parsing, shared by mtg_cli and
// bench_coverage_matrix so neither falls back to std::atoi (which silently
// turns garbage into 0 — and a 0-cell simulated memory — or wraps "-1" into
// 2^64 - 1 via std::stoul).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mtg {

/// Parses a non-negative decimal count; throws mtg::Error (tagged with
/// `what`) on signs, spaces, suffixes, empty input or overflow.
std::size_t parse_count(const std::string& text, const std::string& what);

/// parse_count plus the fault simulator's minimum: a simulated memory needs
/// at least 3 cells to host three-cell faults.
std::size_t parse_memory_size(const std::string& text, const std::string& what);

/// Parses a comma-separated list of counts, e.g. "64,256,4096"; rejects
/// empty items.  Duplicates and unsorted entries are preserved verbatim —
/// sweep_coverage accepts both.
std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const std::string& what);

}  // namespace mtg
