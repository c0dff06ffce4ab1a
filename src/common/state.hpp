// Memory state vectors.
//
// Two representations are used:
//  * SmallState — a densely packed state of a k-cell *model* memory
//    (k <= 16).  These are the vertices of the memory graph / pattern graph
//    (Section 4): a k-cell memory has 2^k states and SmallState::index()
//    gives the vertex id.  Following the paper's convention (Definition 4),
//    the textual form lists the *lowest address first*.
//  * MemoryState — the dynamically sized state of the simulated n-cell
//    memory used by the fault simulator.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/bit.hpp"

namespace mtg {

/// Packed state of a model memory with at most 16 one-bit cells.
class SmallState {
 public:
  static constexpr std::size_t kMaxCells = 16;

  SmallState() = default;

  /// Creates an all-zero state over `num_cells` cells.
  explicit SmallState(std::size_t num_cells);

  /// Creates a state over `num_cells` cells from packed `bits`
  /// (bit i of `bits` is the value of cell i).
  SmallState(std::size_t num_cells, std::uint16_t bits);

  /// Parses "010"-style strings; first character = cell 0 (lowest address).
  static SmallState from_string(std::string_view text);

  std::size_t num_cells() const noexcept { return num_cells_; }

  Bit get(std::size_t cell) const;
  void set(std::size_t cell, Bit value);
  void flip(std::size_t cell);

  /// All cells set to `value`.
  static SmallState uniform(std::size_t num_cells, Bit value);

  /// Packed representation; doubles as the graph vertex id in [0, 2^k).
  std::uint16_t index() const noexcept { return bits_; }

  /// Lowest-address-first string, e.g. "01" for cell0=0, cell1=1.
  std::string to_string() const;

  friend bool operator==(const SmallState& a, const SmallState& b) noexcept {
    return a.num_cells_ == b.num_cells_ && a.bits_ == b.bits_;
  }
  friend bool operator!=(const SmallState& a, const SmallState& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const SmallState& a, const SmallState& b) noexcept {
    if (a.num_cells_ != b.num_cells_) return a.num_cells_ < b.num_cells_;
    return a.bits_ < b.bits_;
  }

 private:
  std::uint16_t bits_ = 0;
  std::uint8_t num_cells_ = 0;
};

std::ostream& operator<<(std::ostream& os, const SmallState& s);

/// State of the simulated n-cell memory.
class MemoryState {
 public:
  MemoryState() = default;

  /// Creates an n-cell memory initialised to `value` (default 0).
  explicit MemoryState(std::size_t num_cells, Bit value = Bit::Zero);

  std::size_t size() const noexcept { return cells_.size(); }

  Bit get(std::size_t address) const;
  void set(std::size_t address, Bit value);
  void flip(std::size_t address);
  void fill(Bit value);

  std::string to_string() const;

  friend bool operator==(const MemoryState& a, const MemoryState& b) noexcept {
    return a.cells_ == b.cells_;
  }
  friend bool operator!=(const MemoryState& a, const MemoryState& b) noexcept {
    return !(a == b);
  }

 private:
  std::vector<std::uint8_t> cells_;  // 0 or 1 per cell
};

std::ostream& operator<<(std::ostream& os, const MemoryState& s);

}  // namespace mtg
