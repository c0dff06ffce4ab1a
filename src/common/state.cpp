#include "common/state.hpp"

#include <cassert>
#include <ostream>

#include "common/error.hpp"

namespace mtg {

SmallState::SmallState(std::size_t num_cells) : SmallState(num_cells, 0) {}

SmallState::SmallState(std::size_t num_cells, std::uint16_t bits)
    : bits_(bits), num_cells_(static_cast<std::uint8_t>(num_cells)) {
  if (num_cells < 1 || num_cells > kMaxCells) {
    throw Error("SmallState supports 1.." + std::to_string(kMaxCells) +
                " cells, got " + std::to_string(num_cells));
  }
  require(num_cells == kMaxCells || bits < (1u << num_cells),
          "SmallState bits out of range for cell count");
}

SmallState SmallState::from_string(std::string_view text) {
  require(!text.empty(), "SmallState::from_string: empty string");
  SmallState s(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) s.set(i, bit_from_char(text[i]));
  return s;
}

Bit SmallState::get(std::size_t cell) const {
  require(cell < num_cells_, "SmallState::get: cell index out of range");
  return (bits_ >> cell) & 1u ? Bit::One : Bit::Zero;
}

void SmallState::set(std::size_t cell, Bit value) {
  require(cell < num_cells_, "SmallState::set: cell index out of range");
  if (value == Bit::One) {
    bits_ = static_cast<std::uint16_t>(bits_ | (1u << cell));
  } else {
    bits_ = static_cast<std::uint16_t>(bits_ & ~(1u << cell));
  }
}

void SmallState::flip(std::size_t cell) { set(cell, mtg::flip(get(cell))); }

SmallState SmallState::uniform(std::size_t num_cells, Bit value) {
  SmallState s(num_cells);
  for (std::size_t i = 0; i < num_cells; ++i) s.set(i, value);
  return s;
}

std::string SmallState::to_string() const {
  std::string out(num_cells_, '0');
  for (std::size_t i = 0; i < num_cells_; ++i) out[i] = to_char(get(i));
  return out;
}

std::ostream& operator<<(std::ostream& os, const SmallState& s) {
  return os << s.to_string();
}

MemoryState::MemoryState(std::size_t num_cells, Bit value)
    : cells_(num_cells, static_cast<std::uint8_t>(to_int(value))) {
  require(num_cells >= 1, "MemoryState needs at least one cell");
}

Bit MemoryState::get(std::size_t address) const {
  assert(address < cells_.size() && "MemoryState::get: address out of range");
  return cells_[address] ? Bit::One : Bit::Zero;
}

void MemoryState::set(std::size_t address, Bit value) {
  assert(address < cells_.size() && "MemoryState::set: address out of range");
  cells_[address] = static_cast<std::uint8_t>(to_int(value));
}

void MemoryState::flip(std::size_t address) { set(address, mtg::flip(get(address))); }

void MemoryState::fill(Bit value) {
  for (auto& c : cells_) c = static_cast<std::uint8_t>(to_int(value));
}

std::string MemoryState::to_string() const {
  std::string out(cells_.size(), '0');
  for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = to_char(get(i));
  return out;
}

std::ostream& operator<<(std::ostream& os, const MemoryState& s) {
  return os << s.to_string();
}

}  // namespace mtg
