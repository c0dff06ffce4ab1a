// Two- and three-valued logic values used throughout the library.
//
// The paper (Definition 1) works with the state alphabet C = {0, 1, -} where
// '-' is a don't-care.  We model concrete stored values with mtg::Bit and
// pattern values (which may be don't-care) with mtg::Tri.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/error.hpp"

namespace mtg {

/// Number of set bits in a 64-bit word (the packed engine's lane words).
/// The builtin-free implementation is exposed separately so the non-GNU
/// branch can be unit-tested on every toolchain.
inline std::size_t popcount64_portable(std::uint64_t word) noexcept {
  std::size_t count = 0;
  while (word != 0) {
    word &= word - 1;
    ++count;
  }
  return count;
}

inline std::size_t popcount64(std::uint64_t word) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<std::size_t>(__builtin_popcountll(word));
#else
  return popcount64_portable(word);
#endif
}

/// A concrete memory cell value.
enum class Bit : std::uint8_t { Zero = 0, One = 1 };

/// Returns the complementary value (0 <-> 1).
constexpr Bit flip(Bit b) noexcept {
  return b == Bit::Zero ? Bit::One : Bit::Zero;
}

/// Converts a Bit to its integer value (0 or 1).
constexpr int to_int(Bit b) noexcept { return b == Bit::One ? 1 : 0; }

/// Converts 0/1 to a Bit; throws mtg::Error on any other value.
inline Bit bit_from_int(int v) {
  if (v != 0 && v != 1) {
    throw Error("bit value must be 0 or 1, got " + std::to_string(v));
  }
  return v == 1 ? Bit::One : Bit::Zero;
}

/// Converts a Bit to '0' or '1'.
constexpr char to_char(Bit b) noexcept { return b == Bit::One ? '1' : '0'; }

/// Parses '0' or '1' into a Bit; throws mtg::Error otherwise.
inline Bit bit_from_char(char c) {
  if (c != '0' && c != '1') {
    throw Error(std::string("bit character must be '0' or '1', got '") + c +
                "'");
  }
  return c == '1' ? Bit::One : Bit::Zero;
}

std::ostream& operator<<(std::ostream& os, Bit b);

/// A three-valued logic value: 0, 1 or don't-care ('-' in the paper).
enum class Tri : std::uint8_t { Zero = 0, One = 1, X = 2 };

/// Lifts a concrete Bit into a Tri.
constexpr Tri to_tri(Bit b) noexcept {
  return b == Bit::One ? Tri::One : Tri::Zero;
}

/// True when `t` is a concrete (non don't-care) value.
constexpr bool is_concrete(Tri t) noexcept { return t != Tri::X; }

/// Extracts the concrete Bit from a Tri; throws on don't-care.
inline Bit to_bit(Tri t) {
  require(is_concrete(t), "cannot convert don't-care Tri to Bit");
  return t == Tri::One ? Bit::One : Bit::Zero;
}

/// True when `t` matches the concrete value `b` (don't-care matches both).
constexpr bool matches(Tri t, Bit b) noexcept {
  return t == Tri::X || (t == Tri::One) == (b == Bit::One);
}

/// Converts a Tri to '0', '1' or '-'.
constexpr char to_char(Tri t) noexcept {
  return t == Tri::One ? '1' : (t == Tri::Zero ? '0' : '-');
}

/// Parses '0', '1' or '-' into a Tri; throws mtg::Error otherwise.
inline Tri tri_from_char(char c) {
  if (c == '-') return Tri::X;
  return to_tri(bit_from_char(c));
}

std::ostream& operator<<(std::ostream& os, Tri t);

}  // namespace mtg
