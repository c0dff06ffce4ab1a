// Address-decoder fault models: faults whose sensitization depends on
// address *bits*, not just on the relative order of the involved cells.
//
// The classical decoder fault taxonomy (van de Goor) distinguishes four
// functional faults of the address decode logic:
//
//   * AFna — no access:        a certain address selects no cell;
//   * AFwc — wrong cell:       a certain address selects a different cell;
//   * AFmc — multiple cells:   a certain address selects several cells;
//   * AFma — multiple addrs:   a certain cell is selected by several
//                              addresses.
//
// We model each as the localized consequence of one broken address-decode
// line `bit`: the corrupted address a and its partner v = a XOR 2^bit are the
// only cells whose behaviour deviates.  Operational semantics, per class
// (ops addressed at any other cell behave normally):
//
//   * NoAccess          — ops addressed at `a` select no cell: writes and
//     waits are dropped; a read senses the floating data line, which couples
//     to the driver of the broken address line, so it returns *bit `bit` of
//     the applied address a*.  This read-back is a function of the absolute
//     address, so instances of one fault behave differently: behaviour
//     classes (PackedFaultSim::signature()) split on that bit, which for the
//     two-cell classes also says whether a lies before or after v.
//   * WrongCell         — ops addressed at `a` are redirected wholly to `v`:
//     reads at a return v's value, writes at a write v, and cell a itself is
//     frozen at its power-on content (it is never selected).
//   * MultipleCells     — ops addressed at `a` select both a and v: writes
//     write both cells; a read senses the two cells fighting on the data
//     line, modeled as wired-OR (`wired` = 1) or wired-AND (`wired` = 0).
//   * MultipleAddresses — only the *write* decode path of `a` is corrupted:
//     writes at a land on v (cell v is written through two addresses, a and
//     v), while reads at a still return cell a — which therefore exposes its
//     stale power-on content.
//
// Decoder fault instances carry no fault primitives: the deviation is in the
// addressing, not in the cell behaviour, and combining both in one instance
// is out of scope (FaultyMemory / PackedFaultSim enforce this).  Waits at
// the broken address are inert — retention decay is a cell-level FP effect
// and no retention FP can be bound to a decoder instance.
//
// Why coverage now depends on n: a decoder fault on address line `bit`
// exists only in memories that *have* that line (2^bit < n), so the fraction
// of decoder_fault_list() that is even instantiable — and hence coverable —
// grows with the memory size.  This is what bends the sweep_coverage curve
// that is provably flat for the cell-array fault library (march elements
// treat cells uniformly, so pure-FP detection depends only on relative
// order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bit.hpp"

namespace mtg {

/// The four classical address-decoder fault classes.
enum class DecoderFaultClass : std::uint8_t {
  NoAccess,           ///< AFna — the address selects no cell
  WrongCell,          ///< AFwc — the address selects the partner cell instead
  MultipleCells,      ///< AFmc — the address selects both cells
  MultipleAddresses,  ///< AFma — writes at the address land on the partner
};

std::string to_string(DecoderFaultClass cls);

/// One abstract decoder fault: a class plus the broken address-decode line.
struct DecoderFault {
  DecoderFaultClass cls = DecoderFaultClass::NoAccess;
  /// The broken address line: the corrupted address a pairs with
  /// v = a XOR 2^bit.  The fault is instantiable only when 2^bit < n.
  std::size_t bit = 0;
  /// MultipleCells only: the wired read-back of the two fighting cells —
  /// wired-OR when One, wired-AND when Zero.  Ignored by the other classes.
  Bit wired = Bit::Zero;

  /// Mnemonic, e.g. "AFna@b3", "AFmc-or@b0".
  std::string name() const;

  friend bool operator==(const DecoderFault& x, const DecoderFault& y) {
    return x.cls == y.cls && x.bit == y.bit && x.wired == y.wired;
  }
  friend bool operator!=(const DecoderFault& x, const DecoderFault& y) {
    return !(x == y);
  }
};

/// A decoder fault bound to concrete addresses: `a_cell` is the corrupted
/// address, `v_cell` its partner a XOR 2^bit (== a_cell for NoAccess, whose
/// deviation involves no second cell).  Construction validates the pairing.
struct BoundDecoder {
  DecoderFault fault;
  std::size_t a_cell = 0;
  std::size_t v_cell = 0;

  BoundDecoder(DecoderFault f, std::size_t a, std::size_t v);

  bool two_cell() const noexcept {
    return fault.cls != DecoderFaultClass::NoAccess;
  }

  /// NoAccess read-back: bit `fault.bit` of the applied address — the
  /// address-dependent value a floating read senses (see the file comment).
  Bit no_access_read_back() const noexcept {
    return ((a_cell >> fault.bit) & 1u) != 0 ? Bit::One : Bit::Zero;
  }

  std::string to_string() const;
};

}  // namespace mtg
