// Fault lists: the target sets of the generation algorithm.
//
// The paper evaluates two lists of *realistic static linked faults* taken
// from Hamdioui et al. [10]:
//
//   * Fault List #1 — single-, two- and three-cell static linked faults;
//   * Fault List #2 — the single-cell static linked faults only.
//
// We rebuild these constructively (the original tables are not in the
// reproduced paper): starting from the complete static FP space we keep every
// ordered pair (FP1, FP2) that satisfies the linking conditions of
// Definitions 6/7 — F2 = not(F1), FP2 sensitized in the state Fv1 the faulty
// memory reaches after FP1 (I2 = Fv1), FP1 maskable — over every address
// layout.  This matches the paper's claim of targeting "the complete set of
// Static Linked Faults".  tests/integration/test_calibration.cpp calibrates
// the lists against the published March SL / March ABL tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fp/decoder_fault.hpp"
#include "fp/fault_primitive.hpp"
#include "fp/linked_fault.hpp"

namespace mtg {

/// A simple (un-linked) fault: one FP plus its address layout.
struct SimpleFault {
  FaultPrimitive fp;
  std::int8_t a_pos = -1;  ///< aggressor position (-1 for single-cell FPs)
  std::uint8_t v_pos = 0;  ///< victim position
  std::string name;

  int num_cells() const noexcept { return fp.num_cells(); }

  static SimpleFault single(FaultPrimitive fp);
  /// Two-cell simple fault; `aggressor_below` selects the a<v layout.
  static SimpleFault coupled(FaultPrimitive fp, bool aggressor_below);

  /// Content equality: the name is presentation metadata (it is derived from
  /// the FP and layout by the factories) and does not participate.
  friend bool operator==(const SimpleFault& x, const SimpleFault& y) {
    return x.fp == y.fp && x.a_pos == y.a_pos && x.v_pos == y.v_pos;
  }
  friend bool operator!=(const SimpleFault& x, const SimpleFault& y) {
    return !(x == y);
  }
};

/// A named list of target faults (simple, linked and/or address-decoder).
struct FaultList {
  std::string name;
  std::vector<SimpleFault> simple;
  std::vector<LinkedFault> linked;
  std::vector<DecoderFault> decoder;

  std::size_t size() const noexcept {
    return simple.size() + linked.size() + decoder.size();
  }

  /// Content equality, name excluded (metadata, like MarchTest::operator==):
  /// two lists that serialize to the same canonical string compare equal —
  /// parse(to_canonical_string(x)) == x is the round-trip contract of the
  /// catalog text format (src/format/fault_list_text.hpp).
  friend bool operator==(const FaultList& x, const FaultList& y) {
    return x.simple == y.simple && x.linked == y.linked &&
           x.decoder == y.decoder;
  }
  friend bool operator!=(const FaultList& x, const FaultList& y) {
    return !(x == y);
  }
};

/// All single-cell static linked faults (both FPs on the victim cell).
std::vector<LinkedFault> enumerate_single_cell_linked_faults();

/// All two-cell static linked faults: same-aggressor CF pairs, CF linked
/// with a single-cell FP, and single-cell FP linked with a CF; each in both
/// the a<v and v<a layouts.
std::vector<LinkedFault> enumerate_two_cell_linked_faults();

/// All three-cell static linked faults: CF pairs with distinct aggressors,
/// in all six address orderings of (a1, a2, v).
std::vector<LinkedFault> enumerate_three_cell_linked_faults();

/// Single-cell linked faults with a retention FP on at least one side of the
/// link (e.g. TF↑→DRF0: a pause masks the transition fault, or DRF0→WDF1:
/// a write destroys the decayed value).  Pairs without a wait sensitizer
/// belong to enumerate_single_cell_linked_faults().
std::vector<LinkedFault> enumerate_retention_linked_faults();

/// True when any FP of the list (simple or linked) carries the wait
/// sensitizer `t` — the generator then proposes wait ops as candidates.
bool targets_retention(const FaultList& list);

/// Fault List #2 of the paper: single-cell static linked faults.
FaultList fault_list_2();

/// Fault List #1 of the paper: single-, two- and three-cell static LFs.
FaultList fault_list_1();

/// All simple (un-linked) static faults: the 12 single-cell FPs plus the 36
/// two-cell FPs in both layouts — the target of March SS; provided for the
/// library's broader use and for baseline experiments.
FaultList standard_simple_static_faults();

/// Data-retention faults: the simple DRF/CFrt faults (CFrt in both layouts)
/// plus the retention linked faults.  Only tests containing `t` ops can
/// cover this list.
FaultList retention_fault_list();

/// Canonical serialization of `list`: one line per fault, built from the
/// primitive fields only (FP notation, numeric layout positions, decoder
/// class/bit/wired), with the list name excluded — it is presentation
/// metadata, and two lists with equal content must serialize identically.
/// Deterministic across runs and platforms; the domain of stable_hash().
/// Format drift is locked by golden hashes in tests/fp/test_fault_list.cpp.
std::string to_canonical_string(const FaultList& list);

/// Stable 64-bit content hash (FNV-1a over to_canonical_string(list)) —
/// one half of the sweep store's record key (store/sweep_store.hpp).
std::uint64_t stable_hash(const FaultList& list);

/// Address-decoder faults (fp/decoder_fault.hpp): the four classical decoder
/// fault classes — no access, wrong cell, multiple cells (wired-AND and
/// wired-OR) and multiple addresses — on every address line
/// bit ∈ [0, max_address_bits).  A fault on line `bit` has instances only in
/// memories with 2^bit < n, so coverage of this list genuinely varies with
/// the simulated memory size (the default 12 lines span n up to 4096).
FaultList decoder_fault_list(std::size_t max_address_bits = 12);

/// A built-in fault list: the name the command line and job files know it
/// by, and its factory.
struct BuiltinFaultList {
  const char* name;
  FaultList (*make)();
};

/// The built-in fault lists, in the order 'mtg_cli lists' prints them:
/// list1, list2, simple, retention and decoder (decoder_fault_list() with
/// its default address lines).
const std::vector<BuiltinFaultList>& builtin_fault_lists();

/// The built-in list called `name`, or nullptr.
const BuiltinFaultList* find_builtin_fault_list(const std::string& name);

/// The built-in list names in table order, separated by ", ".
std::string builtin_fault_list_names();

}  // namespace mtg
