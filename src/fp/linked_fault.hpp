// Linked faults — Definitions 6 and 7 of the paper.
//
// A linked fault "FP1 → FP2" is a pair of fault primitives sharing the same
// victim cell where FP2 can mask FP1:
//
//   * F2 = not(F1)                                   (Definition 6)
//   * the AFP chain is consistent: I2 = Fv1, i.e. FP2's sensitizing states
//     hold in the state the faulty memory reaches right after FP1 fires
//     (Definition 7), and
//   * FP1 is maskable (its sensitization does not expose it on the spot).
//
// The *layout* records how the involved cells relate in address order, which
// matters for march address orders: a two-cell linked fault exists in both
// the a<v and a>v versions, a three-cell one in all six orderings of
// (a1, a2, v) — cf. Figure 1 of the paper.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fp/afp.hpp"
#include "fp/fault_primitive.hpp"

namespace mtg {

/// Relative address layout of the cells of a linked fault.  Distinct cells
/// are numbered 0..num_cells-1 in increasing address order.
struct LinkedLayout {
  std::uint8_t num_cells = 1;  ///< number of distinct cells (1, 2 or 3)
  std::int8_t a1_pos = -1;     ///< aggressor of FP1 (-1 when FP1 is 1-cell)
  std::int8_t a2_pos = -1;     ///< aggressor of FP2 (-1 when FP2 is 1-cell)
  std::uint8_t v_pos = 0;      ///< shared victim

  /// Single shared cell (both FPs single-cell).
  static LinkedLayout single_cell();
  /// Two cells: one aggressor role (used by FP1 and/or FP2) plus the victim.
  static LinkedLayout two_cell(std::int8_t a1, std::int8_t a2, std::uint8_t v);
  /// Three cells: two distinct aggressors plus the victim.
  static LinkedLayout three_cell(std::uint8_t a1, std::uint8_t a2, std::uint8_t v);

  /// "v", "a<v", "v<a", "a1<a2<v", ... human-readable layout.
  std::string to_string() const;

  friend bool operator==(const LinkedLayout& x, const LinkedLayout& y) {
    return x.num_cells == y.num_cells && x.a1_pos == y.a1_pos &&
           x.a2_pos == y.a2_pos && x.v_pos == y.v_pos;
  }
};

std::ostream& operator<<(std::ostream& os, const LinkedLayout& layout);

/// Result of checking the linking conditions for an (FP1, FP2, layout) triple.
struct LinkCheck {
  std::string reason;         ///< first failed condition; empty when linked
  bool fully_masked = false;  ///< after the chain: faulty == fault-free
                              ///< and no read exposed a wrong value

  bool linked() const noexcept { return reason.empty(); }
};

/// Decides whether FP1 → FP2 links in `layout`: checks the structural
/// conditions of Definitions 6/7, then runs the canonical two-step chain
/// (FP1's sensitization, then FP2's) on the FaultyMemory engine.  Throws
/// mtg::Error when the layout is incoherent.
///
/// The chain prunes more than the structural conditions: e.g. a state fault
/// never survives as FP2 because it settles within the very operation that
/// sensitizes FP1, so FP1 produces no lasting deviation to mask, and
/// same-aggressor pairs drop out when FP1's operation leaves the aggressor in
/// a state incompatible with FP2's sensitization (I2 = Fv1 over *all* cells).
LinkCheck check_link(const FaultPrimitive& fp1, const FaultPrimitive& fp2,
                     const LinkedLayout& layout);

/// A validated linked fault FP1 → FP2 with its address layout.
class LinkedFault {
 public:
  /// Throws mtg::Error when the triple does not satisfy the linking
  /// conditions (see check_link) or the layout is incoherent.
  LinkedFault(FaultPrimitive fp1, FaultPrimitive fp2, LinkedLayout layout);

  /// The linked fault FP1 → FP2, or nullopt when the triple does not link
  /// (see check_link).  Throws mtg::Error when the layout is incoherent.
  static std::optional<LinkedFault> link(const FaultPrimitive& fp1,
                                         const FaultPrimitive& fp2,
                                         const LinkedLayout& layout);

  const FaultPrimitive& fp1() const noexcept { return fp1_; }
  const FaultPrimitive& fp2() const noexcept { return fp2_; }
  const LinkedLayout& layout() const noexcept { return layout_; }
  int num_cells() const noexcept { return layout_.num_cells; }

  /// True when the canonical chain fully hides the fault (see LinkCheck).
  bool fully_masking() const noexcept { return fully_masking_; }

  /// "TF↑→WDF0 [v]"-style identifier.
  const std::string& name() const noexcept { return name_; }

  friend bool operator==(const LinkedFault& x, const LinkedFault& y) {
    return x.fp1_ == y.fp1_ && x.fp2_ == y.fp2_ && x.layout_ == y.layout_;
  }

 private:
  FaultPrimitive fp1_;
  FaultPrimitive fp2_;
  LinkedLayout layout_;
  bool fully_masking_ = false;
  std::string name_;

  /// Throws mtg::Error unless `check` (check_link of the triple) linked.
  LinkedFault(const FaultPrimitive& fp1, const FaultPrimitive& fp2,
              const LinkedLayout& layout, const LinkCheck& check);
};

std::ostream& operator<<(std::ostream& os, const LinkedFault& lf);

/// A linked pair of AFPs (Definition 7) with the chain invariant I2 = Fv1,
/// plus the linked test patterns TP1 → TP2 covering them (Equation 8).
struct LinkedAfpPair {
  Afp afp1;
  Afp afp2;
  TestPattern tp1;
  TestPattern tp2;
};

/// Expands a linked fault onto a `model_cells`-cell model memory.  `cells`
/// maps layout positions to model cells (ascending, one entry per distinct
/// cell).  Enumerates the free-cell backgrounds like expand_afps.
std::vector<LinkedAfpPair> expand_linked_afps(const LinkedFault& lf,
                                              const std::vector<std::size_t>& cells,
                                              std::size_t model_cells);

}  // namespace mtg
