// Operational semantics of fault primitives: the faulty-memory machine.
//
// A FaultyMemory is an n-cell memory with a set of *bound* fault primitives
// (FPs instantiated at concrete addresses).  It executes read/write/wait
// operations with the behavioural deviations the FPs describe.  Both the
// fault simulator (sim/) and the linked-fault checker (fp/linked_fault)
// are built on this single engine, so masking between linked FPs emerges
// from the semantics instead of being special-cased.
//
// Semantics:
//  * Operation-sensitized FPs fire when the operation kind, target address
//    and the *pre-operation* states of their cells match the sensitizer.
//    The sensitization is evaluated on the faulty machine (this is what
//    makes Definition 7's I2 = Fv1 chaining work).  A fired FP forces the
//    victim to its fault value F after the operation's normal effect; if the
//    sensitizing operation is a read of the victim, the returned value is R.
//  * The wait operation `t` is addressed like reads and writes: a march
//    element applies it to every cell in turn, so each cell experiences the
//    pause during its own visit.  A wait sensitizes retention FPs (DRF /
//    CFrt, SenseOp::Wt) whose victim is the visited cell: the cell decays to
//    its fault value.  Decay is idempotent (the decayed state no longer
//    matches the sensitizing state), so the number of waits between
//    refreshing writes does not matter — one models "a pause long enough".
//  * State faults (SF / CFst) are edge-triggered: a state fault fires when
//    its state condition *becomes* true; after firing it re-arms only once
//    the condition has been false again.  Each fault instance fires at most
//    once per memory operation (a static fault is sensitized by at most one
//    operation by definition), which keeps mutually-opposing state faults
//    from oscillating forever.
//  * power_on(state) models test start: the memory content is forced and
//    state faults settle once.
//  * Address-decoder faults (fp/decoder_fault.hpp) corrupt the *addressing*
//    instead of the cell behaviour: operations addressed at the bound
//    decoder fault's corrupted address are dropped, redirected or fanned out
//    per its class before they reach any cell.  A faulty machine carries
//    either fault primitives or (at most one) decoder fault, never both —
//    the decoder deviation is in the select path, and combining it with
//    cell-level FPs in one instance is out of scope.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/state.hpp"
#include "fp/decoder_fault.hpp"
#include "fp/fault_primitive.hpp"

namespace mtg {

/// A fault primitive bound to concrete cell addresses.
struct BoundFp {
  FaultPrimitive fp;
  std::size_t a_cell = 0;  ///< aggressor address; equals v_cell for 1-cell FPs
  std::size_t v_cell = 0;  ///< victim address

  BoundFp(FaultPrimitive f, std::size_t a, std::size_t v);

  /// Single-cell convenience binder.
  static BoundFp at(FaultPrimitive f, std::size_t cell) {
    return BoundFp(std::move(f), cell, cell);
  }

  std::string to_string() const;
};

class FaultyMemory {
 public:
  /// Fault-free memory of `num_cells` cells.
  explicit FaultyMemory(std::size_t num_cells)
      : FaultyMemory(num_cells, {}) {}

  /// `decoders` holds at most one bound decoder fault, and only when
  /// `faults` is empty (see the class comment).
  FaultyMemory(std::size_t num_cells, std::vector<BoundFp> faults,
               std::vector<BoundDecoder> decoders = {});

  std::size_t num_cells() const noexcept { return state_.size(); }

  /// Forces the memory content (power-on / test start), re-arms every state
  /// fault and lets state faults settle once on the initial content.
  void power_on(const MemoryState& initial);

  /// Convenience: power on with every cell holding `value`.
  void power_on_uniform(Bit value);

  /// Performs a write; fault effects applied per the class comment.
  void write(std::size_t address, Bit value);

  /// Performs a read and returns the (possibly faulty) value.
  Bit read(std::size_t address);

  /// Performs the wait operation `t` on the visited cell: retention FPs
  /// whose victim is `address` decay it to their fault value (no default
  /// content change otherwise).
  void wait(std::size_t address);

  const MemoryState& state() const noexcept { return state_; }

  /// Number of times fault #i fired since the last power_on.
  std::size_t fire_count(std::size_t fault_index) const;

  /// Total number of FP firings since the last power_on.
  std::size_t total_fires() const noexcept { return total_fires_; }

 private:
  enum class OpTarget { Write, Read, Wait };

  /// Evaluates operation-sensitized FPs against the pre-op state, applies the
  /// default operation effect, fault overrides and state-fault settling.
  /// Returns the value delivered by a read.  Allocation-free (hot path of
  /// the generation engine).
  Bit apply(OpTarget target, std::size_t address, Bit written);

  /// Must be called on the pre-operation state (before mutation).
  bool op_matches(const BoundFp& bound, OpTarget target, std::size_t address,
                  Bit written) const;
  bool state_condition_holds(const BoundFp& bound) const;
  void settle_state_faults(std::uint32_t& fired_this_op);
  void rearm_state_faults();

  MemoryState state_;
  std::vector<BoundFp> faults_;
  std::vector<BoundDecoder> decoders_;  // at most one; excludes faults_
  std::vector<bool> armed_;             // state faults only (true = may fire)
  std::vector<std::size_t> fire_counts_;
  std::size_t total_fires_ = 0;
};

}  // namespace mtg
