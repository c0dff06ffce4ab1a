// The incremental prefix-state coverage engine: persistent packed lane state
// for a set of fault instances at the end of a march-test prefix.
//
// This is the promoted generator GreedyEngine (formerly an anonymous class in
// src/gen/generator.cpp), grown into the substrate for all three generator
// phases:
//
//  * Greedy construction (phase A): candidate march elements are scored
//    against the tracked prefix state in one batched scan per round
//    (gain_scan): each distinct undetected lane state of an item is
//    replayed once, weighted by the lanes holding it, against 128
//    candidates of one cost at a time (one per lane of a batch word), and
//    hopeless words are pruned against a shared bound that keeps the
//    winner's gain exact.  The words depend only on the candidates, not on
//    the lane state, so pack_candidates() builds them once and every round
//    that scores the same candidates rescans them.
//    The winner is appended with commit(), in parallel over items.  ⇕
//    candidates are scored and committed in their ⇑ reading — the greedy
//    approximation the certification pass repairs.
//  * Incremental certification (phase B, CEGIS): advance() replays only the
//    elements appended since the last sync, with *exact* ⇕ resolution — when
//    the suffix contains a ⇕ element the scenario lanes are expanded in
//    place (every existing scenario splits into its ⇑ and ⇓ reading of the
//    new element), which is sound because march tests only grow at the end:
//    the new scenarios agree with their parent scenario on the entire
//    already-simulated prefix.  Instances detected under every scenario are
//    dropped permanently (classic fault dropping — detection is sticky and
//    appended elements can only add detections), so each CEGIS round scans
//    only the survivors.
//  * Checkpointed minimization (phase C, on the same persistent engine as
//    phase B): with record_checkpoints the engine snapshots every item's
//    lane blocks at each element boundary, as plain-data copies appended to
//    one flat buffer per item.  The scenario layout before an element is the
//    same for every item, so one table of per-element start offsets serves
//    all buffers.  A "drop element i / drop op j" trial copies the
//    checkpoint before the edit into per-chunk scratch and replays only the
//    suffix (trial_covers()), bailing out at the first surviving undetected
//    instance; an accepted edit re-syncs via advance(), which rewinds to the
//    longest unedited prefix: it truncates each buffer to the edit point,
//    keeping its capacity, so re-recording the suffix allocates nothing.
//    Items that were fully detected strictly before the edit point —
//    including items phase B dropped there — are skipped outright: their
//    detection only depends on the unchanged prefix.
//  * The final report: verdict() reads each item's certification verdict
//    against the recorded prefix, so the generator reports coverage without
//    re-simulating what the engine has already proved.
//
// Every entry point that walks the items (construction, advance, commit,
// trial_covers) spreads them over a bounded ThreadPool in chunks of 32 when
// given one.  Items are independent and every reduction runs in item
// order, so results — verdicts, lane state and work counters — are
// identical for every thread count.
//
// Exactness: advance() (rewinds included) and trial_covers() reproduce the
// packed full-run verdicts (sim/packed_engine.hpp packed_run) bit for bit.
// Fully detected blocks are frozen (not advanced further) exactly like the
// full runner; their stale cell values are unobservable because detection
// is sticky.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"
#include "sim/packed_engine.hpp"

namespace mtg {

class ThreadPool;  // common/parallel.hpp

class PrefixEngine {
 public:
  /// "Not detected (yet)" marker for element indices.
  static constexpr std::size_t kNever = ~std::size_t{0};

  /// Work counters, cumulative since construction.
  struct Stats {
    /// March elements replayed, counted per (instance, element) — the unit
    /// the minimizer's trial-cost guarantee is stated in: a from-scratch
    /// rescan of t trials costs ~ t × items × elements replays, a
    /// checkpointed trial only the replayed suffix of the surviving items.
    std::size_t element_replays = 0;
  };

  /// Builds the engine from `classes` (behaviour_classes()): one item per
  /// class, in the given order, standing for its weight, simulated to the
  /// end of `prefix`.  Every representative must fit the packed
  /// representation (the PackedFaultSim constructor) and address a
  /// `memory_size`-cell memory; the prefix must respect
  /// kMaxAnyOrderElements (sim/simulator.hpp).  `record_checkpoints` keeps
  /// per-element lane snapshots (required by trial_covers and rewinding
  /// advance).  `pool` spreads construction over worker threads when
  /// non-null (the result is identical for every thread count).
  PrefixEngine(std::size_t memory_size,
               const std::vector<BehaviourClass>& classes,
               const MarchTest& prefix, bool record_checkpoints,
               ThreadPool* pool = nullptr);

  // -- Prefix bookkeeping ----------------------------------------------------

  /// The march-test prefix the lane state corresponds to.  commit() appends
  /// greedy candidates to the state *without* extending this recorded prefix
  /// (the greedy ⇕-as-⇑ reading is an approximation, see the file comment);
  /// once commit() has been called the exact entry points below refuse to
  /// run.
  const MarchTest& prefix() const noexcept { return prefix_; }

  // -- Greedy interface (phase A and CEGIS extension rounds) -----------------

  std::size_t undetected_instances() const;

  /// Fault-list indices of the instances still undetected.
  std::set<std::size_t> undetected_fault_indices() const;

  /// Marks every instance of the given faults as out of scope (uncoverable).
  /// Excluded faults stay dropped across advance(), rewinds included.
  void exclude_faults(const std::set<std::size_t>& fault_indices);

  /// Candidates packed into 128-lane batch words (ElementBatch) for
  /// gain_scan.  A word holds candidates of one sweep direction (⇕ reads as
  /// ⇑) and one cost, member m on lane m.  Words depend only on the
  /// candidates, so one packing serves every scan of the same candidates,
  /// on any engine.
  struct CandidateWords {
    struct Word {
      ElementBatch batch;
      std::vector<std::size_t> members;  ///< candidate indices, lane order
      double cost = 0.0;                 ///< every member's
    };
    std::vector<Word> words;
    std::size_t candidates = 0;  ///< number of candidates packed
  };

  /// Packs `candidates` (`traces[i]` must be candidates[i]'s compiled
  /// trace) from the candidates stably sorted by (direction, cost),
  /// cheapest first per direction, so a cheap candidate never keeps a word
  /// of costly ones alive and the cheap words set the scan's shared bound
  /// early.  The words copy what they need: they hold no pointers.
  static CandidateWords pack_candidates(
      const std::vector<const MarchElement*>& candidates,
      const std::vector<const ElementTrace*>& traces);

  /// Gains of appending each packed candidate: the number of (instance,
  /// scenario) pairs it newly detects, indexed like the candidates given to
  /// pack_candidates.  Scenario granularity matters: an element can make
  /// progress on one power-on polarity only (the complementary polarity
  /// being handled by a later element), which instance-level counting would
  /// miss and stall on.  ⇕ candidates are evaluated in their ⇑ reading (as
  /// the scalar engine did); certification re-resolves ⇕ orders exactly.
  ///
  /// The scan first collapses each live item's undetected lanes, across all
  /// of its blocks, into *units*: one lane state (uniform, val, armed) each,
  /// weighted by the item's weight times the number of lanes holding it
  /// (equal lanes are found with word-wide equality masks against the
  /// lowest unmatched lane).  Every unit is broadcast to all lanes of a
  /// word, replayed by PackedFaultSim::run_batch, and lane l's newly
  /// detected bit credits member l with the unit's weight.  Words are
  /// scanned in parallel on `pool` (inline when null).
  ///
  /// Exactness: run_batch is lane-independent, and under a fixed-order
  /// element a lane's evolution depends only on its (uniform, val, armed)
  /// — its detected bit is clear, and its scenario only chose the orders
  /// of elements already replayed.  So equal lanes detect identically, and
  /// each unit's weighted credit equals the credits its lanes would earn
  /// one by one: the gains equal a lane-by-lane replay's, term for term.
  /// A word replays each unit at most once, and an item has at most as many
  /// units as undetected lanes.
  ///
  /// The scan prunes: a word is abandoned once no candidate in it can reach
  /// the shared bound, i.e. (gain so far + weight of the unscanned units) /
  /// cost < bound for each.  The bound is the exact score gain / cost of some
  /// finished candidate, raised monotonically, so it never exceeds the best
  /// score; the comparison is strict, so a candidate scoring the best is
  /// never abandoned.  Hence every candidate that can win or tie the
  /// score / gain / cost selection gets its exact gain, whatever the thread
  /// count or schedule; abandoned candidates get a lower bound of theirs.
  std::vector<std::size_t> gain_scan(const CandidateWords& packed,
                                     ThreadPool* pool = nullptr) const;

  /// pack_candidates, then gain_scan of the words.
  std::vector<std::size_t> gain_scan(
      const std::vector<const MarchElement*>& candidates,
      const std::vector<const ElementTrace*>& traces,
      ThreadPool* pool = nullptr) const {
    return gain_scan(pack_candidates(candidates, traces), pool);
  }

  /// Appends the candidate to the tracked lane state in the greedy reading
  /// (⇕ runs ⇑), replaying each live item's blocks in place, in parallel
  /// over items on `pool` (inline when null).  Marks the engine
  /// approximate: the recorded prefix no longer matches the lane state
  /// exactly, so advance(), trial_covers() and clone_undetected() refuse to
  /// run afterwards.
  void commit(const MarchElement& candidate, const ElementTrace& trace,
              ThreadPool* pool = nullptr);

  // -- Incremental certification (phase B) -----------------------------------

  /// Syncs the lane state to `test`.  The fast path is the CEGIS shape —
  /// `test` extends the recorded prefix and only the appended suffix is
  /// replayed (with exact ⇕ expansion).  When `test` diverges from the
  /// recorded prefix (the minimizer removed elements or operations), items
  /// are restored from the checkpoint at the longest common prefix and the
  /// remainder is replayed; this requires record_checkpoints.  Items fully
  /// detected within the common prefix stay dropped: their detection
  /// replays unchanged.  `pool` spreads items over worker threads.
  void advance(const MarchTest& test, ThreadPool* pool = nullptr);

  /// Clones the still-undetected (and non-excluded) items into a scratch
  /// engine for a greedy extension round.  The clone starts exact at the
  /// recorded prefix but does not record checkpoints.
  PrefixEngine clone_undetected() const;

  /// Instances dropped because every scenario detected (excluded faults not
  /// counted).
  std::size_t dropped_instances() const;

  /// Tracked instances: the class weights summed (the size of the instance
  /// set the classes stand for).
  std::size_t num_instances() const;

  /// Simulated representatives, one per class (the engine's actual
  /// per-element workload).
  std::size_t num_representatives() const noexcept { return items_.size(); }

  /// An item's verdict against the recorded prefix.
  enum class Verdict : std::uint8_t {
    Detected,    ///< detected in every scenario
    Undetected,  ///< escapes in at least one scenario
    Excluded,    ///< out of scope (exclude_faults); no verdict tracked
  };

  /// The verdict of item `item` (the class at that position of the
  /// constructor's `classes`) against prefix() — equal to
  /// FaultSimulator::detects(prefix(), representative) for every item not
  /// excluded.  Requires an exact engine.
  Verdict verdict(std::size_t item) const;

  // -- Checkpointed trials (phase C) -----------------------------------------

  /// True iff every tracked (non-excluded) instance is detected in every
  /// scenario by the trial test
  ///
  ///     prefix()[0, edit) + (replacement ? *replacement : nothing)
  ///                       + prefix()[edit + 1, ...)
  ///
  /// i.e. element `edit` is dropped (replacement == nullptr) or swapped for
  /// `replacement` (the minimizer's drop-op-j trials).  Restores each item's
  /// checkpoint at `edit` and replays only the suffix, skipping items that
  /// were fully detected strictly before `edit`.  Requires
  /// record_checkpoints and an exact engine; the tracked state is left
  /// untouched.
  ///
  /// Items are spread over `pool` (inline when null).  The verdict is the
  /// AND over all items, so it does not depend on evaluation order.  An
  /// escape lowers a shared "first escape" index and items above it are
  /// skipped, so the scan bails out early on every thread.  element_replays counts the replays of the
  /// items up to the first escape only — exactly what an in-order scan that
  /// stops there would count — so it is identical for every thread count.
  bool trial_covers(std::size_t edit, const MarchElement* replacement,
                    ThreadPool* pool = nullptr);

  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Item {
    std::size_t fault_index = 0;  ///< the representative's fault
    PackedFaultSim sim;  ///< the representative compiled to involved-cell slots
    /// Number of instances this item stands for: instances of one fault
    /// whose packed signatures match (one behaviour class) have
    /// bit-identical lane evolutions, so one representative is
    /// simulated and every count is weighted — sums over items equal the
    /// sums the per-instance set would produce, term for term.
    std::size_t weight = 1;
    std::vector<PackedFaultSim::Lanes> blocks;  ///< scenario lane state
    bool done = false;      ///< dropped: detected everywhere, or excluded
    bool excluded = false;  ///< dropped as uncoverable (never revisited)
    /// Element index whose replay completed detection, kNever otherwise.
    std::size_t detected_at = kNever;
    /// The checkpoints recorded while the item was live, back to back in
    /// one buffer: checkpoint e = `blocks` before element e, in the
    /// scenario layout of prefix elements [0, e), at
    /// [checkpoint_offsets_[e], checkpoint_offsets_[e + 1]).  Recording
    /// appends; a rewind truncates and keeps the capacity.
    std::vector<PackedFaultSim::Lanes> checkpoints;
  };

  /// One element of a replay plan: the element, its compiled trace, and its
  /// ⇕ ordinal (-1 for fixed orders) in the plan's scenario numbering.
  struct Step {
    const MarchElement* element = nullptr;
    const ElementTrace* trace = nullptr;
    int ordinal = -1;
  };

  static bool all_detected(const std::vector<PackedFaultSim::Lanes>& blocks);

  /// Duplicates every scenario of `blocks` into its ⇑/⇓ reading of a new ⇕
  /// element (ordinal = log2(old combos relative)), i.e. grows the scenario
  /// set from 2·combos to 4·combos lanes while preserving the power-on
  /// major, ⇕-mask minor numbering.
  void expand_blocks(std::vector<PackedFaultSim::Lanes>& blocks,
                     std::size_t old_combos) const;

  /// Replays `steps[0, count)` over `blocks` (layout entry: `combos` ⇕
  /// combinations), expanding at ⇕ steps and freezing fully detected
  /// blocks.  Returns the step offset whose replay completed detection, or
  /// kNever.  With `checkpoints` non-null, appends `blocks` to it before
  /// every step.  `local` accumulates work counters (merged into stats_ by
  /// the caller — run_steps runs on worker threads).
  std::size_t run_steps(
      const Item& item, std::vector<PackedFaultSim::Lanes>& blocks,
      std::size_t& combos, const Step* steps, std::size_t count,
      std::vector<PackedFaultSim::Lanes>* checkpoints, Stats& local) const;

  /// Copies `item`'s checkpoint e into `blocks`, reusing its capacity.
  void restore_checkpoint(const Item& item, std::size_t e,
                          std::vector<PackedFaultSim::Lanes>& blocks) const;

  /// Clone/internal constructor: prefix bookkeeping filled by the caller.
  PrefixEngine(std::size_t memory_size, bool record_checkpoints);

  /// Appends bookkeeping (trace, ordinal) for the elements of test[from..].
  void append_plan(const MarchTest& test, std::size_t from);

  /// Shared advance/rewind core: re-syncs every live item from element
  /// `common` (restoring checkpoints when the item's state is past it) and
  /// replays the recorded plan's tail, in parallel over items.
  /// `previous_length` is the element count of the prefix before the sync.
  void sync_items(std::size_t common, std::size_t previous_length,
                  ThreadPool* pool);

  std::size_t memory_size_ = 0;
  bool record_checkpoints_ = false;
  bool approximate_ = false;  ///< a commit() happened; exact APIs refuse

  MarchTest prefix_;
  std::vector<ElementTrace> traces_;  ///< per prefix element
  std::vector<int> ordinals_;         ///< per prefix element: ⇕ ordinal or -1
  std::vector<std::size_t> any_before_;  ///< #⇕ in elements [0, e), e ≤ size
  /// Per e ≤ size: where checkpoint e starts in every item's `checkpoints`.
  /// The layout before element e has 2 · 2^any_before_[e] scenario lanes,
  /// so every item's checkpoint e has the same block count.
  std::vector<std::size_t> checkpoint_offsets_;

  std::vector<Item> items_;
  Stats stats_;
  /// trial_covers scratch: per-item element replays of the last trial.
  std::vector<std::size_t> trial_replays_;
};

}  // namespace mtg
